import dataclasses
import math

import numpy as np
import pytest

from dirac_surface.clifford import GAMMA, basis_square, gauge_rotation
from dirac_surface.dirac import (
    DimensionCapError,
    NonPeriodicDomainError,
    _chiral_blocks,
    _near_kernel_eigenvalues,
    apply_pointwise,
    assemble_grid_operator,
    dirac_symbol,
    eigenvalues,
    fourier_eigenvalues,
    gauged_dirac_symbol,
    is_constant_coefficient,
    multiset_distance,
    spin_connection_at,
)
from dirac_surface.geometry import connection_at, frame_at, gauge_at, _wrap_angle
from grid_oracles import dense_eigenvalues, dense_grid_matrix


# --- spin connection ---------------------------------------------------------


def test_spin_connection_plane(plane):
    sc = spin_connection_at(plane, (0.2, -0.3))
    assert np.max(np.abs(sc.omega)) == 0.0
    assert np.array_equal(sc.f, np.eye(2))


def test_spin_connection_clifford_constant_metric(clifford):
    sc = spin_connection_at(clifford, (0.4, 0.9))
    assert np.max(np.abs(sc.omega)) <= 1e-10
    assert np.allclose(sc.f, np.eye(2) / math.sqrt(2.0), atol=1e-14)


def test_spin_connection_sphere_closed_form(sphere):
    sc = spin_connection_at(sphere, (1.0, 0.7))
    assert abs(sc.omega[0]) <= 1e-8
    assert abs(abs(sc.omega[1]) - abs(math.cos(1.0))) <= 1e-6


def test_zweibein_reproduces_metric(graph, sphere):
    for spec, pt in ((graph, (0.3, 0.2)), (sphere, (1.2, 2.0))):
        fr = frame_at(spec, pt)
        sc = spin_connection_at(spec, pt)
        assert np.max(np.abs(sc.f.T @ sc.f - fr.g)) <= 1e-12
        assert np.max(np.abs(sc.f @ sc.f_inv - np.eye(2))) <= 1e-12


# --- pointwise symbols -------------------------------------------------------


def test_plane_symbol(plane):
    sym = dirac_symbol(plane, (0.0, 0.0))
    assert np.array_equal(sym.A[0], GAMMA[0])
    assert np.array_equal(sym.A[1], GAMMA[1])
    assert np.max(np.abs(sym.B)) == 0.0


def test_clifford_symbol(clifford):
    sym = dirac_symbol(clifford, (0.4, 0.9))
    assert np.allclose(sym.A[0], math.sqrt(2.0) * GAMMA[0], atol=1e-14)
    assert np.allclose(sym.A[1], math.sqrt(2.0) * GAMMA[1], atol=1e-14)
    # mean-curvature mass block has unit operator norm (half of the trace
    # magnitude 2)
    assert np.linalg.norm(sym.B, 2) == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(sym.B - sym.B.conj().T)) <= 1e-10  # torsion-free


def test_symbol_clifford_relation(graph):
    rng = np.random.default_rng(7)
    for _ in range(5):
        pt = rng.uniform(-0.8, 0.8, size=2)
        fr = frame_at(graph, pt)
        sym = dirac_symbol(graph, pt)
        for a in range(2):
            for b in range(2):
                anti = sym.A[a] @ sym.A[b] + sym.A[b] @ sym.A[a]
                assert np.max(
                    np.abs(anti - 2.0 * fr.g_inv[a, b] * np.eye(4))
                ) <= 1e-10


def test_symbol_hermitian_iff_torsion_free(clifford_rotated, clifford):
    sym = dirac_symbol(clifford, (0.4, 0.9))
    assert np.max(np.abs(sym.B - sym.B.conj().T)) <= 1e-10
    sym_rot = dirac_symbol(clifford_rotated, (0.4, 0.9))
    # working frame carries unit torsion: B picks up an anti-Hermitian part
    assert np.max(np.abs(sym_rot.B - sym_rot.B.conj().T)) > 0.1


def test_gauged_symbol_plane_equals_plain(plane):
    plain = dirac_symbol(plane, (0.1, 0.1))
    gauged = gauged_dirac_symbol(plane, (0.1, 0.1))
    assert gauged.degenerate_gauge
    assert np.max(np.abs(plain.B - gauged.B)) == 0.0
    assert np.max(np.abs(plain.A - gauged.A)) == 0.0


def test_gauged_symbol_clifford_rotated(clifford_rotated):
    """Gauge fixing the rotated torus recovers the invariant-frame
    operator: mass 1/2 * 2 * gamma^3 and no residual gauge field."""
    sym = gauged_dirac_symbol(clifford_rotated, (0.4, 0.9))
    assert np.max(np.abs(sym.B - sym.B.conj().T)) <= 1e-6
    assert np.max(np.abs(sym.mass - GAMMA[2])) <= 1e-8


def test_apply_constant_field_on_plane(plane):
    sym = dirac_symbol(plane, (0.0, 0.0))
    psi = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    out = apply_pointwise(sym, lambda s: psi, (0.0, 0.0), 1e-2)
    assert np.max(np.abs(out)) == 0.0


def test_apply_plane_wave_on_plane(plane):
    sym = dirac_symbol(plane, (0.0, 0.0))
    e1 = basis_square()[0]
    field = lambda s: np.exp(1j * s[0]) * e1
    h = 1e-3
    out = apply_pointwise(sym, field, (0.2, 0.0), h)
    # discrete derivative of exp(i u) is exactly i sin(h)/h exp(i u)
    exact_discrete = 1j * (math.sin(h) / h) * GAMMA[0] @ field((0.2, 0.0))
    assert np.max(np.abs(out - exact_discrete)) <= 1e-12
    analytic = 1j * GAMMA[0] @ field((0.2, 0.0))
    assert np.max(np.abs(out - analytic)) <= 1e-5


def test_gauge_covariance_of_symbols(clifford_rotated, graph):
    """The gauged symbol is the half-angle conjugation of the plain one:
    apply(gauged, psi) = U(-theta/2) apply(plain, U(theta/2) psi), with the
    finite-difference mismatch vanishing at second order."""

    def err(spec, s0, h):
        s0 = np.asarray(s0, dtype=float)
        sym_g = gauged_dirac_symbol(spec, s0)
        sym_p = dirac_symbol(spec, s0)
        th0 = gauge_at(connection_at(spec, s0)).theta
        c = np.array([1.0, 0.3j, -0.2, 0.5 + 0.1j])

        def psi(s):
            return np.exp(1j * (0.7 * s[0] + 0.4 * s[1])) * c

        def rotated(s):
            from dirac_surface.geometry import gauge_angle

            raw, degenerate = gauge_angle(frame_at(spec, s))
            th = th0 if degenerate else th0 + _wrap_angle(raw - th0)
            return gauge_rotation(th / 2.0).matrix @ psi(s)

        lhs = apply_pointwise(sym_g, psi, s0, h)
        rhs = gauge_rotation(-th0 / 2.0).matrix @ apply_pointwise(
            sym_p, rotated, s0, h
        )
        return float(np.linalg.norm(lhs - rhs))

    for spec, pt in ((clifford_rotated, (0.4, 0.9)), (graph, (0.3, 0.2))):
        assert err(spec, pt, 1e-2) / err(spec, pt, 5e-3) >= 3.5


# --- grid operator -----------------------------------------------------------


def test_grid_requires_periodic(sphere):
    with pytest.raises(NonPeriodicDomainError):
        assemble_grid_operator(sphere, 8, 8)


def test_grid_minimum_size(plane_torus):
    with pytest.raises(ValueError):
        assemble_grid_operator(plane_torus, 2, 8)


def test_dimension_cap(plane_torus):
    with pytest.raises(DimensionCapError):
        assemble_grid_operator(plane_torus, 64, 64)


def test_plane_torus_structure(plane_torus):
    op = assemble_grid_operator(plane_torus, 8, 8)
    n = op.dim // 4
    blocks = op.matrix.toarray().reshape(n, 4, n, 4)
    nonzero = np.abs(blocks).max(axis=(1, 3)) > 0
    per_row = nonzero.sum(axis=1)
    assert np.all(per_row <= 5)
    assert np.all(per_row == 4)  # B vanishes on the flat torus
    assert np.max(np.abs(op.site_B)) == 0.0


@pytest.mark.parametrize(
    "name,gauged",
    [
        ("plane_torus", False),
        ("clifford", False),
        ("clifford", True),
        ("clifford_rotated", False),
        ("clifford_rotated", True),
        ("ring_torus", False),
        ("ring_torus", True),
    ],
)
def test_sparse_assembly_matches_dense_oracle(name, gauged, request):
    spec = request.getfixturevalue(name)
    op = assemble_grid_operator(spec, 8, 8, gauged=gauged)
    dense = dense_grid_matrix(spec, 8, 8, gauged=gauged)
    if gauged:
        # the conjugation V_p^dag M_pq V_q sums in another order
        assert np.max(np.abs(op.matrix.toarray() - dense)) <= 1e-15
    else:
        assert np.array_equal(op.matrix.toarray(), dense)
    assert op.matrix.nnz <= 6 * op.dim


@pytest.mark.parametrize(
    "name,n,gauged,zeros",
    [
        ("clifford", 8, False, 0),
        ("clifford", 8, True, 0),
        ("clifford", 12, False, 0),
        ("clifford", 12, True, 0),
        ("clifford_rotated", 8, False, 0),
        ("clifford_rotated", 8, True, 0),
        ("clifford_rotated", 12, False, 0),
        ("clifford_rotated", 12, True, 0),
        # zero modes: sqrt of the squares alone would leave them at ~3e-8
        ("plane_torus", 8, False, 16),
        ("plane_torus", 9, False, 4),
    ],
)
def test_chiral_eigenvalues_match_dense_oracle(name, n, gauged, zeros, request):
    spec = request.getfixturevalue(name)
    op = assemble_grid_operator(spec, n, n, gauged=gauged)
    vals, squares = eigenvalues(op, return_squares=True)
    assert vals.shape == (op.dim,) and squares.shape == (op.dim // 2,)
    assert multiset_distance(vals, dense_eigenvalues(op.matrix.toarray())) <= 1e-12
    near_zero = np.abs(vals) < 1e-10
    assert int(np.sum(near_zero)) == zeros
    assert np.all(np.abs(vals[near_zero]) <= 1e-14)


def test_eigenvalues_reject_same_chirality_entry(clifford):
    op = assemble_grid_operator(clifford, 8, 8)
    eigenvalues(op)
    perturbed = op.matrix.tolil()
    perturbed[5, 4] = 1e-3  # site 1, components 1 and 0: both chirality +
    with pytest.raises(ValueError, match="gamma\\^5"):
        eigenvalues(dataclasses.replace(op, matrix=perturbed.tocsr()))


def test_near_kernel_cluster_size_is_checked(plane_torus):
    op = assemble_grid_operator(plane_torus, 9, 9)
    X, Y = _chiral_blocks(op.matrix)
    # the four zero modes square to two zero eigenvalues of XY
    with pytest.raises(ArithmeticError, match="select 2 and 2"):
        _near_kernel_eigenvalues(X, Y, (X @ Y).toarray(), 1e-3, 3)


def test_clifford_grid_constant_coefficients(clifford):
    op = assemble_grid_operator(clifford, 8, 8)
    assert is_constant_coefficient(op)


def test_clifford_spectrum_closed_form(clifford):
    op = assemble_grid_operator(clifford, 8, 8)
    vals = eigenvalues(op)
    h = 2.0 * math.pi / 8
    predicted = []
    for m in range(-4, 4):
        for n in range(-4, 4):
            lam2 = 1.0 - 2.0 * ((math.sin(m * h) / h) ** 2 + (math.sin(n * h) / h) ** 2)
            root = complex(lam2) ** 0.5
            predicted.extend([root, root, -root, -root])
    assert multiset_distance(vals, predicted) <= 1e-10
    # and the general Fourier oracle agrees
    assert multiset_distance(vals, fourier_eigenvalues(op)) <= 1e-10


def test_plane_torus_spectrum(plane_torus):
    # odd grid: only the (0, 0) mode is annihilated by the central
    # difference, leaving exactly four zeros
    op = assemble_grid_operator(plane_torus, 9, 9)
    vals = eigenvalues(op)
    assert np.max(np.abs(vals.real)) <= 1e-10
    assert int(np.sum(np.abs(vals) < 1e-10)) == 4
    assert multiset_distance(vals, fourier_eigenvalues(op)) <= 1e-10


def test_zero_mode_eigenvalues_insensitive_to_spacing(clifford):
    for n in (8, 16):
        vals = eigenvalues(assemble_grid_operator(clifford, n, n))
        assert np.min(np.abs(vals - 1.0)) <= 1e-10
        assert np.min(np.abs(vals + 1.0)) <= 1e-10


def test_spectrum_symmetry(clifford, plane_torus):
    for spec in (clifford, plane_torus):
        vals = eigenvalues(assemble_grid_operator(spec, 8, 8))
        assert multiset_distance(vals, -np.conj(vals)) <= 1e-8


def test_gauged_and_plain_spectra_agree(clifford_rotated):
    plain = eigenvalues(assemble_grid_operator(clifford_rotated, 8, 8))
    gauged = eigenvalues(assemble_grid_operator(clifford_rotated, 8, 8, gauged=True))
    assert multiset_distance(plain, gauged) <= 1e-8


def _plane_wave_fields(op, spec, modes_phi, modes_psi):
    (lo1, _), (lo2, _) = spec.domain
    c1 = np.array([1.0, 0.2j, -0.4, 0.1 + 0.3j])
    c2 = np.array([0.3, 1.0, 0.5j, -0.2])
    n1, n2 = op.n1, op.n2
    phi = np.zeros(op.dim, dtype=complex)
    psi = np.zeros(op.dim, dtype=complex)
    for j in range(n1):
        for k in range(n2):
            u = lo1 + j * op.h1
            v = lo2 + k * op.h2
            p = 4 * (j * n2 + k)
            phi[p : p + 4] = np.exp(1j * (modes_phi[0] * u + modes_phi[1] * v)) * c1
            psi[p : p + 4] = np.exp(1j * (modes_psi[0] * u + modes_psi[1] * v)) * c2
    return phi, psi


def _ibp_defect(spec, n):
    op = assemble_grid_operator(spec, n, n)
    phi, psi = _plane_wave_fields(op, spec, (1, 2), (2, 2))
    mass_psi = np.zeros_like(psi)
    for s in range(op.dim // 4):
        mass_psi[4 * s : 4 * s + 4] = op.site_mass[s] @ psi[4 * s : 4 * s + 4]
    Dpsi = op.matrix @ psi
    Dphi = op.matrix @ phi
    return abs(
        op.inner(phi, Dpsi) + op.inner(Dphi, psi) - 2.0 * op.inner(phi, mass_psi)
    )


def test_integration_by_parts_converges(ring_torus):
    """The derivative-plus-connection part is skew in the weighted pairing:
    the pairing defect against twice the Hermitian mass block vanishes at
    second order as the grid refines."""
    e8 = _ibp_defect(ring_torus, 8)
    e16 = _ibp_defect(ring_torus, 16)
    assert e8 / e16 >= 3.5


def test_integration_by_parts_flat_exact(clifford):
    # constant coefficients: the defect sits at the rounding floor
    assert _ibp_defect(clifford, 8) <= 1e-10
