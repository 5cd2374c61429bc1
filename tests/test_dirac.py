import dataclasses
import math
import types
import typing

import numpy as np
import pytest

from dirac_surface.clifford import GAMMA, basis_square, gauge_rotation
from dirac_surface import dirac
from dirac_surface.dirac import (
    DimensionCapError,
    NonPeriodicDomainError,
    SpectrumInvariantError,
    _NEAR_KERNEL,
    _HOPS,
    _chiral_stencils,
    _mode_blocks,
    _modes,
    _near_kernel_roots,
    assemble_grid_operator,
    dirac_symbol,
    eigenvalues,
    fourier_mode_distance,
    gauged_dirac_symbol,
    is_constant_coefficient,
    trace_identity_defect,
)
from dirac_surface.corpus import load_corpus
from dirac_surface.geometry import connection_from_frame, frames_at, gauge_angle, gauge_at
from conftest import interior_lattice, rng_seed
from fd_oracles import random_points
import grid_oracles
from grid_oracles import (
    MATCH_WIDTH,
    Matching,
    aligned_grid_frames_by_site,
    chiral_halves,
    decoupled_blocks,
    dense_eigenvalues,
    dense_grid_matrix,
    brute_force_multiset_distance,
    dense_multiset_distance,
    fourier_eigenvalues_by_mode,
    multiset_distance,
    tolerance_groups,
    whole_near_kernel_eigenvalues,
)
from pointwise_oracles import _wrap_angle, apply_pointwise, hatted_symbol


# --- spin connection ---------------------------------------------------------


def _clifford_defect(A, g_inv):
    """max |A^alpha A^beta + A^beta A^alpha - 2 g^{alpha beta} I| over a stack."""
    anti = np.einsum("...aij,...bjk->...abik", A, A)
    anti = anti + np.swapaxes(anti, -4, -3)
    return np.max(np.abs(anti - 2.0 * g_inv[..., None, None] * np.eye(4)))


def test_spin_connection_plane(plane):
    conn = connection_from_frame(frames_at(plane, (0.2, -0.3)))
    assert np.max(np.abs(conn.omega)) == 0.0
    assert _clifford_defect(dirac._symbol(conn).A, np.eye(2)) == 0.0


def test_spin_connection_clifford_constant_metric(clifford):
    conn = connection_from_frame(frames_at(clifford, (0.4, 0.9)))
    assert np.max(np.abs(conn.omega)) <= 1e-10
    assert _clifford_defect(dirac._symbol(conn).A, 2.0 * np.eye(2)) <= 1e-14


def test_spin_connection_sphere_closed_form(sphere):
    omega = connection_from_frame(frames_at(sphere, (1.0, 0.7))).omega
    assert abs(omega[0]) <= 1e-8
    assert abs(abs(omega[1]) - abs(math.cos(1.0))) <= 1e-6


def test_zweibein_reproduces_metric(graph, sphere, clifford_rotated):
    """The coordinate gammas of the zweibein obey the Clifford relation
    of the inverse metric, A^alpha A^beta + A^beta A^alpha = 2 g^{alpha beta} I."""
    for spec in (graph, sphere, clifford_rotated):
        frames = frames_at(spec, np.array(interior_lattice(spec, 3, 3)))
        A = dirac._symbol(connection_from_frame(frames)).A
        assert _clifford_defect(A, frames.g_inv) <= 1e-13 * np.max(np.abs(frames.g_inv))


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
        fr = frames_at(graph, pt)
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
    assert gauge_at(connection_from_frame(frames_at(plane, (0.1, 0.1)))).degenerate
    assert np.max(np.abs(plain.B - gauged.B)) == 0.0
    assert np.max(np.abs(plain.A - gauged.A)) == 0.0


def test_gauged_symbol_clifford_rotated(clifford_rotated):
    """Gauge fixing the rotated torus recovers the invariant-frame
    operator: mass 1/2 * 2 * gamma^3 and no residual gauge field."""
    sym = gauged_dirac_symbol(clifford_rotated, (0.4, 0.9))
    assert np.max(np.abs(sym.B - sym.B.conj().T)) <= 1e-6
    assert np.max(np.abs(sym.mass - GAMMA[2])) <= 1e-8


@pytest.mark.parametrize(
    "name", ["plane", "plane-torus", "graph", "sphere", "clifford", "clifford-rotated"]
)
def test_gauged_symbol_matches_hatted_formula(name):
    """The plain symbol of the gauge-fixed frame is the gauged symbol
    written with the hatted torsion and mass."""
    spec = load_corpus(name)
    S = np.array(random_points(spec, 200, np.random.default_rng(rng_seed())))
    frames = frames_at(spec, S)
    conn = connection_from_frame(frames)
    ref = hatted_symbol(conn, gauge_at(conn))
    sym = gauged_dirac_symbol(spec, S)
    assert np.array_equal(sym.A, ref.A)
    assert np.max(np.abs(sym.B - ref.B)) <= 1e-15
    assert np.max(np.abs(sym.mass - ref.mass)) <= 1e-15


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
        th0 = gauge_at(connection_from_frame(frames_at(spec, s0))).theta
        c = np.array([1.0, 0.3j, -0.2, 0.5 + 0.1j])

        def psi(s):
            return np.exp(1j * (0.7 * s[0] + 0.4 * s[1])) * c

        def rotated(s):
            from dirac_surface.geometry import gauge_angle

            raw, degenerate = gauge_angle(connection_from_frame(frames_at(spec, s)))
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
    blocks = op.matrix.reshape(n, 4, n, 4)
    nonzero = np.abs(blocks).max(axis=(1, 3)) > 0
    per_row = nonzero.sum(axis=1)
    assert np.all(per_row <= 5)
    assert np.all(per_row == 4)  # B vanishes on the flat torus
    assert np.max(np.abs(op.site_B)) == 0.0


@pytest.mark.parametrize("n1,n2", [(4, 4), (5, 5), (8, 8), (4, 9)])
@pytest.mark.parametrize("name", ["plane_torus", "clifford", "clifford_rotated", "ring_torus"])
def test_column_sweep_matches_site_sweep(name, n1, n2, request):
    """Aligning a whole column per call picks every site's candidate as
    the site-by-site sweep does, ties included."""
    spec = request.getfixturevalue(name)
    frames, h1, h2 = dirac._aligned_grid_frames(spec, n1, n2)
    ref, r1, r2 = aligned_grid_frames_by_site(spec, n1, n2)
    assert (h1, h2) == (r1, r2)
    for field in dataclasses.fields(frames):
        assert np.array_equal(getattr(frames, field.name), getattr(ref, field.name)), field.name


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
        assert np.max(np.abs(op.matrix - dense)) <= 1e-15
    else:
        assert np.array_equal(op.matrix, dense)
    assert np.count_nonzero(op.matrix) <= 6 * op.dim


def test_gauged_assembly_signs_each_lift_as_spin_lift(clifford_rotated):
    """Gauged clifford-rotated at 16x16 puts the gauge angle below
    -2 acos(1/4) on 32 sites, where the lift of the gauge rotation is
    minus the half-angle rotation: the assembly matches the dense oracle,
    which signs each site's lift on its own."""
    frames, _, _ = dirac._aligned_grid_frames(clifford_rotated, 16, 16)
    theta = gauge_angle(connection_from_frame(frames))[0]
    assert np.sum(theta < -2.0 * math.acos(0.25)) == 32
    op = assemble_grid_operator(clifford_rotated, 16, 16, gauged=True)
    dense = dense_grid_matrix(clifford_rotated, 16, 16, gauged=True)
    assert np.max(np.abs(op.matrix - dense)) <= 1e-15 * np.max(np.abs(dense))


@pytest.mark.parametrize("name", ["clifford", "clifford_rotated", "ring_torus"])
def test_gauged_operator_keeps_plain_site_symbol(name, request):
    """Gauging conjugates the matrix only: the site arrays hold the plain
    symbol of the aligned working frame either way."""
    spec = request.getfixturevalue(name)
    plain = assemble_grid_operator(spec, 8, 8)
    gauged = assemble_grid_operator(spec, 8, 8, gauged=True)
    for field in ("site_A", "site_B", "site_mass"):
        assert np.array_equal(getattr(gauged, field), getattr(plain, field)), field


@pytest.mark.parametrize(
    "name,n,gauged,zeros",
    [
        ("clifford", 8, False, 0),
        ("clifford", 8, True, 0),
        ("clifford", 12, False, 0),
        ("clifford", 12, True, 0),
        ("clifford", 16, False, 0),
        ("clifford_rotated", 8, False, 0),
        ("clifford_rotated", 8, True, 0),
        ("clifford_rotated", 12, False, 0),
        ("clifford_rotated", 12, True, 0),
        ("ring_torus", 12, False, 0),
        ("ring_torus", 12, True, 0),
        # zero modes: sqrt of the squares alone would leave them at ~3e-8
        ("plane_torus", 8, False, 16),
        ("plane_torus", 9, False, 4),
        # invariant along v alone, with mode blocks that tell m from -m
        ("moebius_clifford", 8, False, 0),
        ("moebius_clifford", 12, False, 0),
        # no invariant direction: the one mode, the whole XY
        ("bump_torus", 8, False, 0),
    ],
)
def test_chiral_eigenvalues_match_dense_oracle(name, n, gauged, zeros, request):
    spec = request.getfixturevalue(name)
    op = assemble_grid_operator(spec, n, n, gauged=gauged)
    vals, by_mode = eigenvalues(op, return_squares=True)
    assert vals.shape == (op.dim,) and by_mode.squares.size == op.dim // 2
    assert multiset_distance(vals, dense_eigenvalues(op.matrix)) <= 1e-12
    near_zero = np.abs(vals) < 1e-10
    assert int(np.sum(near_zero)) == zeros
    assert np.all(np.abs(vals[near_zero]) <= 1e-14)


@pytest.mark.parametrize(
    "name,n,gauged,blocks",
    [
        ("clifford", 16, False, 8),
        ("clifford_rotated", 16, False, 2),
        ("clifford_rotated", 16, True, 2),
        ("clifford_rotated", 9, False, 1),
        ("ring_torus", 12, False, 1),
    ],
)
def test_decoupled_block_counts(name, n, gauged, blocks, request):
    """The squared operator splits into the sublattices its hoppings
    cancel between: parity and spin sublattices on the flat Clifford
    torus, two on the rotated one at even size, none on the rotated one
    at odd size or with a spin connection."""
    op = assemble_grid_operator(request.getfixturevalue(name), n, n, gauged=gauged)
    X, Y = chiral_halves(op.matrix)
    labels = decoupled_blocks(X @ Y)
    sizes = np.bincount(labels)
    assert len(sizes) == blocks
    assert np.all(sizes == op.dim // 2 // blocks)


def test_real_coupling_is_never_dropped(clifford):
    """A cross-sublattice coupling of 1e-9 of the largest entry, added in
    chiral form where the operator has an exact zero: it joins
    sublattices of the squared operator, and the spectrum still matches
    the dense solve of the perturbed operator."""
    op = assemble_grid_operator(clifford, 8, 8)
    stencil = op.stencil.copy()
    # site 0's block towards its neighbour at +e_1; row: chirality +
    # component 0, column: chirality - component 2
    assert stencil[0, 1, 0, 2] == 0.0
    stencil[0, 1, 0, 2] = 1e-9 * np.abs(op.stencil).max()
    perturbed = dataclasses.replace(op, stencil=stencil)
    X, Y = chiral_halves(op.matrix)
    Xp, Yp = chiral_halves(perturbed.matrix)
    assert len(np.bincount(decoupled_blocks(Xp @ Yp))) < len(np.bincount(decoupled_blocks(X @ Y)))
    dense = dense_eigenvalues(perturbed.matrix)
    assert multiset_distance(eigenvalues(perturbed), dense) <= 1e-12


@pytest.mark.parametrize("gauged", [False, True], ids=["plain", "gauged"])
@pytest.mark.parametrize("n1,n2", [(8, 8), (4, 6)])
@pytest.mark.parametrize(
    "name",
    [
        "clifford",
        "plane-torus",
        "clifford-rotated",
        "moebius-clifford",
        "inverted-clifford",
        "bump-torus",
    ],
)
def test_stencil_product_matches_sparse_product(name, n1, n2, gauged):
    """The stencil of XY, scattered into a dense matrix, equals X @ Y of
    the sparse matrix to rounding.  Its offsets land on distinct column
    sites: 13 of them, less one along each direction 4 sites wide, where
    +2 and -2 meet."""
    op = assemble_grid_operator(load_corpus(name), n1, n2, gauged=gauged)
    offsets, XY = dirac._stencil_product(*_chiral_stencils(op.stencil), n1, n2)
    assert len(offsets) == 13 - (n1 == 4) - (n2 == 4)
    sites = np.arange(n1 * n2)
    cols = dirac._column_sites(n1, n2, offsets, sites)
    assert all(len(set(col)) == len(offsets) for col in cols.T)
    dense = np.zeros((2 * n1 * n2, 2 * n1 * n2), dtype=complex)
    for u, col in enumerate(cols):
        for a in range(2):
            for c in range(2):
                dense[2 * sites + a, 2 * col + c] += XY[a, c, u]
    X, Y = chiral_halves(op.matrix)
    ref = (X @ Y).toarray()
    assert np.max(np.abs(dense - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "name,n1,n2", [("clifford", 6, 10), ("moebius_clifford", 10, 8), ("clifford_rotated", 4, 12)]
)
def test_mode_reduction_on_a_non_square_grid(name, n1, n2, request):
    """Each direction's phases and translations use its own grid size."""
    op = assemble_grid_operator(request.getfixturevalue(name), n1, n2)
    vals, residual = eigenvalues(op, return_residual=True)
    assert op.invariant_directions
    assert residual <= 1e-14
    assert multiset_distance(vals, dense_eigenvalues(op.matrix)) <= 1e-12


def test_broken_shift_invariance_is_never_reduced(clifford_rotated):
    """One site's block row of clifford-rotated scaled by 1 + 1e-9: the
    shift defect along v rises from rounding past the bound, v is no
    longer invariant, and the spectrum still matches the dense solve of
    the perturbed operator, now from the one mode, the whole XY."""
    op = assemble_grid_operator(clifford_rotated, 8, 8)
    assert op.invariant_directions == (1,) and op.shift_defect[1] <= 1e-15
    stencil = op.stencil.copy()
    stencil[9] *= 1 + 1e-9  # site 9 = (1, 1)
    perturbed = dataclasses.replace(op, stencil=stencil)
    assert perturbed.shift_defect[1] > dirac._SHIFT_INVARIANT
    assert perturbed.shift_defect[1] >= 1e-10
    assert perturbed.invariant_directions == ()
    vals, residual = eigenvalues(perturbed, return_residual=True)
    assert residual is None
    dense = dense_eigenvalues(perturbed.matrix)
    assert multiset_distance(vals, dense) <= 1e-12


def _counted_solves(monkeypatch):
    """Wrap numpy's ``eigvals`` and ``eig`` to count the blocks each
    call receives, one per matrix of a stack."""
    seen = {"eigvals": 0, "eig": 0}
    for name in seen:
        solve = getattr(np.linalg, name)

        def counted(a, solve=solve, name=name):
            seen[name] += int(np.prod(np.shape(a)[:-2]))
            return solve(a)

        monkeypatch.setattr(dirac.np.linalg, name, counted)
    return seen


@pytest.mark.parametrize(
    "name,n1,n2,solved,modes",
    [
        ("clifford_rotated", 16, 16, 9, 16),
        ("moebius_clifford", 32, 32, 17, 32),
        ("clifford", 16, 16, 130, 256),
        ("bump_torus", 8, 8, 1, 1),
    ],
)
def test_each_mirror_pair_of_modes_is_solved_once(
    name, n1, n2, solved, modes, request, monkeypatch
):
    """J maps mode m to -m, so the solver sees one mode of each mirror
    pair and the self-mirror modes (0 and n/2 along each invariant
    direction): the sampled mode 1 by ``eig``, the others by
    ``eigvals``.  With no invariant direction the one mode is solved."""
    op = assemble_grid_operator(request.getfixturevalue(name), n1, n2)
    assert len(_modes(op, op.invariant_directions)) == modes
    seen = _counted_solves(monkeypatch)
    eigenvalues(op)
    assert seen == {"eigvals": solved - (modes > 1), "eig": int(modes > 1)}


@pytest.mark.parametrize("gauged", [False, True], ids=["plain", "gauged"])
@pytest.mark.parametrize("n1,n2", [(8, 8), (12, 8)])
@pytest.mark.parametrize(
    "name",
    [
        "clifford",
        "plane-torus",
        "clifford-rotated",
        "moebius-clifford",
        "inverted-clifford",
        "bump-torus",
    ],
)
def test_paired_modes_match_a_solve_of_every_mode(name, n1, n2, gauged, monkeypatch):
    """The spectrum with each mirror's squares copied as its partner's
    conjugates, against the same solve with every mode its own mirror,
    so that every mode is solved; the copied squares match their mode's
    own, mode by mode."""
    op = assemble_grid_operator(load_corpus(name), n1, n2, gauged=gauged)
    assert op.antiunitary_defect <= 1e-15
    vals, mine = eigenvalues(op, return_squares=True)
    with monkeypatch.context() as m:
        m.setattr(dirac, "_mirrors", lambda op, invariant: np.arange(len(_modes(op, invariant))))
        every_vals, theirs = eigenvalues(op, return_squares=True)
    assert multiset_distance(vals, every_vals) <= 1e-13 * np.abs(every_vals).max()
    scale = np.abs(theirs.squares).max()
    for a, b in zip(mine.squares, theirs.squares):
        assert multiset_distance(a, b) <= 1e-13 * scale


def _quaternion_rows(op, rng):
    """``op`` with the X half of every site's row multiplied from the left
    by a random quaternion [[a, b], [-conj b, conj a]], one per grid row
    along u.  The product keeps the form that makes J commute with the
    operator, and the invariance along v, but no other symmetry."""
    a, b = rng.normal(size=(2, op.n1)) + 1j * rng.normal(size=(2, op.n1))
    Q = np.stack([np.stack([a, b], -1), np.stack([-b.conj(), a.conj()], -1)], 1)
    Q = np.repeat(Q, op.n2, axis=0)  # site p = j n2 + k takes row j's
    stencil = op.stencil.copy()
    stencil[:, :, :2, 2:] = Q[:, None] @ stencil[:, :, :2, 2:]
    return dataclasses.replace(op, stencil=stencil)


def test_mirror_copied_without_conjugation_fails_the_dense_oracle(moebius_clifford, monkeypatch):
    """A mirror's squares copied from its partner without conjugation.
    On moebius-clifford itself every mode's squares are closed under
    conjugation, although the mirror blocks differ, so the fault moves
    nothing there.  With one random quaternion per u-row it misses the
    dense solve by far, while the antiunitary defect and the sampled
    mode's residual stay at rounding.  The trace identities see it: tr
    XY_m is real there to rounding, so the sums of the squares match
    their mirrors' traces, but the sums of their squares do not."""
    plain = assemble_grid_operator(moebius_clifford, 8, 8)
    mixed = _quaternion_rows(plain, np.random.default_rng(rng_seed()))
    assert mixed.invariant_directions == (1,) and mixed.antiunitary_defect <= 1e-15
    dense_plain, dense_mixed = dense_eigenvalues(plain.matrix), dense_eigenvalues(mixed.matrix)
    vals, by_mode = eigenvalues(mixed, return_squares=True)
    assert multiset_distance(vals, dense_mixed) <= 1e-12
    assert trace_identity_defect(by_mode) <= 1e-14
    assert np.abs(by_mode.traces[:, 0].imag).max() <= 1e-13 * by_mode.norms.max()
    unconjugated = types.SimpleNamespace(**vars(np))
    unconjugated.conj = lambda x: x
    monkeypatch.setattr(dirac, "np", unconjugated)
    vals, by_mode = eigenvalues(plain, return_squares=True)
    assert multiset_distance(vals, dense_plain) <= 1e-12
    assert trace_identity_defect(by_mode) <= 1e-14
    vals, by_mode, residual = eigenvalues(mixed, return_squares=True, return_residual=True)
    assert multiset_distance(vals, dense_mixed) > 1e-2
    assert residual <= 1e-13
    mu, traces, scale = by_mode.squares, by_mode.traces, by_mode.norms
    assert (np.abs(mu.sum(axis=1) - traces[:, 0]) / scale).max() <= 1e-14
    assert trace_identity_defect(by_mode) >= 1e-3


@pytest.mark.parametrize(
    "name,n1,n2,gauged",
    [("clifford", 8, 6, False), ("clifford", 8, 6, True), ("clifford_rotated", 8, 5, False)],
)
def test_one_mode_solve_matches_dense_oracle(name, n1, n2, gauged, request):
    """Coarse grids on which the frame sweep breaks every shift
    invariance: the one mode is the whole XY, solved as one block,
    although XY splits into two sublattices on clifford at 8x6."""
    op = assemble_grid_operator(request.getfixturevalue(name), n1, n2, gauged=gauged)
    assert op.invariant_directions == ()
    vals, residual = eigenvalues(op, return_residual=True)
    assert residual is None
    assert multiset_distance(vals, dense_eigenvalues(op.matrix)) <= 1e-12


@pytest.mark.parametrize(
    "n,zeros,scaled,invariant",
    [
        pytest.param(8, 16, "site", (), id="8-16"),
        pytest.param(9, 4, "site", (), id="9-4"),
        pytest.param(8, 16, "row", (1,), id="8-16-row"),
        pytest.param(9, 4, "row", (1,), id="9-4-row"),
    ],
)
def test_near_kernel_resolve_without_invariant_direction(
    plane_torus, n, zeros, scaled, invariant
):
    """Site 9's block row of plane-torus scaled by 1 + 1e-9 breaks both
    shift invariances, and the rows of grid row j = 2 scaled alike leave
    only v invariant; a row scaling keeps the kernel exactly.  The
    near-kernel modes' operator blocks return every zero mode at
    rounding, and the spectrum matches the dense solve."""
    op = assemble_grid_operator(plane_torus, n, n)
    stencil = op.stencil.copy()
    rows = [9] if scaled == "site" else np.arange(2 * n, 3 * n)
    stencil[rows] *= 1 + 1e-9
    perturbed = dataclasses.replace(op, stencil=stencil)
    assert perturbed.invariant_directions == invariant
    vals = eigenvalues(perturbed)
    assert int(np.sum(np.abs(vals) <= 1e-14)) == zeros
    assert multiset_distance(vals, dense_eigenvalues(perturbed.matrix)) <= 1e-12


def test_eigenvalues_reject_same_chirality_entry(clifford):
    op = assemble_grid_operator(clifford, 8, 8)
    eigenvalues(op)
    stencil = op.stencil.copy()
    stencil[1, 0, 1, 0] = 1e-3  # site 1, components 1 and 0: both chirality +
    with pytest.raises(SpectrumInvariantError, match="gamma\\^5"):
        eigenvalues(dataclasses.replace(op, stencil=stencil))


def _near_kernel_blocks(op):
    """The operator's blocks of the modes that hold near-kernel squares,
    the cut and each such mode's count of them, as ``eigenvalues`` finds
    them."""
    invariant = op.invariant_directions
    modes = _modes(op, invariant)
    _, by_mode = eigenvalues(op, return_squares=True)
    size = np.abs(by_mode.squares)
    small = size <= _NEAR_KERNEL * size.max()
    cut = 0.5 * (size[small].max() + size[~small].min())
    near = small.any(axis=1)
    D = np.moveaxis(op.stencil, (0, 1), (3, 2))
    return _mode_blocks(D, _HOPS, op, invariant, modes[near]), cut, small[near].sum(axis=1)


def test_near_kernel_cluster_size_is_checked(plane_torus):
    """Each near mode's 2k-th least |lambda|^2 must lie at or below the
    cut and the next one above it: a count one too small or one too
    large fails that gap check."""
    op = assemble_grid_operator(plane_torus, 9, 9)
    D, cut, counts = _near_kernel_blocks(op)
    # the four zero modes square to two zero eigenvalues of XY, all of
    # the one-site cell's block of mode (0, 0)
    assert counts.tolist() == [2]
    assert np.max(np.abs(_near_kernel_roots(D, cut, counts))) <= 1e-14
    with pytest.raises(SpectrumInvariantError, match="^near-kernel cluster of 1 squared"):
        _near_kernel_roots(D, cut, counts - 1)
    # grid row j = 2 scaled: the cell is a column of 9 sites, so the
    # block of a near mode holds more than its cluster
    stencil = op.stencil.copy()
    stencil[18:27] *= 1 + 1e-9
    D, cut, counts = _near_kernel_blocks(dataclasses.replace(op, stencil=stencil))
    assert counts.tolist() == [2] and D.shape == (1, 36, 36)
    assert np.max(np.abs(_near_kernel_roots(D, cut, counts))) <= 1e-14
    for wrong in (counts - 1, counts + 1):
        with pytest.raises(SpectrumInvariantError, match="^near-kernel cluster of"):
            _near_kernel_roots(D, cut, wrong)


@pytest.mark.parametrize("n,zeros", [(8, 16), (9, 4), (16, 16)])
def test_blockwise_near_kernel_matches_whole_matrix_oracle(plane_torus, n, zeros):
    """The near-kernel roots from the operator's mode blocks agree with
    those from the sorted Schur forms of the whole dense XY and YX."""
    op = assemble_grid_operator(plane_torus, n, n)
    assert op.invariant_directions == (0, 1)
    D, cut, counts = _near_kernel_blocks(op)
    count = int(counts.sum())
    near = _near_kernel_roots(D, cut, counts)
    whole = whole_near_kernel_eigenvalues(*chiral_halves(op.matrix), cut, count)
    assert near.shape == whole.shape == (2 * count,) == (zeros,)
    assert multiset_distance(near, whole) <= 1e-15
    assert np.max(np.abs(near)) <= 1e-14


def test_near_kernel_labels_yx_blocks_on_its_own():
    """A one-mode chiral pair whose squares fall apart differently:
    XY = A has the blocks {0, 1} and {2, 3}, YX = P^T A P (P swaps
    indices 1 and 2) the blocks {0, 2} and {1, 3}, so the invariant
    subspaces of the small squares differ.  The operator block
    [[0, X], [Y, 0]] needs neither: its four eigenvalues of least
    modulus are +-sqrt of the two small squares, as the whole-matrix
    Schur forms give."""
    import scipy.linalg
    import scipy.sparse

    gen = np.random.default_rng(rng_seed())

    def block(small, big):
        Q = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        return Q @ np.diag([small, big]) @ np.linalg.inv(Q)

    A = scipy.linalg.block_diag(block(1e-6, 3.0), block(4e-6j, 5.0 - 1j))
    P = np.eye(4)[[0, 2, 1, 3]]
    X = scipy.sparse.csr_array(P)
    Y = scipy.sparse.csr_array(P.T @ A)
    assert np.bincount(decoupled_blocks(X @ Y)).tolist() == [2, 2]
    assert decoupled_blocks(Y @ X).tolist() == [0, 1, 0, 1]
    zero = np.zeros((4, 4))
    D = np.block([[zero, X.toarray()], [Y.toarray(), zero]])
    near = _near_kernel_roots(D[None], 1.0, np.array([2]))
    roots = np.sqrt([1e-6, 4e-6j])
    assert multiset_distance(near, np.concatenate([roots, -roots])) <= 1e-12
    assert multiset_distance(near, whole_near_kernel_eigenvalues(X, Y, 1.0, 2)) <= 1e-12


def _shuffled_copy(rng, a, noise):
    """``a`` in random order, each value moved by up to ``noise``."""
    moved = a + noise * (rng.uniform(-1, 1, a.size) + 1j * rng.uniform(-1, 1, a.size))
    return rng.permutation(moved)


@pytest.mark.parametrize("trial", range(5))
def test_grouped_distance_matches_dense_oracle_on_planted_clusters(rng, trial):
    """Random multisets in which most values sit in degenerate clusters,
    matched against a shuffled, slightly moved copy: the grouped distance
    is the dense one, bit for bit."""
    centres = rng.normal(size=12) + 1j * rng.normal(size=12)
    clustered = np.repeat(centres, rng.integers(1, 9, size=12))
    a = np.concatenate([clustered, rng.normal(size=20) + 1j * rng.normal(size=20)])
    for noise in (0.0, 1e-14, 1e-11):
        b = _shuffled_copy(rng, a, noise)
        z = np.concatenate([a, b])
        assert len(tolerance_groups(z, MATCH_WIDTH * np.abs(z).max())) >= 32
        assert multiset_distance(a, b) == dense_multiset_distance(a, b)


def test_grouped_distance_on_purely_imaginary_spectrum(rng):
    """Equal real parts leave the split to the imaginary parts alone."""
    a = 1j * np.repeat(rng.normal(size=30), 4)
    b = _shuffled_copy(rng, a, 1e-13).imag * 1j
    z = np.concatenate([a, b])
    groups = tolerance_groups(z, MATCH_WIDTH * np.abs(z).max())
    assert len(groups) == 30
    assert multiset_distance(a, b) == dense_multiset_distance(a, b)


@pytest.mark.parametrize("spacing,groups", [(0.99, 1), (1.01, 80)])
def test_grouped_distance_on_a_chain(spacing, groups):
    """Values spaced just under the group width w chain into one group
    however long the chain; just over w they split into singletons,
    every one unbalanced, and the widened groups give the distance."""
    w = MATCH_WIDTH * (1.0 + 80 * 1e-8)
    z = 1.0 + spacing * w * np.arange(80)
    a, b = z[0::2], z[1::2]
    assert len(tolerance_groups(z, MATCH_WIDTH * np.abs(z).max())) == groups
    assert multiset_distance(a, b) == dense_multiset_distance(a, b)
    assert multiset_distance(a, b) == pytest.approx(spacing * w, rel=1e-6)


def test_unbalanced_group_falls_back_to_whole_assignment():
    """A group with more values from one side than the other cannot be
    matched within itself: the true distance comes from the whole
    multisets."""
    a = np.array([0.0, 1.0, 2.0, 5.0])
    b = np.array([0.0, 0.0, 2.0, 5.0])
    assert multiset_distance(a, b) == dense_multiset_distance(a, b) == 1.0


def test_grouped_distance_keeps_the_contract():
    with pytest.raises(ValueError, match="equal cardinality"):
        multiset_distance([1.0, 2.0], [1.0])
    assert multiset_distance([1 + 1j], [1 + 1j]) == 0.0


def test_unbalanced_groups_are_widened_several_times(monkeypatch):
    """Every value moved by 1e-5, about 300 group widths: the groups
    stay unbalanced through several doublings, and the widened groups
    give the distance of the whole multisets."""
    widths = []

    def counted(z, width):
        widths.append(width)
        return tolerance_groups(z, width)

    a = np.array([1.0, 2.0, 3.0 + 1j, 2.0 - 0.5j])
    b = a + 1e-5
    monkeypatch.setattr(grid_oracles, "tolerance_groups", counted)
    distance = multiset_distance(a, b)
    assert len(widths) >= 8
    assert widths[-1] >= distance > widths[-2]
    assert distance == dense_multiset_distance(a, b) == brute_force_multiset_distance(a, b)


def test_distance_on_subnormal_and_non_finite_values():
    """A first width that underflows to zero still widens, and values
    with no distance are refused."""
    assert multiset_distance([1e-310, 0.0], [2e-310, 0.0]) == 1e-310
    with pytest.raises(ValueError, match="finite"):
        multiset_distance([np.nan, 1.0], [1.0, 1.0])


def test_balanced_groups_wider_than_their_width_are_widened():
    """Balanced tolerance groups whose own matchings need pairs wider
    than the width prove nothing: pairs across the groups do better, so
    the groups are widened until they hold them."""
    step = 0.3 * MATCH_WIDTH
    a = 1.0 + step * np.array([10 + 5j, 9 + 2j, 3 + 11j])
    b = 1.0 + step * np.array([1 + 5j, 8 + 0j, 5 + 9j])
    z = np.concatenate([a, b])
    groups = tolerance_groups(z, MATCH_WIDTH * np.abs(z).max())
    assert [np.sum(g < a.size) * 2 for g in groups] == [len(g) for g in groups] == [4, 2]
    within = max(
        brute_force_multiset_distance(a[g[g < a.size]], b[g[g >= a.size] - a.size])
        for g in groups
    )
    distance = multiset_distance(a, b)
    assert distance == dense_multiset_distance(a, b) == brute_force_multiset_distance(a, b)
    assert distance < within


@pytest.mark.parametrize("trial", range(4))
def test_distance_matches_brute_force_on_few_values(rng, trial):
    """Up to six values on a coarse lattice, so that pair distances tie,
    some repeated: every pairing tried.  A few percent of such cases need
    an augmenting path beyond the nearest-first pass."""
    for case in range(100):
        n = case % 6 + 1
        a = np.round(rng.normal(size=n) + 1j * rng.normal(size=n), 1)
        b = np.round(a + 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)), 1)
        if case % 3 == trial % 3:
            a[: n // 2 + 1] = a[0]
        expected = brute_force_multiset_distance(a, b)
        assert multiset_distance(a, b) == dense_multiset_distance(a, b) == expected, (a, b)


@pytest.mark.parametrize("a", [[0.0, 1.0], [1.0, 0.0]])
@pytest.mark.parametrize("b", [[1.0, 2.0], [2.0, 1.0]])
def test_distance_does_not_depend_on_order_among_ties(a, b):
    """Both pairings of {0, 1} with {1, 2} have sum 2, one with largest
    pair 1 and one with 2: the least largest pair is 1 in every order."""
    assert multiset_distance(a, b) == 1.0


def test_plane_torus_distances_are_bit_identical_when_shuffled(rng, plane_torus):
    """The degenerate spectrum of the flat torus, in groups of up to 48
    values equal to rounding, which many pairings match almost equally
    well: the value is a quantity of the two multisets, the same bits in
    any order, and the dense oracle's."""
    op = assemble_grid_operator(plane_torus, 8, 8)
    vals, by_mode = eigenvalues(op, return_squares=True)
    squares = by_mode.squares.ravel()
    oracle = fourier_eigenvalues_by_mode(op)
    fourier = multiset_distance(vals, oracle)
    conjugate = multiset_distance(squares, squares.conj())
    assert fourier == dense_multiset_distance(vals, oracle)
    assert conjugate == dense_multiset_distance(squares, squares.conj())
    for _ in range(5):
        assert multiset_distance(rng.permutation(vals), rng.permutation(oracle)) == fourier
        shuffled = rng.permutation(squares)
        assert multiset_distance(rng.permutation(squares), shuffled.conj()) == conjugate


@pytest.mark.parametrize("trial", range(3))
def test_distance_is_never_above_the_sum_optimal_largest_pair(rng, trial):
    """The least largest pair over all matchings is at most the largest
    pair of the matching that minimises the sum."""
    import scipy.optimize

    centres = rng.normal(size=6) + 1j * rng.normal(size=6)
    a = np.repeat(centres, 5) + 1e-3 * rng.normal(size=30)
    b = _shuffled_copy(rng, a, 2e-3)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    distance = multiset_distance(a, b)
    assert distance == dense_multiset_distance(a, b)
    assert distance <= cost[rows, cols].max()


def test_warm_started_matching_agrees_with_a_fresh_one(rng):
    """Searches at rising and falling bounds, each started from the pairs
    of the last, find a perfect matching exactly when one exists (as
    scipy's Hopcroft-Karp finds), within the bound and whose largest pair
    is the value returned."""
    import scipy.sparse
    from scipy.sparse.csgraph import maximum_bipartite_matching

    for _ in range(30):
        n = int(rng.integers(1, 25))
        # a coarse lattice of costs, so that pairs tie
        cost = rng.random((n, n)).round(1)
        warm = Matching(cost)
        for bound in rng.choice(cost.ravel(), size=10):
            within = scipy.sparse.csr_array(cost <= bound)
            exists = (maximum_bipartite_matching(within, perm_type="column") >= 0).all()
            reach = warm.within(bound)
            assert (reach <= bound) == exists == (Matching(cost).within(bound) <= bound)
            if exists:
                assert sorted(warm.owner) == list(range(n))
                assert reach == cost[warm.owner, np.arange(n)].max()


@pytest.mark.parametrize("gauged", [False, True], ids=["plain", "gauged"])
def test_grossly_different_spectra_match_dense_oracle(clifford_rotated, gauged):
    """The lattice spectrum of clifford-rotated lies about 0.7 from the
    Fourier spectrum of one site's symbol, so the tolerance groups widen
    until they hold pairs that far apart, and are bisected with
    warm-started matchings: the distance is the dense oracle's, bit for
    bit."""
    op = assemble_grid_operator(clifford_rotated, 8, 8, gauged=gauged)
    vals, oracle = eigenvalues(op), fourier_eigenvalues_by_mode(op)
    distance = multiset_distance(vals, oracle)
    assert distance > 0.5
    assert distance == dense_multiset_distance(vals, oracle)


def test_values_in_the_wrong_mode_fail_the_per_mode_checks(clifford):
    """The values by mode are the sorted spectrum, unsorted.  Two modes'
    values, or two modes' squares, swapped: the whole multiset is
    unchanged, so a global match sees nothing, but each mode's values
    miss its symbol and each mode's squares miss its traces."""
    op = assemble_grid_operator(clifford, 8, 8)
    vals, by_mode = eigenvalues(op, return_squares=True)
    flat = by_mode.roots.ravel()
    assert np.array_equal(flat[np.lexsort((flat.imag, flat.real))], vals)
    assert trace_identity_defect(by_mode) <= 1e-15 and fourier_mode_distance(op, by_mode) <= 1e-15
    # modes (0, 1) and (0, 2), rows 1 and 2, hold different values
    roots, squares = by_mode.roots.copy(), by_mode.squares.copy()
    roots[[1, 2]], squares[[1, 2]] = roots[[2, 1]], squares[[2, 1]]
    assert multiset_distance(roots.ravel(), by_mode.roots.ravel()) == 0.0
    assert fourier_mode_distance(op, dataclasses.replace(by_mode, roots=roots)) >= 0.1
    assert trace_identity_defect(dataclasses.replace(by_mode, squares=squares)) >= 0.1


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
    assert multiset_distance(vals, fourier_eigenvalues_by_mode(op)) <= 1e-10


@pytest.mark.parametrize(
    "name,n1,n2", [("clifford", 16, 16), ("clifford", 8, 12), ("plane_torus", 9, 9)]
)
def test_fourier_eigenvalues_match_mode_loop(name, n1, n2, request):
    """The library's symbols of every mode, solved as one stack, against
    the oracle's loop of one 4x4 solve per mode."""
    op = assemble_grid_operator(request.getfixturevalue(name), n1, n2)
    assert op.invariant_directions == (0, 1)
    stacked = np.linalg.eigvals(dirac._mode_symbols(op, _modes(op, (0, 1)))).ravel()
    stacked = stacked[np.lexsort((stacked.imag, stacked.real))]
    by_mode = fourier_eigenvalues_by_mode(op)
    assert stacked.shape == by_mode.shape == (op.dim,)
    assert np.max(np.abs(stacked - by_mode)) <= 1e-14


def test_plane_torus_spectrum(plane_torus):
    # odd grid: only the (0, 0) mode is annihilated by the central
    # difference, leaving exactly four zeros
    op = assemble_grid_operator(plane_torus, 9, 9)
    vals = eigenvalues(op)
    assert np.max(np.abs(vals.real)) <= 1e-10
    assert int(np.sum(np.abs(vals) < 1e-10)) == 4
    assert multiset_distance(vals, fourier_eigenvalues_by_mode(op)) <= 1e-10


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


def test_operator_type_hints_resolve():
    """The annotations of the grid operator resolve, to numpy arrays."""
    hints = typing.get_type_hints(dirac.DiscreteOperator)
    assert typing.get_type_hints(dirac.DiscreteOperator.matrix.func)["return"] is np.ndarray
    assert hints["stencil"] is np.ndarray
    assert hints["weight"] is np.ndarray
