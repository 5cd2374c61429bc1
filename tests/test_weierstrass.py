import math

import numpy as np
import pytest

from dirac_surface.clifford import basis_square, gauge_rotation
from dirac_surface.dirac import dirac_symbol
from dirac_surface.geometry import frame_at
from dirac_surface.weierstrass import (
    dirac_residual,
    kernel_basis_at,
    reconstruct,
    safe_ratio,
)
from conftest import interior_lattice

STEPS = (1e-2, 5e-3, 2.5e-3)
CORPUS = ["plane", "plane_torus", "graph", "sphere", "clifford", "clifford_rotated"]


# --- kernel basis ------------------------------------------------------------


def test_plane_basis_is_constant(plane):
    basis = kernel_basis_at(plane, (0.3, 0.4))
    assert np.allclose(basis.U, np.eye(4), atol=1e-14)
    for a, psi in enumerate(basis_square()):
        assert np.allclose(basis.psi_square[:, a], psi, atol=1e-14)


@pytest.mark.parametrize("gauged", [False, True])
def test_basis_orthonormality(clifford, gauged):
    basis = kernel_basis_at(clifford, (0.0, 0.0), gauged=gauged)
    gram = basis.cospinor_square().T @ basis.psi_square
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


def test_gauged_basis_is_half_angle_rotation(clifford_rotated):
    plain = kernel_basis_at(clifford_rotated, (0.4, 0.9))
    gauged = kernel_basis_at(clifford_rotated, (0.4, 0.9), gauged=True)
    expected = gauge_rotation(-gauged.theta / 2.0).matrix @ plain.U
    assert np.max(np.abs(gauged.U - expected)) == 0.0


# --- Dirac residual ----------------------------------------------------------


def test_plane_residual_exactly_zero(plane):
    rep = dirac_residual(plane, (0.3, -0.4), steps=STEPS)
    assert max(rep.residual_dirac) <= 1e-14
    assert rep.convergence_ratio == math.inf


@pytest.mark.parametrize("name,pt", [
    ("clifford", (0.4, 0.9)),
    ("graph", (0.3, 0.2)),
    ("sphere", (1.0, 0.7)),
    ("clifford_rotated", (2.0, 1.3)),
])
def test_residual_second_order(name, pt, request):
    spec = request.getfixturevalue(name)
    rep = dirac_residual(spec, pt, steps=(1e-2, 5e-3))
    assert rep.convergence_ratio >= 3.5


def test_gauged_residual_second_order(clifford_rotated):
    rep = dirac_residual(clifford_rotated, (0.4, 0.9), steps=STEPS, gauged=True)
    assert rep.convergence_ratio >= 3.5


def test_residual_linearity_of_combinations(clifford, rng):
    """A kernel combination sum_a b_a psi^[a] has residual bounded by
    max |b_a| times the summed basis residual."""
    s = np.asarray((0.4, 0.9))
    h = 1e-2
    symbol = dirac_symbol(clifford, s)
    center = kernel_basis_at(clifford, s)
    from dirac_surface.weierstrass import _basis_field
    from dirac_surface.dirac import apply_pointwise

    field = _basis_field(clifford, center, False)
    columns = apply_pointwise(symbol, field, s, h)
    basis_residual = float(np.sum(np.linalg.norm(columns, axis=0)))
    for _ in range(5):
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        combo = apply_pointwise(
            symbol, lambda sp: field(sp) @ b, s, h
        )
        assert np.linalg.norm(combo) <= np.max(np.abs(b)) * basis_residual + 1e-12


def test_safe_ratio_floor():
    assert safe_ratio(1e-3, 0.0) == math.inf
    assert safe_ratio(1e-3, 1e-14) == math.inf
    assert safe_ratio(4.0, 1.0) == 4.0


# --- reconstruction ----------------------------------------------------------


def test_plane_reconstruction_exact(plane):
    rep = reconstruct(plane, (0.25, -0.6))
    assert np.array_equal(rep.W, np.eye(4)[:2])
    assert rep.residual_bilinear == 0.0


def test_clifford_reconstruction_at_origin(clifford):
    rep = reconstruct(clifford, (0.0, 0.0))
    r2 = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(rep.W[0] - [0.0, r2, 0.0, 0.0])) <= 1e-10
    assert np.max(np.abs(rep.W[1] - [0.0, 0.0, 0.0, r2])) <= 1e-10


@pytest.mark.parametrize("name", CORPUS)
def test_weierstrass_identity_on_lattice(name, request):
    spec = request.getfixturevalue(name)
    for pt in interior_lattice(spec, 3, 3):
        rep = reconstruct(spec, pt)
        assert rep.residual_bilinear <= 1e-8
        assert rep.max_imag <= 1e-10
        assert rep.orthonormality <= 1e-12


def test_gauged_reconstruction_matches_plain(clifford_rotated):
    for pt in interior_lattice(clifford_rotated, 3, 3):
        plain = reconstruct(clifford_rotated, pt)
        gauged = reconstruct(clifford_rotated, pt, gauged=True)
        assert np.max(np.abs(plain.W - gauged.W)) <= 1e-10
        assert gauged.residual_bilinear <= 1e-8


def test_reconstruct_with_steps_fills_residuals(graph):
    rep = reconstruct(graph, (0.3, 0.2), steps=(1e-2, 5e-3))
    assert rep.residual_dirac is not None
    assert len(rep.residual_dirac) == 2
    assert rep.convergence_ratio >= 3.5


def test_reconstruction_tangents_match_frame(sphere):
    pt = (1.2, 2.5)
    rep = reconstruct(sphere, pt)
    assert np.max(np.abs(rep.T - frame_at(sphere, pt).e)) == 0.0
