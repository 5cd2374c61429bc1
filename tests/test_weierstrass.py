import math

import numpy as np
import pytest

from dirac_surface.clifford import basis_square, gauge_rotation, match_sign, spin_lift
from dirac_surface.corpus import load_corpus
from dirac_surface.dirac import dirac_symbol
from dirac_surface.expr import parse_immersion_file
from dirac_surface.geometry import (
    connection_from_frame,
    frames_at,
    gauge_angle,
    gauge_at,
    _turned,
)
from dirac_surface.weierstrass import RESIDUAL_STEPS, reconstruct, safe_ratio, _stencil
from conftest import interior_lattice, rng_seed
from fd_oracles import random_points
from pointwise_oracles import (
    apply_pointwise,
    basis_field,
    half_angle_field,
    half_angle_lift,
    hatted_symbol,
)

CORPUS = ["plane", "plane_torus", "graph", "sphere", "clifford", "clifford_rotated"]
CORPUS_FILES = ["plane", "plane-torus", "graph", "sphere", "clifford", "clifford-rotated"]

# the first normal pivots on E_0; the bowl x1 keeps t3 < 0 while x2 makes t4
# change sign with u, so the gauge angle crosses the +-pi cut along u = 0
TWISTED_BOWL = """
name: twisted-bowl
params: u v
x1: u*u + v*v
x2: 0.5*u^3
x3: u
x4: v
domain: u -1 1 v -1 1
periodic: false false
"""


# --- kernel basis ------------------------------------------------------------


def test_plane_basis_is_constant(plane):
    U = spin_lift(frames_at(plane, (0.3, 0.4)).rotation()).matrix
    assert np.allclose(U, np.eye(4), atol=1e-14)
    for a, psi in enumerate(basis_square()):
        assert np.allclose(U[:, a], psi, atol=1e-14)


@pytest.mark.parametrize("gauged", [False, True])
def test_basis_orthonormality(clifford, gauged):
    rep = reconstruct(clifford, (0.0, 0.0), gauged=gauged)
    assert rep.orthonormality <= 1e-12


def test_gauged_basis_is_half_angle_rotation(clifford_rotated):
    frame = frames_at(clifford_rotated, (0.4, 0.9))
    theta, degenerate = gauge_angle(connection_from_frame(frame))
    assert not degenerate
    plain = half_angle_lift(frame.rotation())
    gauged = half_angle_lift(frame.rotation(), theta)
    expected = gauge_rotation(-theta / 2.0).matrix @ plain
    assert np.max(np.abs(gauged - expected)) == 0.0


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_gauge_fixed_lift_is_half_angle_rotation(name):
    """The spin lift of the frame turned by the gauge angle is the
    half-angle gauge rotation of the working frame's lift, up to sign."""
    spec = load_corpus(name)
    rng = np.random.default_rng(rng_seed())
    frames = frames_at(spec, np.array(random_points(spec, 200, rng)))
    gauge = gauge_at(connection_from_frame(frames))
    fixed = _turned(frames, gauge.theta, gauge.hat_torsion)
    expected = half_angle_lift(frames.rotation(), gauge.theta)
    U = match_sign(spin_lift(fixed.rotation()).matrix, expected)
    assert np.max(np.abs(U - expected)) <= 1e-15


# --- Dirac residual ----------------------------------------------------------


def test_plane_residual_exactly_zero(plane):
    rep = reconstruct(plane, (0.3, -0.4))
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
    rep = reconstruct(spec, pt)
    assert rep.convergence_ratio >= 3.5


def test_gauged_residual_second_order(clifford_rotated):
    rep = reconstruct(clifford_rotated, (0.4, 0.9), gauged=True)
    assert rep.convergence_ratio >= 3.5


def test_gauged_residual_across_angle_cut(sphere):
    """Gauge angles on and across the +-pi cut need no unwrapping.

    On the sphere t4 vanishes, so the angle sits on the cut at -pi where
    t3 < 0; on the twisted bowl the probes of each point straddle it."""
    bowl = parse_immersion_file(TWISTED_BOWL)
    for spec, points in (
        (sphere, interior_lattice(sphere, 3, 3)),
        (bowl, [(0.0, 0.1), (0.004, -0.2), (-0.003, 0.3)]),
    ):
        points = np.array(points)
        probes = points[:, None] + _stencil(RESIDUAL_STEPS).reshape(-1, 2)
        frames = frames_at(spec, np.concatenate([points[:, None], probes], axis=1))
        theta = gauge_angle(connection_from_frame(frames))[0]
        if spec is sphere:
            assert np.any(theta == -math.pi)
        else:
            assert np.all(theta.max(axis=1) > 3.0) and np.all(theta.min(axis=1) < -3.0)
        rep = reconstruct(spec, points, gauged=True)
        assert np.min(rep.convergence_ratio) >= 3.5


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_gauged_residuals_match_half_angle_path(name):
    """The gauge-fixed spinors probe the plain symbol of the gauge-fixed
    frame to the residuals the half-angle spinors gave under the hatted
    symbol."""
    spec = load_corpus(name)
    points = interior_lattice(spec, 3, 3)
    rep = reconstruct(spec, points, gauged=True)
    for i, s in enumerate(points):
        conn = connection_from_frame(frames_at(spec, s))
        symbol = hatted_symbol(conn, gauge_at(conn))
        field, _ = half_angle_field(spec, s)
        residuals = np.array([
            np.max(np.linalg.norm(apply_pointwise(symbol, field, s, h), axis=0))
            for h in RESIDUAL_STEPS
        ])
        assert np.all(np.abs(rep.residual_dirac[i] - residuals) <= 1e-4 * residuals + 1e-15)
        expected = min(safe_ratio(residuals[:-1], residuals[1:]))
        ratio = rep.convergence_ratio[i]
        assert ratio == expected or abs(ratio - expected) <= 1e-3 * expected


def test_residual_linearity_of_combinations(clifford, rng):
    """A kernel combination sum_a b_a psi^[a] has residual bounded by
    max |b_a| times the summed basis residual."""
    s = np.asarray((0.4, 0.9))
    h = 1e-2
    symbol = dirac_symbol(clifford, s)
    field, _, _ = basis_field(clifford, s, False)
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


def test_reconstruct_fills_residuals_at_every_step(graph):
    rep = reconstruct(graph, (0.3, 0.2))
    assert len(rep.residual_dirac) == len(RESIDUAL_STEPS)
    assert rep.convergence_ratio >= 3.5


def test_reconstruction_tangents_match_frame(sphere):
    pt = (1.2, 2.5)
    rep = reconstruct(sphere, pt)
    assert np.max(np.abs(rep.T - frames_at(sphere, pt).e)) == 0.0
