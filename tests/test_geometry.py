import math

import numpy as np
import pytest

from dirac_surface.corpus import load_corpus
from dirac_surface.expr import parse_immersion_file
from dirac_surface.geometry import (
    DegenerateImmersionError,
    align_frame,
    connection_at,
    frame_at,
    gauge_at,
    tube_metric_at,
    tube_metrics_at,
)
import dirac_surface.geometry as geometry
from conftest import interior_lattice


def _make_spec(x3="0", x4="0", domain="u -1 1 v -1 1", rotation=None):
    lines = [
        "name: inline",
        "params: u v",
        "x1: u",
        "x2: v",
        f"x3: {x3}",
        f"x4: {x4}",
        f"domain: {domain}",
        "periodic: false false",
    ]
    if rotation is not None:
        lines.append(f"frame_rotation: {rotation}")
    return parse_immersion_file("\n".join(lines))


# --- frames -----------------------------------------------------------------


def test_plane_frame(plane):
    fr = frame_at(plane, (0.37, -0.2))
    assert np.array_equal(fr.ehat, np.eye(4)[:2])
    assert np.array_equal(fr.n, np.eye(4)[2:])
    assert np.array_equal(fr.g, np.eye(2))


def test_clifford_frame_at_origin(clifford):
    fr = frame_at(clifford, (0.0, 0.0))
    r2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(fr.x, [r2, 0.0, r2, 0.0], atol=1e-12)
    assert np.allclose(fr.e[0], [0.0, r2, 0.0, 0.0], atol=1e-12)
    assert np.allclose(fr.g, np.diag([0.5, 0.5]), atol=1e-15)
    assert abs(np.linalg.det(fr.rotation()) - 1.0) <= 1e-12


def test_product_graph_normals():
    spec = _make_spec(x3="u*v")
    fr = frame_at(spec, (0.0, 0.0))
    assert np.allclose(fr.g, np.eye(2), atol=1e-15)
    assert np.allclose(fr.n[0], [0, 0, 1, 0], atol=1e-15)
    assert np.allclose(fr.n[1], [0, 0, 0, 1], atol=1e-15)


def test_tangents_match_position_differences():
    spec = _make_spec(x3="u*v", x4="0.2*sinh(u)")
    s = np.array([0.3, -0.4])
    fr = frame_at(spec, s)
    h = 1e-5
    for alpha in range(2):
        step = np.zeros(2)
        step[alpha] = h
        fd = (frame_at(spec, s + step).x - frame_at(spec, s - step).x) / (2 * h)
        assert np.max(np.abs(fd - fr.e[alpha])) <= 1e-9


def test_degenerate_immersion_rejected():
    spec = _make_spec()
    # x = (u, u, 0, 0) has rank-1 differential everywhere
    bad = parse_immersion_file(
        "name: bad\nparams: u v\nx1: u\nx2: u\nx3: 0\nx4: 0\n"
        "domain: u -1 1 v -1 1\nperiodic: false false\n"
    )
    with pytest.raises(DegenerateImmersionError):
        frame_at(bad, (0.1, 0.1))
    # sanity: the good spec is fine
    frame_at(spec, (0.1, 0.1))


@pytest.mark.parametrize(
    "name", ["plane", "graph", "sphere", "clifford", "clifford_rotated"]
)
def test_frame_orthonormality_on_lattice(name, request):
    spec = request.getfixturevalue(name)
    for pt in interior_lattice(spec, 5, 5):
        fr = frame_at(spec, pt)
        R = fr.rotation()
        assert np.max(np.abs(R.T @ R - np.eye(4))) <= 1e-12
        assert abs(np.linalg.det(R) - 1.0) <= 1e-10


def test_align_frame_candidates(clifford):
    from dataclasses import replace

    ref = frame_at(clifford, (0.4, 0.9))
    flipped = align_frame(replace(ref, n=-ref.n), ref)
    assert np.allclose(flipped.n, ref.n, atol=1e-15)
    swapped = align_frame(replace(ref, n=np.vstack([ref.n[1], -ref.n[0]])), ref)
    assert np.allclose(swapped.n, ref.n, atol=1e-15)


def test_align_frame_reports_branch_jump(clifford):
    from dirac_surface.geometry import FrameBranchError

    # frames at genuinely distant points are not related by any discrete
    # pivot ambiguity: alignment must refuse rather than guess
    ref = frame_at(clifford, (0.0, 0.0))
    far = frame_at(clifford, (0.9, 0.9))
    with pytest.raises(FrameBranchError):
        align_frame(far, ref)


# --- connection -------------------------------------------------------------


def test_plane_connection_vanishes(plane):
    conn = connection_at(plane, (0.3, 0.3))
    assert np.max(np.abs(conn.gamma_tan)) == 0.0
    assert np.max(np.abs(conn.gamma_nor)) <= 1e-14


def test_clifford_trace_invariant(clifford):
    for pt in interior_lattice(clifford, 5, 5):
        conn = connection_at(clifford, pt)
        assert math.hypot(conn.trace3, conn.trace4) == pytest.approx(2.0, abs=1e-8)
        assert np.max(np.abs(conn.torsion)) <= 1e-6


def test_sphere_trace_invariant(sphere):
    conn = connection_at(sphere, (math.pi / 2, 0.0))
    assert math.hypot(conn.trace3, conn.trace4) == pytest.approx(2.0, abs=1e-8)
    assert np.max(np.abs(conn.torsion)) <= 1e-6


def test_torsion_antisymmetry(graph, sphere, clifford_rotated):
    for spec in (graph, sphere, clifford_rotated):
        for pt in interior_lattice(spec, 4, 4):
            conn = connection_at(spec, pt)
            anti = conn.gamma_nor + conn.gamma_nor.transpose(0, 2, 1)
            assert np.max(np.abs(anti)) == 0.0


def test_gauss_relation_fd_consistency(clifford, sphere, graph):
    """The exact mixed coefficients match the frame-differencing estimate
    at second order: the error must drop by >= 3.5 when h halves."""
    for spec, pt in ((clifford, (0.4, 0.9)), (sphere, (1.0, 0.7)), (graph, (0.3, 0.2))):
        fr = frame_at(spec, pt)
        conn = connection_at(spec, pt)

        def fd_error(h):
            worst = 0.0
            for alpha in range(2):
                step = np.zeros(2)
                step[alpha] = h
                fp = align_frame(frame_at(spec, np.asarray(pt) + step), fr)
                fm = align_frame(frame_at(spec, np.asarray(pt) - step), fr)
                dn = (fp.n - fm.n) / (2 * h)
                fd = np.einsum("ni,gi,gb->nb", dn, fr.e, fr.g_inv)
                worst = max(worst, float(np.max(np.abs(fd - conn.gamma_tan[:, alpha, :]))))
            return worst

        assert fd_error(1e-2) / fd_error(5e-3) >= 3.5


def test_frame_rotation_covariance(clifford, clifford_rotated):
    """Declaring a frame rotation shifts the measured torsion by its
    gradient and leaves the mean-curvature magnitude invariant."""
    for pt in interior_lattice(clifford, 3, 3):
        base = connection_at(clifford, pt)
        rot = connection_at(clifford_rotated, pt)
        assert np.max(np.abs(rot.torsion - [1.0, 0.0])) <= 1e-12
        assert np.max(np.abs(base.torsion)) <= 1e-12
        assert math.hypot(rot.trace3, rot.trace4) == pytest.approx(
            math.hypot(base.trace3, base.trace4), abs=1e-8
        )


def test_frame_rotation_covariance_general_angle(clifford):
    rotated = parse_immersion_file(
        "name: c2\nparams: u v\n"
        "x1: cos(u)/sqrt(2)\nx2: sin(u)/sqrt(2)\n"
        "x3: cos(v)/sqrt(2)\nx4: sin(v)/sqrt(2)\n"
        "domain: u 0 2*pi v 0 2*pi\nperiodic: true true\n"
        "frame_rotation: 0.3*u - 0.7*v\n"
    )
    pt = (2.0, 1.1)
    base = connection_at(clifford, pt)
    rot = connection_at(rotated, pt)
    assert np.max(np.abs(rot.torsion - base.torsion - [0.3, -0.7])) <= 1e-6


# --- gauge angle ------------------------------------------------------------


_PLANE = load_corpus("plane")


class _FakeConn:
    """Given traces at a point of the plane: its frame has vanishing second
    and third partials, so the traces have zero gradient and the hatted
    torsion is the working-frame torsion, zero."""

    def __init__(self, t3, t4):
        self.trace3 = t3
        self.trace4 = t4
        self.torsion = np.zeros(2)
        self.frame = frame_at(_PLANE, (0.1, 0.2))


@pytest.mark.parametrize(
    "t3,t4,theta,hat3",
    [
        (2.0, 0.0, 0.0, 2.0),
        (0.0, 3.0, -math.pi / 2, 3.0),
        (1.0, 1.0, -math.pi / 4, math.sqrt(2.0)),
    ],
)
def test_gauge_angle_closed_forms(t3, t4, theta, hat3):
    gd = gauge_at(_FakeConn(t3, t4))
    assert gd.theta == pytest.approx(theta, abs=1e-15)
    assert gd.hat_trace3 == pytest.approx(hat3, abs=1e-15)
    assert gd.hat_trace4 == 0.0
    assert t3 == pytest.approx(gd.hat_trace3 * math.cos(gd.theta), abs=1e-10)
    assert t4 == pytest.approx(-gd.hat_trace3 * math.sin(gd.theta), abs=1e-10)
    assert np.array_equal(gd.hat_torsion, np.zeros(2))


def test_gauge_degenerate_point():
    gd = gauge_at(_FakeConn(0.0, 0.0))
    assert gd.degenerate
    assert gd.theta == 0.0


def test_hat_torsion_invariant_under_frame_rotation(clifford, clifford_rotated):
    """The hatted torsion composes the working-frame torsion with the
    gauge-angle gradient; the combination is frame-invariant and vanishes
    on both presentations of this torus."""
    for pt in [(0.4, 0.9), (2.0, 4.0)]:
        for spec in (clifford, clifford_rotated):
            gd = gauge_at(connection_at(spec, pt))
            assert np.max(np.abs(gd.hat_torsion)) <= 1e-14


# --- tube samples -----------------------------------------------------------


def test_tube_plane_density_exact(plane):
    for q in ((0.0, 0.0), (0.3, -0.2), (0.05, 0.8)):
        ts = tube_metric_at(plane, (0.1, 0.2), q)
        assert abs(ts.rho_exact - 1.0) <= 1e-12
        assert np.max(np.abs(ts.g_tube - np.eye(2))) <= 1e-15


def test_tube_zero_offset_exact(clifford, graph):
    for spec, pt in ((clifford, (0.4, 0.9)), (graph, (0.3, 0.2))):
        fr = frame_at(spec, pt)
        ts = tube_metric_at(spec, pt, (0.0, 0.0))
        assert ts.rho_exact == 1.0
        assert np.max(np.abs(ts.g_tube - fr.g)) == 0.0


def test_tube_metrics_share_one_center_frame(sphere, monkeypatch):
    pt = (1.0, 0.7)
    offsets = [(0.0, 0.0), (0.02, 0.0), (0.01, -0.03)]
    single = [tube_metric_at(sphere, pt, q) for q in offsets]
    calls = []
    frame = geometry.frame_at
    monkeypatch.setattr(geometry, "frame_at", lambda *a: calls.append(a) or frame(*a))
    shared = tube_metrics_at(sphere, pt, offsets)
    # one center frame, then the 8-frame density stencil per non-zero offset
    assert len(calls) == 1 + 8 * 2
    for a, b in zip(single, shared):
        assert np.array_equal(a.g_tube, b.g_tube)
        assert (a.rho_exact, a.rho_leading) == (b.rho_exact, b.rho_leading)
        assert b.frame is shared[0].frame


def test_tube_clifford_leading_density(clifford):
    pt = (0.4, 0.9)
    conn = connection_at(clifford, pt)
    ts = tube_metric_at(clifford, pt, (0.01, 0.0))
    assert ts.rho_leading == pytest.approx((1 + 0.01 * conn.trace3) ** 2, abs=1e-14)
    assert abs(ts.rho_exact - ts.rho_leading) <= 1e-3


@pytest.mark.parametrize(
    "name,pt,direction",
    [
        ("clifford", (0.4, 0.9), (1.0, 1.0)),
        ("graph", (0.3, 0.2), (1.0, 0.0)),
        ("graph", (0.3, 0.2), (0.0, 1.0)),
    ],
)
def test_tube_density_quadratic_error(name, pt, direction, request):
    spec = request.getfixturevalue(name)
    direction = np.asarray(direction) / np.linalg.norm(direction)
    eps = (0.04, 0.02, 0.01)
    diffs = []
    for e in eps:
        ts = tube_metric_at(spec, pt, e * direction)
        diffs.append(abs(ts.rho_exact - ts.rho_leading))
    slope = np.polyfit(np.log(eps), np.log(diffs), 1)[0]
    assert slope >= 1.9


# --- closed forms against the finite-difference oracles ----------------------


@pytest.mark.parametrize(
    "name", ["plane", "graph", "sphere", "clifford", "clifford_rotated"]
)
def test_connections_match_fd_oracles(name, request, rng):
    """Closed-form torsion, spin connection and gauge-fixed torsion agree
    with the aligned Richardson stencils (away from the graph origin,
    where the pivoted normal frame turns too fast for any stencil)."""
    from dirac_surface.dirac import spin_connection_at
    import fd_oracles

    spec = request.getfixturevalue(name)
    for pt in fd_oracles.random_points(spec, 8, rng, avoid=(0.0, 0.0), radius=0.3):
        conn = connection_at(spec, pt)
        assert np.max(np.abs(conn.gamma_nor - fd_oracles.normal_connection(spec, pt))) <= 1e-8
        omega = spin_connection_at(spec, pt).omega
        assert np.max(np.abs(omega - fd_oracles.spin_connection(spec, pt))) <= 1e-8
        hat = gauge_at(conn).hat_torsion
        assert np.max(np.abs(hat - fd_oracles.hat_torsion(spec, pt))) <= 1e-8


def test_hat_torsion_third_partials_match_fd_oracle():
    """On a surface with cubic terms the traces' gradients depend on the
    third partials (they vanish on the graph and do not reach the gauge
    angle on the corpus tori and sphere); the closed form still agrees
    with the differenced gauge angle."""
    import fd_oracles

    spec = _make_spec(
        x3="0.3*u^3 + 0.2*sin(u*v)", x4="0.2*v*cosh(u) - 0.1*v^3", rotation="0.4*u*v"
    )
    for pt in [(0.3, 0.2), (-0.5, 0.4), (0.1, -0.7), (0.6, 0.6)]:
        hat = gauge_at(connection_at(spec, pt)).hat_torsion
        assert np.max(np.abs(hat - fd_oracles.hat_torsion(spec, pt))) <= 1e-8


def test_torsion_survives_alignment(graph):
    """The four alignment candidates leave n3 . d n4 unchanged, so a frame
    re-signed or pivot-traded by ``align_frame`` keeps its torsion."""
    from dataclasses import replace
    import fd_oracles

    pt = (0.3, 0.2)
    fr = frame_at(graph, pt)
    for n in (-fr.n, np.vstack([fr.n[1], -fr.n[0]]), np.vstack([-fr.n[1], fr.n[0]])):
        traded = replace(fr, n=n)
        fd = fd_oracles.normal_connection(graph, pt, center=traded)[:, 0, 1]
        assert np.max(np.abs(fd - traded.torsion)) <= 1e-8

