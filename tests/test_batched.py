"""The batched pointwise pipeline against its one-point oracles.

``frames_at``, ``spin_lift``, ``reconstruct`` and the operator symbols
work on stacks of points; ``tests/pointwise_oracles.py`` keeps the
one-point code they replaced.
"""

import math

import numpy as np
import pytest

import pointwise_oracles as oracle
from conftest import interior_lattice
from dirac_surface import cli, weierstrass
from dirac_surface.cli import main
from dirac_surface.clifford import spin_lift
from dirac_surface.corpus import corpus_path, load_corpus
from dirac_surface.dirac import dirac_symbol, gauged_dirac_symbol
from dirac_surface.expr import DomainEvalError, parse_immersion_file
from dirac_surface.geometry import (
    _GS_TOL,
    DegenerateImmersionError,
    FrameBranchError,
    align_frame,
    connection_from_frame,
    frames_at,
    gauge_at,
)
from dirac_surface.weierstrass import RESIDUAL_STEPS, reconstruct, safe_ratio
from fd_oracles import random_points

CORPUS = ("plane", "plane-torus", "graph", "sphere", "clifford", "clifford-rotated")
FRAME_FIELDS = ("x", "e", "d2x", "d3x", "ehat", "n", "g", "g_inv", "det_g", "torsion")


def _pivot(spec, s):
    """The ambient basis vector the oracle's first normal comes from."""
    fr = oracle.frame_at(spec, s)
    for k in range(4):
        if np.linalg.norm(oracle._project_out(np.eye(4)[k], list(fr.ehat))) > _GS_TOL:
            return k


@pytest.mark.parametrize("name", CORPUS)
def test_frames_at_rows_match_oracle(name, rng):
    spec = load_corpus(name)
    points = np.array(random_points(spec, 24, rng))
    if name == "graph":
        # at and next to the origin the first normal pivots on E_2, not E_0
        points = np.concatenate([points, [[0.0, 0.0], [1e-12, 0.0], [-0.00013, 0.00061]]])
        assert len({_pivot(spec, s) for s in points}) > 1
    stack = frames_at(spec, points.reshape(3, -1, 2))
    assert stack.n.shape == (3, len(points) // 3, 2, 4)
    for s, row in zip(points, (stack[i, j] for i in range(3) for j in range(len(points) // 3))):
        ref = oracle.frame_at(spec, s)
        one = frames_at(spec, s)
        for field in FRAME_FIELDS:
            assert np.max(np.abs(getattr(row, field) - getattr(ref, field))) <= 1e-14, field
            assert np.array_equal(getattr(one, field), getattr(ref, field)), field


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def test_spin_lift_stack_matches_oracle(rng):
    # half turns in two planes have tr Q = 0, so the lift reads its left
    # factor off a quaternion other than the identity
    half_turns = [np.diag([-1.0, -1.0, 1.0, 1.0]), np.diag([1.0, -1.0, -1.0, 1.0])]
    R = np.array([_rotation(rng) for _ in range(22)] + half_turns).reshape(4, 6, 4, 4)
    lifted = spin_lift(R).matrix
    assert lifted.shape == (4, 6, 4, 4)
    for rot, U in zip(R.reshape(-1, 4, 4), lifted.reshape(-1, 4, 4)):
        assert np.max(np.abs(U - oracle.spin_lift(rot))) <= 1e-14


@pytest.mark.parametrize("gauged", [False, True], ids=["plain", "gauged"])
@pytest.mark.parametrize("name", CORPUS)
def test_reconstruct_lattice_matches_pointwise_oracle(name, gauged):
    spec = load_corpus(name)
    points = interior_lattice(spec, 3, 3)
    rep = reconstruct(spec, points, gauged=gauged)
    for i, s in enumerate(points):
        ref = oracle.reconstruct(spec, s, gauged, RESIDUAL_STEPS)
        for key in ("W", "T", "torsion", "hat_torsion", "residual_bilinear", "max_imag"):
            assert np.max(np.abs(getattr(rep, key)[i] - ref[key])) <= 1e-14, key
        assert np.max(np.abs(rep.orthonormality[i] - ref["orthonormality"])) <= 1e-14
        assert np.max(np.abs(rep.residual_dirac[i] - ref["residual_dirac"])) <= 1e-13
        ratio, expected = rep.convergence_ratio[i], ref["convergence_ratio"]
        if math.isinf(expected):
            assert ratio == expected
            continue
        # each step's ratio is one of residuals that are within 1e-13 of
        # the oracle's, and their minimum moves no further than one of them
        res = ref["residual_dirac"]
        ratios = safe_ratio(res[:-1], res[1:])
        moves = ratios * (1e-13 / res[:-1] + 1e-13 / res[1:])
        assert abs(ratio - expected) <= np.max(moves[np.isfinite(ratios)])


@pytest.mark.parametrize("symbol", [dirac_symbol, gauged_dirac_symbol])
@pytest.mark.parametrize("name", ["graph", "sphere", "clifford-rotated"])
def test_symbol_stack_matches_point_symbols(name, symbol):
    spec = load_corpus(name)
    S = np.array(interior_lattice(spec, 3, 3)).reshape(3, 3, 2)
    stack = symbol(spec, S)
    assert stack.B.shape == (3, 3, 4, 4)
    degenerate = gauge_at(connection_from_frame(frames_at(spec, S))).degenerate
    assert degenerate.shape == (3, 3)
    for idx in np.ndindex(3, 3):
        one = symbol(spec, S[idx])
        for field in ("A", "B", "mass"):
            assert np.max(np.abs(getattr(stack, field)[idx] - getattr(one, field))) <= 1e-14
        assert degenerate[idx] == gauge_at(connection_from_frame(frames_at(spec, S[idx]))).degenerate


def test_reconstruct_one_point_keeps_scalar_fields(graph):
    rep = reconstruct(graph, (0.3, 0.2))
    assert rep.W.shape == (2, 4) and rep.residual_dirac.shape == (len(RESIDUAL_STEPS),)
    assert isinstance(rep.residual_bilinear, float)
    assert isinstance(rep.convergence_ratio, float)


def test_chunked_lattice_gives_identical_report(tmp_path, monkeypatch):
    # frame's 16 points in passes of 3 end on a one-point pass
    for argv, module, chunk in (
        (["verify", str(corpus_path("clifford-rotated")), "--grid", "4x5", "--gauged"],
         weierstrass, "_CHUNK"),
        (["frame", str(corpus_path("clifford-rotated")), "--grid", "4x4"], cli, "_FRAME_CHUNK"),
    ):
        whole, chunked = tmp_path / "whole.json", tmp_path / "chunked.json"
        assert main([*argv, "--out", str(whole)]) == 0
        monkeypatch.setattr(module, chunk, 3)
        assert main([*argv, "--out", str(chunked)]) == 0
        assert whole.read_bytes() == chunked.read_bytes()


def test_degenerate_point_named_in_stack():
    # d_u x and d_v x = (0, u, 0, 0) are parallel where u = 0
    spec = parse_immersion_file(
        "name: fold\nparams: u v\nx1: u\nx2: u*v\nx3: u*u\nx4: 0\n"
        "domain: u -1 1 v -1 1\nperiodic: false false\n"
    )
    with pytest.raises(DegenerateImmersionError, match=r"s = \(0\.0, 0\.3\)"):
        frames_at(spec, [(0.5, 0.1), (0.0, 0.3), (0.0, 0.4)])


def test_branch_jump_names_first_reference_in_stack(clifford):
    frames = frames_at(clifford, [(0.0, 0.0), (1.5, 1.5), (1.6, 1.6)])
    refs = frames_at(clifford, [(0.0, 0.0), (0.1, 0.2), (0.3, 0.4)])
    with pytest.raises(FrameBranchError, match=r"s = \(0\.1, 0\.2\)"):
        align_frame(frames, refs)


def test_domain_error_names_first_failing_point_over_all_maps():
    # x1 leaves its domain first at the lattice's seventh point, x2 already
    # at the first; the error names the first point of the stack
    spec = parse_immersion_file(
        "name: two-logs\nparams: u v\nx1: log(0.2 - u)\nx2: log(v)\nx3: u*v\nx4: 0\n"
        "domain: u -1 1 v -1 1\nperiodic: false false\n"
    )
    points = interior_lattice(spec, 3, 3)
    with pytest.raises(DomainEvalError, match=r"'log\(v\)'.* at s = \(-0\.5, -0\.5\)"):
        frames_at(spec, points)
    assert math.isfinite(frames_at(spec, (-0.5, 0.5)).det_g)
