"""Output checks for the benchmark, computed apart from the library.

Every expected value here comes from closed forms written out below or
from the benchmark's own matching; nothing is taken from ``dirac_surface``.
Each ``check_*`` function takes a parsed report and the op that produced
it and returns a list of failure messages (empty when the output is right).
"""

from __future__ import annotations

import math

import numpy as np

from workloads import DOMAINS


TOL = {
    "tangent": 1e-8,          # verify: reconstructed W against d_alpha x
    "torsion": 1e-6,          # verify: clifford-rotated torsion and hat torsion
    "lattice": 1e-12,         # evaluated points against the requested ones
    "orthonormal": 1e-12,     # frame: Gram matrix of (ehat, n)
    "position": 1e-12,        # frame, parse-check: x against the closed form
    "trace": 1e-10,           # frame: trace_invariant against |H|
    "rho": 1e-12,             # tube: rho_exact at zero offset
    "spectrum": 1e-10,        # spectrum: every multiset comparison
}

TWO_PI = 2.0 * math.pi
R = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# closed-form surfaces: position, first and second partials at (u, v)
# ---------------------------------------------------------------------------


def _plane(u, v):
    x = np.array([u, v, 0.0, 0.0])
    dx = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    return x, dx, np.zeros((2, 2, 4))


def _graph(u, v):
    x = np.array([u, v, 0.1 * u * v, 0.05 * u * u])
    dx = np.array([[1.0, 0.0, 0.1 * v, 0.1 * u], [0.0, 1.0, 0.1 * u, 0.0]])
    d2x = np.zeros((2, 2, 4))
    d2x[0, 0, 3] = 0.1
    d2x[0, 1, 2] = d2x[1, 0, 2] = 0.1
    return x, dx, d2x


def _sphere(u, v):
    su, cu, sv, cv = math.sin(u), math.cos(u), math.sin(v), math.cos(v)
    x = np.array([su * cv, su * sv, cu, 0.0])
    dx = np.array([[cu * cv, cu * sv, -su, 0.0], [-su * sv, su * cv, 0.0, 0.0]])
    d2x = np.array(
        [
            [[-su * cv, -su * sv, -cu, 0.0], [-cu * sv, cu * cv, 0.0, 0.0]],
            [[-cu * sv, cu * cv, 0.0, 0.0], [-su * cv, -su * sv, 0.0, 0.0]],
        ]
    )
    return x, dx, d2x


def _clifford(u, v):
    su, cu, sv, cv = math.sin(u), math.cos(u), math.sin(v), math.cos(v)
    x = R * np.array([cu, su, cv, sv])
    dx = R * np.array([[-su, cu, 0.0, 0.0], [0.0, 0.0, -sv, cv]])
    d2x = np.zeros((2, 2, 4))
    d2x[0, 0] = R * np.array([-cu, -su, 0.0, 0.0])
    d2x[1, 1] = R * np.array([0.0, 0.0, -cv, -sv])
    return x, dx, d2x


def mean_curvature_norm(dx, d2x) -> float:
    """|H| with H = g^{ab} P_N d_a d_b x, P_N the projection onto the normal plane."""
    g = dx @ dx.T
    g_inv = np.linalg.inv(g)
    p_normal = np.eye(4) - dx.T @ g_inv @ dx
    return float(np.linalg.norm(p_normal @ np.einsum("ab,abi->i", g_inv, d2x)))


# name -> (closed form, expected trace_invariant or None for |H|)
SURFACES = {
    "plane": (_plane, 0.0),
    "plane-torus": (_plane, 0.0),
    "graph": (_graph, None),
    "sphere": (_sphere, 2.0),
    "clifford": (_clifford, 2.0),
    "clifford-rotated": (_clifford, 2.0),
}


def closed_form(surface, s):
    return SURFACES[surface][0](float(s[0]), float(s[1]))


def interior_lattice(surface, n1, n2):
    (lo1, hi1), (lo2, hi2) = DOMAINS[surface]
    return np.array(
        [
            (lo1 + (hi1 - lo1) * (i + 1) / (n1 + 1), lo2 + (hi2 - lo2) * (j + 1) / (n2 + 1))
            for i in range(n1)
            for j in range(n2)
        ]
    )


def lattice_spectrum(n1, n2) -> np.ndarray:
    """Closed-form spectrum of the plain clifford grid operator.

    +-sqrt(1 - 2 (a_m^2 + b_n^2)), each sign twice, with
    a_m = sin(2 pi m / N1) / h1 and b_n = sin(2 pi n / N2) / h2.
    """
    a = np.sin(TWO_PI * np.arange(n1) / n1) / (TWO_PI / n1)
    b = np.sin(TWO_PI * np.arange(n2) / n2) / (TWO_PI / n2)
    lam = np.sqrt((1.0 - 2.0 * (a[:, None] ** 2 + b[None, :] ** 2)).astype(complex)).ravel()
    return np.concatenate([lam, lam, -lam, -lam])


# ---------------------------------------------------------------------------
# multiset matching
# ---------------------------------------------------------------------------


def _augment(root, adj, owner) -> bool:
    """Kuhn's augmenting path from ``root``, iterative to bound the stack."""
    seen = set()
    stack, iters, via = [root], [iter(adj[root])], []
    while stack:
        for j in iters[-1]:
            if j not in seen:
                seen.add(j)
                break
        else:
            stack.pop()
            iters.pop()
            if via:
                via.pop()
            continue
        via.append(j)
        if owner[j] < 0:
            for i, jj in zip(stack, via):
                owner[jj] = i
            return True
        stack.append(owner[j])
        iters.append(iter(adj[owner[j]]))
    return False


def matching_distance(a, b, tol) -> float:
    """Largest pair distance of a perfect matching that pairs within ``tol``.

    The matching is the bottleneck assignment restricted to pairs closer
    than ``tol``; ``inf`` means no such perfect matching exists, so the
    multisets differ by more than ``tol``.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        return math.inf
    order = np.argsort(b.real, kind="stable")
    b_re = b.real[order]
    lo = np.searchsorted(b_re, a.real - tol, side="left")
    hi = np.searchsorted(b_re, a.real + tol, side="right")
    adj = []
    for i in range(a.size):
        cand = order[lo[i]:hi[i]]
        adj.append(cand[np.abs(b[cand] - a[i]) <= tol].tolist())
    owner = [-1] * a.size
    unmatched = []
    for i, cands in enumerate(adj):
        free = next((j for j in cands if owner[j] < 0), None)
        if free is None:
            unmatched.append(i)
        else:
            owner[free] = i
    for i in unmatched:
        if not _augment(i, adj, owner):
            return math.inf
    pairs = np.array([(i, j) for j, i in enumerate(owner)])
    return float(np.max(np.abs(a[pairs[:, 0]] - b[pairs[:, 1]]), initial=0.0))


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _fail_if(cond, msg, out):
    if cond:
        out.append(msg)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def check_verify(report, op) -> list:
    out = []
    _fail_if(report.get("pass") is not True, "report pass is not true", out)
    records = report["records"]
    want = interior_lattice(op.surface, *op.grid)
    got = np.array([r["s"] for r in records], dtype=float)
    if got.shape != want.shape:
        return out + [f"{len(records)} records, expected {len(want)}"]
    _fail_if(_max_abs(got, want) > TOL["lattice"], "lattice points differ", out)
    for r in records:
        dx = closed_form(op.surface, r["s"])[1]
        err = _max_abs(r["W"], dx)
        if err > TOL["tangent"]:
            out.append(f"W at {r['s']} off d_alpha x by {err:.3e}")
            break
    if op.surface == "clifford-rotated":
        # frame_rotation: u turns the normal pair by d theta = (1, 0)
        tors = max(_max_abs(r["torsion"], (1.0, 0.0)) for r in records)
        hat = max(_max_abs(r["hat_torsion"], (0.0, 0.0)) for r in records)
        _fail_if(tors > TOL["torsion"], f"torsion off (1, 0) by {tors:.3e}", out)
        _fail_if(hat > TOL["torsion"], f"hat_torsion off 0 by {hat:.3e}", out)
    return out


def spectrum_values(report) -> np.ndarray:
    return np.array([complex(r["re"], r["im"]) for r in report["records"]])


def check_spectrum(report, op, partner=None) -> list:
    """Closure under -lambda and conj(lambda); the closed form on plain
    clifford; agreement with ``partner``, the other frame's spectrum of
    the same surface, when given."""
    out = []
    vals = spectrum_values(report)
    n1, n2 = op.grid
    if vals.size != 4 * n1 * n2:
        return [f"{vals.size} eigenvalues, expected {4 * n1 * n2}"]
    tol = TOL["spectrum"]
    for label, image in (("-lambda", -vals), ("conj(lambda)", vals.conj())):
        _fail_if(matching_distance(vals, image, tol) > tol, f"not closed under {label}", out)
    if op.surface == "clifford" and not op.gauged:
        dist = matching_distance(vals, lattice_spectrum(n1, n2), tol)
        _fail_if(dist > tol, "plain clifford differs from the closed-form spectrum", out)
    if partner is not None:
        _fail_if(
            matching_distance(vals, partner, tol) > tol,
            "plain and gauged spectra differ as multisets",
            out,
        )
    return out


def check_frame(report, op) -> list:
    out = []
    (r,) = report["records"]
    _fail_if(_max_abs(r["s"], op.point) > 0.0, "evaluated point differs", out)
    basis = np.vstack([r["ehat"], r["n"]])
    gram = _max_abs(basis @ basis.T, np.eye(4))
    _fail_if(gram > TOL["orthonormal"], f"frame not orthonormal ({gram:.3e})", out)
    x, dx, d2x = closed_form(op.surface, op.point)
    _fail_if(_max_abs(r["x"], x) > TOL["position"], "x off the closed form", out)
    want = SURFACES[op.surface][1]
    if want is None:
        want = mean_curvature_norm(dx, d2x)
    err = abs(r["trace_invariant"] - want)
    _fail_if(err > TOL["trace"], f"trace_invariant off {want:.6g} by {err:.3e}", out)
    return out


def check_tube(report, op) -> list:
    out = []
    _fail_if(report.get("pass") is not True, "report pass is not true", out)
    origin = report["records"][0]
    _fail_if(origin["direction"] != "origin", "first record is not the origin", out)
    err = abs(origin["rho_exact"] - 1.0)
    _fail_if(err > TOL["rho"], f"rho_exact at zero offset off 1 by {err:.3e}", out)
    return out


_MATH = {
    name: getattr(math, name)
    for name in ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "atan", "atan2")
}
_MATH["pi"] = math.pi


def eval_coordinate(text, params, point) -> float:
    """Evaluate an echoed coordinate with Python's own arithmetic."""
    env = dict(_MATH, **dict(zip(params, (float(point[0]), float(point[1])))))
    return float(eval(text.replace("^", "**"), {"__builtins__": {}}, env))


def check_parse(report, op) -> list:
    (r,) = report["records"]
    x = [eval_coordinate(c, r["params"], op.point) for c in r["coords"]]
    err = _max_abs(x, closed_form(op.surface, op.point)[0])
    return [f"echoed coordinates off the closed form by {err:.3e}"] if err > TOL["position"] else []


CHECKS = {
    "verify": check_verify,
    "spectrum": check_spectrum,
    "frame": check_frame,
    "tube": check_tube,
    "parse-check": check_parse,
}
