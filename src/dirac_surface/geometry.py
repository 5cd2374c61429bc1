"""Moving frames and extrinsic curvature for surfaces immersed in 4-space.

From an immersion x(s1, s2) in E^4 this module computes, at one point
or on a whole stack of points at once (``frames_at``):

* an orthonormal adapted frame (two tangents from Gram-Schmidt, two
  normals from pivoted Gram-Schmidt over the ambient basis, orientation
  corrected to det +1),
* the induced metric and the mixed second-fundamental-form coefficients
  Gamma^beta_{a. alpha} = -g^{beta gamma} (n_a . d2x/ds^alpha ds^gamma),
* the normal connection (torsion) n3 . d_alpha n4, in closed form: the
  first normal is the normalised projection P_N E_p of an ambient pivot
  vector, whose derivative follows from the second partials, and a
  declared frame rotation adds the gradient of its angle,
* the tangent spin connection omega_alpha = ehat1 . d_alpha ehat2, in
  closed form from the second partials; with the second fundamental
  form and the torsion it completes the so(4) connection of the frame,
* the gauge angle theta that turns the normal pair so the second
  mean-curvature trace vanishes, and the torsion of that gauge-fixed
  frame, in closed form from the third partials, and
* the metric and volume density of the normal tube chart
  x + q^a n_a, in closed form from the mixed coefficients and the
  torsion, together with the first-order density.

Everything is exact from the 3-jets of the coordinate maps.

The pivoted normal construction is canonical only up to discrete jumps
(joint sign flips, occasional pivot trades) along curves where an
ambient pivot vector grazes the tangent plane.  ``align_frame`` resolves
that ambiguity against a reference frame; none of the four candidates
changes the torsion.

Gauging is a choice of frame: a declared frame rotation and the gauge
fix are the same turn of the normal pair (``_turned``), and the
gauge-fixed frame is the working frame turned by theta, with torsion
``hat_torsion``.

A check that fails on a stack of points names the first offending point
in the stack's (C) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .expr import DomainEvalError, ExprError, ImmersionSpec, eval_jets, _point


__all__ = [
    "GeometryError",
    "DegenerateImmersionError",
    "FrameBranchError",
    "FrameData",
    "ConnectionData",
    "GaugeData",
    "TubeSample",
    "frames_at",
    "align_frame",
    "connection_from_frame",
    "gauge_at",
    "gauge_angle",
    "tube_metrics_at",
]


_GS_TOL = 1e-10

# a partial derivative depends only on how many of its indices are 1, so
# d2x[a, b] and d3x[a, b, c] gather the jet slots a + b and a + b + c
_SLOT2 = np.indices((2, 2)).sum(axis=0)
_SLOT3 = np.indices((2, 2, 2)).sum(axis=0)


class GeometryError(RuntimeError):
    """Base class for geometric failures."""


class DegenerateImmersionError(GeometryError):
    """Tangent vectors fail to span a 2-plane at the reported point.

    ``index`` is the flat position of that point in a stack, or None.
    """

    def __init__(self, message: str, index=None):
        self.index = index
        super().__init__(message)


class FrameBranchError(GeometryError):
    """Normal frames near a point cannot be aligned with the frame there."""


def _first(bad) -> int | None:
    """Flat index of the first True entry of ``bad``, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class FrameData:
    """Pointwise frame state of an immersion.

    The shapes below are those of one point; a stack of frames prefixes
    every field with the stack's leading shape (``det_g`` becomes an
    array of it), and indexing selects along those leading axes.
    """

    s: np.ndarray        # parameter point (2,)
    x: np.ndarray        # position (4,)
    e: np.ndarray        # coordinate tangents d_alpha x, rows (2, 4)
    d2x: np.ndarray      # second partials, (2, 2, 4), symmetric in (a, b)
    d3x: np.ndarray      # third partials, (2, 2, 2, 4), symmetric in (a, b, c)
    ehat: np.ndarray     # orthonormal tangents, rows (2, 4)
    n: np.ndarray        # orthonormal normals, rows (2, 4): n3, n4
    g: np.ndarray        # induced metric (2, 2)
    g_inv: np.ndarray    # inverse metric (2, 2)
    det_g: float
    torsion: np.ndarray  # n3 . d_alpha n4, alpha = 1, 2

    def rotation(self) -> np.ndarray:
        """Frame matrix with columns (ehat1, ehat2, n3, n4); det = +1."""
        return np.swapaxes(np.concatenate([self.ehat, self.n], axis=-2), -1, -2)

    def __getitem__(self, index) -> "FrameData":
        """A copy of the frames at ``index`` of the stack axes, which keeps
        no reference to the rest of the stack."""
        return FrameData(
            **{f.name: getattr(self, f.name)[index].copy() for f in fields(self)}
        )


@dataclass(frozen=True)
class ConnectionData:
    """The so(4) connection of a frame: tangent, mixed and normal blocks.

    ``omega[alpha]`` is the tangent spin connection ehat1 . d_alpha ehat2.
    ``gamma_tan[adot, alpha, beta]`` is Gamma^beta_{adot alpha} with
    adot in {0, 1} standing for the normal labels {3, 4}.
    ``gamma_nor[alpha, adot, bdot]`` is Gamma^adot_{alpha bdot}.
    """

    omega: np.ndarray         # (2,)
    gamma_tan: np.ndarray     # (2, 2, 2)
    gamma_nor: np.ndarray     # (2, 2, 2)
    trace3: float
    trace4: float
    frame: FrameData

    @property
    def torsion(self) -> np.ndarray:
        """Gamma^3_{alpha 4} for alpha = 1, 2."""
        return self.gamma_nor[..., 0, 1].copy()


@dataclass(frozen=True)
class GaugeData:
    """Gauge angle zeroing the second mean-curvature trace, and hatted data.

    ``hat_torsion`` is the torsion of the gauge-fixed normal frame,
    Gamma^3_{alpha 4} + d_alpha(theta); it is invariant under smooth
    rotations of the working normal frame and is the U(1) gauge field of
    the gauged operator.
    """

    theta: float
    hat_trace3: float
    hat_torsion: np.ndarray   # (2,)
    degenerate: bool


@dataclass(frozen=True)
class TubeSample:
    """Metric and density of the normal tube chart at offset q.

    ``g_tube`` is the exact metric of the offset map x + q^a n_a and
    ``rho_exact`` its density det(g_tube) / det(g); ``rho_leading`` is
    the first-order density.
    """

    q: np.ndarray
    g_tube: np.ndarray
    rho_leading: float    # (1 + trace_a q^a)^2
    rho_exact: float      # det(g_tube) / det(g)
    frame: FrameData      # frame at the base point


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


_E4 = np.eye(4)
_ARANGE4 = np.arange(4)

# signs taking the swapped normal pair (n4, n3) to (n4, -n3)
_QUARTER_TURN = np.array([[1.0], [-1.0]])

# largest deviation from its reference that an aligned normal pair may keep
_BRANCH_LIMIT = 0.5

# sign pattern of the adjugate of a 2x2 matrix
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _dot(a, b):
    # a stacked matmul rounds each row exactly as the 1-D dot product
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v):
    return np.sqrt(_dot(v, v))


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _project_out(v, basis):
    # two projection passes: classical Gram-Schmidt loses orthogonality
    # when the residual is small, one reorthogonalization restores it
    r = v
    for _ in range(2):
        for b in basis:
            r = r - _dot(r, b)[..., None] * b
    return r


def _take(a, index):
    """Entry ``index[p]`` of ``a[p]`` for every p of the stack ``index``."""
    return a[(*np.indices(index.shape, sparse=True), index)]


def frames_at(spec: ImmersionSpec, S) -> FrameData:
    """Position, jets, orthonormal frame, metric and torsion at points S.

    ``S`` is one point (2,) or a stack (..., 2); every field of the result
    carries the leading shape of S.  A point where the tangents degenerate
    or a coordinate map leaves its domain raises, naming the first such
    point of the stack.
    """
    S = np.asarray(S, dtype=float)
    try:
        return _frames(spec, S)
    except (DomainEvalError, DegenerateImmersionError) as exc:
        # the failed check names its own first offending point; a check
        # that runs later may fail earlier in the stack, so the points
        # before this one are checked first
        if exc.index:
            frames_at(spec, S.reshape(-1, 2)[: exc.index])
        raise


def _frames(spec: ImmersionSpec, S) -> FrameData:
    lead = S.shape[:-1]
    points = S.reshape(-1, 2)
    jets = np.stack([eval_jets(expr, S) for expr in spec.coord_exprs], axis=-1)
    x = jets[..., 0, :].copy()
    e = jets[..., 1:3, :].copy()
    d2x = jets[..., 3:6, :][..., _SLOT2, :]
    d3x = jets[..., 6:, :][..., _SLOT3, :]

    # a squared length past the float range overflows every product the
    # frame is built from: the immersion's scale is an input error
    with np.errstate(over="ignore"):
        length2 = _dot(e, e)
    i = _first(~np.isfinite(length2).all(axis=-1))
    if i is not None:
        raise ExprError(f"squared tangent length is not finite at s = {_point(points[i])}")
    n1, len2 = np.moveaxis(np.sqrt(length2), -1, 0)
    # d1 x vanishes where it cannot be normalised (|d1 x|^2 below the least
    # normal float); how near it comes to d2 x is the Gram residual's to judge
    i = _first(length2[..., 0] < np.finfo(float).tiny)
    if i is not None:
        raise DegenerateImmersionError(
            f"tangent d1 x vanishes at s = {_point(points[i])}", i if lead else None
        )
    ehat1 = e[..., 0, :] / n1[..., None]
    r = _project_out(e[..., 1, :], [ehat1])
    n2 = _norm(r)
    # against d2 x alone: against the longer tangent a badly scaled
    # immersion would read as degenerate
    i = _first(n2 <= _GS_TOL * len2)
    if i is not None:
        raise DegenerateImmersionError(
            f"tangents are linearly dependent at s = {_point(points[i])} "
            f"(Gram residual {np.ravel(n2)[i]:.3e})",
            i if lead else None,
        )
    ehat2 = r / n2[..., None]
    tangents = [ehat1[..., None, :], ehat2[..., None, :]]
    ehat = np.concatenate(tangents, axis=-2)

    # pivoted Gram-Schmidt over the ambient basis E_0..E_3, with every
    # candidate projected at once: n3 is the first E_k whose residual off
    # the tangent plane clears _GS_TOL (the pivot), n4 the first later
    # E_k whose residual off the tangent plane and n3 does
    cand = _project_out(_E4, tangents)
    size = _norm(cand)
    pivot = np.argmax(size > _GS_TOL, axis=-1)
    pivot_norm = _take(size, pivot)
    n3 = (_take(cand, pivot) / pivot_norm[..., None])[..., None, :]
    cand = _project_out(_E4, tangents + [n3])
    size = _norm(cand)
    second = np.argmax((size > _GS_TOL) & (_ARANGE4 > pivot[..., None]), axis=-1)
    n4 = (_take(cand, second) / _take(size, second)[..., None])[..., None, :]
    flip = np.linalg.det(np.concatenate([ehat, n3, n4], axis=-2)) < 0.0
    n = np.concatenate([n3, np.where(flip[..., None, None], -n4, n4)], axis=-2)

    g = e @ np.swapaxes(e, -1, -2)
    det_g = _det2(g)
    g_inv = np.swapaxes(g, -1, -2)[..., ::-1, ::-1] * _ADJ_SIGN / det_g[..., None, None]

    # n3 = P_N E_p / |P_N E_p| and n4 is normal, so
    # n3 . d_alpha n4 = -n4 . d_alpha(P_N E_p) / |P_N E_p|
    #                 = K4_{alpha beta} g^{beta gamma} (d_gamma x . E_p) / |P_N E_p|
    # with K4_{alpha beta} = n4 . d_alpha d_beta x
    k4 = (d2x @ n[..., None, 1, :, None])[..., 0]
    ep = _take(np.swapaxes(e, -1, -2), pivot)
    torsion = (k4 @ g_inv @ ep[..., None])[..., 0] / pivot_norm[..., None]

    frame = FrameData(
        s=S, x=x, e=e, d2x=d2x, d3x=d3x, ehat=ehat, n=n,
        g=g, g_inv=g_inv, det_g=det_g, torsion=torsion,
    )
    if spec.frame_rotation is not None:
        angle = eval_jets(spec.frame_rotation, S)
        frame = _turned(frame, angle[..., 0], torsion + angle[..., 1:3])
    return frame


def _turned(frame: FrameData, angle, torsion) -> FrameData:
    """``frame`` with its normals turned, (n3, n4) -> (c n3 - s n4, s n3 + c n4),
    and carrying ``torsion``; a zero angle leaves both normals as they are."""
    c = np.cos(angle)[..., None]
    si = np.sin(angle)[..., None]
    n3, n4 = frame.n[..., 0, :], frame.n[..., 1, :]
    n = np.stack([c * n3 - si * n4, si * n3 + c * n4], axis=-2)
    return replace(frame, n=n, torsion=torsion)


def _nearest_normals(n, ref_n) -> tuple:
    """The candidate of each normal pair nearest to ``ref_n`` (``n`` itself
    when none changes) and its largest component deviation from it.  The
    candidates, joint sign flips and quarter-turn pivot trades, all
    preserve orientation and the torsion."""
    # (n3, n4), (-n3, -n4), (n4, -n3), (-n4, n3)
    swapped = n[..., ::-1, :]
    cands = np.stack([n, -n, swapped * _QUARTER_TURN, swapped * -_QUARTER_TURN])
    dev = np.max(np.abs(cands - ref_n), axis=(-2, -1))
    best = np.argmin(dev, axis=0)
    if np.any(best):
        n = np.take_along_axis(cands, best[None, ..., None, None], axis=0)[0]
    return n, np.min(dev, axis=0)


def align_frame(frame: FrameData, ref: FrameData) -> FrameData:
    """Resolve the discrete normal-frame ambiguity against a reference.

    The candidate normal pair nearest to ``ref`` is selected; if every
    candidate still differs from the reference by more than
    ``_BRANCH_LIMIT`` in some component, the frame field has a genuine
    branch jump between the two points and ``FrameBranchError`` is
    raised, naming the reference point.

    ``frame`` and ``ref`` may be stacks whose leading shapes broadcast;
    each frame is aligned to its own reference, and an error names the
    first reference point in the stack where alignment fails.
    """
    n, best_dev = _nearest_normals(frame.n, ref.n)
    i = _first(best_dev > _BRANCH_LIMIT)
    if i is not None:
        s_ref = np.broadcast_to(ref.s, best_dev.shape + (2,)).reshape(-1, 2)[i]
        raise FrameBranchError(
            f"normal frame next to s = {_point(s_ref)} differs from the frame "
            f"there by {np.ravel(best_dev)[i]:.3f} after sign alignment"
        )
    return frame if n is frame.n else replace(frame, n=n)


# ---------------------------------------------------------------------------
# Connection coefficients
# ---------------------------------------------------------------------------


def _mixed_coefficients(frame: FrameData) -> np.ndarray:
    """Gamma^beta_{adot alpha} = -g^{beta gamma} (n_adot . d2x[alpha, gamma])."""
    nd2 = np.einsum("...ni,...abi->...nab", frame.n, frame.d2x)
    return -np.einsum("...bg,...nag->...nab", frame.g_inv, nd2)


def connection_from_frame(frame: FrameData) -> ConnectionData:
    """Connection data of a frame, exact from its 2-jet and torsion.

    The orthonormal tangents are ehat1 = d_1 x / |d_1 x| and its
    Gram-Schmidt partner ehat2, so the tangent spin connection is
    omega_alpha = ehat1 . d_alpha ehat2 = -ehat2 . d_alpha d_1 x / |d_1 x|,
    which no turn of the normals changes.  Stacks give stacks.
    """
    omega = -(frame.d2x[..., :, 0, :] @ frame.ehat[..., 1, :, None])[..., 0]
    omega = omega / _norm(frame.e[..., 0, :])[..., None]
    gamma_tan = _mixed_coefficients(frame)
    gamma_nor = np.zeros(frame.torsion.shape + (2, 2))
    gamma_nor[..., 0, 1] = frame.torsion
    gamma_nor[..., 1, 0] = -frame.torsion
    trace3, trace4 = np.moveaxis(np.trace(gamma_tan, axis1=-2, axis2=-1), -1, 0)
    return ConnectionData(
        omega=omega,
        gamma_tan=gamma_tan,
        gamma_nor=gamma_nor,
        trace3=trace3,
        trace4=trace4,
        frame=frame,
    )


# ---------------------------------------------------------------------------
# Gauge angle
# ---------------------------------------------------------------------------


_GAUGE_TOL = 1e-12


def _elementwise(fn):
    ufunc = np.frompyfunc(fn, 2, 1)
    return lambda a, b: np.asarray(ufunc(a, b), dtype=float)


# the C library's atan2 and hypot, point by point: numpy's own ufuncs
# round differently at about 8 % and 0.6 % of arguments, and the gauge
# angle feeds a difference quotient in verify's residual probe, whose
# consecutive ratio would then move by up to 2e-5
_ATAN2 = _elementwise(math.atan2)
_HYPOT = _elementwise(math.hypot)


def gauge_angle(conn: ConnectionData) -> tuple:
    """Gauge angle of a connection from its exact mean-curvature traces.

    Returns ``(theta, degenerate)``; cheaper than ``gauge_at`` when the
    hatted torsion is not needed, e.g. for the gauge rotations of grid
    assembly and the probe frames of a gauged ``reconstruct``.
    """
    t3, t4 = np.asarray(conn.trace3), np.asarray(conn.trace4)
    degenerate = _HYPOT(t3, t4) < _GAUGE_TOL
    return np.where(degenerate, 0.0, _ATAN2(-t4, t3))[()], degenerate


def gauge_at(conn: ConnectionData) -> GaugeData:
    """Solve trace3 sin(theta) + trace4 cos(theta) = 0 and build hatted data.

    theta = atan2(-trace4, trace3), so trace3 = hat_trace3 cos(theta) and
    trace4 = -hat_trace3 sin(theta) with hat_trace3 >= 0.  The hatted
    torsion n3_hat . d_alpha n4_hat of the gauge-fixed normals is the
    working-frame torsion plus d_alpha theta, which follows exactly from
    the derivatives of the traces t_a = -g^{bc} (n_a . x_bc):

        d_d t_a = -d_d g^{bc} (n_a . x_bc) - g^{bc} (d_d n_a . x_bc)
                  - g^{bc} (n_a . x_bcd),
        d_d n_a = -(n_a . x_de) g^{ef} x_f -+ tau_d n_b   (a = 3, 4),

    with d g^{-1} = -g^{-1} (d g) g^{-1} and tau the working-frame
    torsion.  Where both traces vanish the constraint is vacuous: the
    data is flagged degenerate, theta falls back to 0 and the hatted
    torsion to the working-frame torsion.  On a stack of connections
    every field is a stack, point by point.
    """
    t3, t4 = np.asarray(conn.trace3), np.asarray(conn.trace4)
    theta, degenerate = gauge_angle(conn)
    hat_torsion = conn.torsion
    if not np.all(degenerate):
        fr = conn.frame
        g_inv = fr.g_inv[..., None, :, :]
        xe = np.einsum("...dbi,...ci->...dbc", fr.d2x, fr.e)
        dg_inv = -g_inv @ (xe + np.swapaxes(xe, -1, -2)) @ g_inv
        nd2 = np.einsum("...ai,...bci->...abc", fr.n, fr.d2x)
        dn = -np.einsum("...ade,...ef,...fi->...dai", nd2, fr.g_inv, fr.e)
        dn[..., 0, :] -= fr.torsion[..., :, None] * fr.n[..., 1, None, :]
        dn[..., 1, :] += fr.torsion[..., :, None] * fr.n[..., 0, None, :]
        dt = -(
            np.einsum("...dbc,...abc->...da", dg_inv, nd2)
            + np.einsum("...bc,...dai,...bci->...da", fr.g_inv, dn, fr.d2x)
            + np.einsum("...bc,...ai,...bcdi->...da", fr.g_inv, fr.n, fr.d3x)
        )
        norm2 = np.where(degenerate, 1.0, t3 * t3 + t4 * t4)[..., None]
        dtheta = (t4[..., None] * dt[..., 0] - t3[..., None] * dt[..., 1]) / norm2
        hat_torsion = np.where(degenerate[..., None], hat_torsion, hat_torsion + dtheta)
    return GaugeData(
        theta=theta,
        hat_trace3=_HYPOT(t3, t4)[()],
        hat_torsion=hat_torsion,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Tube metric and density
# ---------------------------------------------------------------------------


def tube_metrics_at(spec: ImmersionSpec, s, offsets) -> list:
    """Exact tube metrics and volume densities at normal offsets q.

    The offset map F = x + q^a n_a has the tangents

        d_alpha F = (I + qGamma)_alpha^beta d_beta x + tau_alpha (q^4 n3 - q^3 n4),

    with qGamma[alpha, beta] = q^a Gamma^beta_{a alpha} and tau the
    torsion; the two terms are orthogonal and the normal one has length
    |q| |tau_alpha|, so the metric of the normal chart is

        g_tube = (I + qGamma) g (I + qGamma)^T + |q|^2 tau tau^T

    (Weyl, "On the volume of tubes", 1939; Gray, *Tubes*, 2004).
    ``rho_exact`` is det(g_tube) / det(g) and ``rho_leading`` its
    first-order part (1 + trace_a q^a)^2.  The one frame at s serves
    every offset, and zero offset gives g_tube = g and rho_exact = 1
    exactly.
    """
    frame = frames_at(spec, s)
    conn = connection_from_frame(frame)
    q = np.asarray(offsets, dtype=float).reshape(-1, 2)
    shear = np.eye(2) + np.einsum("kn,nab->kab", q, conn.gamma_tan)
    twist = _dot(q, q)[:, None, None] * np.multiply.outer(frame.torsion, frame.torsion)
    g_tube = shear @ frame.g @ np.swapaxes(shear, -1, -2) + twist
    rho_exact = _det2(g_tube) / frame.det_g
    rho_leading = (1.0 + _dot(q, np.array([conn.trace3, conn.trace4]))) ** 2
    return [
        TubeSample(
            q=q[k], g_tube=g_tube[k], rho_leading=float(rho_leading[k]),
            rho_exact=float(rho_exact[k]), frame=frame,
        )
        for k in range(len(q))
    ]
