"""Moving frames and extrinsic curvature for surfaces immersed in 4-space.

From an immersion x(s1, s2) in E^4 this module computes, pointwise:

* an orthonormal adapted frame (two tangents from Gram-Schmidt, two
  normals from pivoted Gram-Schmidt over the ambient basis, orientation
  corrected to det +1),
* the induced metric and the mixed second-fundamental-form coefficients
  Gamma^beta_{a. alpha} = -g^{beta gamma} (n_a . d2x/ds^alpha ds^gamma),
* the normal connection (torsion) n3 . d_alpha n4, in closed form: the
  first normal is the normalised projection P_N E_p of an ambient pivot
  vector, whose derivative follows from the second partials, and a
  declared frame rotation adds the gradient of its angle,
* the gauge angle that rotates the normal pair so the second
  mean-curvature trace vanishes, and the torsion of that gauge-fixed
  frame, in closed form from the third partials, and
* the first-order tube metric and volume density of the normal
  exponential chart, together with an independent finite-difference
  density for cross-checking.

Everything but the tube density cross-check is exact from the 3-jets of
the coordinate maps.  The cross-check differences the offset map by
definition, at the step ``_FD_STEP``.

The pivoted normal construction is canonical only up to discrete jumps
(joint sign flips, occasional pivot trades) along curves where an
ambient pivot vector grazes the tangent plane.  ``align_frame`` resolves
that ambiguity against a reference frame; none of the four candidates
changes the torsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expr import ImmersionSpec, eval_jet2


__all__ = [
    "GeometryError",
    "DegenerateImmersionError",
    "FrameBranchError",
    "FrameData",
    "ConnectionData",
    "GaugeData",
    "TubeSample",
    "frame_at",
    "align_frame",
    "connection_at",
    "connection_from_frame",
    "gauge_at",
    "gauge_angle",
    "tube_metric_at",
    "tube_metrics_at",
]


_GS_TOL = 1e-10

# step of the tube density cross-check, the one finite difference kept here
_FD_STEP = 1e-3

# a partial derivative depends only on how many of its indices are 1, so
# d2x[a, b] and d3x[a, b, c] gather the jet slots a + b and a + b + c
_SLOT2 = np.indices((2, 2)).sum(axis=0)
_SLOT3 = np.indices((2, 2, 2)).sum(axis=0)


class GeometryError(RuntimeError):
    """Base class for geometric failures."""


class DegenerateImmersionError(GeometryError):
    """Tangent vectors fail to span a 2-plane at the reported point."""


class FrameBranchError(GeometryError):
    """Normal frames near a point cannot be aligned with the frame there."""


def _point(s) -> str:
    return "(" + ", ".join(repr(float(c)) for c in s) + ")"


@dataclass(frozen=True)
class FrameData:
    """Pointwise frame state of an immersion."""

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
        return np.column_stack([self.ehat[0], self.ehat[1], self.n[0], self.n[1]])


@dataclass(frozen=True)
class ConnectionData:
    """Second-fundamental-form and normal-connection coefficients.

    ``gamma_tan[adot, alpha, beta]`` is Gamma^beta_{adot alpha} with
    adot in {0, 1} standing for the normal labels {3, 4}.
    ``gamma_nor[alpha, adot, bdot]`` is Gamma^adot_{alpha bdot}.
    """

    gamma_tan: np.ndarray     # (2, 2, 2)
    gamma_nor: np.ndarray     # (2, 2, 2)
    trace3: float
    trace4: float
    frame: FrameData

    @property
    def torsion(self) -> np.ndarray:
        """Gamma^3_{alpha 4} for alpha = 1, 2."""
        return self.gamma_nor[:, 0, 1].copy()


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
    hat_trace4: float
    hat_torsion: np.ndarray   # (2,)
    degenerate: bool


@dataclass(frozen=True)
class TubeSample:
    """Metric and density of the normal tube chart at offset q."""

    q: np.ndarray
    g_tube: np.ndarray
    rho_leading: float    # (1 + trace_a q^a)^2
    rho_exact: float      # the finite-difference (exact-map) density
    frame: FrameData      # frame at the base point


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def _project_out(v, basis):
    # two projection passes: classical Gram-Schmidt loses orthogonality
    # when the residual is small, one reorthogonalization restores it
    r = v.astype(float).copy()
    for _ in range(2):
        for b in basis:
            r -= (r @ b) * b
    return r


def frame_at(spec: ImmersionSpec, s) -> FrameData:
    """Compute position, jets, orthonormal frame, metric and torsion at s."""
    s = np.asarray(s, dtype=float)
    jets = [eval_jet2(expr, s) for expr in spec.coord_exprs]
    x = np.array([j.value for j in jets])
    e = np.array([[j.grad[a] for j in jets] for a in range(2)])
    d2x = np.array([j.hess for j in jets]).T[_SLOT2]
    d3x = np.array([j.third for j in jets]).T[_SLOT3]

    scale = max(np.linalg.norm(e[0]), np.linalg.norm(e[1]), 1e-30)
    n1 = np.linalg.norm(e[0])
    if n1 <= _GS_TOL * scale:
        raise DegenerateImmersionError(f"tangent d1 x vanishes at s = {_point(s)}")
    ehat1 = e[0] / n1
    r = _project_out(e[1], [ehat1])
    n2 = np.linalg.norm(r)
    if n2 <= _GS_TOL * scale:
        raise DegenerateImmersionError(
            f"tangents are linearly dependent at s = {_point(s)} "
            f"(Gram residual {n2:.3e})"
        )
    ehat2 = r / n2
    ehat = np.vstack([ehat1, ehat2])

    normals = []
    built = [ehat1, ehat2]
    for i in range(4):
        cand = _project_out(np.eye(4)[i], built)
        nn = np.linalg.norm(cand)
        if nn > _GS_TOL:
            if not normals:
                pivot, pivot_norm = i, nn
            cand = cand / nn
            normals.append(cand)
            built.append(cand)
            if len(normals) == 2:
                break
    n = np.vstack(normals)
    R = np.column_stack([ehat[0], ehat[1], n[0], n[1]])
    if np.linalg.det(R) < 0.0:
        n = np.vstack([n[0], -n[1]])

    g = e @ e.T
    det_g = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det_g

    # n3 = P_N E_p / |P_N E_p| and n4 is normal, so
    # n3 . d_alpha n4 = -n4 . d_alpha(P_N E_p) / |P_N E_p|
    #                 = K4_{alpha beta} g^{beta gamma} (d_gamma x . E_p) / |P_N E_p|
    # with K4_{alpha beta} = n4 . d_alpha d_beta x
    k4 = d2x @ n[1]
    torsion = k4 @ g_inv @ e[:, pivot] / pivot_norm

    if spec.frame_rotation is not None:
        angle = eval_jet2(spec.frame_rotation, s)
        if angle.value != 0.0:
            # turn the normal pair: (c n3 - s n4, s n3 + c n4)
            c, si = math.cos(angle.value), math.sin(angle.value)
            n = np.vstack([c * n[0] - si * n[1], si * n[0] + c * n[1]])
        torsion = torsion + np.asarray(angle.grad)

    return FrameData(
        s=s, x=x, e=e, d2x=d2x, d3x=d3x, ehat=ehat, n=n, g=g, g_inv=g_inv,
        det_g=det_g, torsion=torsion,
    )


_ALIGN_CANDIDATES = (
    lambda n3, n4: (n3, n4),
    lambda n3, n4: (-n3, -n4),
    lambda n3, n4: (n4, -n3),
    lambda n3, n4: (-n4, n3),
)


def align_frame(frame: FrameData, ref: FrameData, limit: float = 0.5) -> FrameData:
    """Resolve the discrete normal-frame ambiguity against a reference.

    The pivoted construction is unique up to joint sign flips and
    quarter-turn pivot trades of the normal pair (the four candidates all
    preserve orientation and the torsion).  The candidate nearest to
    ``ref`` is selected; if every candidate still differs from the
    reference by more than ``limit`` in some component, the frame field
    has a genuine branch jump between the two points and
    ``FrameBranchError`` is raised, naming the reference point.
    """
    best = None
    best_dev = np.inf
    for cand in _ALIGN_CANDIDATES:
        n3, n4 = cand(frame.n[0], frame.n[1])
        dev = max(np.max(np.abs(n3 - ref.n[0])), np.max(np.abs(n4 - ref.n[1])))
        if dev < best_dev:
            best_dev = dev
            best = (n3, n4)
    if best_dev > limit:
        raise FrameBranchError(
            f"normal frame next to s = {_point(ref.s)} differs from the frame "
            f"there by {best_dev:.3f} after sign alignment"
        )
    if best[0] is frame.n[0]:
        return frame
    return replace(frame, n=np.vstack(best))


# ---------------------------------------------------------------------------
# Connection coefficients
# ---------------------------------------------------------------------------


def _mixed_coefficients(frame: FrameData) -> np.ndarray:
    """Gamma^beta_{adot alpha} = -g^{beta gamma} (n_adot . d2x[alpha, gamma])."""
    nd2 = np.einsum("ni,abi->nab", frame.n, frame.d2x)
    return -np.einsum("bg,nag->nab", frame.g_inv, nd2)


def _traces(frame: FrameData) -> tuple:
    gt = _mixed_coefficients(frame)
    return float(np.trace(gt[0])), float(np.trace(gt[1]))


def connection_from_frame(frame: FrameData) -> ConnectionData:
    """Connection data of a frame: exact mixed coefficients and torsion."""
    gamma_tan = _mixed_coefficients(frame)
    gamma_nor = np.zeros((2, 2, 2))
    gamma_nor[:, 0, 1] = frame.torsion
    gamma_nor[:, 1, 0] = -frame.torsion
    return ConnectionData(
        gamma_tan=gamma_tan,
        gamma_nor=gamma_nor,
        trace3=float(np.trace(gamma_tan[0])),
        trace4=float(np.trace(gamma_tan[1])),
        frame=frame,
    )


def connection_at(spec: ImmersionSpec, s) -> ConnectionData:
    """Second-fundamental-form and torsion coefficients at a point."""
    return connection_from_frame(frame_at(spec, s))


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def _gradient(field, s) -> np.ndarray:
    """d_alpha field(s), alpha = 1, 2, by central differences at _FD_STEP
    and _FD_STEP/2 with Richardson extrapolation."""
    grad = []
    for alpha in range(2):
        step = np.zeros(2)
        step[alpha] = 1.0
        estimates = []
        for hh in (_FD_STEP, 0.5 * _FD_STEP):
            diff = field(s + hh * step) - field(s - hh * step)
            estimates.append(diff / (2.0 * hh))
        grad.append((4.0 * estimates[1] - estimates[0]) / 3.0)
    return np.array(grad)


# ---------------------------------------------------------------------------
# Gauge angle
# ---------------------------------------------------------------------------


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


_GAUGE_TOL = 1e-12


def _angle_from_traces(t3: float, t4: float) -> tuple:
    if math.hypot(t3, t4) < _GAUGE_TOL:
        return 0.0, True
    return math.atan2(-t4, t3), False


def gauge_angle(frame: FrameData) -> tuple:
    """Gauge angle of a frame from its exact mean-curvature traces.

    Returns ``(theta, degenerate)``; cheaper than ``gauge_at`` when the
    hatted torsion is not needed, e.g. for the gauge rotations of grid
    assembly.
    """
    return _angle_from_traces(*_traces(frame))


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
    torsion to the working-frame torsion.
    """
    t3, t4 = conn.trace3, conn.trace4
    theta, degenerate = _angle_from_traces(t3, t4)
    hat_torsion = conn.torsion
    if not degenerate:
        fr = conn.frame
        xe = np.einsum("dbi,ci->dbc", fr.d2x, fr.e)
        dg_inv = -fr.g_inv @ (xe + xe.transpose(0, 2, 1)) @ fr.g_inv
        nd2 = np.einsum("ai,bci->abc", fr.n, fr.d2x)
        dn = -np.einsum("ade,ef,fi->dai", nd2, fr.g_inv, fr.e)
        dn[:, 0] -= np.outer(fr.torsion, fr.n[1])
        dn[:, 1] += np.outer(fr.torsion, fr.n[0])
        dt = -(
            np.einsum("dbc,abc->da", dg_inv, nd2)
            + np.einsum("bc,dai,bci->da", fr.g_inv, dn, fr.d2x)
            + np.einsum("bc,ai,bcdi->da", fr.g_inv, fr.n, fr.d3x)
        )
        dtheta = (t4 * dt[:, 0] - t3 * dt[:, 1]) / (t3 * t3 + t4 * t4)
        hat_torsion = conn.torsion + dtheta
    return GaugeData(
        theta=theta,
        hat_trace3=math.hypot(t3, t4),
        hat_trace4=0.0,
        hat_torsion=hat_torsion,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Tube metric and density
# ---------------------------------------------------------------------------


def tube_metrics_at(spec: ImmersionSpec, s, offsets) -> list:
    """First-order tube metrics at normal offsets q, with density cross-checks.

    ``g_tube`` follows the expansion of the pulled-back metric in the
    normal chart: g + [Gamma g + g Gamma] q + Gamma^T g Gamma q^2 terms.
    ``rho_leading`` is (1 + trace_a q^a)^2; ``rho_exact`` is the ratio
    det(g_num) / det(g) where g_num is the numerical first fundamental
    form of the offset map s -> x(s) + q^3 n3(s) + q^4 n4(s), central
    differenced with Richardson extrapolation and frame alignment.  The
    frame and connection at s are built once for all offsets.
    """
    conn = connection_at(spec, s)
    frame = conn.frame
    g = frame.g
    t = np.array([conn.trace3, conn.trace4])
    samples = []
    for q in offsets:
        q = np.asarray(q, dtype=float)
        # qgam[alpha, beta] = sum_adot q^adot Gamma^beta_{adot alpha}
        qgam = np.einsum("n,nab->ab", q, conn.gamma_tan)
        g_tube = g + qgam @ g + g @ qgam.T + qgam @ g @ qgam.T
        rho_leading = float((1.0 + t @ q) ** 2)

        if not np.any(q):
            rho_exact = 1.0
        else:

            def offset(sp):
                fr = align_frame(frame_at(spec, sp), frame)
                return fr.x + q @ fr.n

            tangents = _gradient(offset, frame.s)
            rho_exact = float(np.linalg.det(tangents @ tangents.T) / frame.det_g)

        samples.append(
            TubeSample(
                q=q, g_tube=g_tube, rho_leading=rho_leading, rho_exact=rho_exact,
                frame=frame,
            )
        )
    return samples


def tube_metric_at(spec: ImmersionSpec, s, q) -> TubeSample:
    """Tube metric and density cross-check at one normal offset q."""
    return tube_metrics_at(spec, s, [q])[0]
