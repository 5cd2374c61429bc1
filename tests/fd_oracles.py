"""Finite-difference oracles for the closed forms.

These are the Richardson-extrapolated central-difference estimators the
library used before the torsion and the spin connection were read from
the 2-jet, the gauge-fixed torsion from the 3-jet and the tube density
from the tube metric.  They difference frames at s +- h and s +- h/2,
aligned to the center frame, and agree with the closed forms at O(h^4).
"""

import math

import numpy as np

from dirac_surface.geometry import align_frame, connection_from_frame, frames_at, gauge_angle
from dirac_surface.weierstrass import _stencil
from pointwise_oracles import _wrap_angle


def _richardson(estimate, h):
    return (4.0 * estimate(0.5 * h) - estimate(h)) / 3.0


def _axis(alpha):
    step = np.zeros(2)
    step[alpha] = 1.0
    return step


def normal_connection(spec, s, h=1e-3, center=None):
    """gamma_nor[alpha, a, b] = n_a . d_alpha n_b from frames aligned to
    ``center``, by default the frame at s."""
    if center is None:
        center = frames_at(spec, s)
    out = np.zeros((2, 2, 2))
    for alpha in range(2):
        step = _axis(alpha)

        def estimate(hh):
            fp = align_frame(frames_at(spec, center.s + hh * step), center)
            fm = align_frame(frames_at(spec, center.s - hh * step), center)
            return np.einsum("ai,bi->ab", center.n, (fp.n - fm.n) / (2.0 * hh))

        out[alpha] = _richardson(estimate, h)
    return out


def _zweibein(g):
    f = np.linalg.cholesky(g).T
    return f, np.linalg.inv(f)


def _christoffel(frame):
    """Levi-Civita symbols Gamma^beta_{alpha gamma} from exact metric jets."""
    dg = np.einsum("cai,bi->cab", frame.d2x, frame.e)
    dg = dg + dg.transpose(0, 2, 1)  # dg[c, a, b] = d_c g_{ab}
    lowered = np.empty((2, 2, 2))
    for d in range(2):
        for a in range(2):
            for c in range(2):
                lowered[d, a, c] = dg[a, d, c] + dg[c, d, a] - dg[d, a, c]
    return 0.5 * np.einsum("bd,dag->bag", frame.g_inv, lowered)


def spin_connection(spec, s, h=1e-3):
    """omega_alpha from differenced inverse zweibeins and exact Christoffels."""
    frame = frames_at(spec, s)
    f, f_inv = _zweibein(frame.g)
    chris = _christoffel(frame)
    dfinv = np.zeros((2, 2, 2))
    for alpha in range(2):
        step = _axis(alpha)

        def estimate(hh):
            fp = _zweibein(frames_at(spec, frame.s + hh * step).g)[1]
            fm = _zweibein(frames_at(spec, frame.s - hh * step).g)[1]
            return (fp - fm) / (2.0 * hh)

        dfinv[alpha] = _richardson(estimate, h)

    def tetrad(a, b):
        out = np.zeros(2)
        for alpha in range(2):
            cov = dfinv[alpha][:, b] + chris[:, alpha, :] @ f_inv[:, b]
            out[alpha] = f[a, :] @ cov
        return out

    return 0.5 * (tetrad(0, 1) - tetrad(1, 0))


def hat_torsion(spec, s, h=1e-3):
    """Working-frame torsion plus the differenced, unwrapped gauge angle."""
    frame = frames_at(spec, s)
    theta, degenerate = gauge_angle(connection_from_frame(frame))
    torsion = normal_connection(spec, s, h)[:, 0, 1]
    if degenerate:
        return torsion
    dtheta = np.zeros(2)
    for alpha in range(2):
        step = _axis(alpha)

        def estimate(hh):
            angles = []
            for sign in (-1.0, 1.0):
                fr = align_frame(frames_at(spec, frame.s + sign * hh * step), frame)
                raw, _ = gauge_angle(connection_from_frame(fr))
                angles.append(theta + _wrap_angle(raw - theta))
            return (angles[1] - angles[0]) / (2.0 * hh)

        dtheta[alpha] = _richardson(estimate, h)
    return torsion + dtheta


def tube_density(spec, s, offsets, h=1e-3):
    """det(g_num) / det(g) at each offset q, where g_num is the first
    fundamental form of the offset map s -> x(s) + q^3 n3(s) + q^4 n4(s),
    central differenced at h and h/2 with Richardson extrapolation over
    the eight stencil frames aligned to the frame at s."""
    s = np.asarray(s, dtype=float)
    hh = np.array([h, 0.5 * h])
    frames = frames_at(spec, np.concatenate([s[None], (s + _stencil(hh)).reshape(-1, 2)]))
    frame = frames[0]
    # the stencil frames, (step, alpha, sign), aligned to the frame at s
    stencil = align_frame(frames[1:], frame)
    stencil_x = stencil.x.reshape(2, 2, 2, 4)
    stencil_n = stencil.n.reshape(2, 2, 2, 2, 4)
    densities = []
    for q in offsets:
        q = np.asarray(q, dtype=float)
        if not np.any(q):
            rho_exact = 1.0
        else:
            offset = stencil_x + q @ stencil_n
            estimates = (offset[..., 0, :] - offset[..., 1, :]) / (2.0 * hh)[:, None, None]
            tangents = (4.0 * estimates[1] - estimates[0]) / 3.0
            rho_exact = float(np.linalg.det(tangents @ tangents.T) / frame.det_g)
        densities.append(rho_exact)
    return densities


def random_points(spec, count, rng, avoid=None, radius=0.0):
    """Uniform points of the domain, at least ``radius`` from ``avoid``."""
    (lo1, hi1), (lo2, hi2) = spec.domain
    points = []
    while len(points) < count:
        pt = np.array([rng.uniform(lo1, hi1), rng.uniform(lo2, hi2)])
        if avoid is None or math.dist(pt, avoid) >= radius:
            points.append(pt)
    return points
