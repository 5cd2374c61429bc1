"""Finite-difference oracles for the closed-form connections.

These are the Richardson-extrapolated central-difference estimators the
library used before the torsion and the spin connection were read from
the 2-jet and the gauge-fixed torsion from the 3-jet.  They difference
frames at s +- h and s +- h/2, aligned to the center frame, and agree
with the closed forms at O(h^4).
"""

import math

import numpy as np

from dirac_surface.geometry import align_frame, frame_at, gauge_angle, _wrap_angle


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
        center = frame_at(spec, s)
    out = np.zeros((2, 2, 2))
    for alpha in range(2):
        step = _axis(alpha)

        def estimate(hh):
            fp = align_frame(frame_at(spec, center.s + hh * step), center)
            fm = align_frame(frame_at(spec, center.s - hh * step), center)
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
    frame = frame_at(spec, s)
    f, f_inv = _zweibein(frame.g)
    chris = _christoffel(frame)
    dfinv = np.zeros((2, 2, 2))
    for alpha in range(2):
        step = _axis(alpha)

        def estimate(hh):
            fp = _zweibein(frame_at(spec, frame.s + hh * step).g)[1]
            fm = _zweibein(frame_at(spec, frame.s - hh * step).g)[1]
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
    frame = frame_at(spec, s)
    theta, degenerate = gauge_angle(frame)
    torsion = normal_connection(spec, s, h)[:, 0, 1]
    if degenerate:
        return torsion
    dtheta = np.zeros(2)
    for alpha in range(2):
        step = _axis(alpha)

        def estimate(hh):
            angles = []
            for sign in (-1.0, 1.0):
                fr = align_frame(frame_at(spec, frame.s + sign * hh * step), frame)
                raw, _ = gauge_angle(fr)
                angles.append(theta + _wrap_angle(raw - theta))
            return (angles[1] - angles[0]) / (2.0 * hh)

        dtheta[alpha] = _richardson(estimate, h)
    return torsion + dtheta


def random_points(spec, count, rng, avoid=None, radius=0.0):
    """Uniform points of the domain, at least ``radius`` from ``avoid``."""
    (lo1, hi1), (lo2, hi2) = spec.domain
    points = []
    while len(points) < count:
        pt = np.array([rng.uniform(lo1, hi1), rng.uniform(lo2, hi2)])
        if avoid is None or math.dist(pt, avoid) >= radius:
            points.append(pt)
    return points
