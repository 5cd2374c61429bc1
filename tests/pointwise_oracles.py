"""One-point oracles for the batched pointwise pipeline.

These are the frame construction, the spin lift and the residual probe
the library ran point by point before ``frames_at``, ``spin_lift`` and
``reconstruct`` worked on stacks of points: a pivoted Gram-Schmidt that
loops over the ambient basis until two normals are found, a spin lift of
one 4x4 matrix, a spinor field that builds, aligns and lifts one probe
frame per call, and the central-difference application of a symbol to
such a field.

The gauged path the library ran before gauging became a turn of the
normal frame is kept here too: ``half_angle_lift`` and
``half_angle_field`` multiply the plain lift by gauge_rotation(-theta/2),
with theta unwrapped against the angle at the centre because that
rotation has period 4 pi, and ``hatted_symbol`` writes the gauged symbol
with the hatted torsion and mass.
"""

import dataclasses
import math

import numpy as np

from dirac_surface import clifford
from dirac_surface.clifford import (
    _BLOCKS,
    _QUATERNIONS,
    GAMMA,
    SIGMA34,
    TANGENT_SPIN_GENERATOR,
    gauge_rotation,
    match_sign,
)
from dirac_surface.dirac import (
    OperatorSymbol,
    _coordinate_gammas,
    _scaled,
    _symbol,
)
from dirac_surface.expr import eval_jet2
from dirac_surface.geometry import (
    _GS_TOL,
    _SLOT2,
    _SLOT3,
    FrameData,
    align_frame,
    connection_from_frame,
    gauge_angle,
    gauge_at,
)
from dirac_surface.weierstrass import _ROUND, safe_ratio


def _wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _project_out(v, basis):
    r = v.astype(float).copy()
    for _ in range(2):
        for b in basis:
            r -= (r @ b) * b
    return r


def frame_at(spec, s):
    """The frame at one point, by the pivot loop."""
    s = np.asarray(s, dtype=float)
    jets = [eval_jet2(expr, s) for expr in spec.coord_exprs]
    x = np.array([j.value for j in jets])
    e = np.array([[j.grad[a] for j in jets] for a in range(2)])
    d2x = np.array([j.hess for j in jets]).T[_SLOT2]
    d3x = np.array([j.third for j in jets]).T[_SLOT3]

    ehat1 = e[0] / np.linalg.norm(e[0])
    r = _project_out(e[1], [ehat1])
    ehat2 = r / np.linalg.norm(r)
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
    torsion = (d2x @ n[1]) @ g_inv @ e[:, pivot] / pivot_norm

    if spec.frame_rotation is not None:
        angle = eval_jet2(spec.frame_rotation, s)
        if angle.value != 0.0:
            c, si = math.cos(angle.value), math.sin(angle.value)
            n = np.vstack([c * n[0] - si * n[1], si * n[0] + c * n[1]])
        torsion = torsion + np.asarray(angle.grad)

    return FrameData(
        s=s, x=x, e=e, d2x=d2x, d3x=d3x, ehat=ehat, n=n, g=g, g_inv=g_inv,
        det_g=det_g, torsion=torsion,
    )


def spin_lift(R):
    """The closed-form lift of one special orthogonal 4x4 matrix."""
    R = np.asarray(R, dtype=float)
    c = np.einsum("im,mab->iab", R, _BLOCKS)
    S = np.einsum("iab,ybc,idc->yad", c, _QUATERNIONS, _BLOCKS.conj())
    dets = (S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]).real
    y = 0 if dets[0] >= 1.0 else 1 + int(np.argmax(dets[1:]))
    P = S[y] / np.sqrt(dets[y])
    Q = 0.25 * np.einsum("iba,bc,icd->ad", c.conj(), P, _BLOCKS)
    U = np.zeros((4, 4), dtype=complex)
    U[:2, :2] = P
    U[2:, 2:] = Q
    return U


def half_angle_lift(rotation, theta=None):
    """Spin lift of frame rotations, times gauge_rotation(-theta/2) if
    ``theta`` is given."""
    U = clifford.spin_lift(rotation).matrix
    return U if theta is None else gauge_rotation(-theta / 2.0).matrix @ U


def zweibein_inverse(g):
    """Inverse of the zweibein f with g = f^T f, f upper triangular."""
    return np.linalg.inv(np.swapaxes(np.linalg.cholesky(g), -1, -2))


def hatted_symbol(conn, gauge):
    """The gauged symbol of the working-frame connection ``conn``, written
    with the hatted torsion and mass:
    B = A^alpha (1/2 omega_alpha iota_r(tau1 tau2) + 1/2 hat_torsion_alpha
    sigma34) + 1/2 hat_trace3 gamma^3."""
    A = _coordinate_gammas(zweibein_inverse(conn.frame.g))
    mass = _scaled(0.5 * gauge.hat_trace3, GAMMA[2])
    connection = _scaled(0.5 * conn.omega, TANGENT_SPIN_GENERATOR) \
        + _scaled(0.5 * gauge.hat_torsion, SIGMA34)
    B = np.einsum("...aij,...ajk->...ik", A, connection) + mass
    return OperatorSymbol(A=A, B=B, mass=mass)


def apply_pointwise(symbol, psi_field, s, h):
    """Apply the symbol to a spinor field by central differences at s.

    ``psi_field`` maps a parameter point to a spinor (or a stack of
    spinor columns); the result is A^alpha (psi(s+h e_alpha) -
    psi(s-h e_alpha)) / (2h) + B psi(s).
    """
    s = np.asarray(s, dtype=float)
    out = symbol.B @ np.asarray(psi_field(s), dtype=complex)
    for alpha in range(2):
        step = np.zeros(2)
        step[alpha] = h
        diff = np.asarray(psi_field(s + step), dtype=complex) - np.asarray(
            psi_field(s - step), dtype=complex
        )
        out = out + symbol.A[alpha] @ diff / (2.0 * h)
    return out


def turn(frame, theta, torsion):
    """``frame`` with its normals turned by theta, (n3, n4) ->
    (c n3 - s n4, s n3 + c n4), and carrying ``torsion``."""
    c, si = math.cos(theta), math.sin(theta)
    n = np.vstack([c * frame.n[0] - si * frame.n[1], si * frame.n[0] + c * frame.n[1]])
    return dataclasses.replace(frame, n=n, torsion=torsion)


def basis_field(spec, s, gauged):
    """The spinor-basis field around s, the frame at s and the basis matrix at s.

    The field builds the frame at a probe point, aligns it to the frame
    at s, lifts it and matches its sign sheet to the matrix at s.  A
    gauged field turns every frame by its own gauge angle before the
    alignment, a degenerate probe's by the angle at s; the frame at s it
    returns is then the gauge-fixed one, carrying the hatted torsion.
    """
    center = frame_at(spec, s)
    if gauged:
        gauge = gauge_at(connection_from_frame(center))
        center = turn(center, gauge.theta, gauge.hat_torsion)
    U0 = spin_lift(center.rotation())

    def field(sp):
        if np.allclose(sp, center.s):
            return U0
        fr = frame_at(spec, sp)
        if gauged:
            raw, degenerate = gauge_angle(connection_from_frame(fr))
            fr = turn(fr, gauge.theta if degenerate else raw, fr.torsion)
        fr = align_frame(fr, center)
        return match_sign(spin_lift(fr.rotation()), U0)

    return field, center, U0


def half_angle_field(spec, s):
    """The gauged spinor-basis field of the half-angle path around s, and
    the basis matrix at s.

    The field lifts the working frame at a probe point, aligned to the
    frame at s, times gauge_rotation(-theta/2) with theta unwrapped
    against the angle at s, and matches its sign sheet to the matrix at s.
    """
    center = frame_at(spec, s)
    theta0, _ = gauge_angle(connection_from_frame(center))
    U0 = half_angle_lift(center.rotation(), theta0)

    def field(sp):
        if np.allclose(sp, center.s):
            return U0
        fr = align_frame(frame_at(spec, sp), center)
        raw, degenerate = gauge_angle(connection_from_frame(fr))
        theta = theta0 if degenerate else theta0 + _wrap_angle(raw - theta0)
        return match_sign(half_angle_lift(fr.rotation(), theta), U0)

    return field, U0


def reconstruct(spec, s, gauged, steps):
    """Every field of the one-point report, probe frames built one by one."""
    field, frame, U = basis_field(spec, s, gauged)
    A = _coordinate_gammas(zweibein_inverse(frame.g))
    psi_round = U @ _ROUND
    bil = np.zeros((2, 4), dtype=complex)
    for i in range(4):
        for beta in range(2):
            bil[beta, i] = psi_round[:, i].conj() @ A[beta] @ psi_round[:, i]
    W = np.real(frame.g @ bil)
    symbol = _symbol(connection_from_frame(frame))
    residuals = [
        float(np.max(np.linalg.norm(apply_pointwise(symbol, field, frame.s, h), axis=0)))
        for h in steps
    ]
    ratio = min(safe_ratio(residuals[i], residuals[i + 1]) for i in range(len(steps) - 1))
    conn = connection_from_frame(frame_at(spec, s))
    gauge = gauge_at(conn)
    return {
        "W": W,
        "T": frame.e,
        "residual_bilinear": float(np.max(np.abs(W - frame.e))),
        "max_imag": float(np.max(np.abs(np.imag(frame.g @ bil)))),
        "orthonormality": float(np.max(np.abs(U.conj().T @ U - np.eye(4)))),
        "residual_dirac": np.array(residuals),
        "convergence_ratio": ratio,
        "torsion": conn.torsion,
        "hat_torsion": gauge.hat_torsion,
    }
