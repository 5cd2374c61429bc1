"""One-point oracles for the batched pointwise pipeline.

These are the frame construction, the spin lift and the residual probe
the library ran point by point before ``frames_at``, ``spin_lift`` and
``reconstruct`` worked on stacks of points: a pivoted Gram-Schmidt that
loops over the ambient basis until two normals are found, a spin lift of
one 4x4 matrix, a spinor field that builds, aligns and lifts one probe
frame per call, and the central-difference application of a symbol to
such a field.
"""

import math

import numpy as np

from dirac_surface.clifford import _BLOCKS, _QUATERNIONS, gauge_rotation, match_sign
from dirac_surface.dirac import _coordinate_gammas, _symbol, spin_connection_from_frame
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
    _wrap_angle,
)
from dirac_surface.weierstrass import _ROUND, safe_ratio


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


def basis_field(spec, s, gauged):
    """The spinor-basis field around s and the basis matrix at s.

    The field builds the frame at a probe point, aligns it to the frame
    at s, lifts it, unwraps its gauge angle against the one at s and
    matches its sign sheet to the matrix at s.
    """
    center = frame_at(spec, s)
    U0 = spin_lift(center.rotation())
    theta0 = None
    if gauged:
        theta0, _ = gauge_angle(center)
        U0 = gauge_rotation(-theta0 / 2.0).matrix @ U0

    def field(sp):
        if np.allclose(sp, center.s):
            return U0
        fr = align_frame(frame_at(spec, sp), center)
        U = spin_lift(fr.rotation())
        if gauged:
            raw, degenerate = gauge_angle(fr)
            theta = theta0 if degenerate else theta0 + _wrap_angle(raw - theta0)
            U = gauge_rotation(-theta / 2.0).matrix @ U
        return match_sign(U, U0)

    return field, center, U0


def reconstruct(spec, s, gauged, steps):
    """Every field of the one-point report, probe frames built one by one."""
    field, frame, U = basis_field(spec, s, gauged)
    sc = spin_connection_from_frame(frame)
    A = _coordinate_gammas(sc.f_inv)
    psi_round = U @ _ROUND
    bil = np.zeros((2, 4), dtype=complex)
    for i in range(4):
        for beta in range(2):
            bil[beta, i] = psi_round[:, i].conj() @ A[beta] @ psi_round[:, i]
    W = np.real(frame.g @ bil)
    conn = connection_from_frame(frame)
    gauge = gauge_at(conn)
    symbol = _symbol(conn, sc, gauge if gauged else None)
    residuals = [
        float(np.max(np.linalg.norm(apply_pointwise(symbol, field, frame.s, h), axis=0)))
        for h in steps
    ]
    ratio = min(safe_ratio(residuals[i], residuals[i + 1]) for i in range(len(steps) - 1))
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
