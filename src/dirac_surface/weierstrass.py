"""Frame-derived kernel spinors and tangent reconstruction.

The spin lift U of the adapted frame turns the constant spinor bases
into fields psi^[a] = U Psi^[a] (orthonormal) and psi^(i) = U Psi^(i)
(vector-valued bilinears).  ``reconstruct`` makes two numerical
verifications:

* it recovers the coordinate tangents from the metric-lowered bilinears
  W^i_alpha = g_{alpha beta} Re[ conj(psi^(i)) iota_g(sigma^beta) psi^(i) ]
  and compares them with the exact tangents from the jets;
* it differentiates the constructed spinor fields with central
  differences at each probe step of ``RESIDUAL_STEPS`` and applies the
  assembled pointwise symbol; the residual must vanish at second order
  in the probe step.

``reconstruct`` takes one point or a whole lattice: the frames at every
point and at its 4 probe points per step are built, aligned and
spin-lifted in one batch, ``_CHUNK`` points at a time.

The gauged variant is the same construction on the gauge-fixed frame,
whose normals are turned by the gauge angle theta and whose torsion is
the hatted one: its spin lift is gauge_rotation(-theta/2) U up to sign,
and the symbol it is probed with is the plain symbol of that frame.
The turn leaves the tangents alone, so the reconstruction is unchanged
by gauging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clifford import basis_round, match_sign, spin_lift
from .dirac import _symbol
from .expr import ImmersionSpec
from .geometry import (
    align_frame,
    connection_from_frame,
    frames_at,
    gauge_angle,
    gauge_at,
    _nearest_normals,
    _turned,
)


__all__ = [
    "ReconstructionReport",
    "reconstruct",
    "safe_ratio",
    "RESIDUAL_FLOOR",
    "RESIDUAL_STEPS",
]


RESIDUAL_FLOOR = 1e-13

# the probe steps of the Dirac residual, halved from one to the next
RESIDUAL_STEPS = (1e-2, 5e-3, 2.5e-3)

# points per batch of ``reconstruct``: each point brings 1 + 4
# len(RESIDUAL_STEPS) frames, so memory stays bounded on the largest lattice
_CHUNK = 512

_ROUND = np.column_stack(basis_round())


@dataclass(frozen=True)
class ReconstructionReport:
    """Tangent reconstruction and Dirac-residual diagnostics at a point.

    The report also carries the torsion of the working normal frame and
    of the gauge-fixed one.  The shapes are those of one point; for a
    stack of points every field carries the stack's leading shape.
    """

    W: np.ndarray                 # (2, 4) reconstructed tangents
    T: np.ndarray                 # (2, 4) exact tangents
    residual_bilinear: float      # max |W - T|
    max_imag: float               # largest imaginary bilinear part
    orthonormality: float         # max |conj(psi)psi - delta|
    residual_dirac: np.ndarray    # (len(RESIDUAL_STEPS),) per-step residuals
    convergence_ratio: float      # worst consecutive ratio
    torsion: np.ndarray           # (2,) Gamma^3_{alpha 4}
    hat_torsion: np.ndarray       # (2,) gauge-fixed torsion


def safe_ratio(coarse, fine):
    """Convergence ratio that treats residuals at ``RESIDUAL_FLOOR`` as converged.

    Elementwise on arrays.
    """
    fine = np.asarray(fine, dtype=float)
    converged = fine <= RESIDUAL_FLOOR
    return np.where(converged, math.inf, coarse / np.maximum(fine, RESIDUAL_FLOOR))[()]


def _stencil(steps) -> np.ndarray:
    """Offsets +-h e_alpha for every step h: shape (len(steps), 2, 2, 2),
    ordered (step, alpha, sign)."""
    h = np.multiply.outer(np.asarray(steps, dtype=float), [1.0, -1.0])
    return np.eye(2)[None, :, None, :] * h[:, None, :, None]


def _lattice_pass(spec: ImmersionSpec, S, gauged: bool) -> dict:
    """The report fields at the points S (n, 2), as arrays over n.

    A gauged pass first turns every frame by its own gauge angle (a
    degenerate probe by the angle at s): turned frames do not jump where
    the working frame's sign or pivot does.  Each point's probe frames
    (at s +- h e_alpha for every probe step h) are then aligned to the
    frame at s, and the spin matrix sign sheet is matched to the one at
    s, so the spinor field is the smooth local continuation the
    derivative needs.  For each step the residual is the worst column
    norm of A^alpha (U(s+h) - U(s-h)) / (2h) + B U(s); the ratio is
    infinite when a residual sits at the floating-point floor.
    """
    probes = S[:, None] + _stencil(RESIDUAL_STEPS).reshape(-1, 2)
    frames = frames_at(spec, np.concatenate([S[:, None], probes], axis=1))
    conn = working = connection_from_frame(frames[:, 0])
    gauge = gauge_at(working)
    if gauged:
        # a turn has period 2 pi: no angle is unwrapped.  Only the frame at
        # s is read for more than its rotation, so it alone is hatted.  The
        # unchecked nearest candidates keep atan2 off theta + pi (rounded)
        frames = replace(frames, n=_nearest_normals(frames.n, frames.n[:, :1])[0])
        theta, degenerate = gauge_angle(connection_from_frame(frames))
        frames = _turned(frames, np.where(degenerate, theta[:, :1], theta), frames.torsion)
        conn = connection_from_frame(replace(frames[:, 0], torsion=gauge.hat_torsion))
    # alignment keeps the frame at s as it is, so conn stays its connection
    frames = align_frame(frames, frames[:, :1])
    frame = conn.frame
    rotation = frames.rotation()
    # beyond their rotations the probe frames are not needed: freeing them
    # before the spin lift keeps the pass's peak memory down
    del frames
    U = spin_lift(rotation).matrix
    U = match_sign(U, U[:, :1])

    symbol = _symbol(conn)
    psi = U[:, 0] @ _ROUND
    bil = np.einsum("...ji,...bjk,...ki->...bi", psi.conj(), symbol.A, psi)
    lowered = frame.g @ bil
    W = np.real(lowered)
    gram = np.swapaxes(U[:, 0].conj(), -1, -2) @ U[:, 0]

    h = np.asarray(RESIDUAL_STEPS)[:, None, None]
    probe_U = U[:, 1:].reshape(len(S), len(RESIDUAL_STEPS), 2, 2, 4, 4)
    diff = probe_U[..., 0, :, :] - probe_U[..., 1, :, :]
    res = (symbol.B @ U[:, 0])[:, None]
    for alpha in range(2):
        res = res + symbol.A[:, None, alpha] @ diff[:, :, alpha] / (2.0 * h)
    residuals = np.max(np.linalg.norm(res, axis=-2), axis=-1)
    return {
        "W": W,
        "T": frame.e,
        "residual_bilinear": np.max(np.abs(W - frame.e), axis=(-2, -1)),
        "max_imag": np.max(np.abs(np.imag(lowered)), axis=(-2, -1)),
        "orthonormality": np.max(np.abs(gram - np.eye(4)), axis=(-2, -1)),
        "residual_dirac": residuals,
        "convergence_ratio": np.min(safe_ratio(residuals[:, :-1], residuals[:, 1:]), axis=-1),
        "torsion": working.torsion,
        "hat_torsion": gauge.hat_torsion,
    }


def reconstruct(spec: ImmersionSpec, s, gauged: bool = False) -> ReconstructionReport:
    """Recover the tangents from spinor bilinears and compare with jets.

    The Dirac residual at every probe step of ``RESIDUAL_STEPS`` and both
    torsions come from the same frame and basis.  ``s`` is one point
    (2,) or a stack of points (..., 2), e.g. a whole lattice; a failure
    names the first offending point of the stack.
    """
    s = np.asarray(s, dtype=float)
    flat = s.reshape(-1, 2)
    passes = [
        _lattice_pass(spec, flat[i : i + _CHUNK], gauged)
        for i in range(0, len(flat), _CHUNK)
    ]
    lead = s.shape[:-1]
    fields = {
        key: np.concatenate([p[key] for p in passes]).reshape(lead + value.shape[1:])[()]
        for key, value in passes[0].items()
    }
    return ReconstructionReport(**fields)
