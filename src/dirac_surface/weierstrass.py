"""Frame-derived kernel spinors and tangent reconstruction.

The spin lift U of the adapted frame turns the constant spinor bases
into fields psi^[a] = U Psi^[a] (orthonormal) and psi^(i) = U Psi^(i)
(vector-valued bilinears).  ``reconstruct`` makes two numerical
verifications:

* it recovers the coordinate tangents from the metric-lowered bilinears
  W^i_alpha = g_{alpha beta} Re[ conj(psi^(i)) iota_g(sigma^beta) psi^(i) ]
  and compares them with the exact tangents from the jets;
* with probe ``steps`` given, it differentiates the constructed spinor
  fields with central differences and applies the assembled pointwise
  symbol; the residual must vanish at second order in the probe step.

In the gauged variant the basis is built from the gauge-fixed frame:
U_hat = gauge_rotation(-theta/2) U, which is the spin lift of the
normal frame rotated by the gauge angle theta.  Because the gauge
rotation commutes with every tangent gamma, the reconstruction is
unchanged by gauging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clifford import basis_round, gauge_rotation, match_sign, spin_lift
from .dirac import (
    OperatorSymbol,
    apply_pointwise,
    spin_connection_from_frame,
    _coordinate_gammas,
    _symbol,
)
from .expr import ImmersionSpec
from .geometry import (
    FrameData,
    align_frame,
    connection_from_frame,
    frame_at,
    gauge_angle,
    gauge_at,
    _wrap_angle,
)


__all__ = [
    "KernelBasis",
    "ReconstructionReport",
    "kernel_basis_at",
    "reconstruct",
    "safe_ratio",
    "RESIDUAL_FLOOR",
]


RESIDUAL_FLOOR = 1e-13

_ROUND = np.column_stack(basis_round())


@dataclass(frozen=True)
class KernelBasis:
    """Frame-derived spinor basis at a point.

    ``psi_square`` and ``psi_round`` hold the four spinors as columns;
    cospinors are their Hermitian conjugates.
    """

    s: np.ndarray
    frame: FrameData
    U: np.ndarray
    psi_square: np.ndarray  # (4, 4), column a is U Psi^[a]
    psi_round: np.ndarray   # (4, 4), column i is U Psi^(i)
    theta: float | None = None

    def cospinor_square(self) -> np.ndarray:
        return self.psi_square.conj()


@dataclass(frozen=True)
class ReconstructionReport:
    """Tangent reconstruction and Dirac-residual diagnostics at a point.

    With the residual, the report also carries the torsion of the working
    normal frame and of the gauge-fixed one.
    """

    s: np.ndarray
    W: np.ndarray | None = None              # (2, 4) reconstructed tangents
    T: np.ndarray | None = None              # (2, 4) exact tangents
    residual_bilinear: float | None = None   # max |W - T|
    max_imag: float | None = None            # largest imaginary bilinear part
    orthonormality: float | None = None      # max |conj(psi)psi - delta|
    residual_dirac: tuple | None = None      # per-step residuals
    steps: tuple | None = None
    convergence_ratio: float | None = None   # worst consecutive ratio
    torsion: np.ndarray | None = None        # (2,) Gamma^3_{alpha 4}
    hat_torsion: np.ndarray | None = None    # (2,) gauge-fixed torsion
    gauged: bool = False


def safe_ratio(coarse: float, fine: float, floor: float = RESIDUAL_FLOOR) -> float:
    """Convergence ratio that treats residuals at the noise floor as converged."""
    if fine <= floor:
        return math.inf
    return coarse / fine


def kernel_basis_at(spec: ImmersionSpec, s, gauged: bool = False) -> KernelBasis:
    """Spin-lift the adapted frame (gauge-fixed if ``gauged``) at s."""
    return _basis_from_frame(frame_at(spec, s), gauged)


def _basis_from_frame(frame: FrameData, gauged: bool) -> KernelBasis:
    U = spin_lift(frame.rotation()).matrix
    theta = None
    if gauged:
        theta, _ = gauge_angle(frame)
        U = gauge_rotation(-theta / 2.0).matrix @ U
    return KernelBasis(
        s=frame.s,
        frame=frame,
        U=U,
        psi_square=U.copy(),
        psi_round=U @ _ROUND,
        theta=theta,
    )


def _basis_field(spec: ImmersionSpec, center: KernelBasis, gauged: bool):
    """Aligned spinor-basis field around a center point.

    Stencil frames are aligned to the center frame, the gauge angle is
    branch-unwrapped against the center angle, and the spin matrix sign
    sheet is matched to the center, so the field is the smooth local
    continuation the derivative needs.
    """

    def field(sp):
        if np.allclose(sp, center.s):
            return center.psi_square
        fr = align_frame(frame_at(spec, sp), center.frame)
        U = spin_lift(fr.rotation()).matrix
        if gauged:
            raw, degenerate = gauge_angle(fr)
            theta = center.theta if degenerate else (
                center.theta + _wrap_angle(raw - center.theta)
            )
            U = gauge_rotation(-theta / 2.0).matrix @ U
        return match_sign(U, center.U)

    return field


def _residual(spec, center: KernelBasis, symbol: OperatorSymbol, steps, gauged):
    """Per-step residuals and the worst consecutive decay ratio.

    For each probe step the residual is the worst column norm of
    A^alpha (U(s+h) - U(s-h)) / (2h) + B U(s); the ratio is infinite
    when a residual sits at the floating-point floor.
    """
    field = _basis_field(spec, center, gauged)
    residuals = []
    for step in steps:
        out = apply_pointwise(symbol, field, center.s, step)
        residuals.append(float(np.max(np.linalg.norm(out, axis=0))))
    ratios = [
        safe_ratio(residuals[i], residuals[i + 1]) for i in range(len(residuals) - 1)
    ]
    return tuple(residuals), min(ratios) if ratios else None


def reconstruct(
    spec: ImmersionSpec,
    s,
    gauged: bool = False,
    steps=None,
) -> ReconstructionReport:
    """Recover the tangents from spinor bilinears and compare with jets.

    With ``steps`` given, the Dirac residual diagnostics and both torsions
    are filled in as well, from the same frame and basis; otherwise only
    the bilinear part of the report is populated.
    """
    s = np.asarray(s, dtype=float)
    frame = frame_at(spec, s)
    basis = _basis_from_frame(frame, gauged)
    sc = spin_connection_from_frame(frame)
    A = _coordinate_gammas(sc.f_inv)

    bil = np.zeros((2, 4), dtype=complex)  # [beta, i]
    for i in range(4):
        psi = basis.psi_round[:, i]
        bar = psi.conj()
        for beta in range(2):
            bil[beta, i] = bar @ A[beta] @ psi
    W = np.real(np.einsum("ab,bi->ai", frame.g, bil))
    max_imag = float(np.max(np.abs(np.imag(np.einsum("ab,bi->ai", frame.g, bil)))))
    T = frame.e

    gram = basis.cospinor_square().T @ basis.psi_square
    ortho = float(np.max(np.abs(gram - np.eye(4))))

    report = ReconstructionReport(
        s=s,
        W=W,
        T=T.copy(),
        residual_bilinear=float(np.max(np.abs(W - T))),
        max_imag=max_imag,
        orthonormality=ortho,
        gauged=gauged,
    )
    if steps is not None:
        conn = connection_from_frame(frame)
        gauge = gauge_at(conn)
        symbol = _symbol(conn, sc, gauge if gauged else None)
        residuals, ratio = _residual(spec, basis, symbol, steps, gauged)
        report = replace(
            report,
            residual_dirac=residuals,
            steps=tuple(steps),
            convergence_ratio=ratio,
            torsion=conn.torsion,
            hat_torsion=gauge.hat_torsion,
        )
    return report
