"""Surface Dirac operator: pointwise symbols and periodic-grid assembly.

The operator acting on rank-4 spinor fields over the surface is first
order: D = A^alpha d_alpha + B with

* A^alpha = iota_g(sigma^alpha), the coordinate tangent gammas built
  from the inverse zweibein of the induced metric,
* B collecting the tangent spin connection, the normal-bundle (torsion)
  connection and the mean-curvature mass terms, all read from the exact
  2-jet of the immersion (the gauged variant also from the differenced
  gauge angle, see ``geometry.gauge_at``),

      B = sum_alpha A^alpha ( 1/2 omega_alpha iota_r(tau1 tau2)
                            + 1/2 Gamma^3_{alpha 4} sigma34 )
          + 1/2 trace3 gamma^3 + 1/2 trace4 gamma^4.

The normal-connection term makes the frame-derived kernel spinors close
for every adapted frame, torsion-free or not; it vanishes identically on
torsion-free frames.  The gauged variant rewrites the same operator in
the gauge-fixed normal frame: the mass collapses to
1/2 hat_trace3 gamma^3 and the invariant hat torsion remains as a U(1)
gauge field,

      B_gauged = sum_alpha A^alpha ( 1/2 omega_alpha iota_r(tau1 tau2)
                                   + 1/2 hat_torsion_alpha sigma34 )
                 + 1/2 hat_trace3 gamma^3.

The two symbols are exactly intertwined by the half-angle spinor gauge
rotation: D_gauged = U(-theta/2) D U(theta/2) with U = gauge_rotation
and theta the gauge angle field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .clifford import GAMMA, SIGMA34, TANGENT_SPIN_GENERATOR, gauge_rotation
from .expr import ImmersionSpec
from .geometry import (
    ConnectionData,
    FrameData,
    GaugeData,
    align_frame,
    connection_from_frame,
    frame_at,
    gauge_angle,
    gauge_at,
)


__all__ = [
    "NonPeriodicDomainError",
    "DimensionCapError",
    "SpinConnection2D",
    "OperatorSymbol",
    "DiscreteOperator",
    "spin_connection_at",
    "spin_connection_from_frame",
    "dirac_symbol",
    "gauged_dirac_symbol",
    "apply_pointwise",
    "assemble_grid_operator",
    "eigenvalues",
    "is_constant_coefficient",
    "fourier_eigenvalues",
    "multiset_distance",
    "DEFAULT_EIG_CAP",
]


DEFAULT_EIG_CAP = 4096


class NonPeriodicDomainError(ValueError):
    """Grid assembly needs both parameter directions periodic."""


class DimensionCapError(RuntimeError):
    """Requested dense operator exceeds the configured dimension cap."""


@dataclass(frozen=True)
class SpinConnection2D:
    """Zweibein of the induced metric and its spin connection component.

    ``f[a, alpha]`` satisfies g = f^T f (upper-triangular Cholesky factor,
    matching the Gram-Schmidt tangent frame); ``omega[alpha]`` is the
    single independent component omega_alpha^{12} = ehat1 . d_alpha ehat2.
    """

    f: np.ndarray
    f_inv: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class OperatorSymbol:
    """First-order pointwise operator data: D = A^alpha d_alpha + B.

    ``mass`` is the Hermitian mean-curvature block of B.  It is the
    Hermitian part of the operator in the weighted pairing: the
    connection terms together with the derivative are formally skew,
    because the divergence of the weighted leading symbol equals twice
    the tangent spin-connection block.
    """

    A: np.ndarray     # (2, 4, 4) complex
    B: np.ndarray     # (4, 4) complex
    mass: np.ndarray  # (4, 4) complex, Hermitian
    gauged: bool = False
    degenerate_gauge: bool = False


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense periodic-grid discretization with the metric volume weight."""

    n1: int
    n2: int
    h1: float
    h2: float
    matrix: np.ndarray     # (4 n1 n2, 4 n1 n2) complex
    weight: np.ndarray     # (4 n1 n2,) positive, sqrt(det g) per site
    site_A: np.ndarray     # (n1 n2, 2, 4, 4) leading symbol per site
    site_B: np.ndarray     # (n1 n2, 4, 4) zeroth-order block per site
    site_mass: np.ndarray  # (n1 n2, 4, 4) Hermitian mass block per site
    gauged: bool = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def inner(self, phi, psi) -> complex:
        """Weighted inner product sum_sites sqrt(det g) phi^dag psi dA."""
        cell = self.h1 * self.h2
        return complex(np.vdot(np.asarray(phi) * self.weight, psi) * cell)


# ---------------------------------------------------------------------------
# Spin connection
# ---------------------------------------------------------------------------


def spin_connection_from_frame(frame: FrameData) -> SpinConnection2D:
    """Zweibein and spin connection of a frame, exact from its 2-jet.

    The orthonormal tangents are ehat1 = d_1 x / |d_1 x| and its
    Gram-Schmidt partner ehat2, so the connection one-form is
    omega_alpha = ehat1 . d_alpha ehat2 = -ehat2 . d_alpha d_1 x / |d_1 x|.
    """
    f = np.linalg.cholesky(frame.g).T
    omega = -(frame.d2x[:, 0, :] @ frame.ehat[1]) / np.linalg.norm(frame.e[0])
    return SpinConnection2D(f=f, f_inv=np.linalg.inv(f), omega=omega)


def spin_connection_at(spec: ImmersionSpec, s) -> SpinConnection2D:
    """Zweibein and Levi-Civita spin connection of the induced metric."""
    return spin_connection_from_frame(frame_at(spec, s))


# ---------------------------------------------------------------------------
# Pointwise symbols
# ---------------------------------------------------------------------------


def _coordinate_gammas(f_inv) -> np.ndarray:
    """A^alpha = iota_g(sigma^alpha) with sigma^alpha = (f^{-1})^alpha_a tau_a."""
    A = np.zeros((2, 4, 4), dtype=complex)
    for alpha in range(2):
        A[alpha] = f_inv[alpha, 0] * GAMMA[0] + f_inv[alpha, 1] * GAMMA[1]
    return A


def _symbol(
    conn: ConnectionData, sc: SpinConnection2D, gauge: GaugeData | None = None
) -> OperatorSymbol:
    """The plain symbol, or the gauged one when ``gauge`` is given."""
    A = _coordinate_gammas(sc.f_inv)
    if gauge is None:
        torsion = conn.torsion
        mass = 0.5 * conn.trace3 * GAMMA[2] + 0.5 * conn.trace4 * GAMMA[3]
    else:
        torsion = gauge.hat_torsion
        mass = 0.5 * gauge.hat_trace3 * GAMMA[2]
    connection = 0.5 * sc.omega[:, None, None] * TANGENT_SPIN_GENERATOR \
        + 0.5 * torsion[:, None, None] * SIGMA34
    B = np.einsum("aij,ajk->ik", A, connection) + mass
    return OperatorSymbol(
        A=A,
        B=B,
        mass=mass,
        gauged=gauge is not None,
        degenerate_gauge=gauge is not None and gauge.degenerate,
    )


def dirac_symbol(spec: ImmersionSpec, s) -> OperatorSymbol:
    """Pointwise surface Dirac symbol in the working normal frame."""
    frame = frame_at(spec, s)
    return _symbol(connection_from_frame(frame), spin_connection_from_frame(frame))


def gauged_dirac_symbol(spec: ImmersionSpec, s) -> OperatorSymbol:
    """Pointwise symbol in the gauge-fixed frame (torsion as gauge field)."""
    frame = frame_at(spec, s)
    conn = connection_from_frame(frame)
    return _symbol(conn, spin_connection_from_frame(frame), gauge_at(spec, conn))


def apply_pointwise(symbol: OperatorSymbol, psi_field, s, h: float) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Periodic grid assembly
# ---------------------------------------------------------------------------


def _aligned_grid_frames(spec: ImmersionSpec, n1: int, n2: int):
    """Frames at every grid site, sign-aligned by a serpentine sweep.

    The pivoted normal construction can flip the normal pair across
    curves in the parameter torus; the sweep resolves those discrete
    jumps so the frame field is smooth across the grid whenever a smooth
    periodic frame exists.
    """
    (lo1, hi1), (lo2, hi2) = spec.domain
    h1 = (hi1 - lo1) / n1
    h2 = (hi2 - lo2) / n2
    frames = {}
    for j in range(n1):
        for k in range(n2):
            s = np.array([lo1 + j * h1, lo2 + k * h2])
            fr = frame_at(spec, s)
            if k > 0:
                fr = align_frame(fr, frames[(j, k - 1)], limit=2.0)
            elif j > 0:
                fr = align_frame(fr, frames[(j - 1, 0)], limit=2.0)
            frames[(j, k)] = fr
    return frames, h1, h2


def assemble_grid_operator(
    spec: ImmersionSpec,
    n1: int,
    n2: int,
    gauged: bool = False,
    cap: int = DEFAULT_EIG_CAP,
) -> DiscreteOperator:
    """Assemble the dense periodic central-difference operator.

    Each block row couples the site to its four neighbours through
    A^alpha / (2 h_alpha) and to itself through B: five blocks per row.
    The gauged operator is the exact sitewise conjugation of the plain
    one by the half-angle gauge rotations, so the two discrete operators
    are unitarily equivalent whenever the gauge angle is defined on the
    whole grid.
    """
    if not (spec.periodic[0] and spec.periodic[1]):
        raise NonPeriodicDomainError(
            "grid operator requires both directions periodic"
        )
    if n1 < 4 or n2 < 4:
        raise ValueError("grid operator needs at least 4 sites per direction")
    dim = 4 * n1 * n2
    if dim > cap:
        raise DimensionCapError(
            f"operator dimension {dim} exceeds the cap {cap}"
        )

    frames, h1, h2 = _aligned_grid_frames(spec, n1, n2)
    nsites = n1 * n2

    A_site = np.zeros((nsites, 2, 4, 4), dtype=complex)
    B_site = np.zeros((nsites, 4, 4), dtype=complex)
    mass_site = np.zeros((nsites, 4, 4), dtype=complex)
    V_site = np.zeros((nsites, 4, 4), dtype=complex)
    weight = np.zeros(dim)

    def site(j, k):
        return j * n2 + k

    for (j, k), fr in frames.items():
        sym = _symbol(connection_from_frame(fr), spin_connection_from_frame(fr))
        p = site(j, k)
        A_site[p] = sym.A
        B_site[p] = sym.B
        mass_site[p] = sym.mass
        if gauged:
            V_site[p] = gauge_rotation(gauge_angle(fr)[0] / 2.0).matrix
        weight[4 * p : 4 * p + 4] = np.sqrt(fr.det_g)

    M = np.zeros((dim, dim), dtype=complex)
    for j in range(n1):
        for k in range(n2):
            p = site(j, k)
            r = 4 * p
            M[r : r + 4, r : r + 4] += B_site[p]
            for alpha, (dj, dk, hh) in enumerate(((1, 0, h1), (0, 1, h2))):
                cp = 4 * site((j + dj) % n1, (k + dk) % n2)
                cm = 4 * site((j - dj) % n1, (k - dk) % n2)
                M[r : r + 4, cp : cp + 4] += A_site[p, alpha] / (2.0 * hh)
                M[r : r + 4, cm : cm + 4] -= A_site[p, alpha] / (2.0 * hh)

    if gauged:
        blocks = M.reshape(nsites, 4, nsites, 4)
        M = np.einsum(
            "rba,rbsc,scd->rasd", V_site.conj(), blocks, V_site
        ).reshape(dim, dim)
        A_site = np.einsum("sba,sxbc,scd->sxad", V_site.conj(), A_site, V_site)
        B_site = np.einsum("sba,sbc,scd->sad", V_site.conj(), B_site, V_site)
        mass_site = np.einsum("sba,sbc,scd->sad", V_site.conj(), mass_site, V_site)

    return DiscreteOperator(
        n1=n1,
        n2=n2,
        h1=h1,
        h2=h2,
        matrix=M,
        weight=weight,
        site_A=A_site,
        site_B=B_site,
        site_mass=mass_site,
        gauged=gauged,
    )


def eigenvalues(op: DiscreteOperator, cap: int = DEFAULT_EIG_CAP) -> np.ndarray:
    """Full spectrum of the dense operator, sorted by real then imaginary part."""
    if op.dim > cap:
        raise DimensionCapError(f"operator dimension {op.dim} exceeds the cap {cap}")
    vals = scipy.linalg.eigvals(op.matrix)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def is_constant_coefficient(op: DiscreteOperator, tol: float = 1e-10) -> bool:
    """True when the per-site symbol blocks agree across the whole grid."""
    return (
        float(np.max(np.abs(op.site_A - op.site_A[0]))) <= tol
        and float(np.max(np.abs(op.site_B - op.site_B[0]))) <= tol
    )


def fourier_eigenvalues(op: DiscreteOperator) -> np.ndarray:
    """Predicted spectrum of a constant-coefficient grid operator.

    Plane waves diagonalize the periodic central difference, so the full
    spectrum is the union over discrete modes (m, n) of the eigenvalues
    of  i [sin(m h1 k1)/h1 A^1 + sin(n h2 k2)/h2 A^2] + B  with
    k_alpha = 2 pi / (N_alpha h_alpha).
    """
    A = op.site_A[0]
    B = op.site_B[0]
    vals = []
    for m in range(op.n1):
        for n in range(op.n2):
            k1 = math.sin(2.0 * math.pi * m / op.n1) / op.h1
            k2 = math.sin(2.0 * math.pi * n / op.n2) / op.h2
            sym = 1j * (k1 * A[0] + k2 * A[1]) + B
            vals.extend(np.linalg.eigvals(sym))
    vals = np.asarray(vals)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def multiset_distance(a, b) -> float:
    """Optimal-matching distance between two eigenvalue multisets.

    Lexicographic sorting alone can pair distinct eigenvalues whose real
    parts differ only by rounding noise; the pairing here is the optimal
    assignment, so the result is robust to that.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("multisets must have equal cardinality")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
