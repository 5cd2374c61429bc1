"""Surface Dirac operator: pointwise symbols and periodic-grid assembly.

The operator acting on rank-4 spinor fields over the surface is first
order: D = A^alpha d_alpha + B with

* A^alpha = iota_g(sigma^alpha), the coordinate tangent gammas built
  from the inverse zweibein of the induced metric,
* B collecting the tangent spin connection, the normal-bundle (torsion)
  connection and the mean-curvature mass terms, all read exactly from
  the 3-jet of the immersion (the gauged variant also from the exact
  gradient of the gauge angle, see ``geometry.gauge_at``),

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
import scipy.sparse

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
    """A requested operator dimension or lattice size exceeds its cap."""


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
    """Sparse periodic-grid discretization with the metric volume weight."""

    n1: int
    n2: int
    h1: float
    h2: float
    matrix: scipy.sparse.csr_array  # (4 n1 n2, 4 n1 n2) complex
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
    return _symbol(conn, spin_connection_from_frame(frame), gauge_at(conn))


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
) -> DiscreteOperator:
    """Assemble the sparse periodic central-difference operator.

    Each block row couples the site to its four neighbours through
    A^alpha / (2 h_alpha) and to itself through B: five 4x4 blocks per
    row, stored as CSR.  The gauged operator is the exact sitewise
    conjugation of the plain one by the half-angle gauge rotations,
    block (p, q) becoming V_p^dag M_pq V_q, so the two discrete operators
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
    if dim > DEFAULT_EIG_CAP:
        raise DimensionCapError(
            f"operator dimension {dim} exceeds the cap {DEFAULT_EIG_CAP}"
        )

    frames, h1, h2 = _aligned_grid_frames(spec, n1, n2)
    nsites = n1 * n2

    # site p = j n2 + k; the sweep visits the sites in that order
    A_site = np.zeros((nsites, 2, 4, 4), dtype=complex)
    B_site = np.zeros((nsites, 4, 4), dtype=complex)
    mass_site = np.zeros((nsites, 4, 4), dtype=complex)
    V_site = np.zeros((nsites, 4, 4), dtype=complex)
    weight = np.zeros(dim)
    for p, fr in enumerate(frames.values()):
        sym = _symbol(connection_from_frame(fr), spin_connection_from_frame(fr))
        A_site[p] = sym.A
        B_site[p] = sym.B
        mass_site[p] = sym.mass
        if gauged:
            V_site[p] = gauge_rotation(gauge_angle(fr)[0] / 2.0).matrix
        weight[4 * p : 4 * p + 4] = np.sqrt(fr.det_g)

    # block columns of each block row: the site, then its neighbours at
    # +-e_1 and +-e_2 (distinct, as both sides have at least 4 sites)
    j, k = np.divmod(np.arange(nsites), n2)
    cols = np.stack(
        [
            j * n2 + k,
            (j + 1) % n1 * n2 + k,
            (j - 1) % n1 * n2 + k,
            j * n2 + (k + 1) % n2,
            j * n2 + (k - 1) % n2,
        ],
        axis=1,
    )
    hop1 = A_site[:, 0] / (2.0 * h1)
    hop2 = A_site[:, 1] / (2.0 * h2)
    blocks = np.stack([B_site, hop1, -hop1, hop2, -hop2], axis=1)

    if gauged:
        blocks = np.einsum("pba,pxbc,pxcd->pxad", V_site.conj(), blocks, V_site[cols])
        A_site = np.einsum("sba,sxbc,scd->sxad", V_site.conj(), A_site, V_site)
        B_site = np.einsum("sba,sbc,scd->sad", V_site.conj(), B_site, V_site)
        mass_site = np.einsum("sba,sbc,scd->sad", V_site.conj(), mass_site, V_site)

    matrix = scipy.sparse.bsr_array(
        (blocks.reshape(-1, 4, 4), cols.ravel(), np.arange(0, 5 * nsites + 1, 5)),
        shape=(dim, dim),
    ).tocsr()
    matrix.eliminate_zeros()

    return DiscreteOperator(
        n1=n1,
        n2=n2,
        h1=h1,
        h2=h2,
        matrix=matrix,
        weight=weight,
        site_A=A_site,
        site_B=B_site,
        site_mass=mass_site,
        gauged=gauged,
    )


# |mu| / max |mu| below which sqrt(mu) loses more than about 1e-13 of
# the eigenvalue's absolute precision, so that cluster is re-solved
_NEAR_KERNEL = 1e-4


def _chiral_blocks(matrix):
    """X and Y of the operator written as [[0, X], [Y, 0]] in chiral order.

    gamma^5 = tau_3 (x) I is +1 on the first two components of each
    site spinor and -1 on the last two; every term of the symbol, and
    the even gauge rotation, makes the operator anticommute with it.
    """
    index = np.arange(matrix.shape[0])
    plus = index[index % 4 < 2]
    minus = index[index % 4 >= 2]
    rows_plus = matrix[plus]
    rows_minus = matrix[minus]
    if rows_plus[:, plus].count_nonzero() or rows_minus[:, minus].count_nonzero():
        raise ValueError(
            "grid operator does not anticommute with gamma^5: "
            "a same-chirality entry is non-zero"
        )
    return rows_plus[:, minus], rows_minus[:, plus]


def _near_kernel_eigenvalues(X, Y, XY, cut: float, count: int) -> np.ndarray:
    """Eigenvalues of [[0, X], [Y, 0]] whose squares have |mu| <= cut.

    V spans the invariant subspace of XY and W that of YX for those mu;
    X maps W into V and Y maps V into W, so the operator restricted to
    V + W is [[0, V^dag X W], [W^dag Y V, 0]], solved without a root.
    """
    select = lambda z: abs(z) <= cut  # noqa: E731
    _, V, kv = scipy.linalg.schur(XY, output="complex", sort=select)
    _, W, kw = scipy.linalg.schur((Y @ X).toarray(), output="complex", sort=select)
    if kv != count or kw != count:
        raise ArithmeticError(
            f"near-kernel cluster of {count} squared eigenvalues is not "
            f"separated at {cut:.3e} (Schur forms select {kv} and {kw})"
        )
    V = V[:, :count]
    W = W[:, :count]
    zero = np.zeros((count, count))
    return scipy.linalg.eigvals(
        np.block([[zero, V.conj().T @ (X @ W)], [W.conj().T @ (Y @ V), zero]])
    )


def eigenvalues(op: DiscreteOperator, return_squares: bool = False):
    """Full spectrum of the grid operator, sorted by real then imaginary part.

    The operator is [[0, X], [Y, 0]] in chiral order, so its spectrum is
    +-sqrt(mu) over the eigenvalues mu of the half-size product XY.
    Squares with |mu| <= 1e-4 max|mu|, whose root would lose precision,
    are re-solved on their invariant subspace.  With ``return_squares``
    the eigenvalues mu of XY (unsorted, 2 n1 n2 of them) are returned as
    well.
    """
    if op.dim > DEFAULT_EIG_CAP:
        raise DimensionCapError(
            f"operator dimension {op.dim} exceeds the cap {DEFAULT_EIG_CAP}"
        )
    X, Y = _chiral_blocks(op.matrix)
    XY = (X @ Y).toarray()
    mu = scipy.linalg.eigvals(XY)
    size = np.abs(mu)
    small = size <= _NEAR_KERNEL * size.max()
    roots = np.sqrt(mu[~small])
    vals = np.concatenate([roots, -roots])
    if small.any():
        # cut half way between the cluster and the rest of the spectrum
        cut = 0.5 * (size[small].max() + size[~small].min())
        vals = np.concatenate(
            [vals, _near_kernel_eigenvalues(X, Y, XY, cut, int(small.sum()))]
        )
    vals = vals[np.lexsort((vals.imag, vals.real))]
    return (vals, mu) if return_squares else vals


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
