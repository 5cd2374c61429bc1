"""Surface Dirac operator: pointwise symbols and periodic-grid assembly.

The operator acting on rank-4 spinor fields over the surface is first
order: D = A^alpha d_alpha + B with

* A^alpha = iota_g(sigma^alpha), the coordinate tangent gammas built
  from the inverse zweibein of the induced metric,
* B collecting the tangent spin connection, the normal-bundle (torsion)
  connection and the mean-curvature mass terms, all read exactly from
  the 2-jet of the immersion and the frame's torsion,

      B = sum_alpha A^alpha ( 1/2 omega_alpha iota_r(tau1 tau2)
                            + 1/2 Gamma^3_{alpha 4} sigma34 )
          + 1/2 trace3 gamma^3 + 1/2 trace4 gamma^4.

The normal-connection term makes the frame-derived kernel spinors close
for every adapted frame, torsion-free or not; it vanishes identically on
torsion-free frames.  The gauged symbol is this same symbol in the
gauge-fixed frame, whose normals are turned by the gauge angle theta
(see ``geometry.gauge_at``): there trace4 vanishes, trace3 becomes
hat_trace3 and the torsion becomes the invariant hat torsion, which
remains as a U(1) gauge field,

      B_gauged = sum_alpha A^alpha ( 1/2 omega_alpha iota_r(tau1 tau2)
                                   + 1/2 hat_torsion_alpha sigma34 )
                 + 1/2 hat_trace3 gamma^3.

The two symbols are intertwined by the half-angle spinor gauge
rotation, D_gauged = U(-theta/2) D U(theta/2) with U = gauge_rotation,
since U(-theta/2) lifts the turn of the normals.  On the grid, gauging
conjugates the stencil alone, block by block, and keeps the plain symbol.

The operator is first order, so on the periodic grid each site's row is
five 4x4 blocks, the site's and its four neighbours': the grid operator
is kept as that 5-point stencil.  It is [[0, X], [Y, 0]] in chiral
order, and its spectrum is +-sqrt of that of the half-size square XY,
formed once as the 13-point product of the stencils of X and Y.  Where
the surface is symmetric along a parameter cycle, D commutes with the
one-site grid shift S along it: a direction is invariant when
|S D S^T - D|_max / |D|_max is at or below 1e-13
(``DiscreteOperator.shift_defect``).  On the periodic corpus files and a
ring torus at 8x8, 16x16 and 32x32, plain and gauged, invariant
directions read at most 7.1e-16 and all others at least 1.4e-2 (a
coefficient that varies smoothly moves by O(h) between sites).  Along
the invariant directions XY is reduced by Fourier mode, to the exact
restriction of XY to the Bloch waves of each mode (``_mode_blocks``).

Every coefficient of the symbol is real, so the antiunitary
J = (i tau_3 (x) tau_2) K commutes with the operator, and J = i tau_2 K,
with J^2 = -1, commutes with XY: the quaternionic class of Dyson's
threefold way.  J conjugates a Bloch phase, so it maps mode m to its
mirror -m (mod n), whose squares are the conjugates of those of m: one
mode of each mirror pair is solved.  Whether J commutes is measured on
the stencil without a solve (``DiscreteOperator.antiunitary_defect``);
on the periodic corpus files it reads exactly 0.

The spectrum is checked per mode, against data the solve already holds
(``ModeSpectrum``), each mode relative to its own scale |XY_m|_F,
raised to 1e-4 of the largest (the near-kernel cut), so that the checks
hold at any size and under any scaling of the surface: the trace
identities of every mode, the copied mirrors included
(``trace_identity_defect``), the closed-form symbol of each mode of a
constant-coefficient grid (``fourier_mode_distance``), and the
eigenvectors of one mode lifted to the grid (the mode residual).  A
block summed from the stencil carries rounding of about
eps max_k |XY_k|_F, 0.5 to 9 times that on the periodic corpus files up
to 32x32, plain and gauged, so relative to a mode at the floor the
first two checks read at most about 2e-12; on those files they read at
most 1.7e-14 and 1.0e-14.

Everything here needs numpy alone.  ``DiscreteOperator.matrix``
writes the stencil into a dense array for callers that ask for it; the
spectrum does not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .clifford import GAMMA, SIGMA34, TANGENT_SPIN_GENERATOR, gauge_rotation
from .expr import ImmersionSpec
from .geometry import (
    ConnectionData,
    connection_from_frame,
    frames_at,
    gauge_angle,
    gauge_at,
    _nearest_normals,
    _turned,
)


__all__ = [
    "NonPeriodicDomainError",
    "DimensionCapError",
    "SpectrumInvariantError",
    "OperatorSymbol",
    "DiscreteOperator",
    "ModeSpectrum",
    "dirac_symbol",
    "gauged_dirac_symbol",
    "assemble_grid_operator",
    "eigenvalues",
    "is_constant_coefficient",
    "trace_identity_defect",
    "fourier_mode_distance",
    "DEFAULT_EIG_CAP",
]


DEFAULT_EIG_CAP = 4096


class NonPeriodicDomainError(ValueError):
    """Grid assembly needs both parameter directions periodic."""


class DimensionCapError(RuntimeError):
    """A requested operator dimension or lattice size exceeds its cap."""


class SpectrumInvariantError(ArithmeticError):
    """The eigensolver found its operator or its spectrum malformed."""


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


# the offsets (along the first, along the second parameter) of the five
# sites of a stencil row: the site itself, then its neighbours at +-e_1
# and +-e_2 (distinct, as both sides have at least 4 sites)
_HOPS = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])


def _column_sites(n1: int, n2: int, offsets, sites) -> np.ndarray:
    """The site at each offset (U, 2) from each of ``sites``, on the
    periodic grid: (U, len(sites))."""
    j, k = np.divmod(sites, n2)
    return (j + offsets[:, :1]) % n1 * n2 + (k + offsets[:, 1:]) % n2


@dataclass(frozen=True)
class DiscreteOperator:
    """Periodic-grid discretization, kept as its 5-point stencil, with
    the metric volume weight.

    ``stencil[p, d]`` is the 4x4 block that couples site p to the site
    at offset ``_HOPS[d]`` from it; the neighbour sites are implied by
    the grid.  The site arrays hold the plain symbol, gauged or not."""

    n1: int
    n2: int
    h1: float
    h2: float
    stencil: np.ndarray    # (n1 n2, 5, 4, 4) complex blocks of each site's row
    weight: np.ndarray     # (4 n1 n2,) positive, sqrt(det g) per site
    site_A: np.ndarray     # (n1 n2, 2, 4, 4) leading symbol per site
    site_B: np.ndarray     # (n1 n2, 4, 4) zeroth-order block per site
    site_mass: np.ndarray  # (n1 n2, 4, 4) Hermitian mass block per site

    @property
    def dim(self) -> int:
        return 4 * self.n1 * self.n2

    @cached_property
    def matrix(self) -> np.ndarray:
        """The operator as a dense (dim, dim) complex array, 16 dim^2
        bytes (256 MiB at the cap), built from the stencil on first
        access.  The spectrum does not read it."""
        nsites = self.n1 * self.n2
        cols = _column_sites(self.n1, self.n2, _HOPS, np.arange(nsites)).T
        # rows 4 p + a, columns 4 q + b; the five hops of a row reach
        # distinct sites, and adding into zeros leaves no negative zero
        matrix = np.zeros((nsites, 4, nsites, 4), dtype=complex)
        matrix[np.arange(nsites)[:, None], :, cols] += self.stencil
        return matrix.reshape(self.dim, self.dim)

    def inner(self, phi, psi) -> complex:
        """Weighted inner product sum_sites sqrt(det g) phi^dag psi dA."""
        cell = self.h1 * self.h2
        return complex(np.vdot(np.asarray(phi) * self.weight, psi) * cell)

    @cached_property
    def shift_defect(self) -> tuple:
        """|S D S^T - D|_max / |D|_max for the one-site grid shift S along
        each parameter direction: every site's stencil row against that
        of the site one step before it."""
        grid = self.stencil.reshape(self.n1, self.n2, -1)
        size = float(np.abs(grid).max())
        return tuple(
            float(np.abs(np.roll(grid, 1, axis) - grid).max()) / size for axis in (0, 1)
        )

    @property
    def invariant_directions(self) -> tuple:
        """The directions (0 for the first parameter, 1 for the second)
        whose shift defect is at or below ``_SHIFT_INVARIANT``."""
        return tuple(a for a, d in enumerate(self.shift_defect) if d <= _SHIFT_INVARIANT)

    @cached_property
    def chiral_stencils(self) -> tuple:
        """X and Y of the operator [[0, X], [Y, 0]] in chiral order, as
        ``_chiral_stencils`` returns them."""
        return _chiral_stencils(self.stencil)

    @cached_property
    def antiunitary_defect(self) -> float:
        """How far the antiunitary J = (i tau_3 (x) tau_2) K is from
        commuting with the operator, relative to |D|_max.

        J commutes with D exactly when every 2x2 block x of X and of Y
        has the quaternion form x_11 = -conj x_22, x_12 = conj x_21;
        this is the largest miss of either equation over all blocks.
        """
        X, Y = self.chiral_stencils
        miss = max(
            max(np.abs(H[0, 0] + H[1, 1].conj()).max(), np.abs(H[0, 1] - H[1, 0].conj()).max())
            for H in (X, Y)
        )
        return float(miss) / float(np.abs(self.stencil).max())


# ---------------------------------------------------------------------------
# Pointwise symbols
# ---------------------------------------------------------------------------


def _coordinate_gammas(f_inv) -> np.ndarray:
    """A^alpha = iota_g(sigma^alpha) with sigma^alpha = (f^{-1})^alpha_a tau_a."""
    return f_inv[..., :, 0, None, None] * GAMMA[0] + f_inv[..., :, 1, None, None] * GAMMA[1]


def _scaled(c, matrix):
    """Each coefficient of the stack ``c`` times ``matrix``."""
    return np.asarray(c)[..., None, None] * matrix


def _symbol(conn: ConnectionData) -> OperatorSymbol:
    """The symbol of the frame of ``conn``.

    The zweibein f[a, alpha] is the upper-triangular Cholesky factor of
    the induced metric, g = f^T f, which matches the Gram-Schmidt tangent
    frame; its inverse gives the coordinate gammas.  Stacks of
    connections give a stack of symbols.
    """
    f = np.swapaxes(np.linalg.cholesky(conn.frame.g), -1, -2)
    A = _coordinate_gammas(np.linalg.inv(f))
    mass = _scaled(0.5 * conn.trace3, GAMMA[2]) + _scaled(0.5 * conn.trace4, GAMMA[3])
    connection = _scaled(0.5 * conn.omega, TANGENT_SPIN_GENERATOR) \
        + _scaled(0.5 * conn.torsion, SIGMA34)
    B = np.einsum("...aij,...ajk->...ik", A, connection) + mass
    return OperatorSymbol(A=A, B=B, mass=mass)


def dirac_symbol(spec: ImmersionSpec, s) -> OperatorSymbol:
    """Pointwise surface Dirac symbol in the working normal frame.

    ``s`` is one point (2,) or a stack (..., 2), which gives a stack of
    symbols.
    """
    return _symbol(connection_from_frame(frames_at(spec, s)))


def gauged_dirac_symbol(spec: ImmersionSpec, s) -> OperatorSymbol:
    """Pointwise symbol in the gauge-fixed frame (torsion as gauge field).

    This is the plain symbol of the gauge-fixed frame.  ``s`` is one
    point (2,) or a stack (..., 2), as for ``dirac_symbol``.
    """
    frame = frames_at(spec, s)
    gauge = gauge_at(connection_from_frame(frame))
    fixed = _turned(frame, gauge.theta, gauge.hat_torsion)
    return _symbol(connection_from_frame(fixed))


# ---------------------------------------------------------------------------
# Periodic grid assembly
# ---------------------------------------------------------------------------


def _aligned_grid_frames(spec: ImmersionSpec, n1: int, n2: int):
    """Frames at every grid site, sign-aligned by a sweep over the grid.

    Site p = j n2 + k sits at (lo1 + j h1, lo2 + k h2); the frames are
    built in one batch and returned as a stack over p.  The pivoted
    normal construction can flip the normal pair across curves in the
    parameter torus; the sweep, which aligns each site to the one before
    it in its row (the first site of a row to the first of the row
    before), resolves those discrete jumps so the frame field is smooth
    across the grid whenever a smooth periodic frame exists.  Only the
    first column links the rows, so it is aligned site by site and every
    later column in one call over all rows.  No limit is checked, so a
    frame jump between neighbouring sites goes unreported.
    """
    (lo1, hi1), (lo2, hi2) = spec.domain
    h1 = (hi1 - lo1) / n1
    h2 = (hi2 - lo2) / n2
    j, k = np.divmod(np.arange(n1 * n2), n2)
    frames = frames_at(spec, np.stack([lo1 + j * h1, lo2 + k * h2], axis=-1))
    n = frames.n.reshape(n1, n2, 2, 4).copy()
    for row in range(1, n1):
        n[row, 0] = _nearest_normals(n[row, 0], n[row - 1, 0])[0]
    for col in range(1, n2):
        n[:, col] = _nearest_normals(n[:, col], n[:, col - 1])[0]
    return replace(frames, n=n.reshape(-1, 2, 4)), h1, h2


def assemble_grid_operator(
    spec: ImmersionSpec,
    n1: int,
    n2: int,
    gauged: bool = False,
) -> DiscreteOperator:
    """Assemble the periodic central-difference operator as its stencil.

    Each site's row couples the site to its four neighbours through
    A^alpha / (2 h_alpha) and to itself through B: five 4x4 blocks per
    row.  The gauged operator is the exact sitewise conjugation of the
    plain one by the half-angle gauge rotations, block (p, q) becoming
    V_p^dag M_pq V_q, so the two discrete operators are unitarily
    equivalent whenever the gauge angle is defined on the whole grid, and
    the plain symbol of the site arrays serves both.
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
    conn = connection_from_frame(frames)
    sym = _symbol(conn)
    weight = np.repeat(np.sqrt(frames.det_g), 4)

    hop1 = sym.A[:, 0] / (2.0 * h1)
    hop2 = sym.A[:, 1] / (2.0 * h2)
    stencil = np.stack([sym.B, hop1, -hop1, hop2, -hop2], axis=1)
    if gauged:
        half = gauge_angle(conn)[0] / 2.0
        V = gauge_rotation(half).matrix
        # signed as spin_lift signs V's inverse, the lift of the normals'
        # turn, so that theta = pi and the -pi rounding gives a neighbour agree
        V[(np.cos(half) < 0.25) & (np.sin(half) < 0)] *= -1
        cols = _column_sites(n1, n2, _HOPS, np.arange(n1 * n2)).T
        stencil = np.swapaxes(V.conj(), -1, -2)[:, None] @ stencil @ V[cols]

    return DiscreteOperator(
        n1=n1,
        n2=n2,
        h1=h1,
        h2=h2,
        stencil=stencil,
        weight=weight,
        site_A=sym.A,
        site_B=sym.B,
        site_mass=sym.mass,
    )


# |mu| / max |mu| below which sqrt(mu) loses more than about 1e-13 of
# the eigenvalue's absolute precision, so that cluster is solved without a root
_NEAR_KERNEL = 1e-4


def _chiral_stencils(stencil):
    """X and Y of the operator written as [[0, X], [Y, 0]] in chiral order,
    as stencils (2, 2, 5, n1 n2) with the component axes first.

    gamma^5 = tau_3 (x) I is +1 on the first two components of each
    site spinor and -1 on the last two; every term of the symbol, and
    the even gauge rotation, makes the operator anticommute with it.
    """
    if np.any(stencil[..., :2, :2]) or np.any(stencil[..., 2:, 2:]):
        raise SpectrumInvariantError(
            "grid operator does not anticommute with gamma^5: "
            "a same-chirality entry is non-zero"
        )
    halves = np.moveaxis(stencil, (0, 1), (3, 2))
    return np.ascontiguousarray(halves[:2, 2:]), np.ascontiguousarray(halves[2:, :2])


def _distinct(x) -> np.ndarray:
    """The distinct values of ``x``, rising: ``np.unique`` without its
    import of ``numpy.ma``."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _stencil_product(X, Y, n1: int, n2: int) -> tuple:
    """The stencil of the product XY of two chiral stencils on the 5 hops.

    Row p of XY sums X[p, e] Y[p + e, f] over the hops e and f.  The sums
    e + f are 13 offsets; those that land on the same column site (+2 e_a
    and -2 e_a on a grid 4 wide along a) are added together.  Returns the
    distinct offsets (U, 2), reduced into the grid, and the stencil
    (2, 2, U, n1 n2).
    """
    # Y's rows at the site each hop e reaches, (b, c, e, f, p)
    reached = np.swapaxes(Y[..., _column_sites(n1, n2, _HOPS, np.arange(n1 * n2))], 2, 3)
    pairs = (X[:, :, None, :, None] * reached).sum(axis=1).reshape(2, 2, 25, -1)
    # each offset as one number, j n2 + k, which orders them lexicographically
    sums = ((_HOPS[:, None] + _HOPS) % (n1, n2)).reshape(-1, 2) @ (n2, 1)
    distinct = _distinct(sums)
    offsets = np.stack(np.divmod(distinct, n2), axis=-1)
    XY = np.zeros((2, 2, len(offsets), n1 * n2), dtype=complex)
    for pair, offset in enumerate(np.searchsorted(distinct, sums)):
        XY[:, :, offset] += pairs[:, :, pair]
    return offsets, XY


def _near_kernel_roots(blocks, cut: float, counts) -> np.ndarray:
    """The 2 k_m eigenvalues of least modulus of each mode block D_m
    (K, s, s) of the operator, k_m = ``counts[m]``.

    D_m = [[0, X_m], [Y_m, 0]] in chiral order, so its eigenvalues are
    +-sqrt of those of X_m Y_m, and the roots of the mode's k_m squares
    with |mu| <= cut come from D_m without a root.  The cluster must be
    separated in every block: its 2 k_m-th least |lambda|^2 at or below
    the cut, and the next one, if any, above it.
    """
    vals = np.linalg.eigvals(blocks)
    vals = np.take_along_axis(vals, np.argsort(np.abs(vals), axis=1), axis=1)
    squares = np.pad(np.abs(vals) ** 2, ((0, 0), (0, 1)), constant_values=math.inf)
    rows = np.arange(len(vals))
    inner, outer = squares[rows, 2 * counts - 1], squares[rows, 2 * counts]
    for k, a, b in zip(counts, inner, outer):
        if not a <= cut < b:
            raise SpectrumInvariantError(
                f"near-kernel cluster of {k} squared eigenvalues is not separated "
                f"at {cut:.3e} (|lambda|^2 {a:.3e} and the next {b:.3e})"
            )
    return vals[np.arange(vals.shape[1]) < 2 * counts[:, None]]


# |S D S^T - D|_max / |D|_max at or below which the grid shift S along a
# direction commutes with the operator up to rounding; the measured gap
# between the two kinds of direction is in the module docstring
_SHIFT_INVARIANT = 1e-13


def _cell_split(n1: int, n2: int, invariant) -> tuple:
    """Each site (j, k) as a translation along the invariant directions
    plus a site of the cell, the sites at 0 along them.

    Returns the cell's sites in grid order, the index among them of each
    site's representative, and the translations t1, t2 (0 along a
    direction that is not invariant).  With no invariant direction the
    cell is the whole grid.
    """
    j, k = np.divmod(np.arange(n1 * n2), n2)
    t1 = j if 0 in invariant else np.zeros_like(j)
    t2 = k if 1 in invariant else np.zeros_like(k)
    cell = (j - t1) * (1 if 1 in invariant else n2) + (k - t2)
    return np.flatnonzero((t1 == 0) & (t2 == 0)), cell, t1, t2


def _modes(op: DiscreteOperator, invariant) -> np.ndarray:
    """The Fourier modes (m1, m2) of the invariant directions, in row
    order (0 along a direction that is not invariant): the one mode
    (0, 0) with no invariant direction."""
    m1 = np.arange(op.n1 if 0 in invariant else 1)
    m2 = np.arange(op.n2 if 1 in invariant else 1)
    return np.stack(np.meshgrid(m1, m2, indexing="ij"), axis=-1).reshape(-1, 2)


def _mirrors(op: DiscreteOperator, invariant) -> np.ndarray:
    """The index among ``_modes(op, invariant)`` of each mode's mirror,
    the mode -m (mod n) along each invariant direction."""
    n1 = op.n1 if 0 in invariant else 1
    n2 = op.n2 if 1 in invariant else 1
    m1, m2 = np.divmod(np.arange(n1 * n2), n2)
    return -m1 % n1 * n2 + -m2 % n2


def _bloch_phases(modes, offsets, n1: int, n2: int) -> np.ndarray:
    """exp(2 pi i (m1 t1 / n1 + m2 t2 / n2)) for each mode (M, 2) and
    translation (T, 2): the (M, T) weights of the translations."""
    turns = (modes[:, None, 0] * offsets[None, :, 0] % n1) / n1 + (
        modes[:, None, 1] * offsets[None, :, 1] % n2
    ) / n2
    return np.exp(2j * math.pi * turns)


def _mode_blocks(stencil, offsets, op: DiscreteOperator, invariant, modes) -> np.ndarray:
    """The dense blocks (len(modes), c S, c S) of the given modes of a
    stencil (c, c, len(offsets), n1 n2) on the given offsets: c
    components per site (4 for the operator, 2 for XY), S sites in the
    cell.

    The block of mode m is M_m = sum_t exp(2 pi i m.t / n) M_t, where
    M_t holds the blocks of the cell's rows whose column site is its
    cell site translated by t: the exact restriction of M to the Bloch
    waves psi(s + t) = exp(2 pi i m.t / n) phi(s) of the invariant
    directions.  An offset translates every cell site by the same t, its
    component along the invariant directions, so each offset's blocks
    are added, phase-weighted, straight into every mode's block.
    """
    c = stencil.shape[0]
    sites, cell, _, _ = _cell_split(op.n1, op.n2, invariant)
    size = c * sites.size
    translations = np.where(np.isin((0, 1), invariant), offsets % (op.n1, op.n2), 0)
    phases = _bloch_phases(modes, translations, op.n1, op.n2)
    rows = (c * np.arange(sites.size) + np.arange(c)[:, None])[:, None] * size
    blocks = np.zeros((len(modes), size * size), dtype=complex)
    for d, col in enumerate(_column_sites(op.n1, op.n2, offsets, sites)):
        # one offset reaches one column site per cell site, so the entries
        # of (a, b, site) are distinct and += adds each of them
        at = rows + c * cell[col] + np.arange(c)[:, None]
        blocks[:, at] += phases[:, d, None, None, None] * stencil[:, :, d, sites]
    return blocks.reshape(len(modes), size, size)


def _lifted_residual(
    XY, offsets, op: DiscreteOperator, invariant, mode, squares, vectors
) -> float:
    """Largest |(XY - mu) psi|_inf / (|XY|_inf |psi|_inf) over the
    eigenpairs (mu, phi) of the given mode's block of the stencil XY.

    Each phi is lifted to the Bloch wave psi(s + t) = exp(2 pi i m.t / n)
    phi(s) on the grid, with phases built here from the site
    translations, apart from the reduction, and measured against the
    cell's rows of the stencil; psi is built on the sites those rows
    reach, and on the cell's own sites it is phi.  Within the shift
    defect every other row of XY repeats one of those, times the wave's
    phase, so they bound the residual on the whole grid.
    """
    sites, cell, t1, t2 = _cell_split(op.n1, op.n2, invariant)
    cols = _column_sites(op.n1, op.n2, offsets, sites)
    rows = XY[..., sites]
    scale = float(np.abs(rows).sum(axis=(1, 2)).max())
    m1, m2 = mode
    wave = np.exp(2j * math.pi * (m1 * t1[cols] / op.n1 + m2 * t2[cols] / op.n2))
    psi = wave[..., None, None] * vectors[2 * cell[cols][..., None] + np.arange(2)]
    applied = np.einsum("abuc,ucbk->cak", rows, psi).reshape(vectors.shape)
    residual = np.abs(applied - vectors * squares).max(axis=0)
    return float(np.max(residual / (scale * np.abs(vectors).max(axis=0))))


@dataclass(frozen=True)
class ModeSpectrum:
    """The spectrum of a grid operator by Fourier mode of its invariant
    directions, row i for the mode ``modes[i]``, the copied mirrors
    included (with no invariant direction the one mode is the whole XY).
    The traces and the norm are those of each mode's own block."""

    modes: np.ndarray    # (M, 2) int, (m1, m2), 0 along a direction that is not invariant
    squares: np.ndarray  # (M, s) complex, the eigenvalues mu of XY_m
    roots: np.ndarray    # (M, 2 s) complex, the operator's: +-sqrt(mu), or the near-kernel roots
    traces: np.ndarray   # (M, 2) complex, tr XY_m and tr XY_m^2
    norms: np.ndarray    # (M,) |XY_m|_F


def _block_traces(blocks) -> tuple:
    """tr B and tr B^2, (K, 2), and |B|_F, (K,), of each block of a stack
    (K, s, s), with no temporary the size of the stack."""
    flat = blocks.reshape(len(blocks), -1).view(float)
    traces = np.stack(
        [np.trace(blocks, axis1=1, axis2=2), np.einsum("kij,kji->k", blocks, blocks)], axis=1
    )
    return traces, np.sqrt(np.einsum("kx,kx->k", flat, flat))


def eigenvalues(
    op: DiscreteOperator, return_squares: bool = False, return_residual: bool = False
):
    """Full spectrum of the grid operator, sorted by real then imaginary part.

    The operator is [[0, X], [Y, 0]] in chiral order, so its spectrum is
    +-sqrt(mu) over the eigenvalues mu of the half-size product XY,
    reduced by Fourier mode of the invariant directions
    (``_mode_blocks``; with none the one mode is the whole XY).  The
    blocks of the lower mode of each mirror pair (m and -m mod n along
    the invariant directions) and of the self-mirror modes are solved in
    one stacked ``eigvals`` call, except that when some direction is
    invariant the mode 1 along every invariant direction is solved by
    ``eig``, and its eigenvectors are checked against the stencil XY
    (``_lifted_residual``).  Each mirror gets the conjugates of its
    partner's squares: that takes the antiunitary J to commute with the
    operator, which is measured as ``op.antiunitary_defect`` and not
    checked here.  The mirrors' own blocks are built for their traces
    alone, so that ``trace_identity_defect`` measures every mode against
    its own block.
    Squares with |mu| <= 1e-4 max|mu| over all modes, whose root would
    lose precision, are taken from their modes' blocks of the operator
    itself, [[0, X_m], [Y_m, 0]], whose eigenvalues are +-sqrt(mu):
    ``_near_kernel_roots`` keeps each block's 2k least and checks their
    gap to the rest.

    With ``return_squares`` the squares are returned as well, by mode,
    as a ``ModeSpectrum`` that also holds each mode's values, unsorted,
    and the traces of its block, and with ``return_residual`` the lifted
    residual (None with no invariant direction).
    """
    X, Y = op.chiral_stencils
    offsets, XY = _stencil_product(X, Y, op.n1, op.n2)
    invariant = op.invariant_directions
    modes = _modes(op, invariant)
    index = np.arange(len(modes))
    mirror = _mirrors(op, invariant)
    # one mode of each mirror pair, the lower, and the self-mirror modes
    solved = np.flatnonzero(index <= mirror)
    copied = mirror < index
    traces = np.empty((len(modes), 2), dtype=complex)
    norms = np.empty(len(modes))
    if copied.any():
        traces[copied], norms[copied] = _block_traces(
            _mode_blocks(XY, offsets, op, invariant, modes[copied])
        )
    blocks = _mode_blocks(XY, offsets, op, invariant, modes[solved])
    traces[solved], norms[solved] = _block_traces(blocks)
    residual = None
    if invariant:
        # the mode 1 along every invariant direction, below its mirror
        # n - 1: m = 0 and m = n/2 have real phases, which a conjugated
        # phase leaves unchanged
        (sample,) = np.flatnonzero(np.all(modes[solved] == np.isin((0, 1), invariant), axis=1))
        mu = np.empty(blocks.shape[:2], dtype=complex)
        mu[:sample] = np.linalg.eigvals(blocks[:sample])
        mu[sample + 1:] = np.linalg.eigvals(blocks[sample + 1:])
        mu[sample], vectors = np.linalg.eig(blocks[sample])
        residual = _lifted_residual(
            XY, offsets, op, invariant, modes[solved[sample]], mu[sample], vectors
        )
    else:
        mu = np.linalg.eigvals(blocks)
    del blocks  # before any near-kernel blocks are built
    # J maps mode m to -m, so each mirror's squares are the conjugates of
    # its partner's
    mu = mu[np.searchsorted(solved, np.minimum(index, mirror))]
    mu[copied] = np.conj(mu[copied])
    roots = np.sqrt(mu)
    roots = np.concatenate([roots, -roots], axis=1)
    size = np.abs(mu)
    small = size <= _NEAR_KERNEL * size.max()
    if small.any():
        # cut half way between the cluster and the rest of the spectrum
        cut = 0.5 * (size[small].max() + size[~small].min())
        near = small.any(axis=1)
        # the operator's own stencil, laid out as X and Y are
        D = np.moveaxis(op.stencil, (0, 1), (3, 2))
        D = _mode_blocks(D, _HOPS, op, invariant, modes[near])
        # each near mode's 2k roots in place of the roots of its k squares
        held = roots[near]
        held[np.concatenate([small[near], small[near]], axis=1)] = _near_kernel_roots(
            D, cut, small[near].sum(axis=1)
        )
        roots[near] = held
    vals = roots.ravel()
    vals = vals[np.lexsort((vals.imag, vals.real))]
    out = [vals]
    if return_squares:
        out.append(ModeSpectrum(modes=modes, squares=mu, roots=roots, traces=traces, norms=norms))
    if return_residual:
        out.append(residual)
    return tuple(out) if len(out) > 1 else vals


# largest relative spread of the site symbols, against their largest
# entry, at which a grid is constant-coefficient
_CONSTANT_TOL = 1e-10


def is_constant_coefficient(op: DiscreteOperator) -> bool:
    """True when the per-site symbol blocks agree across the whole grid,
    entry by entry to ``_CONSTANT_TOL`` of their largest entry: A against
    max|site_A|, B against max|site_B|."""
    return all(
        float(np.abs(site - site[0]).max()) <= _CONSTANT_TOL * float(np.abs(site).max())
        for site in (op.site_A, op.site_B)
    )


def _floored(norms) -> np.ndarray:
    """Each mode's |XY_m|_F, raised to 1e-4 of the largest, the
    near-kernel cut of ``eigenvalues``."""
    return np.maximum(norms, _NEAR_KERNEL * norms.max(initial=0.0))


def trace_identity_defect(spectrum: ModeSpectrum) -> float:
    """How far each mode's squares are from the traces of its block, as
    the backward error of the solve they imply: the largest over the
    modes of

        |sum mu - tr XY_m| / (sqrt(s) |XY_m|_F)   and
        |sum mu^2 - tr XY_m^2| / (2 |XY_m|_F^2),

    s squares per mode, |XY_m|_F floored by ``_floored``.  Eigenvalues
    computed with backward error E, exact for XY_m + E, miss the first
    identity by |tr E| <= sqrt(s) |E|_F and the second by
    |2 tr(XY_m E) + tr E^2| <= 2 |XY_m|_F |E|_F + |E|_F^2, so both read
    |E|_F / |XY_m|_F to first order.  A copied mirror's squares are held
    against the traces of its own block, so a mirror copied wrong fails
    here, whatever the copy got wrong."""
    mu = spectrum.squares
    scale = _floored(spectrum.norms)
    first = np.abs(mu.sum(axis=1) - spectrum.traces[:, 0]) / (math.sqrt(mu.shape[1]) * scale)
    second = np.abs((mu * mu).sum(axis=1) - spectrum.traces[:, 1]) / (2.0 * scale**2)
    return float(np.maximum(first, second).max())


def _mode_symbols(op: DiscreteOperator, modes) -> np.ndarray:
    """The closed-form 4x4 symbols i [sin(2 pi m1 / n1)/h1 A^1 +
    sin(2 pi m2 / n2)/h2 A^2] + B of site 0 at the given modes: plane
    waves diagonalize the periodic central difference of a
    constant-coefficient grid."""
    A = op.site_A[0]
    k1 = np.sin(2.0 * math.pi * modes[:, 0] / op.n1) / op.h1
    k2 = np.sin(2.0 * math.pi * modes[:, 1] / op.n2) / op.h2
    return 1j * (_scaled(k1, A[0]) + _scaled(k2, A[1])) + op.site_B[0]


def fourier_mode_distance(op: DiscreteOperator, spectrum: ModeSpectrum) -> float:
    """Each mode's values against the eigenvalues of the closed-form
    symbol at that mode, on a constant-coefficient grid reduced along
    both directions (one site per cell, four values per mode): the
    largest over the modes of their bottleneck distance, every pairing
    tried, so that ties cannot mislead it, relative to the mode's root
    scale sqrt(|XY_m|_F), floored by ``_floored``."""
    if spectrum.roots.shape[1] != 4:
        raise ValueError("the Fourier oracle needs one site per mode")
    predicted = np.linalg.eigvals(_mode_symbols(op, spectrum.modes))
    # the largest pair of every pairing of each mode's values, tried all
    cost = np.abs(spectrum.roots[:, :, None] - predicted[:, None, :])
    pairings = np.array(list(itertools.permutations(range(4))))
    distance = cost[:, np.arange(4), pairings].max(axis=2).min(axis=1)
    return float((distance / np.sqrt(_floored(spectrum.norms))).max())
