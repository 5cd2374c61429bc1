"""Clifford algebra of Euclidean 4-space and spin lifts of SO(4) frames.

Conventions: with Pauli matrices tau_1..tau_3 and tau_4 = I, the four
gamma matrices are

    gamma^i = tau_1 (x) tau_i   (i = 1, 2, 3),
    gamma^4 = tau_2 (x) I,

which are Hermitian, square to the identity and pairwise anticommute.
In this chiral representation every gamma^mu is block off-diagonal,
[[0, a_mu], [a_mu^dag, 0]] with a_mu = (tau_1, tau_2, tau_3, -i I), so
Spin(4) acts block-diagonally as SU(2) x SU(2).  ``spin_lift`` maps a
special orthogonal 4x4 matrix R to the unitary U = diag(P, Q) with
U gamma^i U^{-1} = sum_mu R^i_mu gamma^mu.  The unit quaternions of P and
Q are the factors of the rank-one associate matrix of R (Van Elfrinkhof's
formula; Mebius, arXiv:math/0501249).  U is unique up to a global sign,
which is irrelevant to every bilinear quantity downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


__all__ = [
    "SpinMatrix",
    "GAMMA",
    "SIGMA34",
    "TANGENT_SPIN_GENERATOR",
    "gamma",
    "basis_square",
    "basis_round",
    "cospinor",
    "so4_pairing",
    "spin_lift",
    "gauge_rotation",
    "iota_g",
    "iota_r",
    "match_sign",
]


_I2 = np.eye(2, dtype=complex)
TAU = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    _I2,
)

# gamma^1..gamma^4; index 0 unused so that gamma(i) is 1-based like the math
GAMMA = (
    np.kron(TAU[0], TAU[0]),
    np.kron(TAU[0], TAU[1]),
    np.kron(TAU[0], TAU[2]),
    np.kron(TAU[1], TAU[3]),
)

# generator of normal-plane rotations: gamma^3 gamma^4 = i diag(1,-1,-1,1)
SIGMA34 = GAMMA[2] @ GAMMA[3]

# image of the 2d volume element tau_1 tau_2 under the ring embedding
TANGENT_SPIN_GENERATOR = np.kron(_I2, TAU[0] @ TAU[1])


@dataclass(frozen=True)
class SpinMatrix:
    """A unitary spin transformation.

    ``flagged`` is always False: the closed-form lift has no branch to
    pick.  The field stays so that code reading it keeps working.
    """

    matrix: np.ndarray
    flagged: bool = False


def gamma(i: int) -> np.ndarray:
    """Return gamma^i for i in 1..4."""
    if i not in (1, 2, 3, 4):
        raise IndexError(f"gamma index out of range: {i}")
    return GAMMA[i - 1]


def basis_square():
    """The four standard unit spinors (orthonormal under the pairing)."""
    return tuple(np.eye(4, dtype=complex)[:, a].copy() for a in range(4))


def basis_round():
    """Constant spinors whose gamma bilinears give the coordinate one-forms.

    For the k-th spinor psi the 4-vector with components
    conj(psi) gamma^j psi equals the k-th standard basis vector.
    """
    return (
        0.5 * np.array([1, 1, 1, 1], dtype=complex),
        0.5 * np.array([1, 1j, 1, 1j], dtype=complex),
        np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2.0),
        0.5 * np.array([1, 1, 1j, 1j], dtype=complex),
    )


def cospinor(psi) -> np.ndarray:
    """Hermitian-conjugate row form of a spinor."""
    return np.conj(np.asarray(psi, dtype=complex))


def so4_pairing(psi_bar, psi) -> np.ndarray:
    """Component j is psi_bar . gamma^j . psi  (j = 1..4)."""
    psi_bar = np.asarray(psi_bar, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    return np.array([psi_bar @ g @ psi for g in GAMMA])


# upper-right 2x2 blocks a_mu of gamma^mu = [[0, a_mu], [a_mu^dag, 0]], and
# the unit quaternions Y = (I, i tau_1, i tau_2, i tau_3)
_BLOCKS = np.array([g[:2, 2:] for g in GAMMA])
_QUATERNIONS = np.array([_I2] + [1j * t for t in TAU[:3]])

# R.reshape(16) @ _ASSOCIATE is the associate matrix of R: entry
# ((i, mu), (y, k)) is tr(a_mu Y_y a_i^dag Y_k^dag) / 2, which is 0 or +-1
_ASSOCIATE = np.einsum("mab,ybc,idc,kad->imyk", _BLOCKS, _QUATERNIONS, _BLOCKS.conj(),
                       _QUATERNIONS.conj()).real.reshape(16, 16) / 2
# (p, q) @ _EMBED.reshape(8, 16) is diag(sum_k p_k Y_k, sum_k q_k Y_k)
_EMBED = np.zeros((8, 4, 4), dtype=complex)
_EMBED[:4, :2, :2] = _EMBED[4:, 2:, 2:] = _QUATERNIONS

# largest defect of R^T R = I and det R = 1 that ``spin_lift`` accepts
_SO4_TOL = 1e-10


def spin_lift(rotation) -> SpinMatrix:
    """Lift a special orthogonal 4x4 matrix to the spin group.

    The lift is block-diagonal, U = diag(P, Q) with P = sum_k p_k Y_k and
    Q = sum_k q_k Y_k for unit 4-vectors p, q.  U gamma^i U^dag =
    sum_mu R_i^mu gamma^mu reads P a_i Q^dag = sum_mu R_i^mu a_mu, and the
    fixed table ``_ASSOCIATE`` maps R to its associate matrix
    M = 4 q p^T (Van Elfrinkhof's formula; Mebius, arXiv:math/0501249).
    Row y of M is 4 q_y p, of squared norm 16 q_y^2.  Row 0 is used unless
    |q_0| < 1/4; then the longest row is, for which |q_y| > 1/4.  Then
    p = M_y / |M_y| and q = M p / 4.  Of the two lifts +-U this picks the
    one with q_y = tr(Q^dag Y_y) / 2 > 0, so R = I lifts to U = I.

    ``rotation`` may be a stack (..., 4, 4); the lift is then the stack
    of the lifts, and the checks hold for every matrix of it.
    """
    R = np.asarray(rotation, dtype=float)
    if R.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {R.shape}")
    ortho_defect = np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(4)))
    if ortho_defect > _SO4_TOL:
        raise ValueError(
            f"matrix is not orthogonal (defect {ortho_defect:.3e})"
        )
    det = np.ravel(np.linalg.det(R))
    worst = int(np.argmax(np.abs(det - 1.0)))
    if abs(det[worst] - 1.0) > _SO4_TOL:
        raise ValueError(f"matrix is not special orthogonal (det {det[worst]:.12f})")

    M = (R.reshape(-1, 16) @ _ASSOCIATE).reshape(R.shape)
    dets = np.sum(M * M, axis=-1)
    y = np.where(dets[..., 0] >= 1.0, 0, 1 + np.argmax(dets[..., 1:], axis=-1))
    p = np.take_along_axis(M, y[..., None, None], axis=-2)[..., 0, :]
    p = p / np.sqrt(np.take_along_axis(dets, y[..., None], axis=-1))
    q = 0.25 * (M @ p[..., None])[..., 0]
    U = np.concatenate([p, q], axis=-1) @ _EMBED.reshape(8, 16)
    return SpinMatrix(matrix=U.reshape(R.shape))


def gauge_rotation(theta) -> SpinMatrix:
    """exp(sigma34 * theta) = cos(theta) I + sin(theta) sigma34 (unitary).

    An array of angles gives the stack of rotations.
    """
    theta = np.asarray(theta, dtype=float)[..., None, None]
    U = np.cos(theta) * np.eye(4, dtype=complex) + np.sin(theta) * SIGMA34
    return SpinMatrix(matrix=U)


def iota_g(a) -> np.ndarray:
    """Vector-space embedding of 2d Clifford generators: a -> tau_1 (x) a."""
    return np.kron(TAU[0], np.asarray(a, dtype=complex))


def iota_r(a) -> np.ndarray:
    """Ring embedding of 2d Clifford elements: a -> I (x) a."""
    return np.kron(_I2, np.asarray(a, dtype=complex))


def match_sign(U, ref) -> np.ndarray:
    """Pick the sign sheet of U nearest to a reference spin matrix.

    On stacks each matrix is matched to its own (broadcast) reference.
    """
    keep = np.linalg.norm(U - ref, axis=(-2, -1)) <= np.linalg.norm(U + ref, axis=(-2, -1))
    return np.where(keep[..., None, None], U, -U)
