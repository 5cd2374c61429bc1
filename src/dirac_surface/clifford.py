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
U gamma^i U^{-1} = sum_mu R^i_mu gamma^mu, in closed form (no matrix
logarithm or exponential).  U is unique up to a global sign, which is
irrelevant to every bilinear quantity downstream.
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
# the unit quaternions (I, i tau_1, i tau_2, i tau_3) used to read off the
# left factor of a lift
_BLOCKS = np.array([g[:2, 2:] for g in GAMMA])
_QUATERNIONS = np.array([_I2] + [1j * t for t in TAU[:3]])


def spin_lift(rotation, tol: float = 1e-10) -> SpinMatrix:
    """Lift a special orthogonal 4x4 matrix to the spin group.

    The lift is block-diagonal, U = diag(P, Q) with P, Q in SU(2), and
    U gamma^i U^dag = sum_mu R_i^mu gamma^mu reads P a_i Q^dag = c_i
    with c_i = sum_mu R_i^mu a_mu.  Since sum_i a_i X a_i^dag =
    2 tr(X) I for every 2x2 X, the sum S_Y = sum_i c_i Y a_i^dag equals
    2 tr(Q^dag Y) P for each unit quaternion Y in (I, i tau_1, i tau_2,
    i tau_3), and det S_Y = 4 tr(Q^dag Y)^2.  Y = I is used unless
    |tr Q| < 1/2; then the Y with the largest det S_Y is, for which
    |tr(Q^dag Y)| > 1/2.  P = S_Y / sqrt(det S_Y) and
    Q = (1/4) sum_i c_i^dag P a_i.  Of the two lifts +-U this picks the
    one with tr(Q^dag Y) > 0, so R = I lifts to U = I.
    """
    R = np.asarray(rotation, dtype=float)
    if R.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {R.shape}")
    ortho_defect = np.max(np.abs(R.T @ R - np.eye(4)))
    if ortho_defect > tol:
        raise ValueError(
            f"matrix is not orthogonal (defect {ortho_defect:.3e})"
        )
    det = np.linalg.det(R)
    if abs(det - 1.0) > tol:
        raise ValueError(f"matrix is not special orthogonal (det {det:.12f})")

    c = np.einsum("im,mab->iab", R, _BLOCKS)
    S = np.einsum("iab,ybc,idc->yad", c, _QUATERNIONS, _BLOCKS.conj())
    dets = (S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]).real
    y = 0 if dets[0] >= 1.0 else 1 + int(np.argmax(dets[1:]))
    P = S[y] / np.sqrt(dets[y])
    Q = 0.25 * np.einsum("iba,bc,icd->ad", c.conj(), P, _BLOCKS)
    U = np.zeros((4, 4), dtype=complex)
    U[:2, :2] = P
    U[2:, 2:] = Q
    return SpinMatrix(matrix=U)


def gauge_rotation(theta: float) -> SpinMatrix:
    """exp(sigma34 * theta) = cos(theta) I + sin(theta) sigma34 (unitary)."""
    theta = float(theta)
    U = np.cos(theta) * np.eye(4, dtype=complex) + np.sin(theta) * SIGMA34
    return SpinMatrix(matrix=U)


def iota_g(a) -> np.ndarray:
    """Vector-space embedding of 2d Clifford generators: a -> tau_1 (x) a."""
    return np.kron(TAU[0], np.asarray(a, dtype=complex))


def iota_r(a) -> np.ndarray:
    """Ring embedding of 2d Clifford elements: a -> I (x) a."""
    return np.kron(_I2, np.asarray(a, dtype=complex))


def match_sign(U, ref) -> np.ndarray:
    """Pick the sign sheet of U nearest to a reference spin matrix."""
    if np.linalg.norm(U - ref) <= np.linalg.norm(U + ref):
        return U
    return -U
