import numpy as np
import pytest
import scipy.linalg

from dirac_surface.clifford import (
    GAMMA,
    SIGMA34,
    basis_round,
    basis_square,
    cospinor,
    gamma,
    gauge_rotation,
    iota_g,
    iota_r,
    match_sign,
    so4_pairing,
    spin_lift,
)
from conftest import rng_seed

TAU1 = np.array([[0, 1], [1, 0]], dtype=complex)
TAU2 = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_anticommutation_exact():
    for i in range(1, 5):
        for j in range(1, 5):
            anti = gamma(i) @ gamma(j) + gamma(j) @ gamma(i)
            expected = 2.0 * np.eye(4) if i == j else np.zeros((4, 4))
            assert np.array_equal(anti, expected)


def test_gammas_hermitian_and_square_to_identity():
    for i in range(1, 5):
        g = gamma(i)
        assert np.array_equal(g, g.conj().T)
        assert np.array_equal(g @ g, np.eye(4, dtype=complex))


def test_gamma1_is_antidiagonal_ones():
    assert np.array_equal(gamma(1), np.fliplr(np.eye(4, dtype=complex)))


def test_gamma4_block_structure():
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, 2:] = -1j * np.eye(2)
    expected[2:, :2] = 1j * np.eye(2)
    assert np.array_equal(gamma(4), expected)


def test_gamma_index_error():
    with pytest.raises(IndexError):
        gamma(0)
    with pytest.raises(IndexError):
        gamma(5)


def test_orthonormal_relation_exact():
    basis = basis_square()
    for a in range(4):
        for b in range(4):
            val = cospinor(basis[a]) @ basis[b]
            assert val == (1.0 if a == b else 0.0)


def test_so4_representation_vectors():
    for k, psi in enumerate(basis_round()):
        vec = so4_pairing(cospinor(psi), psi)
        expected = np.zeros(4)
        expected[k] = 1.0
        # the third basis spinor has 1/sqrt(2) entries: one rounding step
        assert np.max(np.abs(vec - expected)) <= 1e-15


def test_pairing_sesquilinear():
    psi = basis_round()[2]
    scaled = so4_pairing(cospinor(psi), (2.0 - 1.0j) * psi)
    base = so4_pairing(cospinor(psi), psi)
    assert np.allclose(scaled, (2.0 - 1.0j) * base, atol=1e-15)


def test_pairing_bounded_on_unit_spinors():
    psi = basis_square()[0]
    vec = so4_pairing(cospinor(psi), psi)
    assert np.all(np.abs(vec) <= 1.0 + 1e-15)


def test_spin_lift_identity():
    assert np.allclose(spin_lift(np.eye(4)).matrix, np.eye(4), atol=1e-15)


def test_spin_lift_quarter_turn_34_plane():
    # rotation by pi/2 in the (3,4) plane, generated by A with A_34 = pi/2
    A = np.zeros((4, 4))
    A[2, 3] = np.pi / 2
    A[3, 2] = -np.pi / 2
    R = scipy.linalg.expm(A)
    U = spin_lift(R).matrix
    r2 = np.sqrt(2.0)
    expected = np.diag(
        [(1 - 1j) / r2, (1 + 1j) / r2, (1 + 1j) / r2, (1 - 1j) / r2]
    )
    assert np.max(np.abs(U - expected)) <= 1e-12


def _random_rotations(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        raw = rng.normal(size=(4, 4))
        yield scipy.linalg.expm(raw - raw.T)


def test_spin_lift_conjugation_identity():
    worst = 0.0
    for R in _random_rotations(100, rng_seed()):
        U = spin_lift(R).matrix
        Uinv = U.conj().T
        for i in range(4):
            lhs = U @ gamma(i + 1) @ Uinv
            rhs = sum(R[i, mu] * gamma(mu + 1) for mu in range(4))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-10


def test_spin_lift_unitary_unit_determinant():
    for R in _random_rotations(20, rng_seed() + 1):
        U = spin_lift(R).matrix
        assert np.max(np.abs(U @ U.conj().T - np.eye(4))) <= 1e-12
        assert abs(np.linalg.det(U) - 1.0) <= 1e-12


def test_spin_lift_group_action_up_to_sign():
    # with U gamma U^{-1} = R gamma, composition reverses: the lift of
    # R2 R1 is U(R1) U(R2) up to the global sign
    rots = list(_random_rotations(10, rng_seed() + 2))
    for R1, R2 in zip(rots[::2], rots[1::2]):
        U12 = spin_lift(R2 @ R1).matrix
        Uprod = spin_lift(R1).matrix @ spin_lift(R2).matrix
        aligned = match_sign(Uprod, U12)
        assert np.max(np.abs(aligned - U12)) <= 1e-10


def test_spin_lift_bilinears_transform_as_vectors():
    for R in _random_rotations(25, rng_seed() + 3):
        U = spin_lift(R).matrix
        for k, psi in enumerate(basis_round()):
            rotated = U @ psi
            vec = so4_pairing(cospinor(rotated), rotated)
            assert np.max(np.abs(vec - R[k, :])) <= 1e-10


def test_spin_lift_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        spin_lift(np.diag([2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        spin_lift(np.diag([-1.0, 1.0, 1.0, 1.0]))  # det -1


def _conjugation_defect(U, R):
    worst = 0.0
    for i in range(4):
        lhs = U @ gamma(i + 1) @ U.conj().T
        rhs = sum(R[i, mu] * gamma(mu + 1) for mu in range(4))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _generator_lift(A):
    """exp(-(1/4) sum_ij A_ij gamma^i gamma^j), a lift of expm(A)."""
    omega = 0.25 * sum(
        A[i, j] * GAMMA[i] @ GAMMA[j] for i in range(4) for j in range(4)
    )
    return scipy.linalg.expm(-omega)


def _half_turns(*planes):
    A = np.zeros((4, 4))
    for i, j in planes:
        A[i, j], A[j, i] = np.pi, -np.pi
    return A


def test_spin_lift_pi_rotation():
    # a half turn has no preferred logarithm; the closed form needs none
    R = np.diag([-1.0, -1.0, 1.0, 1.0])
    lifted = spin_lift(R)
    assert not lifted.flagged
    assert _conjugation_defect(lifted.matrix, R) <= 1e-12


def test_spin_lift_matches_generator_exponential():
    for R in _random_rotations(100, rng_seed() + 4):
        ref = _generator_lift(np.real(scipy.linalg.logm(R)))
        U = spin_lift(R).matrix
        assert np.max(np.abs(match_sign(U, ref) - ref)) <= 1e-12
        assert _conjugation_defect(U, R) <= 1e-12


@pytest.mark.parametrize(
    "planes", [((0, 1),), ((1, 2),), ((0, 1), (2, 3)), ((0, 3), (1, 2))]
)
def test_spin_lift_half_turns(planes):
    A = _half_turns(*planes)
    R = np.round(scipy.linalg.expm(A))  # diagonal +-1 or a signed permutation
    ref = _generator_lift(A)
    U = spin_lift(R).matrix
    assert np.max(np.abs(match_sign(U, ref) - ref)) <= 1e-12
    assert _conjugation_defect(U, R) <= 1e-12


_I2 = np.eye(2, dtype=complex)
_TAU3 = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize(
    "P,Q",
    [
        (1j * TAU1, _I2),
        (_I2, 1j * _TAU3),
        (1j * TAU1, 1j * TAU2),
        ((1j * TAU1 + 1j * TAU2) / np.sqrt(2.0), 1j * _TAU3),
        (-_I2, 1j * TAU2),
    ],
)
def test_spin_lift_zero_trace_factors(P, Q):
    """Rotations whose lift diag(P, Q) has a traceless factor."""
    U = scipy.linalg.block_diag(P, Q)
    R = np.array(
        [
            [np.trace(U @ gamma(i) @ U.conj().T @ gamma(mu)).real / 4.0 for mu in range(1, 5)]
            for i in range(1, 5)
        ]
    )
    lifted = spin_lift(R).matrix
    assert np.max(np.abs(match_sign(lifted, U) - U)) <= 1e-12
    assert _conjugation_defect(lifted, R) <= 1e-12


def test_gauge_rotation_values():
    assert np.array_equal(gauge_rotation(0.0).matrix, np.eye(4, dtype=complex))
    sigma = gauge_rotation(np.pi / 2).matrix
    assert np.max(np.abs(sigma - SIGMA34)) <= 1e-15
    assert np.max(np.abs(SIGMA34 - 1j * np.diag([1, -1, -1, 1]))) == 0.0


def test_gauge_rotation_one_parameter_group():
    a, b = 0.83, -1.91
    lhs = gauge_rotation(a).matrix @ gauge_rotation(b).matrix
    rhs = gauge_rotation(a + b).matrix
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_iota_embeddings():
    assert np.array_equal(iota_g(TAU1), gamma(1))
    assert np.array_equal(iota_g(TAU2), gamma(2))
    # bilinears agree between the two embeddings
    lhs = iota_g(TAU1) @ iota_g(TAU2)
    rhs = iota_r(TAU1 @ TAU2)
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(iota_r(np.eye(2)), np.eye(4, dtype=complex))
