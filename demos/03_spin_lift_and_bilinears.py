"""Gamma conventions, spin lifts and SO(4)-vector bilinears.

The four gamma matrices are Pauli tensor products; a special orthogonal
4x4 matrix R lifts to a unitary U with U gamma^i U^{-1} = R^i_mu
gamma^mu.  Sandwiching the gammas between the dedicated constant spinors
produces 4-vectors that rotate exactly like the rows of R.
"""

import numpy as np

from dirac_surface import basis_round, cospinor, gamma, so4_pairing, spin_lift

np.set_printoptions(precision=4, suppress=True)

print("gamma^1 (antidiagonal of ones):")
print(gamma(1).real)
print()
print("gamma^3 gamma^4 = i diag(1,-1,-1,1):")
print((gamma(3) @ gamma(4)).imag)
print()

# each round-basis spinor encodes one coordinate direction
for k, psi in enumerate(basis_round(), start=1):
    vec = so4_pairing(cospinor(psi), psi)
    print(f"bilinear vector of basis spinor {k}:", np.round(vec.real, 12))
print()

# lift a random rotation and watch the bilinears rotate with it
rng = np.random.default_rng(7)
raw = rng.normal(size=(4, 4))
# exp of the skew raw - raw^T, from the eigenvectors of the Hermitian i (raw - raw^T)
w, V = np.linalg.eigh(1j * (raw - raw.T))
R = ((V * np.exp(-1j * w)) @ V.conj().T).real
U = spin_lift(R).matrix
print("random rotation row 1     :", np.round(R[0], 6))
psi = U @ basis_round()[0]
vec = so4_pairing(cospinor(psi), psi)
print("bilinear of rotated spinor:", np.round(vec.real, 6))
print("difference                :", np.max(np.abs(vec - R[0])))
