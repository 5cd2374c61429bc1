"""Torsion as a gauge field, and spectra of the discrete operator.

Rotating the normal frame pointwise adds its angle gradient to the
measured torsion; the operator absorbs that torsion through an
anti-Hermitian gauge term.  Gauge fixing (rotating so the second
mean-curvature trace vanishes) turns the zeroth-order block Hermitian
again without moving the spectrum of the assembled grid operator.
"""

import math

import numpy as np

from dirac_surface import (
    assemble_grid_operator,
    connection_at,
    dirac_symbol,
    eigenvalues,
    gauge_at,
    gauged_dirac_symbol,
)
from dirac_surface.corpus import load_corpus
from dirac_surface.dirac import fourier_eigenvalues, multiset_distance

base = load_corpus("clifford")
rot = load_corpus("clifford-rotated")
pt = (0.4, 0.9)

cb, cr = connection_at(base, pt), connection_at(rot, pt)
print("torsion, plain frame  :", np.round(cb.torsion, 9).tolist())
print("torsion, rotated frame:", np.round(cr.torsion, 9).tolist())
print("   rotating by the first parameter shifted it by exactly (1, 0)")
gd = gauge_at(cr)
print("gauge-fixed torsion   :", np.round(gd.hat_torsion, 9).tolist(), "(invariant)")
print()

plain = dirac_symbol(rot, pt)
gauged = gauged_dirac_symbol(rot, pt)
print("plain B Hermitian defect :", np.max(np.abs(plain.B - plain.B.conj().T)))
print("gauged B Hermitian defect:", np.max(np.abs(gauged.B - gauged.B.conj().T)))
print()

# full spectrum on an 8x8 periodic grid: 256 eigenvalues in closed form
op = assemble_grid_operator(base, 8, 8)
vals = eigenvalues(op)
h = 2.0 * math.pi / 8
predicted = []
for m in range(-4, 4):
    for n in range(-4, 4):
        lam2 = 1.0 - 2.0 * ((math.sin(m * h) / h) ** 2 + (math.sin(n * h) / h) ** 2)
        root = complex(lam2) ** 0.5
        predicted.extend([root, root, -root, -root])
print("closed-form spectrum match :", multiset_distance(vals, predicted))
print("Fourier-oracle match       :", multiset_distance(vals, fourier_eigenvalues(op)))

plain_rot = eigenvalues(assemble_grid_operator(rot, 8, 8))
gauged_rot = eigenvalues(assemble_grid_operator(rot, 8, 8, gauged=True))
print("gauged vs plain spectrum   :", multiset_distance(plain_rot, gauged_rot))
print("   gauge fixing is a sitewise unitary conjugation on the grid")
