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
    dirac_symbol,
    eigenvalues,
    frames_at,
    gauge_at,
    gauged_dirac_symbol,
)
from dirac_surface.corpus import load_corpus
from dirac_surface.dirac import fourier_mode_distance, trace_identity_defect
from dirac_surface.geometry import connection_from_frame

base = load_corpus("clifford")
rot = load_corpus("clifford-rotated")
pt = (0.4, 0.9)

cb = connection_from_frame(frames_at(base, pt))
cr = connection_from_frame(frames_at(rot, pt))
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

# full spectrum on an 8x8 periodic grid, solved one Fourier mode at a
# time: mode (m, n) holds the double square 1 - 2 (sin^2(m h) + sin^2(n h)) / h^2
op = assemble_grid_operator(base, 8, 8)
vals, by_mode = eigenvalues(op, return_squares=True)
h = 2.0 * math.pi / 8
m, n = by_mode.modes.T
lam2 = 1.0 - 2.0 * ((np.sin(m * h) / h) ** 2 + (np.sin(n * h) / h) ** 2)
print(vals.size, "eigenvalues in", len(by_mode.modes), "modes")
print("closed-form squares, per mode:", np.abs(by_mode.squares - lam2[:, None]).max())
print("Fourier oracle, per mode     :", fourier_mode_distance(op, by_mode))
print("trace identities, per mode   :", trace_identity_defect(by_mode))

# clifford-rotated is invariant along v alone: 8 modes of 32 values each
_, plain_rot = eigenvalues(assemble_grid_operator(rot, 8, 8), return_squares=True)
_, gauged_rot = eigenvalues(assemble_grid_operator(rot, 8, 8, gauged=True), return_squares=True)
gap = np.abs(plain_rot.roots[:, :, None] - gauged_rot.roots[:, None, :])
print("gauged vs plain spectrum     :", max(gap.min(axis=2).max(), gap.min(axis=1).max()))
print("   (per mode, the farthest any value lies from the other's nearest)")
print("   gauge fixing is a sitewise unitary conjugation on the grid")
