"""Frame-derived kernel spinors solve the surface Dirac equation, and
their bilinears recover the immersion's tangent vectors.

Spin-lifting the adapted frame turns the constant bases into spinor
fields.  Applying the assembled operator to them by central differences
gives a residual that vanishes at second order in the probe step; the
metric-lowered bilinears reproduce d_alpha x to machine precision.
"""

import numpy as np

from dirac_surface import reconstruct
from dirac_surface.corpus import load_corpus

np.set_printoptions(precision=10, suppress=True)

spec = load_corpus("clifford")
pt = (0.4, 0.9)

rep = reconstruct(spec, pt)
print("spinor Gram matrix defect:", rep.orthonormality)
print("Dirac residuals over halved steps:", ["%.3e" % r for r in rep.residual_dirac])
print("decay ratio (4 = clean second order):", round(rep.convergence_ratio, 4))
print()

for name in ("plane", "graph", "sphere", "clifford"):
    sp = load_corpus(name)
    (lo1, hi1), (lo2, hi2) = sp.domain
    mid = (0.5 * (lo1 + hi1) + 0.13, 0.5 * (lo2 + hi2) + 0.21)
    r = reconstruct(sp, mid)
    print(f"{name:10s} max |reconstructed - true tangents| = {r.residual_bilinear:.3e}")

print()
print("true tangents (clifford):")
print(reconstruct(spec, pt).T)
print("reconstructed from spinor bilinears:")
print(reconstruct(spec, pt).W)
