"""Adapted frames, mean curvature and the normal-connection torsion.

The frame at a point is two orthonormal tangents plus two orthonormal
normals with determinant +1.  The mixed connection coefficients and the
torsion n3 . d n4 of the normal pair come out of the exact jets.  The
invariant sqrt(trace3^2 + trace4^2) is the
mean-curvature magnitude: it is 2 everywhere on the unit sphere and on
the flat torus of two radius-1/sqrt(2) circles.
"""

import math

import numpy as np

from dirac_surface import connection_at, frame_at, gauge_at, tube_metric_at
from dirac_surface.corpus import load_corpus

for name, pt in (("sphere", (1.0, 0.7)), ("clifford", (0.4, 0.9))):
    spec = load_corpus(name)
    fr = frame_at(spec, pt)
    conn = connection_at(spec, pt)
    gd = gauge_at(conn)
    print(f"--- {name} at {pt} ---")
    print("metric        :", np.round(fr.g, 12).tolist())
    print("traces        : %.12f, %.12f" % (conn.trace3, conn.trace4))
    print("invariant     : %.12f" % math.hypot(conn.trace3, conn.trace4))
    print("torsion       :", np.round(conn.torsion, 12).tolist())
    print("gauge angle   : %.12f" % gd.theta)
    print("hatted trace  : %.12f (second trace gauged to zero)" % gd.hat_trace3)
    print()

# the tube chart: metric and density at a small normal offset
spec = load_corpus("clifford")
for eps in (0.04, 0.02, 0.01):
    q = eps * np.array([1.0, 1.0]) / math.sqrt(2.0)
    ts = tube_metric_at(spec, (0.4, 0.9), q)
    print(
        "offset %.2f: density %.10f  first-order model %.10f  gap %.3e"
        % (eps, ts.rho_exact, ts.rho_leading, abs(ts.rho_exact - ts.rho_leading))
    )
print("the gap shrinks by ~4x per halving: the model is accurate to O(|q|^2)")
