"""Renormalized Hamiltonians: trace-formula identities at desk scale.

H0 equals the weighted action sum; the renormalized H1*, H2* come out of
single-gap moments and must match the direct integrals after subtracting
the explicit leading sums. The (2 n pi)^5 weights make the subtraction
route exquisitely sensitive to small actions, so the spectral data is
solved in extended precision.
"""
import math

import numpy as np

from kdvfreq import cosine_sum
from kdvfreq import invariants as inv

q = cosine_sum([(1, 0.2), (2, 0.2)])
rep = inv.frequency_report(q, 8, dtype=np.longdouble)
spec, acts, mom = rep.spectrum, rep.actions, rep.moments
h = inv.hamiltonians(spec)

print(f"direct integrals:  H0 = {h.H0:.10f}  H1 = {h.H1:.10f}  H2 = {h.H2:.10f}")
H0_sum = sum(2 * n * math.pi * acts.I[n] for n in range(1, 9))
print(f"H0 as weighted action sum  = {H0_sum:.10f}   "
      f"(rel diff {abs(H0_sum - h.H0) / h.H0:.1e})")

print(f"\nH1* moment route        = {h.H1_star:.10e}")
print(f"H1* subtraction route   = {h.H1_star_subtraction:.10e}")
print(f"H2* moment route        = {h.H2_star:.10e}")
print(f"H2* subtraction route   = {h.H2_star_subtraction:.10e}")
print(f"relative route gaps: H1* {h.route_gap_H1 / abs(h.H1_star):.1e}, "
      f"H2* {h.route_gap_H2 / abs(h.H2_star):.1e}")

print("\nsingle-gap moments behind the identities (R_n^(1) = I_n):")
for n in spec.open_indices():
    print(f"  n={n}: R^(1) = {mom.R[(n, 1)]:.6e}  I = {acts.I[n]:.6e}  "
          f"R^(3) = {mom.R[(n, 3)]:.3e}  R^(5) = {mom.R[(n, 5)]:.3e}")
