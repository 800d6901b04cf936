"""Actions, the gap-normalized action law, and the interpolation functions.

The action of each gap comes from a Gauss-Chebyshev quadrature along the
gap; its gap-normalized form 8 n pi I_n / gamma_n^2 tends to 1. The psi
functions are solved from their contour conditions and reproduce the
Kronecker normalization table.
"""
import numpy as np

from kdvfreq import cosine_sum
from kdvfreq import invariants as inv

q = cosine_sum([(1, 0.3), (2, 0.3)])
spec = inv.spectrum_for(q, 10)
acts = inv.action_vector(spec)

print("actions and the gap law (8 n pi I_n / gamma_n^2 -> 1):")
print(f"{'n':>2} {'gamma':>12} {'I_n':>14} {'ratio':>12} {'quad err':>10}")
for n in range(1, 11):
    print(f"{n:>2} {float(spec.gamma[n]):>12.3e} {acts.I[n]:>14.6e} "
          f"{acts.ratio[n]:>12.8f} {acts.err[n]:>10.1e}")

print("\npsi functions: Newton on the gap roots, then the normalization row")
psis = {n: inv.psi_for(spec, n) for n in range(1, 7)}
for n in (1, 2, 3):
    p = psis[n]
    print(f"  psi_{n}: {p.iterations} iterations, prefactor deviation "
          f"rho = {p.rho:+.2e}, residuals "
          + ", ".join(f"{k}:{v:.1e}" for k, v in sorted(p.residuals.items())))

om0 = inv.omega0_table(spec, psis, 6, 6)
print("\nnormalization table Omega^(0)/(2 pi) (should be the identity):")
with np.printoptions(precision=2, suppress=False, linewidth=100):
    print(om0[1:, 1:])
print(f"max deviation from identity: {np.max(np.abs(om0[1:, 1:] - np.eye(6))):.2e}")
