"""Nondegeneracy certificates and sequence-space checks.

The resonance scanner decides k.lambda != 0 or (Ck)_A != 0 in exact integer
arithmetic on the pi^2 coefficient lattice; the singular mean values of the
quadratic form come from one symmetric eigensolve, and the rank-one
determinant formula checks them; the discrete Hilbert-type operators
satisfy their bounds on random samples.
"""
import math

import numpy as np

from kdvfreq import bnf, seqspace

print("combinatorial identities, exhaustive to R = 30:")
rep = bnf.comb_identities_check(30)
print(f"  {rep['triples']} zero-sum triples and {rep['quadruples']} quadruples verified\n")

for A in ([1, 2], [1, 2, 3]):
    roots = bnf.singular_set(A)
    print(f"singular mean values for A = {A}:")
    for c in roots:
        print(f"  c = {c:+.6f}   det C_A = {bnf.det_CA(c, A):+.3e}")
print()

offenders = bnf.resonance_scan([1, 2], 0, kmax=6, window=40)
print(f"resonance scan at c = 0, A = {{1,2}}, |k_A| <= 6, tail window 40: "
      f"{len(offenders)} offenders -> nondegenerate\n")

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(500):
    x = rng.standard_normal(48)
    for p in (1.0, 2.0, math.inf):
        worst = max(worst, seqspace.weighted_norm(seqspace.op_G(x), 0.0, p)
                    / seqspace.weighted_norm(x, 0.0, p))
print(f"op_G norm ratio over 500 random vectors, p in {{1,2,inf}}: "
      f"worst {worst:.3f} (bound 4)")

viol = 0
for _ in range(500):
    a = rng.standard_normal(32)
    a *= rng.uniform(0.05, 0.3) / max(1.0, float(np.sum(np.abs(a))))
    val, bound = seqspace.inf_product(a)
    viol += abs(val - 1.0) > bound
print(f"certified infinite-product bound: {viol} violations in 500 samples")

sp = seqspace.sin_product(math.pi ** 2 / 4.0, 10_000)
print(f"sin-product at lambda = pi^2/4: {sp:.12f} vs 2/pi = {2 / math.pi:.12f}")
