"""One number, three independent routes.

The second KdV frequency of q = 0.1 cos(4 pi x) computed by
 (1) the moment sums over gap contours,
 (2) the quartic normal-form prediction at the measured actions,
 (3) a least-squares fit to the rotating mode phase of the evolved PDE.
"""
import math

from kdvfreq import bnf, pde, single_mode
from kdvfreq import invariants as inv

q = single_mode(2, 0.05)
n = 2

rep = inv.frequency_report(q, 4)
I = {k: rep.actions.I[k] for k in range(1, 5) if rep.actions.I[k] > 0}
_, om_bnf1 = bnf.bnf_predict(I, 0.0, "kdv", nmax=4)
_, om_bnf2 = bnf.bnf_predict(I, 0.0, "kdv2", nmax=4)

print("KdV frequency omega_2^(1):")
print(f"  free dispersion (4 pi)^3        = {(4 * math.pi) ** 3:.10f}")
print(f"  moment-sum route                = {rep.omega1[n]:.10f}")
print(f"  normal-form prediction          = {om_bnf1[n]:.10f}")
traj = pde.evolve(q, 0.05, "kdv")
om_pde, resid = pde.measure_mode_frequency(traj, n)
print(f"  measured PDE phase velocity     = {om_pde:.10f}   (fit residual {resid:.1e})")
print(f"  moment vs PDE relative difference: "
      f"{abs(om_pde - rep.omega1[n]) / rep.omega1[n]:.2e}")

print("\nKdV2 frequency omega_2^(2):")
print(f"  free dispersion (4 pi)^5        = {(4 * math.pi) ** 5:.8f}")
print(f"  moment-sum route                = {rep.omega2[n]:.8f}")
print(f"  normal-form prediction          = {om_bnf2[n]:.8f}")
traj2 = pde.evolve(q, 0.002, "kdv2")
om2_pde, resid2 = pde.measure_mode_frequency(traj2, n)
print(f"  measured PDE phase velocity     = {om2_pde:.8f}   (fit residual {resid2:.1e})")
print(f"  moment vs PDE relative difference: "
      f"{abs(om2_pde - rep.omega2[n]) / rep.omega2[n]:.2e}")

drift, table = pde.isospectral_drift(traj, [1, 2, 3], samples=4)
print(f"\nisospectrality along the KdV flow: max gap drift {drift:.2e}")
for t, d in table.items():
    print(f"  t = {t:.3f}: {d:.2e}")
