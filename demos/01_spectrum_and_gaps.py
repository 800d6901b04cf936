"""Hill spectra at desk scale: periodic eigenvalues, gaps, and collapse.

Computes the periodic / Dirichlet / critical spectra of a two-mode
potential (edges from the Fourier Hill matrix, Dirichlet eigenvalues by
shooting) and prints the gap geometry, including which gaps the solver can
resolve before they sink below the detection floor.
"""
import numpy as np

from kdvfreq import cosine_sum, discriminant, periodic_spectrum

q = cosine_sum([(1, 0.2), (2, 0.2)])
print("potential: q(x) = 0.4 cos(2 pi x) + 0.4 cos(4 pi x)\n")

spec = periodic_spectrum(q, 8)
print(f"lambda_0^+ = {float(spec.lam0):+.9f}")
print(f"{'n':>2} {'lambda_-':>14} {'lambda_+':>14} {'gamma':>12} "
      f"{'mu':>14} {'lambda_*':>14} open")
for n in range(1, 9):
    print(f"{n:>2} {float(spec.lambda_minus[n]):>14.8f} "
          f"{float(spec.lambda_plus[n]):>14.8f} {float(spec.gamma[n]):>12.3e} "
          f"{float(spec.mu[n]):>14.8f} {float(spec.lambda_dot[n]):>14.8f} "
          f"{bool(spec.open_gap[n])}")

print("""
Gaps shrink superexponentially; once a gap falls below its detection
floor (three times its error bound, and never below 1e-9) it is reported
exactly collapsed (lambda_- = lambda_+ = lambda_* = tau). Extended
precision shrinks the error bound of every open gap:""")

spec_ld = periodic_spectrum(q, 8, dtype=np.longdouble)
for n in range(1, 9):
    tag = "open" if spec_ld.open_gap[n] else "collapsed"
    est = spec_ld.gamma_rel_err[n]
    print(f"  n={n}: gamma = {float(spec_ld.gamma[n]):.6e} ({tag}"
          + (f", est. rel err {est:.1e})" if spec_ld.open_gap[n] else ")"))

print("\nThe discriminant itself is available anywhere in the plane:")
for lam in (0.0, 25.0, 100.0 + 5.0j):
    d = discriminant(q, lam)
    print(f"  Delta({lam}) = {d.delta:+.9f}   (wronskian residual "
          f"{d.wronskian_residual:.1e})")
