"""Independent oracles for the dual-route checks, and test-only references.

The oracles deliberately avoid the package's spectral machinery: a Fourier
(Hill-matrix) eigensolve, a finite-difference transfer-matrix discriminant,
a rectangle-contour action quadrature driven by discriminant values alone,
a dense scan for the psi-root condition, and a PDE step that forms its
products on a zero-padded complex grid.

The references are helpers only tests call: the Floquet exponent F_n by
shooting, moments with both gap sides quadratured apart, and the per-gap
bodies of ``psi_solve``, ``moments`` and ``action_vector`` that evaluate
every standard root where it is used, for the bit-identity tests of the
shared node block.
"""
import math

import numpy as np

from kdvfreq import invariants as inv
from kdvfreq import pde
from kdvfreq import roots as R
from kdvfreq.errors import NewtonError, NumericalError, ValidationError
from kdvfreq.hill import _delta_noise, _varsigma, discriminant_batch
from kdvfreq.potentials import evaluate


def hill_matrix_eigenvalues(q, N, K=100):
    """Periodic+antiperiodic spectrum from the Fourier truncation on modes
    e^{i pi k x}, |k| <= K. Returns lam_0^+ and [(lam_n^-, lam_n^+)]."""
    ks = np.arange(-K, K + 1)
    H = np.diag((ks * np.pi) ** 2).astype(complex) + q.mean * np.eye(len(ks))
    for m, u in zip(q.modes, q.coeffs):
        for i, k in enumerate(ks):
            if 0 <= i + 2 * m < len(ks):
                H[i + 2 * m, i] += u
            if 0 <= i - 2 * m < len(ks):
                H[i - 2 * m, i] += np.conj(u)
    ev = np.sort(np.linalg.eigvalsh(H))
    return float(ev[0]), [(float(ev[2 * n - 1]), float(ev[2 * n])) for n in range(1, N + 1)]


def fd_transfer_discriminant(q, lam, npts=4096):
    """Central-difference transfer-matrix discriminant with one Richardson
    extrapolation step (O(h^4))."""
    def trace_at(n):
        h = 1.0 / n
        x = np.arange(n) * h
        qs = evaluate(q, x)
        a = 2.0 + h * h * (qs - lam)
        P = np.eye(2)
        for j in range(n):
            P = np.array([[a[j], -1.0], [1.0, 0.0]]) @ P
        return P[0, 0] + P[1, 1]
    t1 = trace_at(npts)
    t2 = trace_at(2 * npts)
    return (4.0 * t2 - t1) / 3.0


def rectangle_action(q, spec, n, pts_per_side=160, pad=None):
    """(1/pi) oint lam DeltaDot / sqrt_c(Delta^2-4) around gap n, quadratured
    on a rectangle with the square-root branch tracked by continuity from its
    known sign on the band to the right of the gap."""
    tau = float(spec.tau[n])
    g = float(spec.gamma[n])
    right = float(spec.lambda_minus[n + 1]) if n + 1 <= spec.N else tau + 3 * n
    left = float(spec.lambda_plus[n - 1]) if n >= 2 else float(spec.lam0)
    pad = pad if pad is not None else 0.35 * min(right - (tau + g / 2), (tau - g / 2) - left)
    a = tau - g / 2 - pad
    b = tau + g / 2 + pad
    d = pad
    # Gauss-Legendre nodes per side, counterclockwise from the right mid-edge
    gl_x, gl_w = np.polynomial.legendre.leggauss(pts_per_side)

    def side(z0, z1):
        mid, half = (z0 + z1) / 2.0, (z1 - z0) / 2.0
        return mid + half * gl_x, half * gl_w

    segs = [side(b + 0j, b + 1j * d), side(b + 1j * d, a + 1j * d),
            side(a + 1j * d, a - 1j * d), side(a - 1j * d, b - 1j * d),
            side(b - 1j * d, b + 0j)]
    zs = np.concatenate([s[0] for s in segs])
    ws = np.concatenate([s[1] for s in segs])
    data = discriminant_batch(q, zs, tol=1e-12)
    delta = np.asarray(data["delta"])
    ddelta = np.asarray(data["ddelta"])
    w2 = delta * delta - 4.0
    w = np.sqrt(w2.astype(complex))
    # sign at the first point (real, inside band n): i * root > 0 iff n even
    v0 = w[0]
    want_sign = 1.0 if (n % 2 == 0) else -1.0
    if np.sign((1j * v0).real) != want_sign:
        w[0] = -w[0]
    for i in range(1, w.size):
        if abs(w[i] - w[i - 1]) > abs(w[i] + w[i - 1]):
            w[i] = -w[i]
    val = np.sum(ws * zs * ddelta / w) / np.pi
    return float(val.real), float(abs(val.imag))


def dense_sigma_root(spec, psi, k, width=0.45, npts=4001):
    """Root of the gap-k condition integral in sigma_k by dense scanning,
    independent of the Newton path."""
    tau = float(spec.tau[k])
    g = float(spec.gamma[k])
    sigmas = np.linspace(tau - width * g, tau + width * g, npts)
    t = R.cheb_nodes(psi.nodes)
    ct = R.gap_contour(spec, k, t)
    lam = ct.lam.astype(spec.tau.dtype)
    sig = psi.sigma.copy()
    vals = np.empty(npts)
    for i, s in enumerate(sigmas):
        sig[k] = s
        pref, fac, _ = R._gap_quotient_products(spec, sig, psi.n, k, lam)
        gk = pref * np.prod(fac, axis=0) * (s - lam)
        vals[i] = float(np.sum(gk) / psi.nodes)
    sgn = np.sign(vals)
    idx = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    assert idx.size == 1, "condition must have exactly one root in the window"
    i = idx[0]
    x0, x1, f0, f1 = sigmas[i], sigmas[i + 1], vals[i], vals[i + 1]
    return float(x0 - f0 * (x1 - x0) / (f1 - f0))


def padded_etdrk4(q, eq, dt, M, nsteps):
    """Final state after `nsteps` ETDRK4 steps in fft layout, every product
    formed by complex FFTs zero-padded to 2M points and masked to
    |n| <= M//3 (the 2/3 rule), over all M modes. The ETDRK4 coefficients
    come from `pde`: only the transforms differ from `pde.evolve`."""
    n = np.fft.fftfreq(M, d=1.0 / M)
    k = 2.0 * np.pi * n
    mask = (np.abs(n) <= M // 3).astype(float)
    P = 2 * M
    at = np.mod(n, P).astype(int)      # where mode n sits on the padded grid

    def phys(vh):
        up = np.zeros(P, dtype=complex)
        up[at] = vh
        return np.fft.ifft(up).real * P

    def hat(u):
        return (np.fft.fft(u) / P)[at]

    def nonlinear(vh):
        if eq == "airy":
            return np.zeros(M, dtype=complex)
        u = phys(vh)
        if eq == "kdv":
            return mask * (3j * k * hat(u * u))
        ux, uxx = phys(1j * k * vh), phys(-(k * k) * vh)
        return mask * (1j * k * hat(-10.0 * u * uxx - 5.0 * ux * ux + 10.0 * u ** 3))

    E, E2, Q, f1, f2, f3 = pde._etdrk4_coeffs(pde._linear_symbol(eq, k), dt)
    v = pde.potential_to_state(q, M)
    for _ in range(nsteps):
        Nv = nonlinear(v)
        a = E2 * v + Q * Nv
        Na = nonlinear(a)
        b = E2 * v + Q * Na
        Nb = nonlinear(b)
        c = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = nonlinear(c)
        v = E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc
    return v


# ---------------------------------------------------------------------------
# test-only helpers

def floquet_F_on_gap(q, spec, n, t, side="minus", tol=None):
    """Normalized Floquet exponent F_n at lam_t on one side of gap n, by
    shooting.

    F_n = +-acosh((-1)^n Delta(lam_t)/2) on the upper/lower side (real
    valued, vanishing at the endpoints t = -+1). Requires gamma_n > 0.
    """
    if side not in ("plus", "minus"):
        raise ValidationError("side must be 'plus' or 'minus'")
    if not spec.open_gap[n]:
        raise ValidationError(f"gap {n} is collapsed; F_n has no gap side there")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    ct = R.gap_contour(spec, n, t, side)
    tol = spec.ode_tol if tol is None else tol
    d = discriminant_batch(q, ct.lam.astype(spec.tau.dtype), tol)
    arg = ((-1.0) ** n) * np.asarray(d["delta"], dtype=float) / 2.0
    noise = _delta_noise(float(np.max(np.abs(ct.lam))), tol,
                         float(np.finfo(spec.tau.dtype).eps))
    bad = arg < 1.0 - max(1e-12, 5.0 * noise)
    if np.any(bad):
        raise NumericalError(
            f"(-1)^n Delta/2 = {np.min(arg):.15f} < 1 inside gap {n}: "
            "spectral data inconsistent with the discriminant")
    F = np.arccosh(np.maximum(arg, 1.0))
    F[np.abs(t) == 1.0] = 0.0
    sgn = 1.0 if side == "plus" else -1.0
    out = sgn * F
    return float(out[0]) if out.size == 1 and np.ndim(t) <= 1 and t.size == 1 else out


def moment_without_shortcircuit(spec, psi, k, m, nodes=96):
    """Omega_nk^(m) with both gap sides quadratured separately and combined.

    For odd m (or even R moments) the side sums cancel; evaluating them
    independently checks the side sign conventions rather than assuming them.
    """
    if not spec.open_gap[k]:
        return 0.0
    t = R.cheb_nodes(nodes)
    ct = R.gap_contour(spec, k, t)
    lam = ct.lam.astype(spec.tau.dtype)
    g = np.asarray(R.psi_quotient_on_gap(spec, psi, k, lam), dtype=float)
    Fm = np.asarray(inv._F_table(spec, nodes)[k], dtype=float)
    side_minus = (math.pi / nodes) * np.sum(Fm ** m * g)
    side_plus = (math.pi / nodes) * np.sum((-Fm) ** m * g)
    return float(side_minus + side_plus)


def r_moment_without_shortcircuit(spec, k, m, nodes=96):
    """R_k^(m) from both gap sides separately (cancels to noise for even m)."""
    if not spec.open_gap[k]:
        return 0.0
    Fm = np.asarray(inv._F_table(spec, nodes)[k], dtype=float)
    t = R.cheb_nodes(nodes)
    w = np.sqrt(1.0 - t * t)
    gk = float(spec.gamma[k])
    side_minus = -(gk / (2.0 * nodes)) * np.sum(Fm ** m * w)
    side_plus = +(gk / (2.0 * nodes)) * np.sum((-Fm) ** m * w)
    return float(side_minus + side_plus)


# ---------------------------------------------------------------------------
# per-gap references: every standard root evaluated where it is used

def _gap_products(tau, gamma, roots, lam0, t):
    """prod_{m != k} (roots_m - lam) / varsigma_m(lam) / sqrt(lam - lam0) at
    lam = tau_k + t gamma_k / 2 for every listed gap k: (lam, products)."""
    lam = tau[:, None] + t[None, :] * (gamma[:, None] / 2)
    with np.errstate(invalid="ignore", divide="ignore"):  # m == k: on its own gap
        vs = _varsigma(tau[:, None, None], gamma[:, None, None], lam[None, :, :])
        fac = (roots[:, None, None] - lam[None, :, :]) / vs   # (m, k, nodes)
    fac[np.arange(tau.size), np.arange(tau.size)] = 1
    return lam, np.prod(fac, axis=0) / np.sqrt(lam - lam0)


def condition_integral_per_gap(spec, psi, k, nodes):
    """``roots.condition_integral`` on an open gap k, per gap."""
    ct = R.gap_contour(spec, k, R.cheb_nodes(nodes))
    g = R.psi_quotient_on_gap(spec, psi, k, ct.lam)
    return float(np.sum(g) / nodes)


def psi_solve_per_gap(spec, n, tol=1e-8, nodes=96, max_iter=50):
    """``roots.psi_solve`` with the standard roots rebuilt at every step."""
    dtype = spec.tau.dtype
    sigma = spec.tau.copy()
    sigma[n] = spec.lambda_dot[n]
    opens = spec.open_indices()
    unknowns = [k for k in opens if k != n]
    rows = [i for i, k in enumerate(opens) if k != n]
    t = R.cheb_nodes(nodes).astype(dtype)
    diag = np.diag_indices(len(unknowns))

    def residuals_and_jac(sig):
        lam, prod = _gap_products(spec.tau[opens], spec.gamma[opens], sig[opens],
                                  spec.lam0, t)
        lam, prod = lam[rows], (n * math.pi) * prod[rows]
        s = sig[unknowns]
        g = prod * (s[:, None] - lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            J = np.sum(g[:, None, :] / (s[None, :, None] - lam[:, None, :]), axis=2)
        J[diag] = np.sum(prod, axis=1)
        return (np.sum(g, axis=1) / nodes).astype(float), (J / nodes).astype(float)

    iterations = 0
    res = {}
    if unknowns:
        polished = False
        for iterations in range(1, max_iter + 1):
            r, J = residuals_and_jac(sigma)
            if polished:
                break
            polished = np.max(np.abs(r)) <= tol
            step = np.linalg.solve(J, -r)
            cap = 0.45 * spec.gamma[unknowns].astype(float)
            sigma[unknowns] += np.clip(step, -cap, cap).astype(dtype)
        else:
            raise NewtonError(f"psi_{n} conditions not met")
        res = {k: float(abs(r[a])) for a, k in enumerate(unknowns)}
    psi = R.PsiFunction(n=n, sigma=sigma, prefactor=2.0 / (n * math.pi),
                        rho=0.0, residuals=res, iterations=iterations, nodes=nodes)
    c_n = (condition_integral_per_gap(spec, psi, n, nodes) if spec.open_gap[n]
           else R.condition_integral(spec, psi, n, nodes))
    psi.rho = 1.0 / c_n - 1.0
    psi.prefactor = (2.0 / (n * math.pi)) * (1.0 + psi.rho)
    return psi


def moments_per_gap(spec, psis, N, K=None, nodes=96):
    """``invariants.moments`` as (omega2, omega4, R), gap by gap."""
    K = spec.N if K is None else K
    Fv = inv._F_table(spec, nodes)
    om2 = np.zeros((N + 1, K + 1))
    om4 = np.zeros((N + 1, K + 1))
    Rm = {(k, m): 0.0 for k in range(1, K + 1) for m in (1, 3, 5)}
    t = R.cheb_nodes(nodes)
    root_w = np.sqrt(1.0 - t * t)
    for k in [k for k in spec.open_indices() if k <= K]:
        lam = R.gap_contour(spec, k, t).lam.astype(spec.tau.dtype)
        F2 = np.asarray(Fv[k], dtype=float) ** 2
        for n in range(1, N + 1):
            g = np.asarray(R.psi_quotient_on_gap(spec, psis[n], k, lam), dtype=float)
            om2[n, k] = (2.0 * math.pi / nodes) * float(np.sum(F2 * g))
            om4[n, k] = (2.0 * math.pi / nodes) * float(np.sum(F2 * F2 * g))
        gk = float(spec.gamma[k])
        Fk = np.asarray(Fv[k], dtype=float)
        for m in (1, 3, 5):
            Rm[(k, m)] = -(gk / nodes) * float(np.sum(Fk ** m * root_w))
    return om2, om4, Rm


def _action_ratio(spec, n, nodes):
    if not spec.open_gap[n]:
        return float(inv._chi_values(spec, n, np.atleast_1d(spec.tau[n]))[0])
    t = R.cheb_nodes(nodes)
    ct = R.gap_contour(spec, n, t)
    chi = inv._chi_values(spec, n, ct.lam.astype(spec.tau.dtype))
    t_n = 2.0 * float(spec.lambda_dot[n] - spec.tau[n]) / float(spec.gamma[n])
    return float(2.0 * np.sum((t - t_n) ** 2 * chi) / nodes)


def action_vector_per_gap(spec, N=None, nodes=96):
    """``invariants.action_vector`` as (I, ratio, err), gap by gap."""
    N = spec.N if N is None else N
    I = np.zeros(N + 1)
    ratio = np.full(N + 1, np.nan)
    err = np.zeros(N + 1)
    for n in range(1, N + 1):
        ratio[n] = _action_ratio(spec, n, nodes)
        if spec.open_gap[n]:
            g = float(spec.gamma[n])
            scale = g * g / (8.0 * n * math.pi)
            r2 = _action_ratio(spec, n, 2 * nodes)
            I[n] = scale * r2
            err[n] = abs(scale * (r2 - ratio[n]))
            ratio[n] = r2
    return I, ratio, err
