"""Independent oracles for the dual-route checks, and test-only references.

The oracles deliberately avoid the package's spectral machinery: a Fourier
(Hill-matrix) eigensolve, a finite-difference transfer-matrix discriminant,
a rectangle-contour action quadrature driven by discriminant values alone,
a dense scan for the psi-root condition, and a PDE step that forms its
products on a zero-padded complex grid.

The references are helpers only tests call: the gap nodes, the integrands
g_nk and chi_n evaluated one gap at a time, the canonical root of
Delta^2 - 4 off the open gaps, the Floquet exponent F_n by shooting,
moments with both gap sides quadratured apart, the per-gap bodies of
``moments`` and ``action_vector`` that evaluate every standard root where
it is used, for the bit-identity tests of the shared node block, and the
frequency sums one index n at a time.

The psi references solve the paper's conditions
(1/2 pi) oint_k psi_n / sqrt_c(Delta^2 - 4) dlam = delta_nk in product form,
psi_n = (2 / (n pi)) (1 + rho) prod_{m != n} (sigma_m - lam) / (m^2 pi^2),
for the roots sigma: by the weighted-mean sweep that gives lam^* and by
Newton, each gap at a time. Neither is the linear solve ``psi_solve``
reads.
"""
import math
from types import SimpleNamespace

import numpy as np

from kdvfreq import invariants as inv
from kdvfreq import pde
from kdvfreq import roots as R
from kdvfreq.errors import NewtonError, NumericalError, ValidationError
from kdvfreq.hill import NODES, _delta_noise, _varsigma, discriminant_batch
from kdvfreq.potentials import evaluate
from kdvfreq.seqspace import zeta_tail


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
    """Root of the gap-k condition integral (the paper's integrand) in
    sigma_k by dense scanning, the other roots held at psi's."""
    tau = float(spec.tau[k])
    g = float(spec.gamma[k])
    sigmas = np.linspace(tau - width * g, tau + width * g, npts)
    lam = gap_nodes(spec, k)
    sig = psi.sigma.copy()
    vals = np.empty(npts)
    for i, s in enumerate(sigmas):
        sig[k] = s
        pref, fac = _quotient_factors(spec, sig, psi.n, k, lam)
        gk = pref * np.prod(fac, axis=0) * (s - lam)
        vals[i] = float(np.sum(gk) / NODES)
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

def gap_nodes(spec, n, t=None):
    """lam_t = tau_n + t gamma_n / 2 on gap n at the nodes t (by default the
    NODES Chebyshev nodes, the rows of ``spec._block.lam``), in the spectrum
    dtype; t = -1 and 1 give the gap edges exactly."""
    t = R.cheb_nodes(NODES) if t is None else np.atleast_1d(np.asarray(t, dtype=float))
    lam = spec.tau[n] + t * (spec.gamma[n] / 2.0)
    lam = np.where(t == -1.0, spec.lambda_minus[n], lam)
    return np.where(t == 1.0, spec.lambda_plus[n], lam)


def _quotient_factors(spec, roots, n, k, lam):
    """n pi / sqrt(lam - lam0), times 1 / (roots_n - lam) when k != n, and the
    factors (roots_m - lam) / varsigma_m(lam) of every open gap m != k, one
    row each, at real points lam of gap k.

    psi_n has no root in gap n, so on a gap k != n the product's factor
    (roots_n - lam) / varsigma_n(lam) of an open n becomes the paper's
    1 / varsigma_n(lam), and a collapsed n, absent from the product, adds
    its 1 / varsigma_n(lam) = 1 / (tau_n - lam): both are the row scale
    1 / (roots_n - lam), with roots_n = lam_n^* (tau_n when collapsed)."""
    open_ns = [m for m in spec.open_indices() if m != k]
    pref = n * math.pi / np.sqrt(lam - spec.lam0)
    if k != n:
        pref = pref / (roots[n] - lam)
    if not open_ns:
        return pref, np.ones((0, lam.size))
    vs = _varsigma(spec.tau[open_ns][:, None], spec.gamma[open_ns][:, None], lam[None, :])
    return pref, (roots[open_ns][:, None] - lam[None, :]) / vs


def psi_quotient_on_gap(spec, psi, k, lam):
    """g_nk(lam) = psi_n(lam) varsigma_k(lam) / (i sqrt_c(Delta^2 - 4)(lam)) at
    real lam in gap k, one gap at a time: the gap-k integrand with its
    1/varsigma_k removed, real on the gap."""
    lam = np.atleast_1d(np.asarray(lam, dtype=spec.tau.dtype))
    pref, fac = _quotient_factors(spec, psi.sigma, psi.n, k, lam)
    g = pref * np.prod(fac, axis=0)
    if k != psi.n:
        g = g * (psi.sigma[k] - lam)
    # solved prefactor (2/(n pi))(1 + rho) folds in as (1 + rho)
    return (1.0 + psi.rho) * g


def chi_on_gap(spec, n, lam):
    """chi_n(lam) = n pi / sqrt(lam - lam0) prod_{open m != n} (lam_m^* - lam)
    / varsigma_m(lam) at real lam in gap n (or at tau_n of a collapsed n)."""
    pref, fac = _quotient_factors(spec, spec.lambda_dot, n, n, lam)
    return pref * np.prod(fac, axis=0)


def canonical_root(spec, lam):
    """Canonical root of Delta^2 - 4 at lam off the open gaps, normalized by
    i * root > 0 on the band (lam_0^+, lam_1^-):

        -2i sqrt(lam - lam0) prod_{m <= N} varsigma_m(lam) / (m^2 pi^2)
            * prod_{m > N} (1 - lam / (m^2 pi^2)),

    the gaps past the truncation taken as collapsed at m^2 pi^2. The last
    product is a sum of logs through m = J plus its Euler-Maclaurin tail. On
    the cut (-infty, lam_0^+] the principal branch gives the upper-side limit;
    inside an open gap the value has no side and is not the root."""
    scalar = np.ndim(lam) == 0
    lam = np.atleast_1d(np.asarray(lam)).astype(complex)
    tau, gamma = (a[1:].astype(float)[:, None] for a in (spec.tau, spec.gamma))
    m2 = (np.arange(1, spec.N + 1)[:, None] * math.pi) ** 2
    head = np.prod(_varsigma(tau, gamma, lam[None, :]) / m2, axis=0)
    J = max(64, int(10.0 * math.sqrt(np.max(np.abs(lam))) / math.pi) + spec.N + 8)
    js = np.arange(spec.N + 1, J + 1)[:, None]
    log_tail = np.sum(np.log1p(-lam[None, :] / (js * math.pi) ** 2), axis=0)
    for k in range(1, 4):           # sum_{j > J} log(1 - x_j), x_j = lam / (j pi)^2
        log_tail -= (lam / math.pi ** 2) ** k / k * zeta_tail(J + 1, k)
    out = -2j * np.sqrt(lam - float(spec.lam0)) * head * np.exp(log_tail)
    return complex(out[0]) if scalar else out


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
    lam = gap_nodes(spec, n, t)
    tol = spec.ode_tol if tol is None else tol
    d = discriminant_batch(q, lam, tol)
    arg = ((-1.0) ** n) * np.asarray(d["delta"], dtype=float) / 2.0
    noise = _delta_noise(float(np.max(np.abs(lam))), tol)
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


def moment_without_shortcircuit(spec, psi, k, m):
    """Omega_nk^(m) with both gap sides quadratured separately and combined.

    For odd m (or even R moments) the side sums cancel; evaluating them
    independently checks the side sign conventions rather than assuming them.
    """
    if not spec.open_gap[k]:
        return 0.0
    g = np.asarray(psi_quotient_on_gap(spec, psi, k, gap_nodes(spec, k)), dtype=float)
    Fm = np.asarray(inv._F_table(spec)[k], dtype=float)
    side_minus = (math.pi / NODES) * np.sum(Fm ** m * g)
    side_plus = (math.pi / NODES) * np.sum((-Fm) ** m * g)
    return float(side_minus + side_plus)


def r_moment_without_shortcircuit(spec, k, m):
    """R_k^(m) from both gap sides separately (cancels to noise for even m)."""
    if not spec.open_gap[k]:
        return 0.0
    Fm = np.asarray(inv._F_table(spec)[k], dtype=float)
    t = R.cheb_nodes(NODES)
    w = np.sqrt(1.0 - t * t)
    gk = float(spec.gamma[k])
    side_minus = -(gk / (2.0 * NODES)) * np.sum(Fm ** m * w)
    side_plus = +(gk / (2.0 * NODES)) * np.sum((-Fm) ** m * w)
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


def condition_integral_per_gap(spec, psi, k):
    """``roots.condition_integral`` on an open gap k, per gap; on the
    collapsed gap n of psi_n, the residue at tau_n. In the spectrum dtype."""
    if not spec.open_gap[k]:
        pref, fac = _quotient_factors(spec, psi.sigma, psi.n, k,
                                      np.atleast_1d(spec.tau[k]))
        return ((1 + psi.rho) * pref * np.prod(fac, axis=0))[0]
    g = psi_quotient_on_gap(spec, psi, k, gap_nodes(spec, k))
    return np.sum(g) / NODES


def psi_from_roots(spec, n, sigma, residuals=None, iterations=0):
    """psi_n in product form at the roots sigma, its rho (spectrum dtype)
    from its own k = n condition: a namespace with n, sigma, rho, prefactor,
    residuals and iterations."""
    psi = SimpleNamespace(n=n, sigma=sigma, rho=sigma.dtype.type(0),
                          residuals=residuals, iterations=iterations)
    c_n = condition_integral_per_gap(spec, psi, n)
    if c_n == 0.0 or not np.isfinite(c_n):
        raise NumericalError(f"degenerate normalization integral for psi_{n}")
    psi.rho = 1.0 / c_n - 1.0
    psi.prefactor = (2.0 / (n * math.pi)) * (1.0 + psi.rho)
    return psi


def psi_solve_per_gap(spec, n, tol=1e-8, max_iter=50):
    """psi_n by the weighted-mean sweep that gives lam^*, with the paper's
    integrand: row k != n of the sweep carries the scale 1 / (sigma_n - lam)
    (see ``_quotient_factors``), and every row is summed on its own with the
    standard roots rebuilt at every sweep. Returns a namespace with n, sigma,
    rho, prefactor, residuals and iterations (the sweeps)."""
    sigma = spec.tau.copy()
    sigma[n] = spec.lambda_dot[n]
    opens = spec.open_indices()
    rows = [i for i, k in enumerate(opens) if k != n]
    tau, gamma = spec.tau[opens], spec.gamma[opens]
    t = R.cheb_nodes(NODES).astype(spec.tau.dtype)
    settled = 4.0 * float(np.finfo(spec.tau.dtype).eps) * np.abs(tau.astype(float))
    sweeps = 0
    if rows:
        s = sigma[opens]
        for sweeps in range(1, max_iter + 1):
            lam, w = _gap_products(tau, gamma, s, spec.lam0, t)
            new = s.copy()
            for i in rows:
                wi = w[i] / (sigma[n] - lam[i])
                new[i] = tau[i] + (gamma[i] / 2) * (np.sum(t * wi) / np.sum(wi))
            change = np.abs((new - s).astype(float))
            s = new
            if np.all(change <= settled):
                break
        else:
            raise NewtonError(f"psi_{n} roots did not settle")
        sigma[opens] = s
    probe = SimpleNamespace(n=n, sigma=sigma, rho=sigma.dtype.type(0))
    res = {opens[i]: float(abs(condition_integral_per_gap(spec, probe, opens[i])))
           for i in rows}
    if not np.max(list(res.values()), initial=0.0) <= tol:
        raise NewtonError(f"psi_{n} conditions not met")
    return psi_from_roots(spec, n, sigma, res, sweeps)


def psi_newton_per_gap(spec, n, tol=1e-8, max_iter=50):
    """The psi_n roots by Newton on the zero conditions of the paper's
    integrand, the standard roots rebuilt at every step: the Jacobian in the
    roots, steps capped at 0.45 gamma, and one more step once the residuals
    are within tol."""
    dtype = spec.tau.dtype
    sigma = spec.tau.copy()
    sigma[n] = spec.lambda_dot[n]
    opens = spec.open_indices()
    unknowns = [k for k in opens if k != n]
    rows = [i for i, k in enumerate(opens) if k != n]
    t = R.cheb_nodes(NODES).astype(dtype)
    diag = np.diag_indices(len(unknowns))

    def residuals_and_jac(sig):
        lam, prod = _gap_products(spec.tau[opens], spec.gamma[opens], sig[opens],
                                  spec.lam0, t)
        lam = lam[rows]
        prod = (n * math.pi) * prod[rows] / (sig[n] - lam)
        s = sig[unknowns]
        g = prod * (s[:, None] - lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            J = np.sum(g[:, None, :] / (s[None, :, None] - lam[:, None, :]), axis=2)
        J[diag] = np.sum(prod, axis=1)
        return (np.sum(g, axis=1) / NODES).astype(float), (J / NODES).astype(float)

    iterations = 0
    res = {}
    if unknowns:
        polished = False
        for iterations in range(1, max_iter + 1):
            r, J = residuals_and_jac(sigma)
            if polished:
                break
            polished = np.max(np.abs(r)) <= tol
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError as exc:
                raise NewtonError(f"singular Newton system for psi_{n}") from exc
            cap = 0.45 * spec.gamma[unknowns].astype(float)
            sigma[unknowns] += np.clip(step, -cap, cap).astype(dtype)
        else:
            raise NewtonError(f"psi_{n} conditions not met")
        res = {k: float(abs(r[a])) for a, k in enumerate(unknowns)}
    return psi_from_roots(spec, n, sigma, res, iterations)


def psi_values_on_gap(spec, psi, k):
    """g_nk at the NODES nodes of open gap k: the node values psi carries
    (a psi of ``roots.psi_solve``), else the product form at its roots."""
    if getattr(psi, "node_values", None) is not None:
        return psi.node_values[spec.open_indices().index(k)]
    return psi_quotient_on_gap(spec, psi, k, gap_nodes(spec, k))


def moments_per_gap(spec, psis, N, K=None):
    """``invariants.moments`` as (omega2, omega4, R), gap by gap, with g_nk
    from ``psi_values_on_gap``."""
    K = spec.N if K is None else K
    Fv = inv._F_table(spec)
    om2 = np.zeros((N + 1, K + 1))
    om4 = np.zeros((N + 1, K + 1))
    Rm = {(k, m): 0.0 for k in range(1, K + 1) for m in (1, 3, 5)}
    t = R.cheb_nodes(NODES)
    root_w = np.sqrt(1.0 - t * t)
    for k in [k for k in spec.open_indices() if k <= K]:
        F2 = np.asarray(Fv[k], dtype=float) ** 2
        for n in range(1, N + 1):
            g = np.asarray(psi_values_on_gap(spec, psis[n], k), dtype=float)
            om2[n, k] = (2.0 * math.pi / NODES) * float(np.sum(F2 * g))
            om4[n, k] = (2.0 * math.pi / NODES) * float(np.sum(F2 * F2 * g))
        gk = float(spec.gamma[k])
        Fk = np.asarray(Fv[k], dtype=float)
        for m in (1, 3, 5):
            Rm[(k, m)] = -(gk / NODES) * float(np.sum(Fk ** m * root_w))
    return om2, om4, Rm


def _action_ratio(spec, n, nodes):
    if not spec.open_gap[n]:
        return float(chi_on_gap(spec, n, np.atleast_1d(spec.tau[n]))[0])
    t = R.cheb_nodes(nodes)
    chi = chi_on_gap(spec, n, gap_nodes(spec, n, t))
    t_n = 2.0 * float(spec.lambda_dot[n] - spec.tau[n]) / float(spec.gamma[n])
    return float(2.0 * np.sum((t - t_n) ** 2 * chi) / nodes)


def action_vector_per_gap(spec, N=None):
    """``invariants.action_vector`` as (I, ratio, err), gap by gap."""
    N = spec.N if N is None else N
    I = np.zeros(N + 1)
    ratio = np.full(N + 1, np.nan)
    err = np.zeros(N + 1)
    for n in range(1, N + 1):
        ratio[n] = _action_ratio(spec, n, NODES)
        if spec.open_gap[n]:
            g = float(spec.gamma[n])
            scale = g * g / (8.0 * n * math.pi)
            r2 = _action_ratio(spec, n, 2 * NODES)
            I[n] = scale * r2
            err[n] = abs(scale * (r2 - ratio[n]))
            ratio[n] = r2
    return I, ratio, err


def _collapsed_tail_bound(spec, n, weight):
    """Bound on sum_k weight(k)*Omega_nk^(2) over gaps hidden below the
    detection floor (gamma up to the per-gap ``gamma_floor``), x2 safety."""
    total = 0.0
    for k in range(1, spec.N + 1):
        if spec.open_gap[k]:
            continue
        om_kk = float(spec.gamma_floor[k]) ** 2 / (16.0 * k * k * math.pi)
        if k == n:
            total += weight(k) * om_kk
        else:
            total += weight(k) * om_kk * n / abs(n * n - k * k)
    return 2.0 * total


def freq_kdv(spec, mom, n):
    """omega_n^(1)-star = -12 sum_k k Omega_nk^(2) plus a tail bound."""
    ks = np.arange(1, mom.K + 1)
    star = -12.0 * float(np.sum(ks * mom.omega2[n, 1:]))
    tail = 12.0 * _collapsed_tail_bound(spec, n, lambda k: float(k))
    return star, tail


def freq_kdv2(spec, mom, n):
    """omega_n^(2)-star = -160 pi^2 sum k^3 Omega^(2) + 80 sum k Omega^(4)."""
    ks = np.arange(1, mom.K + 1)
    star = (-160.0 * math.pi ** 2 * float(np.sum(ks ** 3 * mom.omega2[n, 1:]))
            + 80.0 * float(np.sum(ks * mom.omega4[n, 1:])))
    tail = 160.0 * math.pi ** 2 * _collapsed_tail_bound(spec, n, lambda k: float(k ** 3))
    return star, tail


def frequency_sums_per_n(spec, mom):
    """``invariants.frequency_sums`` as (omega1*, tail1, omega2*, tail2), one
    index n at a time."""
    out = [np.zeros(mom.N + 1) for _ in range(4)]
    for n in range(1, mom.N + 1):
        out[0][n], out[1][n] = freq_kdv(spec, mom, n)
        out[2][n], out[3][n] = freq_kdv2(spec, mom, n)
    return tuple(out)
