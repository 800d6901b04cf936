"""Independent oracles for the dual-route checks.

Everything here deliberately avoids the package's spectral machinery:
a Fourier (Hill-matrix) eigensolve, a finite-difference transfer-matrix
discriminant, a rectangle-contour action quadrature driven by discriminant
values alone, a dense scan for the psi-root condition, and a PDE step that
forms its products on a zero-padded complex grid.
"""
import numpy as np

from kdvfreq import pde
from kdvfreq.hill import discriminant_batch
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
    from kdvfreq import roots as R

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
