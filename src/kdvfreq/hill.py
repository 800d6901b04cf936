"""Floquet discriminant and spectra of the Hill operator -d^2/dx^2 + q.

Spectra come from the Fourier Hill matrix. On functions of period 2 the
operator splits into a periodic block (modes e^{i pi k x}, k even) and an
antiperiodic block (k odd); for real q each block is real symmetric in the
basis {1, sqrt2 cos(pi k x), sqrt2 sin(pi k x)}, truncated at
k <= N + 8 deg(q) + 16. Gap n is the eigenpair (n-1, n) of its block. The
float64 eigenvectors of each pair are re-orthonormalised in the spectrum
dtype and projected (2x2 Rayleigh-Ritz), which gives tau and gamma without
cancellation and a per-gap bound: residual^2 / separation, plus the
truncation residual, plus 8 eps (|lam| + 1). A gap is open when gamma
exceeds max(3 bound, 1e-9); below that floor it is reported exactly
collapsed. The critical points lam_n^* solve the gap conditions
sum_j (lam_n^* - lam_j) chi_n(lam_j) = 0 over the Chebyshev nodes of each
open gap, settled by the weighted-mean sweep ``_gap_roots``. Every psi_n is
then one column of a single linear solve on the node block (``_psi_family``).

The discriminant Delta(lam) = y1(1) + y2'(1) and its lam-derivative come
from shooting across one period. Shooting serves the public discriminant
functions, the Dirichlet eigenvalues mu_n (computed on first use) and the
cross-checks in ``roots``; the frequency pipeline makes no shooting call.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._dop853 import hill_endpoint_data
from .errors import BracketError, NumericalError
from .potentials import Potential

__all__ = ["DiscriminantValue", "HillSpectrum", "discriminant", "discriminant_batch",
           "periodic_spectrum"]

_LPI = np.longdouble("3.14159265358979323846264338327950288")


def _qfun(q: Potential, dtype):
    """Elementwise x -> q(x) closure in the requested real dtype."""
    pi2 = 2 * (_LPI if dtype == np.longdouble else np.pi)
    mean = dtype(q.mean)
    if not q.modes:
        return lambda x: np.full(np.shape(x), mean)
    w = pi2 * np.array(q.modes, dtype=dtype)
    re = 2.0 * np.array([c.real for c in q.coeffs], dtype=dtype)
    im = 2.0 * np.array([c.imag for c in q.coeffs], dtype=dtype)

    def qf(x):
        ph = np.multiply.outer(x, w)
        return mean + np.cos(ph) @ re - np.sin(ph) @ im

    return qf


def _delta_noise(lam_abs: float, ode_tol: float) -> float:
    # fitted against the q=0 closed form; conservative by 3-10x. The second
    # term is the float64 truncation of the tableau coefficients, common to
    # both dtypes.
    return 10.0 * ode_tol + 4e-19 * max(lam_abs, 1.0)


@dataclass(frozen=True)
class DiscriminantValue:
    """Shooting data at one spectral parameter."""

    delta: complex
    delta_dot: complex
    y2_at_1: complex
    wronskian_residual: float


def discriminant_batch(q: Potential, lams, tol: float = 1e-11, with_dlam: bool = True):
    """Vectorized discriminant data for an array of spectral parameters.

    Returns a dict with keys delta, y2_1, wronskian_residual and (if
    with_dlam) ddelta, dy2_1. Complex lams are supported.
    """
    lams = np.atleast_1d(lams)
    if np.iscomplexobj(lams):
        dtype = np.result_type(lams.dtype, np.complex128)
    else:
        dtype = np.result_type(lams.dtype, np.float64)
    real_dtype = np.empty(0, dtype=dtype).real.dtype
    qf = _qfun(q, real_dtype.type)
    return hill_endpoint_data(qf, lams.astype(dtype), tol, tol, with_dlam=with_dlam)


def discriminant(q: Potential, lam, tol: float = 1e-11) -> DiscriminantValue:
    """Delta(lam), its lam-derivative, and y2(1) for a single lam.

    The fundamental system of -y'' + q y = lam y is integrated over [0, 1]
    from identity initial data; the derivative comes from the augmented
    variational system z'' = (q - lam) z - y integrated alongside.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = discriminant_batch(q, np.atleast_1d(lam), tol)
    wr = float(d["wronskian_residual"][0])
    if np.iscomplexobj(np.atleast_1d(lam)):
        return DiscriminantValue(complex(d["delta"][0]), complex(d["ddelta"][0]),
                                 complex(d["y2_1"][0]), wr)
    return DiscriminantValue(float(d["delta"][0]), float(d["ddelta"][0]),
                             float(d["y2_1"][0]), wr)


@dataclass
class HillSpectrum:
    """Periodic, Dirichlet and critical spectra through index N.

    Index 0 of the edge arrays is lam_0^+ (lambda_plus) or NaN; entries
    1..N are the per-gap quantities. ``open_gap`` marks gaps resolved as
    open; collapsed gaps carry gamma == 0 and lam^+- == lam^* == tau
    exactly. ``gamma_floor`` is the widest gamma each gap may hide when
    reported collapsed, and ``gamma_rel_err`` bounds the relative error of
    each open gamma. ``potential`` is the potential the spectrum belongs to.
    ``mu`` is solved by shooting on first access; the node block ``_block``
    that every gap quadrature reads is built on first use too (by lam^*), and
    so is ``_psi``, the solve that gives every psi_n.
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    lambda_dot: np.ndarray
    gamma: np.ndarray
    tau: np.ndarray
    open_gap: np.ndarray
    gamma_floor: np.ndarray
    gamma_rel_err: np.ndarray
    N: int
    ode_tol: float
    potential: Potential = field(repr=False)

    @property
    def lam0(self):
        return self.lambda_plus[0]

    @cached_property
    def _block(self) -> GapNodes:
        """The open gaps' node block at the NODES Chebyshev nodes."""
        op = self.open_gap
        return _build_gap_nodes(self.tau[op], self.gamma[op], self.lam0,
                                cheb_nodes(NODES).astype(self.tau.dtype))

    @cached_property
    def _psi(self) -> PsiFamily:
        """The weights and node values of psi_1..psi_N."""
        return _psi_family(self)

    @cached_property
    def mu(self) -> np.ndarray:
        """Dirichlet eigenvalues mu_1..mu_N (index 0 NaN)."""
        return _dirichlet(self)

    def open_indices(self):
        return [int(n) for n in np.nonzero(self.open_gap)[0]]

    def to_json(self) -> str:
        def arr(a):
            return [None if np.isnan(float(v)) else float(v) for v in a]

        obj = {
            "N": self.N,
            "lambda_plus": arr(self.lambda_plus),
            "lambda_minus": arr(self.lambda_minus),
            "mu": arr(self.mu),
            "lambda_dot": arr(self.lambda_dot),
            "gamma": arr(self.gamma),
            "tau": arr(self.tau),
        }
        return json.dumps(obj)


# ---------------------------------------------------------------------------
# Fourier Hill matrix and Ritz pairs

def _hill_block(q: Potential, K: int, parity: int, dtype):
    """Real symmetric block of -d^2/dx^2 + q for modes k = parity mod 2,
    k <= K, in the basis [1 (even only), sqrt2 cos(pi k x), sqrt2 sin(pi k x)].

    Returns the block and the wave number k of every basis function."""
    pi = _LPI if dtype == np.longdouble else np.pi
    ks = np.arange(2 - parity, K + 1, 2)
    # q integrated against cos / sin(pi l x) for even l = 2p:
    # C[p] = mean (p = 0) or Re u_p, S[p] = -Im u_p
    size = K + 1
    C = np.zeros(size, dtype=dtype)
    S = np.zeros(size, dtype=dtype)
    C[0] = q.mean
    for m, u in zip(q.modes, q.coeffs):
        if m < size:
            C[m], S[m] = u.real, -u.imag

    def cq(l):
        return C[np.abs(l) // 2]

    def sq(l):
        return np.sign(l) * S[np.abs(l) // 2]

    j, k = ks[:, None], ks[None, :]
    cc = cq(j - k) + cq(j + k)
    ss = cq(j - k) - cq(j + k)
    cs = sq(k + j) + sq(k - j)        # row cos(pi j x), column sin(pi k x)
    kin = np.diag((ks.astype(dtype) * pi) ** 2)
    H = np.block([[cc + kin, cs], [cs.T, ss + kin]])
    kall = np.concatenate([ks, ks])
    if parity == 0:
        r2 = np.sqrt(dtype(2))
        row = np.concatenate([r2 * cq(ks), r2 * sq(ks)])
        H = np.block([[np.array([[C[0]]], dtype=dtype), row[None, :]],
                      [row[:, None], H]])
        kall = np.concatenate([[0], kall])
    return H, kall


def _ritz(H, V, ev, idx, top, qnorm, eps):
    """Rayleigh-Ritz on the eigenvector groups V[:, idx] (idx: (G, p)).

    Returns the projected matrices A (G, p, p) and the per-group bound
    residual^2 / separation + truncation residual + 8 eps (|lam| + 1)."""
    W = V[:, idx].astype(H.dtype)                       # (size, G, p)
    for a in range(W.shape[2]):                         # Gram-Schmidt in dtype
        for b in range(a):
            W[:, :, a] -= np.sum(W[:, :, b] * W[:, :, a], axis=0) * W[:, :, b]
        W[:, :, a] /= np.sqrt(np.sum(W[:, :, a] ** 2, axis=0))
    HW = np.einsum("ij,jgp->igp", H, W)
    A = np.einsum("igp,igr->gpr", W, HW)
    R = HW - np.einsum("igp,gpr->igr", W, A)
    res2 = np.sum(R.astype(float) ** 2, axis=(0, 2))
    lo, hi = idx[:, 0], idx[:, -1]
    below = np.where(lo > 0, ev[lo] - ev[np.maximum(lo - 1, 0)], np.inf)
    sep = np.minimum(ev[np.minimum(hi + 1, ev.size - 1)] - ev[hi], below)
    trunc = qnorm * np.sqrt(np.sum(W[top].astype(float) ** 2, axis=(0, 2)))
    lam = np.abs(ev[hi])
    return A, res2 / sep + trunc + 8.0 * eps * (lam + 1.0)


# ---------------------------------------------------------------------------
# gap conditions

NODES = 96      # Chebyshev nodes per gap side, in every gap quadrature


def cheb_nodes(K: int) -> np.ndarray:
    """First-kind Gauss-Chebyshev nodes on (-1, 1), increasing."""
    return np.cos(np.pi * (2.0 * np.arange(K, 0, -1) - 1.0) / (2.0 * K))


def _varsigma(tau, gamma, lam):
    """Standard root (tau - lam) sqrt(1 - gamma^2 / 4 (tau - lam)^2) of a gap at
    real lam off it, in the dtype of the arguments (broadcasting)."""
    d = tau - lam
    return d * np.sqrt(1 - (gamma / 2) ** 2 / (d * d))


@dataclass(frozen=True)
class GapNodes:
    """The part of the gap quadratures that depends on neither sigma nor n,
    for d listed gaps at the nodes t: lam[k] = tau_k + t gamma_k / 2
    (d, nodes), vs[m, k] = varsigma_m(lam[k]) (d, d, nodes) and
    root = sqrt(lam - lam0) (d, nodes). The diagonal of vs, where lam lies on
    gap m itself, is never read and holds 1: the standard root there is NaN
    (or 0 at a rounded end node), and x87 long-double arithmetic on a NaN
    operand runs several times slower than on a finite one."""

    t: np.ndarray
    lam: np.ndarray
    vs: np.ndarray
    root: np.ndarray

    def products(self, roots, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """prod_{m != k} (roots_m - lam_k) / varsigma_m(lam_k) for the listed
        gaps k = lo..hi-1: (hi - lo, nodes), bit for bit a per-gap loop."""
        hi = self.lam.shape[0] if hi is None else hi
        fac = roots[:, None, None] - self.lam[None, lo:hi]
        fac /= self.vs[:, lo:hi]
        fac[np.arange(lo, hi), np.arange(hi - lo)] = 1
        return np.prod(fac, axis=0)


def _build_gap_nodes(tau, gamma, lam0, t) -> GapNodes:
    """The node block of the listed gaps at the nodes t (spectrum dtype)."""
    lam = tau[:, None] + t[None, :] * (gamma[:, None] / 2)
    with np.errstate(invalid="ignore", divide="ignore"):  # m == k: on its own gap
        vs = _varsigma(tau[:, None, None], gamma[:, None, None], lam[None, :, :])
    vs[np.arange(tau.size), np.arange(tau.size)] = 1
    return GapNodes(t, lam, vs, np.sqrt(lam - lam0))


def _gap_roots(block, tau, gamma, eps):
    """The roots s_k of the block's gap conditions
    sum_j (s_k - lam_kj) w_kj = 0, w = products(s) / root on row k: the
    weighted-mean fixed point s_k = tau_k + (gamma_k / 2) sum_j t_j w_kj /
    sum_j w_kj from s = tau, taken as an offset from tau_k so that rounding
    scales with gamma_k, until no change exceeds 4 eps |tau_k|."""
    settled = 4.0 * eps * np.abs(tau.astype(float))
    roots = tau
    for _ in range(50):
        w = block.products(roots) / block.root
        new = tau + (gamma / 2) * (np.sum(block.t * w, axis=1) / np.sum(w, axis=1))
        change, roots = np.abs((new - roots).astype(float)), new
        if np.all(change <= settled):
            return roots
    raise NumericalError("critical points lam_n^* did not settle")


def _collapsed_quotient(spec: HillSpectrum, n: int):
    """chi_n(tau_n) at a collapsed gap n: n pi / sqrt(tau_n - lam0) times
    prod_{open m} (lam_m^* - tau_n) / varsigma_m(tau_n), m ascending."""
    lam, opens = spec.tau[n], spec.open_gap
    fac = (spec.lambda_dot[opens] - lam) / _varsigma(spec.tau[opens], spec.gamma[opens], lam)
    return n * math.pi / np.sqrt(lam - spec.lam0) * np.prod(fac)


REFINE = 2      # refinement steps of the psi solve after its float64 solve

# psi_n = -2 DeltaDot(lam) (sum_j r[n-1, j] / (lam - lam_j^*) + c[n-1] / (lam - tau_n)),
# j over the open gaps, c = 0 unless gap n is collapsed; node_values[n-1] holds
# g_nk, residuals[n-1, k] |condition integral - delta_nk| of open gap k, in float.
PsiFamily = namedtuple("PsiFamily", "r c node_values residuals")


def _psi_family(spec: HillSpectrum) -> PsiFamily:
    """psi_1..psi_N from one linear solve of the gap conditions
    (1/2 pi) oint_k psi_n / sqrt_c(Delta^2 - 4) dlam = delta_nk. On open gap
    k, DeltaDot varsigma_k / (i sqrt_c(Delta^2 - 4)) = -(lam_k^* - lam) P_k / 2
    with P_k = products(lam^*)_k / root, so the pole p adds the column
    B_pk = (lam_k^* - lam) / (lam - p) P_k to g_nk. M_kj, the node mean of
    B_jk over the open poles, serves every n: an open n solves M r = e_n, a
    collapsed n M r = -c b, b the node means of the column of its pole tau_n,
    c = -n pi / chi_n(tau_n) from its residue. One float64 solve and REFINE
    refinement steps, the residual in the spectrum dtype; the columns are
    dropped once the node values are formed."""
    block, star, N = spec._block, spec.lambda_dot, spec.N
    opens, shut = np.nonzero(spec.open_gap)[0], np.nonzero(~spec.open_gap[1:])[0] + 1
    d, dtype = opens.size, spec.tau.dtype
    P = block.products(star[opens]) / block.root
    num = (star[opens, None] - block.lam) * P           # B_pk (lam - p)
    B = block.lam - star[opens, None, None]             # the open poles' columns
    B[np.arange(d), np.arange(d)] = 1                   # lam can meet lam_k^*
    np.divide(num, B, out=B)
    B[np.arange(d), np.arange(d)] = -P
    M = np.sum(B, axis=2).T / NODES
    c, rhs = np.zeros(N, dtype=dtype), np.zeros((d, N), dtype=dtype)
    rhs[np.arange(d), opens - 1] = 1
    for n in shut:                  # the column of tau_n, formed where it is read
        c[n - 1] = -n * math.pi / _collapsed_quotient(spec, n)
        rhs[:, n - 1] = -c[n - 1] * np.sum(num / (block.lam - spec.tau[n]), axis=1) / NODES
    r = np.zeros_like(rhs)
    for _ in range(1 + REFINE):
        r += np.linalg.solve(M.astype(float), (rhs - M @ r).astype(float))
    res = np.abs((M @ r - rhs).astype(float)).T
    if not (np.all(np.isfinite(res)) and np.all(np.isfinite(c))):
        raise NumericalError("degenerate psi conditions")
    g = (r.T @ B.reshape(d, d * NODES)).reshape(N, d, NODES)
    for n in shut:
        g[n - 1] += c[n - 1] * (num / (block.lam - spec.tau[n]))
    g.flags.writeable = False
    return PsiFamily(r.T, c, g, res)


# ---------------------------------------------------------------------------
# the spectrum

def periodic_spectrum(q: Potential, N: int, dtype=np.float64) -> HillSpectrum:
    """Periodic and critical spectra through index N from the Fourier Hill
    matrix (see the module docstring); the Dirichlet spectrum ``mu`` is
    shot on first access.

    Pass dtype=numpy.longdouble to carry the Ritz projection, lam^* and
    every downstream quadrature in extended precision. The spectrum's
    ``ode_tol``, the shooting tolerance of mu and the shooting cross-checks,
    is 1e-13, or 1e-16 in long double.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    dtype = np.dtype(dtype).type
    eps = float(np.finfo(dtype).eps)
    ode_tol = 1e-16 if eps < 1e-17 else 1e-13
    K = N + 8 * q.degree + 16
    qnorm = q.abs_coeff_sum() - abs(q.mean)

    lam_minus = np.full(N + 1, np.nan, dtype=dtype)
    lam_plus = np.full(N + 1, np.nan, dtype=dtype)
    gamma = np.zeros(N + 1, dtype=dtype)
    tau = np.full(N + 1, np.nan, dtype=dtype)
    bound = np.zeros(N + 1)
    for parity in (0, 1):
        H, kall = _hill_block(q, K, parity, dtype)
        ev, V = np.linalg.eigh(H.astype(np.float64))
        top = kall > K - 2 * q.degree
        ns = np.arange(2 - parity, N + 1, 2)
        A, bnd = _ritz(H, V, ev, np.stack([ns - 1, ns], axis=1), top, qnorm, eps)
        a, b, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
        tau[ns] = (a + d) / 2
        gamma[ns] = 2 * np.hypot((a - d) / 2, b)
        bound[ns] = bnd
        if parity == 0:
            A0, bnd0 = _ritz(H, V, ev, np.zeros((1, 1), dtype=int), top, qnorm, eps)
            lam_plus[0] = A0[0, 0, 0]
            bound[0] = bnd0[0]
    if not all(np.all(np.isfinite(a)) for a in (bound, tau[1:], gamma, lam_plus[:1])):
        raise NumericalError("Ritz edges or bounds are not finite: the potential "
                             "is too large for the dtype")

    floor = np.maximum(3.0 * bound, 1e-9)
    floor[0] = np.nan
    open_mask = gamma.astype(float) > floor
    open_mask[0] = False
    gamma[~open_mask] = 0
    rel_err = np.where(open_mask, bound / np.where(open_mask, gamma.astype(float), 1.0),
                       0.0)
    lam_minus[1:] = tau[1:] - gamma[1:] / 2       # collapsed: exactly tau
    lam_plus[1:] = tau[1:] + gamma[1:] / 2

    lam_star = np.full(N + 1, np.nan, dtype=dtype)
    lam_star[1:] = tau[1:]
    spec = HillSpectrum(
        lambda_plus=lam_plus, lambda_minus=lam_minus, lambda_dot=lam_star,
        gamma=gamma, tau=tau, open_gap=open_mask, gamma_floor=floor,
        gamma_rel_err=rel_err, N=N, ode_tol=ode_tol, potential=q,
    )
    ns = np.nonzero(open_mask)[0]
    if ns.size:
        lam_star[ns] = _gap_roots(spec._block, tau[ns], gamma[ns], eps)
    return spec


def _dirichlet(spec: HillSpectrum, max_iter: int = 80) -> np.ndarray:
    """mu_n by one batched bracketed Newton on y2(1, lam) over the open gaps;
    mu_n = tau_n on collapsed gaps.

    Each bracket is the gap widened by a quarter of the smaller adjacent
    band, so a mu_n on a gap edge (even potentials) is bracketed too."""
    mu = spec.tau.copy()
    ns = np.array(spec.open_indices())
    if not ns.size:
        return mu
    dtype = spec.tau.dtype.type
    eps = float(np.finfo(dtype).eps)
    tol = spec.ode_tol
    qf = _qfun(spec.potential, dtype)
    lo_edge, hi_edge = spec.lambda_minus[ns], spec.lambda_plus[ns]
    below = lo_edge - spec.lambda_plus[ns - 1]
    nxt = np.minimum(ns + 1, spec.N)
    above = np.where(ns < spec.N, spec.lambda_minus[nxt] - hi_edge, below)
    pad = np.minimum(below, above) / 4
    lo, hi = lo_edge - pad, hi_edge + pad
    ends = hill_endpoint_data(qf, np.concatenate([lo, hi]), tol, tol, with_dlam=False)
    flo = ends["y2_1"][:ns.size]
    if np.any(flo * ends["y2_1"][ns.size:] > 0):
        raise BracketError("Dirichlet eigenvalue not bracketed by its gap")

    def ftol(x):
        return 2.5 * np.array([_delta_noise(abs(float(v)), tol) for v in x])

    x = (lo + hi) / 2
    todo = np.arange(ns.size)
    for _ in range(max_iter):
        data = hill_endpoint_data(qf, x[todo], tol, tol)
        f, df = data["y2_1"], data["dy2_1"]
        left = f * flo[todo] > 0
        lo[todo] = np.where(left, x[todo], lo[todo])
        flo[todo] = np.where(left, f, flo[todo])
        hi[todo] = np.where(left, hi[todo], x[todo])
        width = (hi[todo] - lo[todo]).astype(float)
        done = (np.abs(f.astype(float)) <= ftol(x[todo])) | \
            (width <= 32.0 * eps * np.abs(x[todo].astype(float)))
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x[todo] - f / df
        inside = (newton > lo[todo]) & (newton < hi[todo])
        step = np.where(inside, newton, (lo[todo] + hi[todo]) / 2)
        x[todo] = np.where(done, x[todo], step)
        todo = todo[~done]
        if not todo.size:
            mu[ns] = x
            return mu
    raise NumericalError("Dirichlet eigenvalue iteration stalled")
