"""Standard and canonical roots, the Floquet exponent on gap sides, and the
interpolation functions psi_n solved from their contour conditions.

All gap integrals use Gauss-Chebyshev (first kind) nodes: the gap-side
parametrization lam_t = tau + t*gamma/2 exposes an exact 1/sqrt(1-t^2)
endpoint weight. Collapsed gaps contribute the factor 1 exactly to every
root quotient, so products run over the open gaps only; modes beyond the
spectrum truncation are handled by the sin-product tail.

The products prod_m (s_m - lam) / varsigma_m(lam) at the nodes of the open
gaps read one block per spectrum and node count (``HillSpectrum._gap_nodes``:
the nodes, every varsigma_m there, sqrt(lam - lam0)), built with lam^* and
shared by psi, the moments and the actions. Each factor divides by varsigma,
the m == k factor is exactly 1 and m ascends, so every value is bit for bit
that of a per-gap loop.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NewtonError, NumericalError, ValidationError
from .hill import (HillSpectrum, cheb_nodes, discriminant_batch, _delta_noise,
                   _build_gap_nodes, _varsigma, _LPI)
from .potentials import Potential
from .seqspace import zeta_tail

__all__ = ["GapContour", "PsiFunction", "standard_root", "canonical_root",
           "psi_solve", "gap_contour", "cheb_nodes",
           "gap_F_values", "gap_F_integrated", "psi_quotient_on_gap",
           "condition_integral"]


# ---------------------------------------------------------------------------
# contours

@dataclass(frozen=True)
class GapContour:
    """Parametrized side of gap n: lam_t = tau + (t +- i0) gamma / 2."""

    n: int
    side: str
    t: np.ndarray
    lam: np.ndarray


def gap_contour(spec: HillSpectrum, n: int, t=None, side: str = "minus",
                nodes: int = 96) -> GapContour:
    if side not in ("plus", "minus"):
        raise ValidationError("side must be 'plus' or 'minus'")
    t = cheb_nodes(nodes) if t is None else np.atleast_1d(np.asarray(t, dtype=float))
    lam = spec.tau[n] + t * (spec.gamma[n] / 2.0)
    # endpoints match the gap edges exactly
    lam = np.where(t == -1.0, spec.lambda_minus[n], lam)
    lam = np.where(t == 1.0, spec.lambda_plus[n], lam)
    return GapContour(n, side, t, lam)


# ---------------------------------------------------------------------------
# roots

def standard_root(spec: HillSpectrum, n: int, lam, side: str | None = None):
    """Standard root of gap n.

    Off the gap: (tau_n - lam) * sqrt+(1 - gamma_n^2 / 4 (tau_n - lam)^2);
    on the gap (real lam strictly inside, a side required):
    -+ i (gamma_n/2) sqrt(1 - t^2) on the plus/minus side. Collapsed gaps
    degenerate to the entire function tau_n - lam.
    """
    lam_arr = np.atleast_1d(np.asarray(lam))
    scalar = np.isscalar(lam) or np.ndim(lam) == 0
    g = float(spec.gamma[n])
    tau = float(spec.tau[n])
    if g == 0.0:
        out = (tau - lam_arr).astype(complex)
        return complex(out[0]) if scalar else out
    inside = (np.abs(lam_arr.imag) == 0) & (np.abs(lam_arr.real - tau) < g / 2.0) \
        if np.iscomplexobj(lam_arr) else (np.abs(lam_arr - tau) < g / 2.0)
    if np.any(inside):
        if side is None:
            raise ValidationError(
                f"lambda inside open gap {n}: a side ('plus'/'minus') is required")
        t = (np.real(lam_arr) - tau) / (g / 2.0)
        sgn = -1.0 if side == "plus" else 1.0
        on_gap = sgn * 1j * (g / 2.0) * np.sqrt(np.maximum(0.0, 1.0 - t ** 2))
    else:
        on_gap = 0.0
    d = tau - lam_arr.astype(complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        off_gap = d * np.sqrt(1.0 - (g * g / 4.0) / (d * d))
    out = np.where(inside, on_gap, off_gap)
    return complex(out[0]) if scalar else out


def sin_sqrt_quotient(lam, exclude: int = 0, terms: int = 0):
    """sin(sqrt(lam))/sqrt(lam), optionally with the factor
    (m^2 pi^2 - lam)/(m^2 pi^2) removed for m = exclude.

    The excluded form is evaluated as a truncated product with an
    Euler-Maclaurin tail so it stays finite at lam = m^2 pi^2.
    """
    lam = np.asarray(lam, dtype=complex)
    if exclude == 0:
        r = np.sqrt(lam)
        out = np.where(np.abs(lam) < 1e-12, 1.0 - lam / 6.0, np.sin(r) / np.where(r == 0, 1, r))
        return out
    J = max(64, int(10.0 * math.sqrt(np.max(np.abs(lam))) / math.pi) + exclude + 8)
    js = np.arange(1, J + 1)
    js = js[js != exclude]
    x = lam[None, :] / (js[:, None] ** 2 * math.pi ** 2)
    logs = np.sum(np.log1p(-x), axis=0)
    # tail: -sum_{j>J} sum_k x^k / k
    tail = 0.0
    for k in range(1, terms + 4):
        tail = tail - (lam / math.pi ** 2) ** k / k * zeta_tail(J + 1, k)
    return np.exp(logs + tail)


def canonical_root(spec: HillSpectrum, lam):
    """Canonical root of Delta^2 - 4, analytic off the gaps, normalized by
    i * root > 0 on the band (lam_0^+, lam_1^-).

    Gaps above the spectrum truncation are treated as collapsed at m^2 pi^2
    through the sin-product tail (for a trigonometric-polynomial potential
    those gaps are below the resolution floor anyway). On the cut
    (-infty, lam_0^+] the principal branch returns the upper-side limit.
    """
    lam_arr = np.atleast_1d(np.asarray(lam)).astype(complex)
    scalar = np.isscalar(lam) or np.ndim(lam) == 0
    open_ns = spec.open_indices()
    for n in open_ns:
        inside = (lam_arr.imag == 0) & \
            (np.abs(lam_arr.real - float(spec.tau[n])) < float(spec.gamma[n]) / 2.0)
        if np.any(inside):
            raise ValidationError(
                f"lambda inside open gap {n}; use the gap-side quotient forms")
    lam0 = float(spec.lam0)
    pref = -2j * np.sqrt(lam_arr - lam0)
    # resolved gaps m <= spec.N: true varsigma over (m^2 pi^2 - lam);
    # the tail factors cancel exactly beyond spec.N
    prod = np.ones_like(lam_arr)
    guard = np.zeros(lam_arr.shape, dtype=int)
    for m in range(1, spec.N + 1):
        m2 = m * m * math.pi ** 2
        num = standard_root(spec, m, lam_arr)
        den = m2 - lam_arr
        near = np.abs(den) < 1e-7 * m2
        if np.any(near):
            guard = np.where(near, m, guard)
            den = np.where(near, 1.0, den)
        prod = prod * np.asarray(num) / den
    sinc = sin_sqrt_quotient(lam_arr)
    if np.any(guard > 0):
        for m in np.unique(guard[guard > 0]):
            sel = guard == m
            sinc_ex = sin_sqrt_quotient(lam_arr[sel], exclude=int(m))
            sinc = sinc.copy()
            sinc[sel] = sinc_ex / (m * m * math.pi ** 2)
    out = pref * prod * sinc
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Floquet exponent on gap sides

def gap_F_values(q: Potential, spec: HillSpectrum, nodes: int = 96,
                 ks=None, tol: float | None = None) -> dict[int, np.ndarray]:
    """F_k at the Chebyshev nodes of every requested open gap (minus side),
    from a single batched discriminant evaluation."""
    ks = spec.open_indices() if ks is None else [k for k in ks if spec.open_gap[k]]
    if not ks:
        return {}
    t = cheb_nodes(nodes)
    lams = np.concatenate([gap_contour(spec, k, t).lam for k in ks])
    tol = spec.ode_tol if tol is None else tol
    d = discriminant_batch(q, lams.astype(spec.tau.dtype), tol)
    delta = np.asarray(d["delta"], dtype=float)
    eps = float(np.finfo(spec.tau.dtype).eps)
    out = {}
    for i, k in enumerate(ks):
        arg = ((-1.0) ** k) * delta[i * nodes:(i + 1) * nodes] / 2.0
        noise = _delta_noise(float(spec.tau[k]), tol, eps)
        if np.any(arg < 1.0 - max(1e-12, 5.0 * noise)):
            raise NumericalError(f"discriminant dips below 2 inside gap {k}")
        out[k] = -np.arccosh(np.maximum(arg, 1.0))   # minus side
    return out


def gap_F_integrated(spec: HillSpectrum, nodes: int = 96) -> dict[int, np.ndarray]:
    """F_k at the Chebyshev nodes of every open gap (minus side), from the
    spectral data alone.

    Along lam = tau_k + (gamma_k / 2) cos(theta), theta from 0 (lam_k^+) to
    pi (lam_k^-), dF/dtheta = (lam_k^* - lam) chi_k(lam) / (2 k pi). Its
    cosine coefficients a_m come from the node values (a_0 = 0 is the
    lam_k^* condition), and F = sum_m a_m sin(m theta) / m, all in the
    spectrum dtype. ``gap_F_values`` computes the same table by shooting.
    """
    ks = np.array(spec.open_indices())
    if not ks.size:
        return {}
    dtype = spec.tau.dtype.type
    pi = _LPI if dtype == np.longdouble else np.pi
    theta = pi * (2 * np.arange(nodes, 0, -1, dtype=dtype) - 1) / (2 * nodes)
    block = _build_gap_nodes(spec.tau[ks], spec.gamma[ks], spec.lam0, np.cos(theta))
    prod = block.products(spec.lambda_dot[ks]) / block.root
    f = (spec.lambda_dot[ks][:, None] - block.lam) * prod / 2    # chi_k = k pi prod
    m = np.arange(1, nodes, dtype=dtype)
    mt = np.multiply.outer(m, theta)                    # (modes, nodes)
    a = (f @ np.cos(mt).T) * (dtype(2) / nodes)         # cosine coefficients
    F = (a / m) @ np.sin(mt)
    return {int(k): F[i] for i, k in enumerate(ks)}


# ---------------------------------------------------------------------------
# psi functions

@dataclass
class PsiFunction:
    """Entire interpolation function psi_n = prefactor * prod (sigma_m - lam)/(m^2 pi^2).

    sigma[m], m = 1..spec.N, holds the root in gap m (tau_m for collapsed
    gaps, the critical point for m = n); the roots past spec.N are the free
    values m^2 pi^2 and are not stored. ``rho`` is the relative deviation of
    the solved prefactor from 2/(n pi).
    """

    n: int
    sigma: np.ndarray
    prefactor: float
    rho: float
    residuals: dict[int, float]
    iterations: int
    nodes: int = 96

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "sigma": [float(s) for s in self.sigma[1:]],
            "prefactor": self.prefactor, "rho": self.rho,
            "residuals": {str(k): v for k, v in sorted(self.residuals.items())},
            "iterations": self.iterations,
        })


def _gap_quotient_products(spec, sigma_of, n, k, lam):
    """n pi / sqrt(lam - lam0) * prod_{m in open, m != k} (s_m - lam)/varsigma_m(lam)
    evaluated at real points lam inside gap k; s_m = sigma_of[m]."""
    open_ns = [m for m in spec.open_indices() if m != k]
    pref = n * math.pi / np.sqrt(lam - spec.lam0)
    if not open_ns:
        return pref, np.ones((0, lam.size)), open_ns
    vs = _varsigma(spec.tau[open_ns][:, None], spec.gamma[open_ns][:, None], lam[None, :])
    fac = (sigma_of[open_ns][:, None] - lam[None, :]) / vs
    return pref, fac, open_ns


def psi_quotient_on_gap(spec: HillSpectrum, psi: PsiFunction, k: int, lam):
    """g_nk(lam) = psi_n(lam) varsigma_k(lam) / (i sqrt_c(Delta^2 - 4)(lam)):
    the gap-k integrand with its 1/varsigma_k singularity removed.

    Analytic across gap k and real on it; all collapsed-gap factors cancel
    exactly, so only open gaps enter.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=spec.tau.dtype))
    pref, fac, _ = _gap_quotient_products(spec, psi.sigma, psi.n, k, lam)
    g = pref * np.prod(fac, axis=0)
    if k != psi.n:
        g = g * (psi.sigma[k] - lam)
    # solved prefactor (2/(n pi))(1 + rho) folds in as (1 + rho)
    return (1.0 + psi.rho) * g


def _block_quotients(spec: HillSpectrum, psi: PsiFunction, nodes: int,
                     lo: int = 0, hi: int | None = None) -> np.ndarray:
    """``psi_quotient_on_gap`` at the nodes of the open gaps lo..hi-1 (in
    ``open_indices`` order), one row per gap, from the spectrum's node block."""
    block = spec._gap_nodes(nodes)
    opens = np.nonzero(spec.open_gap)[0]
    ks = opens[lo:hi]
    g = (psi.n * math.pi / block.root[lo:hi]) * block.products(psi.sigma[opens], lo, hi)
    other = ks != psi.n
    g[other] *= psi.sigma[ks[other], None] - block.lam[lo:hi][other]
    return (1.0 + psi.rho) * g


def condition_integral(spec: HillSpectrum, psi: PsiFunction, k: int,
                       nodes: int | None = None) -> float:
    """(1/2 pi) * contour integral of psi_n / sqrt_c(Delta^2 - 4) around gap k.

    Equals delta_nk when psi_n solves its conditions. Collapsed gaps give
    delta_nk exactly (Cauchy / residue); open gaps reduce to a Chebyshev sum
    over the lower side.
    """
    nodes = psi.nodes if nodes is None else nodes
    if not spec.open_gap[k]:
        if k != psi.n:
            return 0.0
        # residue at tau_n of the simple pole 1/(tau_n - lam)
        lam = np.atleast_1d(spec.tau[k])
        pref, fac, _ = _gap_quotient_products(spec, psi.sigma, psi.n, k, lam)
        return float((1.0 + psi.rho) * pref[0] * np.prod(fac[:, 0]))
    i = spec.open_indices().index(k)
    return float(np.sum(_block_quotients(spec, psi, nodes, i, i + 1)[0]) / nodes)


def psi_solve(spec: HillSpectrum, n: int, tol: float = 1e-8, nodes: int = 96,
              max_iter: int = 50) -> PsiFunction:
    """Solve the gap conditions for psi_n by Newton iteration on the roots.

    Unknowns are the sigma_k in open gaps k != n (initial guess tau_k) plus
    the prefactor, which the k = n condition fixes after the zero conditions
    converge (they are scale invariant). Collapsed gaps pin sigma_k = tau_k
    exactly.
    """
    if n < 1 or n > spec.N:
        raise ValidationError(f"psi index n={n} outside spectrum range 1..{spec.N}")
    if nodes < 1:
        raise ValidationError("nodes must be at least 1")
    dtype = spec.tau.dtype
    sigma = spec.tau.copy()
    sigma[n] = spec.lambda_dot[n]

    opens = spec.open_indices()
    unknowns = [k for k in opens if k != n]
    rows = [i for i, k in enumerate(opens) if k != n]
    block = spec._gap_nodes(nodes)
    lam = block.lam[rows]
    diag = np.diag_indices(len(unknowns))

    def residuals_and_jac(sig):
        # row a: gap k = unknowns[a]; sigma_j enters g through one linear factor
        prod = (n * math.pi) * (block.products(sig[opens]) / block.root)[rows]
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
            # once within tol, one more (quadratically convergent) step takes
            # the residual down to the rounding floor
            polished = np.max(np.abs(r)) <= tol
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError as exc:
                raise NewtonError(f"singular Newton system for psi_{n}") from exc
            cap = 0.45 * spec.gamma[unknowns].astype(float)
            sigma[unknowns] += np.clip(step, -cap, cap).astype(dtype)
        else:
            r, _ = residuals_and_jac(sigma)
            raise NewtonError(
                f"psi_{n} conditions not met after {max_iter} iterations; "
                f"max residual {np.max(np.abs(r)):.3e}")
        res = {k: float(abs(r[a])) for a, k in enumerate(unknowns)}

    psi = PsiFunction(n=n, sigma=sigma, prefactor=2.0 / (n * math.pi),
                      rho=0.0, residuals=res, iterations=iterations, nodes=nodes)
    c_n = condition_integral(spec, psi, n, nodes)
    if c_n == 0.0 or not np.isfinite(c_n):
        raise NumericalError(f"degenerate normalization integral for psi_{n}")
    psi.rho = 1.0 / c_n - 1.0
    psi.prefactor = (2.0 / (n * math.pi)) * (1.0 + psi.rho)
    return psi
