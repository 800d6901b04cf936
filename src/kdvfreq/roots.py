"""The interpolation functions psi_n solved from their contour conditions,
their condition integrals, and the Floquet exponent F on the gap sides.

All gap integrals use NODES = 96 Gauss-Chebyshev (first kind) nodes: the
gap-side parametrization lam_t = tau + t*gamma/2 exposes an exact
1/sqrt(1-t^2) endpoint weight. Collapsed gaps contribute the factor 1
exactly to every root quotient, so products run over the open gaps only.

The products prod_m (s_m - lam) / varsigma_m(lam) at the nodes of the open
gaps read one block per spectrum (``HillSpectrum._block``: the float64
nodes in the spectrum dtype, every varsigma_m there, sqrt(lam - lam0)),
built with lam^* and shared by psi, the condition integrals, F, the moments
and the actions. Only the actions' error estimate forms other nodes, twice
as many, one gap m at a time. Each factor divides by varsigma, the m == k
factor is exactly 1 and m ascends, so every value is bit for bit that of a
per-gap loop. The block holds 1, not the NaN varsigma, where a gap meets its
own nodes: x87 long-double arithmetic on NaN operands is slow. A collapsed
gap n enters through one point only, tau_n: the residue of psi_n there and
chi_n(tau_n), one product over the open gaps (``_collapsed_quotient``).

``psi_solve`` settles the roots of psi_n by the sweep that gives lam^*
(``hill._gap_roots``). One products call at the settled roots gives the
residuals, the normalization and the node values g_nk that the returned psi
carries and ``invariants.moments`` reads.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonError, NumericalError, ValidationError
from .hill import (NODES, HillSpectrum, cheb_nodes, discriminant_batch, _delta_noise,
                   _gap_roots, _varsigma, _LPI)
from .potentials import Potential

__all__ = ["PsiFunction", "psi_solve", "cheb_nodes", "gap_F_values",
           "gap_F_integrated", "condition_integral"]


# ---------------------------------------------------------------------------
# Floquet exponent on gap sides

def gap_F_values(q: Potential, spec: HillSpectrum) -> dict[int, np.ndarray]:
    """F_k at the Chebyshev nodes of every open gap (minus side), by shooting
    at the nodes of the spectrum's block in one batched discriminant
    evaluation."""
    ks = spec.open_indices()
    if not ks:
        return {}
    d = discriminant_batch(q, spec._block.lam.ravel(), spec.ode_tol)
    delta = np.asarray(d["delta"], dtype=float)
    eps = float(np.finfo(spec.tau.dtype).eps)
    out = {}
    for i, k in enumerate(ks):
        arg = ((-1.0) ** k) * delta[i * NODES:(i + 1) * NODES] / 2.0
        noise = _delta_noise(float(spec.tau[k]), spec.ode_tol, eps)
        if np.any(arg < 1.0 - max(1e-12, 5.0 * noise)):
            raise NumericalError(f"discriminant dips below 2 inside gap {k}")
        out[k] = -np.arccosh(np.maximum(arg, 1.0))   # minus side
    return out


def gap_F_integrated(spec: HillSpectrum) -> dict[int, np.ndarray]:
    """F_k at the Chebyshev nodes of every open gap (minus side), from the
    spectral data alone.

    Along lam = tau_k + (gamma_k / 2) cos(theta), theta from 0 (lam_k^+) to
    pi (lam_k^-), dF/dtheta = (lam_k^* - lam) chi_k(lam) / (2 k pi). Its
    values at the nodes come from the spectrum's node block; its cosine
    coefficients a_m (a_0 = 0 is the lam_k^* condition) and
    F = sum_m a_m sin(m theta) / m use the cosines and sines of theta itself,
    all in the spectrum dtype. ``gap_F_values`` computes the same table by
    shooting.
    """
    ks = np.array(spec.open_indices())
    if not ks.size:
        return {}
    dtype = spec.tau.dtype.type
    m, cos_mt, sin_mt = _fourier_tables(dtype)
    block = spec._block
    prod = block.products(spec.lambda_dot[ks]) / block.root
    f = (spec.lambda_dot[ks][:, None] - block.lam) * prod / 2    # chi_k = k pi prod
    a = (f @ cos_mt.T) * (dtype(2) / NODES)             # cosine coefficients
    F = (a / m) @ sin_mt
    return {int(k): F[i] for i, k in enumerate(ks)}


@functools.lru_cache(maxsize=None)
def _fourier_tables(dtype):
    """m = 1..NODES-1 and the (NODES-1, NODES) tables cos(m theta) and
    sin(m theta) at the nodes of ``gap_F_integrated``, in dtype (float64 or
    long double), read-only: they depend on nothing else."""
    pi = _LPI if dtype == np.longdouble else np.pi
    theta = pi * (2 * np.arange(NODES, 0, -1, dtype=dtype) - 1) / (2 * NODES)
    m = np.arange(1, NODES, dtype=dtype)
    mt = np.multiply.outer(m, theta)
    tables = m, np.cos(mt), np.sin(mt)
    for t in tables:
        t.flags.writeable = False
    return tables


# ---------------------------------------------------------------------------
# psi functions

@dataclass
class PsiFunction:
    """Entire interpolation function psi_n = prefactor * prod (sigma_m - lam)/(m^2 pi^2).

    sigma[m], m = 1..spec.N, holds the root in gap m (tau_m for collapsed
    gaps, the critical point for m = n); the roots past spec.N are the free
    values m^2 pi^2 and are not stored. ``rho`` is the relative deviation of
    the solved prefactor from 2/(n pi). ``residuals`` holds |condition
    integral| of every open gap k != n at the returned roots (before the
    normalization), and ``iterations`` the number of sweeps that settled them.

    ``node_values`` holds g_nk = psi_n varsigma_k / (i sqrt_c(Delta^2 - 4)),
    the gap-k integrand with its 1/varsigma_k removed, at the nodes of every
    open gap, one row per gap in ``open_indices`` order, at the sigma and rho
    ``psi_solve`` leaves: read-only, tied to the node block they were formed
    on, and dropped by ``dataclasses.replace`` (change sigma or rho through
    it, not in place).
    """

    n: int
    sigma: np.ndarray
    prefactor: float
    rho: float
    residuals: dict[int, float]
    iterations: int
    node_values: np.ndarray | None = field(default=None, init=False, repr=False,
                                           compare=False)
    _node_block: object = field(default=None, init=False, repr=False, compare=False)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "sigma": [float(s) for s in self.sigma[1:]],
            "prefactor": self.prefactor, "rho": self.rho,
            "residuals": {str(k): v for k, v in sorted(self.residuals.items())},
            "iterations": self.iterations,
        })


def _collapsed_quotient(spec: HillSpectrum, roots: np.ndarray, n: int):
    """n pi / sqrt(tau_n - lam0) and prod_{open m} (roots_m - tau_n) /
    varsigma_m(tau_n) at a collapsed gap n, m ascending: with roots = sigma
    their product is the residue of psi_n / (1 + rho) there, with roots =
    lam^* it is chi_n(tau_n)."""
    lam = spec.tau[n]
    opens = spec.open_gap
    fac = (roots[opens] - lam) / _varsigma(spec.tau[opens], spec.gamma[opens], lam)
    return n * math.pi / np.sqrt(lam - spec.lam0), np.prod(fac)


def _unit_quotients(n, sigma, ks, lam, root, prods) -> np.ndarray:
    """g_nk / (1 + rho) at the nodes lam of the open gaps ks, from their
    products prod_{m != k} (sigma_m - lam) / varsigma_m(lam)."""
    g = (n * math.pi / root) * prods
    other = ks != n
    g[other] *= sigma[ks[other], None] - lam[other]
    return g


def _block_quotients(spec: HillSpectrum, psi: PsiFunction, lo: int = 0,
                     hi: int | None = None) -> np.ndarray:
    """g_nk at the nodes of the open gaps lo..hi-1 (in ``open_indices``
    order), one row per gap: the node values psi carries when they were
    formed on the spectrum's block, otherwise formed from that block."""
    block = spec._block
    if psi._node_block is block:
        return psi.node_values[lo:hi]
    opens = np.nonzero(spec.open_gap)[0]
    g = _unit_quotients(psi.n, psi.sigma, opens[lo:hi], block.lam[lo:hi],
                        block.root[lo:hi], block.products(psi.sigma[opens], lo, hi))
    return (1.0 + psi.rho) * g


def condition_integral(spec: HillSpectrum, psi: PsiFunction, k: int) -> float:
    """(1/2 pi) * contour integral of psi_n / sqrt_c(Delta^2 - 4) around gap k.

    Equals delta_nk when psi_n solves its conditions. Collapsed gaps give
    delta_nk exactly (Cauchy / residue); open gaps reduce to a Chebyshev sum
    over the lower side.
    """
    if not 1 <= k <= spec.N:
        raise ValidationError(f"gap index {k} outside spectrum range 1..{spec.N}")
    if not spec.open_gap[k]:
        if k != psi.n:
            return 0.0
        # residue at tau_n of the simple pole 1/(tau_n - lam)
        pref, prod = _collapsed_quotient(spec, psi.sigma, k)
        return float((1.0 + psi.rho) * pref * prod)
    i = spec.open_indices().index(k)
    return float(np.sum(_block_quotients(spec, psi, i, i + 1)[0]) / NODES)


def psi_solve(spec: HillSpectrum, n: int, tol: float = 1e-8,
              max_iter: int = 50) -> PsiFunction:
    """Solve the gap conditions for psi_n.

    The roots sigma_k of the open gaps k != n solve their zero conditions
    (scale invariant) by the sweep that gives lam^* (``hill._gap_roots``),
    from tau_k and with sigma_n = lam_n^* held; collapsed gaps pin
    sigma_k = tau_k exactly. One products call at the settled roots gives the
    residuals, the prefactor (the k = n condition) and the node values psi
    carries. Raises NewtonError when the roots do not settle in max_iter
    sweeps, or when a residual exceeds tol.
    """
    if n < 1 or n > spec.N:
        raise ValidationError(f"psi index n={n} outside spectrum range 1..{spec.N}")
    sigma = spec.tau.copy()
    sigma[n] = spec.lambda_dot[n]
    opens = spec.open_indices()
    block = spec._block
    sweeps = 0
    if any(k != n for k in opens):
        keep = opens.index(n) if spec.open_gap[n] else None
        sigma[opens], sweeps = _gap_roots(
            block, spec.tau[opens], spec.gamma[opens], sigma[opens],
            float(np.finfo(sigma.dtype).eps), max_iter, keep)
        if sweeps is None:
            raise NewtonError(f"psi_{n} roots did not settle in {max_iter} sweeps")

    g = _unit_quotients(n, sigma, np.array(opens, dtype=int), block.lam, block.root,
                        block.products(sigma[opens]))
    r = np.sum(g, axis=1) / NODES
    res = {k: float(abs(r[i])) for i, k in enumerate(opens) if k != n}
    worst = np.max(list(res.values()), initial=0.0)
    if not worst <= tol:
        raise NewtonError(f"psi_{n} conditions not met: max residual {worst:.3e}")
    psi = PsiFunction(n=n, sigma=sigma, prefactor=2.0 / (n * math.pi),
                      rho=0.0, residuals=res, iterations=sweeps)
    c_n = float(r[opens.index(n)]) if spec.open_gap[n] else \
        condition_integral(spec, psi, n)
    if c_n == 0.0 or not np.isfinite(c_n):
        raise NumericalError(f"degenerate normalization integral for psi_{n}")
    psi.rho = 1.0 / c_n - 1.0
    psi.prefactor = (2.0 / (n * math.pi)) * (1.0 + psi.rho)
    psi.node_values = (1.0 + psi.rho) * g
    psi.node_values.flags.writeable = False
    psi._node_block = block
    return psi
