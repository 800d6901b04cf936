"""The interpolation functions psi_n solved from their contour conditions,
their condition integrals, and the Floquet exponent F on the gap sides.

All gap integrals use NODES = 96 Gauss-Chebyshev (first kind) nodes: the
gap-side parametrization lam_t = tau + t*gamma/2 exposes an exact
1/sqrt(1-t^2) endpoint weight. Collapsed gaps contribute the factor 1
exactly to every root quotient, so products run over the open gaps only.

The products prod_m (s_m - lam) / varsigma_m(lam) at the nodes of the open
gaps read one block per spectrum (``HillSpectrum._block``: the float64
nodes in the spectrum dtype, every varsigma_m there, sqrt(lam - lam0)),
built with lam^* and shared by psi, F and the actions. Each factor divides
by varsigma, the m == k factor is exactly 1 and m ascends, so every value is
bit for bit that of a per-gap loop. ``psi_solve`` reads psi_n from the
spectrum's one solve of every psi (``hill._psi_family``).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonError, NumericalError, ValidationError
from .hill import (NODES, REFINE, HillSpectrum, cheb_nodes, discriminant_batch,
                   _collapsed_quotient, _delta_noise, _LPI)

__all__ = ["PsiFunction", "psi_solve", "cheb_nodes", "gap_F_values",
           "gap_F_integrated", "condition_integral"]


# ---------------------------------------------------------------------------
# Floquet exponent on gap sides

def gap_F_values(spec: HillSpectrum) -> dict[int, np.ndarray]:
    """F_k at the Chebyshev nodes of every open gap (minus side), by shooting
    the spectrum's potential at the nodes of its block in one batched
    discriminant evaluation."""
    ks = spec.open_indices()
    if not ks:
        return {}
    d = discriminant_batch(spec.potential, spec._block.lam.ravel(), spec.ode_tol)
    delta = np.asarray(d["delta"], dtype=float)
    out = {}
    for i, k in enumerate(ks):
        arg = ((-1.0) ** k) * delta[i * NODES:(i + 1) * NODES] / 2.0
        noise = _delta_noise(float(spec.tau[k]), spec.ode_tol)
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

    ``rho`` is the relative deviation of the prefactor from 2/(n pi), which
    Kappeler and Poeschel prove exact; ``residuals`` holds |condition
    integral| of every open gap k != n, ``iterations`` the refinement steps
    of the solve. ``node_values`` (read-only, a view of the spectrum's solve)
    holds g_nk = psi_n varsigma_k / (i sqrt_c(Delta^2 - 4)) at the nodes of
    every open gap, one row per gap in ``open_indices`` order. ``sigma[m]``,
    m = 1..spec.N, is the root in gap m (tau_m if collapsed, lam_n^* at
    m = n), found on first access.
    """

    n: int
    prefactor: float
    rho: float
    residuals: dict[int, float]
    iterations: int
    node_values: np.ndarray = field(repr=False, compare=False)
    spec: HillSpectrum = field(repr=False, compare=False)

    @functools.cached_property
    def sigma(self) -> np.ndarray:
        """The root in each open gap k != n of sum_j r_j / (lam - lam_j^*)
        + c / (lam - tau_n) by the fixed point sigma_k = lam_k^* - r_k / T_k,
        T_k the sum without its term j = k."""
        spec, n = self.spec, self.n
        r, c = spec._psi.r[n - 1], spec._psi.c[n - 1]
        sigma = spec.lambda_dot.copy()
        opens = np.nonzero(spec.open_gap)[0]
        ks = np.nonzero(opens != n)[0]
        star = s = sigma[opens[ks]]
        settled = 4.0 * float(np.finfo(s.dtype).eps) * np.abs(s.astype(float))
        for _ in range(50):
            den = s[:, None] - sigma[opens]
            den[np.arange(ks.size), ks] = np.inf
            new = star - r[ks] / (np.sum(r / den, axis=1) + c / (s - spec.tau[n]))
            change, s = np.abs((new - s).astype(float)), new
            if np.all(change <= settled):
                sigma[opens[ks]] = s
                return sigma
        raise NumericalError(f"psi_{n} roots did not settle")

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "sigma": [float(s) for s in self.sigma[1:]],
            "prefactor": self.prefactor, "rho": self.rho,
            "residuals": {str(k): v for k, v in sorted(self.residuals.items())},
            "iterations": self.iterations,
        })


def condition_integral(psi: PsiFunction, k: int) -> float:
    """(1/2 pi) * contour integral of psi_n / sqrt_c(Delta^2 - 4) around gap k.

    The gap is one of psi.spec. Equals delta_nk when psi_n solves its
    conditions. Collapsed gaps give delta_nk exactly (Cauchy / residue);
    open gaps reduce to a Chebyshev sum over the lower side.
    """
    spec = psi.spec
    if not 1 <= k <= spec.N:
        raise ValidationError(f"gap index {k} outside spectrum range 1..{spec.N}")
    if not spec.open_gap[k]:
        if k != psi.n:
            return 0.0
        # residue at tau_n of c / (lam - tau_n)
        return float(-spec._psi.c[k - 1] * _collapsed_quotient(spec, k) / (k * math.pi))
    i = spec.open_indices().index(k)
    return float(np.sum(psi.node_values[i]) / NODES)


def psi_solve(spec: HillSpectrum, n: int, tol: float = 1e-8) -> PsiFunction:
    """psi_n from the spectrum's one solve of every psi (``hill._psi_family``).

    Raises NewtonError when the condition integral of some open gap k != n
    exceeds tol.
    """
    if n < 1 or n > spec.N:
        raise ValidationError(f"psi index n={n} outside spectrum range 1..{spec.N}")
    fam = spec._psi
    res = {k: float(fam.residuals[n - 1, i])
           for i, k in enumerate(spec.open_indices()) if k != n}
    worst = max(res.values(), default=0.0)
    if not worst <= tol:
        raise NewtonError(f"psi_{n} conditions not met: max residual {worst:.3e}")
    rho = float(-(np.sum(fam.r[n - 1]) + fam.c[n - 1]) / (n * spec.tau.dtype.type(_LPI)) - 1)
    return PsiFunction(n=n, prefactor=(2.0 / (n * math.pi)) * (1.0 + rho), rho=rho,
                       residuals=res, iterations=REFINE if fam.r.size else 0,
                       node_values=fam.node_values[n - 1], spec=spec)
