"""Floquet discriminant and spectra of the Hill operator -d^2/dx^2 + q.

The discriminant Delta(lam) = y1(1) + y2'(1) and its lam-derivative are
obtained by shooting across one period; periodic eigenvalues lam_n^+-,
Dirichlet eigenvalues mu_n and critical points lam_n^* are located by
bracketed, batched Newton searches on the shooting data.

A gap is resolvable only while the bump E_n = (-1)^n Delta(lam_n^*) - 2
exceeds the discriminant noise (approx. machine eps * lam); gaps below the
detection floor are reported exactly collapsed. Extended precision
(numpy longdouble) pushes that floor to gamma ~ 1e-6 at desk scale.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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


def _delta_noise(lam_abs: float, ode_tol: float, eps: float) -> float:
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

    Index 0 of every array is lam_0^+ (lambda_plus) or NaN; entries 1..N are
    the per-gap quantities. ``open_gap`` marks gaps resolved as open;
    collapsed gaps carry gamma == 0 and lam^+- == lam^* == tau exactly.
    ``gamma_rel_err`` estimates the relative accuracy of each open gamma
    (noise / twice the discriminant bump over the gap).
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    mu: np.ndarray
    lambda_dot: np.ndarray
    gamma: np.ndarray
    tau: np.ndarray
    open_gap: np.ndarray
    gap_height: np.ndarray
    gamma_rel_err: np.ndarray
    N: int
    tol: float
    ode_tol: float
    mean: float
    potential_key: tuple = field(default=(), repr=False)

    @property
    def lam0(self):
        return self.lambda_plus[0]

    def open_indices(self, nmax: int | None = None):
        ns = np.nonzero(self.open_gap)[0]
        if nmax is not None:
            ns = ns[ns <= nmax]
        return [int(n) for n in ns]

    def to_json(self) -> str:
        def arr(a):
            return [None if np.isnan(float(v)) else float(v) for v in a]

        obj = {
            "N": self.N,
            "tol": self.tol,
            "lambda_plus": arr(self.lambda_plus),
            "lambda_minus": arr(self.lambda_minus),
            "mu": arr(self.mu),
            "lambda_dot": arr(self.lambda_dot),
            "gamma": arr(self.gamma),
            "tau": arr(self.tau),
        }
        return json.dumps(obj)


class _Job:
    """One bracketed root search riding the shared batched evaluations."""

    __slots__ = ("kind", "n", "lo", "hi", "flo", "fhi", "x", "fx", "dfx",
                 "x_prev", "f_prev", "done")

    def __init__(self, kind, n, lo, hi, flo, fhi):
        self.kind = kind
        self.n = n
        self.lo = lo
        self.hi = hi
        self.flo = flo
        self.fhi = fhi
        self.x = 0.5 * (lo + hi)
        self.x_prev = lo
        self.f_prev = flo
        self.fx = None
        self.dfx = None
        self.done = False


def _job_values(kind, n, data, idx):
    """Extract (f, f') for a job from a batch result dict; signs match the
    scan seeds ((-1)^n applied to Delta and Delta-dot alike)."""
    if kind in ("edge-", "edge+", "lam0"):
        s = 1.0 if kind == "lam0" else (-1.0) ** n
        return s * data["delta"][idx] - 2.0, s * data["ddelta"][idx]
    if kind == "crit":
        return ((-1.0) ** n) * data["ddelta"][idx], None
    if kind == "mu":
        return data["y2_1"][idx], data["dy2_1"][idx]
    raise AssertionError(kind)


def _run_jobs(jobs, q, ode_tol, dtype, ftol_of, xtol_of, max_iter=80):
    """Advance all jobs to convergence with shared batched discriminant calls."""
    qf = _qfun(q, dtype)
    it = 0
    while True:
        active = [j for j in jobs if not j.done]
        if not active:
            return
        if it > max_iter:
            bad = ", ".join(f"{j.kind}@n={j.n}" for j in active[:4])
            raise NumericalError(f"root iteration stalled for {bad}")
        lams = np.array([j.x for j in active], dtype=dtype)
        data = hill_endpoint_data(qf, lams, ode_tol, ode_tol, with_dlam=True)
        for i, j in enumerate(active):
            f, df = _job_values(j.kind, j.n, data, i)
            # update bracket (coordinates stay in the solver dtype)
            if float(f) * float(j.flo) <= 0.0:
                j.hi, j.fhi = j.x, f
            else:
                j.lo, j.flo = j.x, f
            width = float(j.hi - j.lo)
            if abs(f) <= ftol_of(j) or width <= xtol_of(j):
                j.x, j.fx = (j.x if abs(f) <= ftol_of(j) else dtype(0.5) * (j.lo + j.hi)), f
                j.done = True
                continue
            # next probe: Newton / secant inside the bracket, else bisection
            x_new = None
            if df is not None and df != 0.0 and np.isfinite(float(df)):
                cand = j.x - f / df
                if j.lo < cand < j.hi:
                    x_new = cand
            if x_new is None and f != j.f_prev:
                cand = j.x - f * (j.x - j.x_prev) / (f - j.f_prev)
                if j.lo < cand < j.hi:
                    x_new = cand
            if x_new is None or abs(x_new - j.x) <= 2.0 * float(np.finfo(dtype).eps) * max(1.0, abs(float(j.x))):
                x_new = dtype(0.5) * (j.lo + j.hi)
            j.x_prev, j.f_prev = j.x, f
            j.x = x_new
        it += 1


def periodic_spectrum(q: Potential, N: int, tol: float = 1e-10,
                      ode_tol: float | None = None, dtype=np.float64,
                      scan_points: int = 33) -> HillSpectrum:
    """Locate the periodic, Dirichlet and critical spectra through index N.

    lam_n^+- are roots of (-1)^n Delta(lam) - 2, isolated per gap by a
    Chebyshev scan over [n^2 pi^2 + c - 3n - W, n^2 pi^2 + c + 3n + W]
    (W = 2 sup|q - c|, widened once on failure), then polished by
    safeguarded Newton with Delta-dot. Dirichlet mu_n are roots of
    y2(1, .), critical lam_n^* roots of Delta-dot. Pass
    dtype=numpy.longdouble (with ode_tol ~ 1e-16) to resolve gaps below
    the double-precision detection floor.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dtype = np.dtype(dtype).type
    eps = float(np.finfo(dtype).eps)
    if ode_tol is None:
        ode_tol = 1e-16 if eps < 1e-17 else 1e-13
    qf = _qfun(q, dtype)
    c = q.mean
    W = 2.0 * (q.sup_norm_bound - abs(q.mean)) + 0.5

    # --- scan every search window at once, widening once on failure ------
    def scan_windows(ns, widen):
        grids = {}
        for n in ns:
            if n == 0:
                lo, hi = c - (4.0 + 4.0 * W) * widen, c + 2.0 + W
            else:
                center = n * n * math.pi ** 2 + c
                half = (3.0 * n + W) * widen
                lo, hi = center - half, center + half
            tg = np.cos(np.pi * (2 * np.arange(scan_points) + 1)
                        / (2.0 * scan_points))[::-1]
            grids[n] = lo + (hi - lo) * 0.5 * (tg + 1.0)
        all_l = np.concatenate([grids[n] for n in ns]).astype(dtype)
        data = hill_endpoint_data(qf, all_l, ode_tol, ode_tol, with_dlam=True)
        out = {}
        for i, n in enumerate(ns):
            sl = slice(i * scan_points, (i + 1) * scan_points)
            s = 1.0 if n == 0 else (-1.0) ** n
            out[n] = (grids[n],
                      s * np.asarray(data["delta"][sl], dtype=float) - 2.0,
                      s * np.asarray(data["ddelta"][sl], dtype=float),
                      np.asarray(data["y2_1"][sl], dtype=float))
        return out

    def extract(n, lams, f, df, y2):
        """Brackets for this window, or the name of the missing root."""
        if n == 0:
            idx = np.nonzero((f[:-1] > 0) & (f[1:] <= 0))[0]
            if idx.size == 0:
                return "lambda_0^+", None
            i = idx[-1]
            return None, [_Job("lam0", 0, dtype(lams[i]), dtype(lams[i + 1]),
                               f[i], f[i + 1])]
        # critical point: sign change of (-1)^n Delta-dot from + to -,
        # nearest the window center
        idx = np.nonzero((df[:-1] > 0) & (df[1:] <= 0))[0]
        if idx.size == 0:
            return f"critical point lambda_{n}^*", None
        i = idx[np.argmin(np.abs(0.5 * (lams[idx] + lams[idx + 1]) - np.median(lams)))]
        crit = _Job("crit", n, dtype(lams[i]), dtype(lams[i + 1]), df[i], df[i + 1])
        # Dirichlet: sign change of y2(1) nearest n^2 pi^2 + c
        idx = np.nonzero(y2[:-1] * y2[1:] <= 0)[0]
        if idx.size == 0:
            return f"Dirichlet mu_{n}", None
        i = idx[np.argmin(np.abs(0.5 * (lams[idx] + lams[idx + 1])
                                 - (n * n * math.pi ** 2 + c)))]
        return None, [crit, _Job("mu", n, dtype(lams[i]), dtype(lams[i + 1]),
                                 y2[i], y2[i + 1])]

    jobs = []
    crit_jobs = {}
    mu_jobs = {}
    scan_f = {}
    windows = scan_windows(range(N + 1), 1.0)
    retry = []
    for n in range(N + 1):
        missing, found = extract(n, *windows[n])
        if missing is None:
            scan_f[n] = windows[n][:2]
            jobs.extend(found)
        else:
            retry.append(n)
    if retry:
        widened = scan_windows(retry, 1.6)
        for n in retry:
            missing, found = extract(n, *widened[n])
            if missing is not None:
                raise BracketError(
                    f"{missing} not isolated within its widened search window")
            scan_f[n] = widened[n][:2]
            jobs.extend(found)
    for jb in jobs:
        if jb.kind == "crit":
            crit_jobs[jb.n] = jb
        elif jb.kind == "mu":
            mu_jobs[jb.n] = jb

    def noise_at(x):
        return _delta_noise(abs(float(x)), ode_tol, eps)

    def ftol_of(j):
        # near-collapsed edges have |f'| ~ sqrt(E); polishing must go all the
        # way down to the discriminant noise, not the user residual bound
        if j.kind == "crit":
            return 0.3 * noise_at(j.x)      # Delta-dot noise is ~lam^-1/2 smaller
        return 2.5 * noise_at(j.x)

    def xtol_of(j):
        return 32.0 * eps * max(abs(float(j.x)), 1.0)

    _run_jobs(jobs, q, ode_tol, dtype, ftol_of, xtol_of)

    # --- classify gaps and polish the edges ------------------------------
    lam_star = np.full(N + 1, np.nan, dtype=dtype)
    E = np.full(N + 1, np.nan)
    qf_probe = []
    for n in range(1, N + 1):
        lam_star[n] = crit_jobs[n].x
        qf_probe.append(lam_star[n])
    probe = hill_endpoint_data(qf, np.array(qf_probe, dtype=dtype), ode_tol, ode_tol)
    for n in range(1, N + 1):
        E[n] = float(((-1.0) ** n) * probe["delta"][n - 1] - 2.0)

    edge_jobs = []
    open_mask = np.zeros(N + 1, dtype=bool)
    for n in range(1, N + 1):
        floor = 12.0 * noise_at(lam_star[n])
        if E[n] <= floor:
            continue
        open_mask[n] = True
        lams, f = scan_f[n]
        left = np.nonzero((lams < lam_star[n]) & (f < 0))[0]
        right = np.nonzero((lams > lam_star[n]) & (f < 0))[0]
        if left.size == 0 or right.size == 0:
            raise BracketError(f"gap edges of n={n} leave the search window")
        lo = dtype(lams[left[-1]])
        hi = dtype(lams[right[0]])
        edge_jobs.append(_Job("edge-", n, lo, lam_star[n], f[left[-1]], E[n]))
        # bracket orientation: f(lo)*f(hi) < 0 holds in both cases
        edge_jobs.append(_Job("edge+", n, lam_star[n], hi, E[n], f[right[0]]))
    if edge_jobs:
        _run_jobs(edge_jobs, q, ode_tol, dtype, ftol_of, xtol_of)

    lam_minus = np.full(N + 1, np.nan, dtype=dtype)
    lam_plus = np.full(N + 1, np.nan, dtype=dtype)
    lam_plus[0] = next(j for j in jobs if j.kind == "lam0").x
    for j in edge_jobs:
        if j.kind == "edge-":
            lam_minus[j.n] = j.x
        else:
            lam_plus[j.n] = j.x

    mu = np.full(N + 1, np.nan, dtype=dtype)
    for n in range(1, N + 1):
        mu[n] = mu_jobs[n].x

    gamma = np.zeros(N + 1, dtype=dtype)
    tau = np.full(N + 1, np.nan, dtype=dtype)
    rel_err = np.zeros(N + 1)
    for n in range(1, N + 1):
        if open_mask[n]:
            g = float(lam_plus[n] - lam_minus[n])
            if g <= 1e-9:
                # resolved but below the 1e-9 snapping threshold
                open_mask[n] = False
            else:
                gamma[n] = g
                tau[n] = (lam_plus[n] + lam_minus[n]) / 2.0
                rel_err[n] = noise_at(tau[n]) / (2.0 * E[n])
        if not open_mask[n]:
            tau[n] = lam_star[n]
            lam_minus[n] = lam_star[n]
            lam_plus[n] = lam_star[n]

    order = np.concatenate([[lam_plus[0]],
                            np.ravel(np.column_stack([lam_minus[1:], lam_plus[1:]]))])
    if np.any(np.diff(order.astype(float)) < -tol * 100):
        raise NumericalError("periodic eigenvalues violate the real ordering")

    spec = HillSpectrum(
        lambda_plus=lam_plus, lambda_minus=lam_minus, mu=mu,
        lambda_dot=lam_star, gamma=gamma, tau=tau, open_gap=open_mask,
        gap_height=E, gamma_rel_err=rel_err,
        N=N, tol=tol, ode_tol=ode_tol, mean=float(q.mean),
        potential_key=q.key(),
    )
    return spec
