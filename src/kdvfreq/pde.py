"""Pseudo-spectral exponential integrator for Airy, KdV and KdV2 on the
circle, used as an independent cross-check of the spectral-theoretic
frequencies.

The linear part (dispersion i(2 pi n)^3 or i(2 pi n)^5) is advanced by its
exact phase factor; the nonlinear part by the fourth-order exponential
Runge-Kutta rule with coefficients from a contour average. Only the modes
|n| <= M//3 of an M-point state are advanced. Their products are formed by
real FFTs on just enough points to be exactly dealiased: M points for the
quadratic KdV term, 3M/2 for the cubic KdV2 term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, NumericalError, PhaseWrapError, ValidationError
from .hill import periodic_spectrum
from .potentials import Potential, make_potential

__all__ = ["GridState", "Trajectory", "evolve", "measure_mode_frequency",
           "isospectral_drift", "one_smoothing_gap", "grid_hamiltonians",
           "state_to_potential", "DEFAULTS"]

DEFAULTS = {
    "kdv": {"dt": 1e-5, "M": 256},
    "kdv2": {"dt": 2e-7, "M": 128},
    "airy": {"dt": 1e-3, "M": 256},
}


@dataclass
class GridState:
    """Fourier state: u_hat[n] is the coefficient of e^{i 2 pi n x} in fft
    layout (nonnegative then negative frequencies)."""

    M: int
    u_hat: np.ndarray
    t: float

    def reality_defect(self) -> float:
        conj = np.conj(self.u_hat[np.mod(-np.arange(self.M), self.M)])
        scale = max(1.0, float(np.max(np.abs(self.u_hat))))
        return float(np.max(np.abs(self.u_hat - conj))) / scale


@dataclass
class Trajectory:
    eq: str
    dt: float
    M: int
    stride: int
    times: np.ndarray
    states: np.ndarray          # (samples, M) complex coefficients
    aborted: bool = False

    def state(self, i: int) -> GridState:
        return GridState(self.M, self.states[i].copy(), float(self.times[i]))

    def mode_series(self, n: int) -> np.ndarray:
        return self.states[:, n % self.M]


def _wavenumbers(M: int) -> np.ndarray:
    return 2.0 * math.pi * np.fft.fftfreq(M, d=1.0 / M)


def _linear_symbol(eq: str, k: np.ndarray) -> np.ndarray:
    if eq in ("airy", "kdv"):
        return 1j * k ** 3
    if eq == "kdv2":
        return 1j * k ** 5
    raise ValidationError("eq must be 'airy', 'kdv' or 'kdv2'")


def _etdrk4_coeffs(L: np.ndarray, h: float):
    E = np.exp(h * L)
    E2 = np.exp(0.5 * h * L)
    # full circle around each h*L point: the symbol is imaginary, so the
    # semicircle-plus-real-part shortcut for real symbols does not apply
    r = np.exp(2j * math.pi * (np.arange(64) + 0.5) / 64)
    LR = h * L[:, None] + r[None, :]
    Q = h * np.mean((np.exp(LR / 2.0) - 1.0) / LR, axis=1)
    f1 = h * np.mean((-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR ** 2)) / LR ** 3, axis=1)
    f2 = h * np.mean((2.0 + LR + np.exp(LR) * (-2.0 + LR)) / LR ** 3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * LR - LR ** 2 + np.exp(LR) * (4.0 - LR)) / LR ** 3, axis=1)
    return E, E2, Q, f1, f2, f3


def potential_to_state(q: Potential, M: int) -> np.ndarray:
    u_hat = np.zeros(M, dtype=complex)
    u_hat[0] = q.mean
    for n, cf in zip(q.modes, q.coeffs):
        if n >= M // 3:
            raise ValidationError("potential mode beyond the dealiased band")
        u_hat[n] = cf
        u_hat[-n % M] = np.conj(cf)
    return u_hat


def state_to_potential(state: GridState, max_mode: int | None = None) -> Potential:
    """Truncate a grid state to a Potential (modes above 1e-13 kept)."""
    M = state.M
    nmax = min(M // 3, max_mode if max_mode is not None else M // 3)
    pairs = []
    for n in range(1, nmax + 1):
        c = state.u_hat[n]
        if abs(c) > 1e-13:
            pairs.append((n, complex(c)))
    return make_potential(pairs, float(state.u_hat[0].real))


def _nonlinear_term(eq: str, k: np.ndarray, M: int):
    """N(v) on the retained modes v = u_hat[0..R], R = M//3, from real FFTs
    on P points: exact for a quadratic term when P >= 3R + 1 (P = M, KdV),
    for a cubic one when P >= 4R + 1 (P = 3M/2, KdV2)."""
    R1 = k.size
    if eq == "airy":
        zero = np.zeros(R1, dtype=complex)
        return lambda v: zero
    if eq == "kdv":
        g = 3j * k
        return lambda v: g * np.fft.rfft(np.fft.irfft(v, M, norm="forward") ** 2,
                                         norm="forward")[:R1]
    P = 3 * M // 2
    ik = 1j * k
    mkk = -(k * k)
    w = np.empty((3, R1), dtype=complex)

    def kdv2(v):
        w[0] = v
        np.multiply(ik, v, out=w[1])
        np.multiply(mkk, v, out=w[2])
        u, ux, uxx = np.fft.irfft(w, P, norm="forward")
        # conservative form: d/dx(-10 u u_xx - 5 u_x^2 + 10 u^3)
        flux = -10.0 * u * uxx - 5.0 * ux * ux + 10.0 * u ** 3
        return ik * np.fft.rfft(flux, norm="forward")[:R1]
    return kdv2


def evolve(q: Potential, T: float, eq: str = "kdv", dt: float | None = None,
           M: int | None = None, stride: int | None = None) -> Trajectory:
    """Integrate the requested flow from u(0) = q up to time T.

    Only the modes 0..M//3 are advanced; the stored samples fill in the
    conjugate negative modes and exact zeros above M//3. Samples every
    `stride` steps (default: about 400 samples). On NaN or overflow the
    trajectory is truncated at the last valid sample and flagged aborted.
    T and dt must be positive and finite, and stride at least 1.
    """
    dflt = DEFAULTS[eq] if eq in DEFAULTS else None
    if dflt is None:
        raise ValidationError("eq must be 'airy', 'kdv' or 'kdv2'")
    dt = dflt["dt"] if dt is None else dt
    M = dflt["M"] if M is None else M
    if M < 1 or M & (M - 1):
        raise ValidationError("grid size M must be a power of two")
    if not 0 < T < math.inf:
        raise ValidationError(f"T must be positive and finite, got {T}")
    if not 0 < dt < math.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    if stride is not None and stride < 1:
        raise ValidationError(f"stride must be at least 1, got {stride}")
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    stride = max(1, nsteps // 400) if stride is None else stride
    R1 = M // 3 + 1
    k = _wavenumbers(M)[:R1]
    E, E2, Q, f1, f2, f3 = _etdrk4_coeffs(_linear_symbol(eq, k), dt)
    f2 = 2.0 * f2
    nonlinear = _nonlinear_term(eq, k, M)
    v = potential_to_state(q, M)[:R1]
    times = [0.0]
    band = [v]
    aborted = False
    for step in range(1, nsteps + 1):
        Nv = nonlinear(v)
        Ev = E2 * v
        a = Ev + Q * Nv
        Na = nonlinear(a)
        b = Ev + Q * Na
        Nb = nonlinear(b)
        cst = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = nonlinear(cst)
        v = E * v + f1 * Nv + f2 * (Na + Nb) + f3 * Nc
        if step % stride == 0 or step == nsteps:
            if not np.all(np.isfinite(v)):
                aborted = True
                break
            times.append(step * dt)
            band.append(v)
    band = np.array(band)
    states = np.zeros((len(band), M), dtype=complex)
    states[:, :R1] = band
    states[:, M - R1 + 1:] = np.conj(band[:, :0:-1])
    return Trajectory(eq=eq, dt=dt, M=M, stride=stride, times=np.array(times),
                      states=states, aborted=aborted)


def measure_mode_frequency(traj: Trajectory, n: int):
    """Least-squares phase velocity of mode n along the trajectory.

    Unwraps arg u_hat_n(t) and fits a line; the slope is the measured
    frequency (positive (2 pi n)^3 for the free Airy flow). Raises on
    near-vanishing amplitude or phase steps >= 0.95 pi per sample.
    """
    series = traj.mode_series(n)
    times = traj.times
    if series.size < 4:
        raise ValidationError("too few samples to fit a frequency")
    amp = np.abs(series)
    if np.min(amp) < 1e-3 * np.max(amp) or np.max(amp) == 0:
        raise ValidationError(f"mode {n} amplitude not bounded away from zero")
    # aliasing cannot be detected from wrapped data alone: bound the rotation
    # rate a priori by the linear dispersion of the trajectory's equation
    dt_sample = float(np.min(np.diff(times)))
    disp = abs(2.0 * math.pi * n) ** (5 if traj.eq == "kdv2" else 3)
    if disp * dt_sample >= 0.95 * math.pi:
        raise PhaseWrapError(
            f"mode {n} advances ~{disp * dt_sample:.2f} rad between samples; "
            "sample more densely")
    ph = np.unwrap(np.angle(series))
    steps = np.abs(np.diff(ph))
    if np.max(steps) >= 0.95 * math.pi:
        raise PhaseWrapError(
            f"phase advances {np.max(steps):.3f} per sample; sample more densely")
    coef = np.polyfit(times, ph, 1)
    resid = float(np.max(np.abs(np.polyval(coef, times) - ph)))
    return float(coef[0]), resid


def isospectral_drift(traj: Trajectory, ns, samples: int = 5):
    """Max |gamma_n(t) - gamma_n(0)| over sampled states of the trajectory.

    A spectral-solve failure at an intermediate sample flags that time with
    NaN in the table and the report stays partial rather than aborting.
    """
    ns = sorted(int(n) for n in ns)
    N = max(ns)
    idx = np.unique(np.linspace(0, traj.times.size - 1, samples).astype(int))
    gam0 = None
    drift = 0.0
    table = {}
    for i in idx:
        pot = state_to_potential(traj.state(int(i)), max_mode=N + 4)
        try:
            spec = periodic_spectrum(pot, N)
        except NumericalError:
            if gam0 is None:
                raise
            table[float(traj.times[int(i)])] = math.nan
            continue
        g = spec.gamma.astype(float)
        if gam0 is None:
            gam0 = g
        else:
            d = float(np.max(np.abs(g[ns] - gam0[ns])))
            table[float(traj.times[int(i)])] = d
            drift = max(drift, d)
    return drift, table


def grid_hamiltonians(state: GridState) -> dict:
    """H0, H1, H2 of a grid state (Parseval + real-FFT products on 2M points)."""
    uh = state.u_hat
    M = state.M
    k = _wavenumbers(M)
    v, kv = uh[:(M + 1) // 2], k[:(M + 1) // 2]      # the nonnegative modes
    u, ux, uxx = np.fft.irfft(np.stack((v, 1j * kv * v, -(kv * kv) * v)),
                              2 * M, norm="forward")
    H0 = 0.5 * float(np.sum(np.abs(uh) ** 2))
    H1 = 0.5 * float(np.sum(k * k * np.abs(uh) ** 2) + 2.0 * np.mean(u ** 3))
    H2 = 0.5 * float(np.sum(k ** 4 * np.abs(uh) ** 2)
                     + 10.0 * np.mean(u * ux * ux) + 5.0 * np.mean(u ** 4))
    return {"H0": H0, "H1": H1, "H2": H2}


def one_smoothing_gap(q: Potential, t_grid, dt: float | None = None,
                      M: int | None = None):
    """Sobolev-1 gap between the KdV flow and the free Airy flow.

    Returns rows (t, gap, gap/(1+t)); the free solution is the exact phase
    rotation, which is also what the integrator produces for eq='airy'.
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid[0] < 0:
        raise ValidationError("t grid must be nonnegative")
    T = float(t_grid[-1])
    if T == 0.0:
        return [(0.0, 0.0, 0.0)]
    traj = evolve(q, T, "kdv", dt=dt, M=M)
    if traj.aborted:
        raise IntegrationError("KdV run aborted before the final time")
    k = _wavenumbers(traj.M)
    L = _linear_symbol("airy", k)
    u0 = traj.states[0]
    rows = []
    for t in t_grid:
        i = int(np.argmin(np.abs(traj.times - t)))
        ti = float(traj.times[i])
        free = np.exp(L * ti) * u0
        diff = traj.states[i] - free
        gap = math.sqrt(float(np.sum((1.0 + k * k) * np.abs(diff) ** 2)))
        rows.append((ti, gap, gap / (1.0 + abs(ti))))
    return rows
