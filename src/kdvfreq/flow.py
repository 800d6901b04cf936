"""Frequency flow on sequence spaces and the non-uniform-continuity
experiments.

States are sparse complex sequences over nonzero integer modes with the
reality pairing z_{-n} = conj(z_n); the flow rotates each mode pair by
exp(+-i omega_n t). The experiments evolve with the state-dependent part of
the frequencies only: the constant dispersive rotation is a fixed per-mode
isometry common to both compared states, so every reported norm is
unchanged while mode indices as large as 2^40 stay representable.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = ["BirkhoffState", "flow_map", "kdv_star_frequencies",
           "kdv2_star_frequencies", "kdv_full_frequencies",
           "DivergenceRow", "kdv_continuity_experiment",
           "kdv2_continuity_experiment", "crossover_index"]


@dataclass
class BirkhoffState:
    """Finitely supported z = (z_n), n in Z without 0."""

    z: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        self.z = {int(n): complex(v) for n, v in self.z.items() if v != 0}
        if 0 in self.z:
            raise ValidationError("mode 0 is excluded from Birkhoff states")

    @classmethod
    def real_state(cls, pairs):
        """Build from positive-mode values with reality z_{-n} = conj(z_n)."""
        z = {}
        for n, v in pairs:
            if n <= 0:
                raise ValidationError("real_state takes positive modes")
            z[n] = complex(v)
            z[-n] = complex(v).conjugate()
        return cls(z)

    def is_real(self, tol: float = 0.0) -> bool:
        for n, v in self.z.items():
            if abs(self.z.get(-n, 0.0) - v.conjugate()) > tol:
                return False
        return True

    def support(self):
        return sorted({abs(n) for n in self.z})

    def action(self, n: int) -> float:
        """I_n = z_n z_{-n} (real for reality-symmetric states)."""
        val = self.z.get(n, 0.0) * self.z.get(-n, 0.0)
        return float(np.real(val))

    def diff_norm(self, other: "BirkhoffState", sigma: float) -> float:
        ns = set(self.z) | set(other.z)
        return math.sqrt(sum(
            float(abs(n)) ** (2.0 * sigma)
            * abs(self.z.get(n, 0.0) - other.z.get(n, 0.0)) ** 2 for n in ns))

    def H0(self) -> float:
        return sum(2.0 * n * math.pi * self.action(n) for n in self.support())


def flow_map(state: BirkhoffState, t: float, freq) -> BirkhoffState:
    """Rotate every mode: z_n -> exp(i omega_n t) z_n with
    omega_{-n} = -omega_n. |z_n| is preserved exactly.

    ``freq`` maps the state to {n: omega_n} for the positive modes in its
    support.
    """
    om = freq(state)
    out = {}
    for n, v in state.z.items():
        w = om[abs(n)]
        phase = cmath.exp(1j * w * t) if n > 0 else cmath.exp(-1j * w * t)
        out[n] = v * phase
    return BirkhoffState(out)


def kdv_star_frequencies(state) -> dict[int, float]:
    """omega*_n(z) = -6 I_n (the pure model)."""
    return {n: -6.0 * state.action(n) for n in state.support()}


def kdv_full_frequencies(state) -> dict[int, float]:
    """omega_n(z) = (2 n pi)^3 - 6 I_n (small supports only)."""
    return {n: (2.0 * n * math.pi) ** 3 - 6.0 * state.action(n)
            for n in state.support()}


def kdv2_star_frequencies(state) -> dict[int, float]:
    """omega*_n(z) = 40 n pi H0(z) - 80 n^2 pi^2 I_n (the pure model)."""
    H0 = state.H0()
    return {n: 40.0 * n * math.pi * H0 - 80.0 * n * n * math.pi ** 2 * state.action(n)
            for n in state.support()}


# ---------------------------------------------------------------------------
# divergence experiments

@dataclass
class DivergenceRow:
    m: int
    input_gap: float
    output_gap: float
    designated: bool
    verdict: str


def _identical(ms) -> list[DivergenceRow]:
    """delta = 0: the two members of every pair coincide."""
    return [DivergenceRow(int(m), 0.0, 0.0, False, "identical") for m in ms]


def _rows(ms, k, norm_s, t, freq, thresh, states) -> list[DivergenceRow]:
    """One row per stage m: the pair (p, q) = states(m, 2^m) compared in the
    H^norm_s norm before and after the flow for time t. A stage where
    states gives None cannot be built and reads NaN, "inconclusive". The
    designated stages are m = (2j+1)k."""
    rows = []
    for m in ms:
        m = int(m)
        pair = states(m, 2 ** m)
        if pair is None:
            rows.append(DivergenceRow(m, math.nan, math.nan, False, "inconclusive"))
            continue
        p, q = pair
        inp = p.diff_norm(q, norm_s)
        out = flow_map(p, t, freq).diff_norm(flow_map(q, t, freq), norm_s)
        verdict = "separated" if out >= thresh else "inconclusive"
        rows.append(DivergenceRow(m, inp, out, m % (2 * k) == k, verdict))
    return rows


def kdv_continuity_experiment(sigma: float, t: float, delta: float,
                              ms) -> tuple[list[DivergenceRow], float]:
    """Two nearby data families whose evolutions stay apart, KdV model.

    At stage m the pair differs at modes +-2^m: p carries delta * n^sigma,
    q adds +-i delta sqrt(m). delta is trimmed so the designated subsequence
    m = (2j+1)k lands at phase difference exactly an odd multiple of pi;
    rows there must separate by delta/2 while the inputs converge.
    Returns (rows, delta_used).
    """
    if not 0 < sigma <= 1.0 / 6.0 + 1e-12:
        raise ValidationError("sigma must lie in (0, 1/6]")
    if t <= 0:
        raise ValidationError("t must be positive")
    if delta == 0:
        return _identical(ms), 0.0
    k = max(1, math.ceil(math.pi / (6.0 * t * delta * delta)))
    delta_used = math.sqrt(math.pi / (6.0 * t * k))

    def states(m, nm):
        a = delta_used * float(nm) ** sigma
        b = delta_used * math.sqrt(m)
        return (BirkhoffState({nm: a, -nm: a}),
                BirkhoffState({nm: complex(a, b), -nm: complex(a, -b)}))

    rows = _rows(ms, k, -sigma, t, kdv_star_frequencies, delta_used / 2.0, states)
    return rows, delta_used


def kdv2_continuity_experiment(sigma: float, t: float, variant: str,
                               delta: float, ms):
    """KdV2 divergence constructions.

    variant='hs' (sigma >= 1): the pair differs at mode 1, whose vanishing
    amplitude shifts H0 and hence every high frequency; separation
    threshold delta/2. variant='level-set' (1/2 <= sigma < 1): both states
    keep H0 identical by rebalancing mode 1 (amplitude 1), and the
    difference sits in the action at 2^m; threshold eta_0 = delta/2.
    Returns (rows, delta_used, threshold).
    """
    if t <= 0:
        raise ValidationError("t must be positive")
    if variant not in ("hs", "level-set"):
        raise ValidationError("variant must be 'hs' or 'level-set'")
    if variant == "hs" and sigma < 1.0:
        raise ValidationError("hs variant requires sigma >= 1")
    if variant == "level-set" and not 0.5 <= sigma < 1.0:
        raise ValidationError("level-set variant requires 1/2 <= sigma < 1")
    if delta == 0:
        return _identical(ms), 0.0, 0.0
    k = max(1, math.ceil(1.0 / (80.0 * math.pi * t * delta * delta)))
    delta_used = 1.0 / math.sqrt(80.0 * math.pi * t * k)
    if variant == "level-set" and delta_used >= 1.0:
        raise ValidationError("delta must stay below 1; increase t")

    def hs(m, nm):
        tail = delta_used * float(nm) ** (-sigma)
        p1 = delta_used * math.sqrt(m) / math.sqrt(float(nm))
        return (BirkhoffState({1: p1, -1: p1, nm: tail, -nm: tail}),
                BirkhoffState({1: 0.0, -1: 0.0, nm: tail, -nm: tail}))

    def level_set(m, nm):
        rad_p = 1.0 - delta_used ** 2 * float(nm) ** (1.0 - 2.0 * sigma)
        rad_q = rad_p - delta_used ** 2 * m / float(nm)
        if rad_q <= 0:
            return None
        p1, q1 = math.sqrt(rad_p), math.sqrt(rad_q)
        a = delta_used * float(nm) ** (-sigma)
        b = delta_used * math.sqrt(m) / float(nm)
        p = BirkhoffState({1: p1, -1: p1, nm: a, -nm: a})
        q = BirkhoffState({1: q1, -1: q1, nm: complex(a, b), -nm: complex(a, -b)})
        if abs(p.H0() - q.H0()) > 1e-12 * max(1.0, abs(p.H0())):
            raise ValidationError("level-set construction failed to conserve H0")
        return p, q

    thresh = delta_used / 2.0
    rows = _rows(ms, k, sigma, t, kdv2_star_frequencies, thresh,
                 hs if variant == "hs" else level_set)
    return rows, delta_used, thresh


def crossover_index(rows) -> int | None:
    """Smallest m from which input_gap < output_gap holds for every later row."""
    ms = sorted(r.m for r in rows)
    by_m = {r.m: r for r in rows}
    for i, m in enumerate(ms):
        if all(by_m[mm].input_gap < by_m[mm].output_gap for mm in ms[i:]):
            return m
    return None
