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
    support (a plain dict is accepted too).
    """
    om = freq(state) if callable(freq) else freq
    out = {}
    for n, v in state.z.items():
        w = om[abs(n)]
        phase = cmath.exp(1j * w * t) if n > 0 else cmath.exp(-1j * w * t)
        out[n] = v * phase
    return BirkhoffState(out)


def kdv_star_frequencies():
    """omega*_n(z) = -6 I_n (the pure model)."""
    def freq(state):
        out = {}
        for n in state.support():
            out[n] = -6.0 * state.action(n)
        return out
    return freq


def kdv_full_frequencies():
    """omega_n(z) = (2 n pi)^3 - 6 I_n (small supports only)."""
    def freq(state):
        out = {}
        for n in state.support():
            out[n] = (2.0 * n * math.pi) ** 3 - 6.0 * state.action(n)
        return out
    return freq


def kdv2_star_frequencies():
    """omega*_n(z) = 40 n pi H0(z) - 80 n^2 pi^2 I_n (the pure model)."""
    def freq(state):
        H0 = state.H0()
        out = {}
        for n in state.support():
            out[n] = 40.0 * n * math.pi * H0 \
                - 80.0 * n * n * math.pi ** 2 * state.action(n)
        return out
    return freq


# ---------------------------------------------------------------------------
# divergence experiments

@dataclass
class DivergenceRow:
    m: int
    input_gap: float
    output_gap: float
    designated: bool
    verdict: str


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
        return ([DivergenceRow(int(m), 0.0, 0.0, False, "identical") for m in ms], 0.0)
    k = max(1, math.ceil(math.pi / (6.0 * t * delta * delta)))
    delta_used = math.sqrt(math.pi / (6.0 * t * k))
    freq = kdv_star_frequencies()
    rows = []
    for m in ms:
        m = int(m)
        nm = 2 ** m
        a = delta_used * float(nm) ** sigma
        p = BirkhoffState({nm: a, -nm: a})
        q = BirkhoffState({nm: complex(a, delta_used * math.sqrt(m)),
                           -nm: complex(a, -delta_used * math.sqrt(m))})
        inp = p.diff_norm(q, -sigma)
        out = flow_map(p, t, freq).diff_norm(flow_map(q, t, freq), -sigma)
        designated = (m % (2 * k) == k)
        verdict = "separated" if out >= delta_used / 2.0 else "inconclusive"
        rows.append(DivergenceRow(m, inp, out, designated, verdict))
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
    freq = kdv2_star_frequencies()
    rows = []
    if variant == "hs":
        if sigma < 1.0:
            raise ValidationError("hs variant requires sigma >= 1")
        if delta == 0:
            return ([DivergenceRow(int(m), 0.0, 0.0, False, "identical")
                     for m in ms], 0.0, 0.0)
        k = max(1, math.ceil(1.0 / (80.0 * math.pi * t * delta * delta)))
        delta_used = 1.0 / math.sqrt(80.0 * math.pi * t * k)
        thresh = delta_used / 2.0
        for m in ms:
            m = int(m)
            nm = 2 ** m
            tail = delta_used * float(nm) ** (-sigma)
            p1 = delta_used * math.sqrt(m) / math.sqrt(float(nm))
            p = BirkhoffState({1: p1, -1: p1, nm: tail, -nm: tail})
            q = BirkhoffState({1: 0.0, -1: 0.0, nm: tail, -nm: tail})
            inp = p.diff_norm(q, sigma)
            out = flow_map(p, t, freq).diff_norm(flow_map(q, t, freq), sigma)
            designated = (m % (2 * k) == k)
            verdict = "separated" if out >= thresh else "inconclusive"
            rows.append(DivergenceRow(m, inp, out, designated, verdict))
        return rows, delta_used, thresh
    # level-set variant
    if not 0.5 <= sigma < 1.0:
        raise ValidationError("level-set variant requires 1/2 <= sigma < 1")
    if delta == 0:
        return ([DivergenceRow(int(m), 0.0, 0.0, False, "identical")
                 for m in ms], 0.0, 0.0)
    k = max(1, math.ceil(1.0 / (80.0 * math.pi * t * delta * delta)))
    delta_used = 1.0 / math.sqrt(80.0 * math.pi * t * k)
    if delta_used >= 1.0:
        raise ValidationError("delta must stay below 1; increase t")
    thresh = delta_used / 2.0
    for m in ms:
        m = int(m)
        nm = 2 ** m
        rad_p = 1.0 - delta_used ** 2 * float(nm) ** (1.0 - 2.0 * sigma)
        rad_q = rad_p - delta_used ** 2 * m / float(nm)
        if rad_q <= 0:
            rows.append(DivergenceRow(m, math.nan, math.nan, False, "inconclusive"))
            continue
        p1 = math.sqrt(rad_p)
        q1 = math.sqrt(rad_q)
        a = delta_used * float(nm) ** (-sigma)
        b = delta_used * math.sqrt(m) / float(nm)
        p = BirkhoffState({1: p1, -1: p1, nm: a, -nm: a})
        q = BirkhoffState({1: q1, -1: q1, nm: complex(a, b), -nm: complex(a, -b)})
        if abs(p.H0() - q.H0()) > 1e-12 * max(1.0, abs(p.H0())):
            raise ValidationError("level-set construction failed to conserve H0")
        inp = p.diff_norm(q, sigma)
        out = flow_map(p, t, freq).diff_norm(flow_map(q, t, freq), sigma)
        designated = (m % (2 * k) == k)
        verdict = "separated" if out >= thresh else "inconclusive"
        rows.append(DivergenceRow(m, inp, out, designated, verdict))
    return rows, delta_used, thresh


def crossover_index(rows) -> int | None:
    """Smallest m from which input_gap < output_gap holds for every later row."""
    ms = sorted(r.m for r in rows)
    by_m = {r.m: r for r in rows}
    for i, m in enumerate(ms):
        if all(by_m[mm].input_gap < by_m[mm].output_gap for mm in ms[i:]):
            return m
    return None
