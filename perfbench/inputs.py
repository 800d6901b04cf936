"""Seeded inputs of the four workloads, as plain numbers.

Nothing here imports kdvfreq, so the checks in ``checks.py`` can rebuild
the same inputs without the program. A potential is a list of
``(n, re, im)`` triples for the positive Fourier modes u_n of
q(x) = sum_n u_n e^{2 pi i n x} + conj; its mean is zero.
"""
from __future__ import annotations

import math

import numpy as np

# The four-mode test potential cosine_sum([(1, .4), (2, .35), (3, .3), (4, .25)]).
FOUR_MODE = ((1, 0.4), (2, 0.35), (3, 0.3), (4, 0.25))
DEEP_N = 24
DEEP_PSI_TOL = 1e-10

FAMILY_A = (1, 2, 3, 4, 5, 6)
FAMILY_N = 8
FAMILY_H = 0.01
FAMILY_BASE = 0.05

KDV_M, KDV_DT, KDV_STEPS = 256, 1e-5, 1000
KDV2_M, KDV2_DT, KDV2_STEPS = 128, 2e-7, 1000

CLI_COMMANDS = ("spectrum", "actions", "freq", "hamiltonians", "evolve",
                "resonance", "seqtest", "flow-exp")
CLI_N = 8
CLI_EVOLVE_T = 0.01
CLI_SEQ_SAMPLES = 200
CLI_FLOW_M = (3, 9)

# Inputs are made for this many rounds; a run stops early if it uses them up.
MAX_ROUNDS = {"deep-ld": 16, "family-f64": 16, "pde": 200, "cli": 32}


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(ch) * 131 ** i for i, ch in enumerate(workload)) % (2 ** 31)
    return np.random.default_rng([int(seed), tag])


def _phase_modes(rng, modes, lo, hi):
    out = []
    for n in modes:
        amp = rng.uniform(lo, hi)
        th = rng.uniform(0.0, 2.0 * math.pi)
        out.append((n, amp * math.cos(th), amp * math.sin(th)))
    return out


def make_inputs(workload: str, seed: int) -> list[dict]:
    """One dict of inputs per round, the same for the same seed."""
    rng = _rng(seed, workload)
    rounds = []
    for r in range(MAX_ROUNDS[workload]):
        if workload == "deep-ld":
            # real cosine amplitudes, each moved by at most 1e-3
            pot = [(n, a + 1e-3 * rng.uniform(-1.0, 1.0), 0.0) for n, a in FOUR_MODE]
            rounds.append({"potential": pot})
        elif workload == "family-f64":
            # family eps -> sum_j (eps_j + d_j) e^{i th_j} on mode j
            rounds.append({"offset": [0.005 * rng.uniform(-1.0, 1.0) for _ in FAMILY_A],
                           "phase": [rng.uniform(0.0, 2.0 * math.pi) for _ in FAMILY_A]})
        elif workload == "pde":
            # KdV2 conserves H0 to 1e-7 at dt = 2e-7 only while mode 2 stays small
            rounds.append({"kdv": _phase_modes(rng, (1, 2), 0.02, 0.05),
                           "kdv2": _phase_modes(rng, (1,), 0.02, 0.05)
                           + _phase_modes(rng, (2,), 0.002, 0.01)})
        elif workload == "cli":
            rounds.append({"potential": _phase_modes(rng, (1, 2, 3), 0.03, 0.1),
                           "seqtest_seed": int(rng.integers(1, 2 ** 31))})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return rounds


def family_coeffs(rnd: dict, eps) -> list[tuple[int, complex]]:
    """Mode coefficients of the family member at amplitudes eps."""
    return [(n, (e + d) * complex(math.cos(th), math.sin(th)))
            for n, e, d, th in zip(FAMILY_A, eps, rnd["offset"], rnd["phase"])]


def potential_json(pot) -> str:
    """The potential file format read by ``kdvfreq --potential``."""
    modes = ", ".join(f'{{"n": {n}, "re": {re!r}, "im": {im!r}}}' for n, re, im in pot)
    return f'{{"mean": 0.0, "modes": [{modes}]}}'
