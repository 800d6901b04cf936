"""Real 1-periodic trigonometric-polynomial potentials.

A potential is stored through its positive-mode Fourier coefficients
u_n = <q, e^{i 2n pi x}> plus the mean u_0; reality fixes u_{-n} = conj(u_n).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Potential",
    "make_potential",
    "evaluate",
    "evaluate_derivative",
    "single_mode",
    "cosine_sum",
    "rough_profile",
    "potential_from_json",
    "potential_to_json",
]


@dataclass(frozen=True)
class Potential:
    """Trigonometric polynomial q(x) = mean + sum_n u_n e^{i 2n pi x}.

    ``modes``/``coeffs`` hold the n > 0 data only; the negative modes are the
    conjugates. Immutable, hashable on its exact coefficient values.
    """

    modes: tuple[int, ...]
    coeffs: tuple[complex, ...]
    mean: float = 0.0

    @property
    def degree(self) -> int:
        return max(self.modes) if self.modes else 0

    def coeff(self, n: int) -> complex:
        """Fourier coefficient u_n for any integer n (u_0 = mean)."""
        if n == 0:
            return complex(self.mean)
        a = abs(n)
        for m, c in zip(self.modes, self.coeffs):
            if m == a:
                return c if n > 0 else np.conj(c)
        return 0.0 + 0.0j

    def drop_mean(self) -> "Potential":
        return Potential(self.modes, self.coeffs, 0.0)

    def abs_coeff_sum(self) -> float:
        """|u_0| + 2 sum_n |u_n|, a bound on sup |q|."""
        return abs(self.mean) + 2.0 * sum(abs(c) for c in self.coeffs)


def make_potential(pairs, mean: float = 0.0) -> Potential:
    """Build a real potential from (mode, coefficient) pairs.

    Modes must be distinct nonzero integers, not booleans (the mean is
    supplied separately); reality is enforced by mirroring: a pair for mode
    -n fixes u_n = conj(u_-n).
    Supplying both +n and -n is rejected unless the values are conjugate.
    """
    pos: dict[int, complex] = {}
    seen: dict[int, complex] = {}
    for n, c in pairs:
        if isinstance(n, (bool, np.bool_)) or not float(n).is_integer():
            raise ValueError(f"mode {n!r} is not an integer")
        n, c = int(n), complex(c)
        if n == 0:
            raise ValueError("mode 0 is the mean; pass it via the `mean` argument")
        if not (np.isfinite(c.real) and np.isfinite(c.imag)):
            raise ValueError(f"non-finite coefficient for mode {n}")
        if n in seen:
            raise ValueError(f"duplicate mode {n}")
        seen[n] = c
        u = c if n > 0 else np.conj(c)
        a = abs(n)
        if a in pos:
            if abs(pos[a] - u) > 1e-15 * max(1.0, abs(u)):
                raise ValueError(f"modes +-{a} given with non-conjugate coefficients")
        else:
            pos[a] = u
    if not np.isfinite(mean):
        raise ValueError("non-finite mean")
    modes = tuple(sorted(pos))
    return Potential(modes, tuple(complex(pos[m]) for m in modes), float(mean))


def evaluate(q: Potential, x) -> np.ndarray | float:
    """Evaluate q at x in [0,1) (scalar or array).

    The full complex sum sum_n u_n e^{i 2n pi x} is formed and the imaginary
    residue asserted below 1e-12 * sum |u_n| before being discarded.
    """
    x = np.asarray(x, dtype=float)
    val = np.full(x.shape, complex(q.mean))
    for m, c in zip(q.modes, q.coeffs):
        e = np.exp(2j * np.pi * m * x)
        val = val + c * e + np.conj(c) / e
    scale = q.abs_coeff_sum()
    if scale > 0:
        resid = np.max(np.abs(val.imag))
        if resid > 1e-12 * scale:
            raise AssertionError(f"imaginary residue {resid:.3e} exceeds tolerance")
    out = val.real
    return out if out.shape else float(out)


def evaluate_derivative(q: Potential, x, order: int = 1):
    """d^order q / dx^order, exact in Fourier space."""
    x = np.asarray(x, dtype=float)
    val = np.zeros(x.shape, dtype=complex)
    for m, c in zip(q.modes, q.coeffs):
        w = 2j * np.pi * m
        val += c * w**order * np.exp(w * x)
        val += np.conj(c) * (-w) ** order * np.exp(-w * x)
    out = val.real
    return out if out.shape else float(out)


def single_mode(n: int, eps: float) -> Potential:
    """q(x) = eps * 2 cos(2 pi n x)."""
    return make_potential([(n, eps)], 0.0)


def cosine_sum(pairs, mean: float = 0.0) -> Potential:
    """q(x) = mean + sum_j eps_j * 2 cos(2 pi n_j x) from (n_j, eps_j) pairs."""
    return make_potential([(n, e) for n, e in pairs], mean)


def rough_profile(s: float, n_modes: int, amp: float = 0.1) -> Potential:
    """Slowly decaying mode profile |u_n| = amp * n^(-s-1/2), the borderline
    decay for membership in the Sobolev space of exponent s."""
    return make_potential([(n, amp * n ** (-s - 0.5)) for n in range(1, n_modes + 1)])


def potential_to_json(q: Potential) -> str:
    obj = {
        "mean": q.mean,
        "modes": [
            {"n": int(m), "re": float(c.real), "im": float(c.imag)}
            for m, c in zip(q.modes, q.coeffs)
        ],
    }
    return json.dumps(obj)


def potential_from_json(text: str) -> Potential:
    """Parse the {"mean": float, "modes": [{"n", "re", "im"}]} schema."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "modes" not in obj:
        raise ValueError("potential JSON must have 'mean' and 'modes' fields")
    if not isinstance(obj["modes"], list) or not all(isinstance(m, dict) for m in obj["modes"]):
        raise ValueError("potential 'modes' must be a list of {n, re, im} objects")
    pairs = [(m["n"], complex(float(m["re"]), float(m.get("im", 0.0)))) for m in obj["modes"]]
    return make_potential(pairs, float(obj.get("mean", 0.0)))
