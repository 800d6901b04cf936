"""Weighted sequence norms, discrete Hilbert-type operators, infinite
products with certified deviation bounds, and the finite-section
Schur-complement invertibility test.

Operators act on finite truncations indexed from 1; boundedness statements
are validated empirically in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["weighted_norm", "op_A", "op_G", "inf_product", "sin_product",
           "schur_invertible", "SchurResult", "zeta_tail"]


def zeta_tail(a: float, k: int) -> float:
    """sum_{j >= a} j^(-2k) by Euler-Maclaurin; accurate for a >= 8."""
    s = 2 * k
    return a ** (1 - s) / (s - 1) + 0.5 * a ** (-s) + s / 12.0 * a ** (-s - 1)


def weighted_norm(x, s: float, p: float) -> float:
    x = np.asarray(x)
    n = np.arange(1, x.size + 1, dtype=float)
    w = (1.0 + n) ** s
    if p == math.inf:
        return float(np.max(w * np.abs(x))) if x.size else 0.0
    return float(np.sum((w * np.abs(x)) ** p) ** (1.0 / p))


def _off_diagonal(x, denom):
    """kern @ x for the kernel 1/denom(m, n) off the diagonal and 0 on it,
    with denom the integer array over [n, m] = 1..L."""
    x = np.asarray(x)
    m = np.arange(1, x.size + 1)
    d = denom(m[None, :], m[:, None])
    with np.errstate(divide="ignore"):
        kern = np.where(d != 0, 1.0 / np.where(d == 0, 1, d), 0.0)
    return kern @ x


def op_A(x):
    """(Ax)_n = sum_{m != n} x_m / (m^2 - n^2), an exact finite double sum;
    it smooths by one weight order."""
    return _off_diagonal(x, lambda m, n: m ** 2 - n ** 2)


def op_G(x):
    """(Gx)_n = sum_{m != n} x_m / |m - n|^2 (bounded by 4 on every ell^p)."""
    return _off_diagonal(x, lambda m, n: np.abs(m - n) ** 2)


def inf_product(a):
    """prod(1 + a_m) and its certified deviation bound
    |prod - 1| <= A e^S + B e^{S + S^2} with A = |sum a|, B = sum |a|^2,
    S = sum |a| (requires |a_m| <= 1/2)."""
    a = np.asarray(a)
    if a.size and np.max(np.abs(a)) > 0.5:
        raise ValidationError("certified bound requires |a_m| <= 1/2")
    value = complex(np.prod(1.0 + a))
    if np.isrealobj(a):
        value = value.real
    A = abs(np.sum(a))
    B = float(np.sum(np.abs(a) ** 2))
    S = float(np.sum(np.abs(a)))
    return value, A * math.exp(S) + B * math.exp(S + S * S)


def sin_product(lam: float, M: int) -> float:
    """Truncated sin-product prod_{m <= M} (m^2 pi^2 - lam)/(m^2 pi^2),
    converging to sin(sqrt(lam))/sqrt(lam).

    The tail correction multiplies by exp(-sum_{k} (lam/pi^2)^k zeta_tail/k),
    removing the O(lam / (pi^2 M)) truncation bias.
    """
    m = np.arange(1, M + 1, dtype=float)
    val = float(np.prod(1.0 - lam / (m * m * math.pi ** 2)))
    corr = 0.0
    for k in range(1, 5):
        corr -= (lam / math.pi ** 2) ** k / k * zeta_tail(M + 1, k)
    return val * math.exp(corr)


@dataclass(frozen=True)
class SchurResult:
    invertible: bool
    reason: str
    tail_norm: float
    det_schur: complex

    def __bool__(self) -> bool:
        return self.invertible


def schur_invertible(T: np.ndarray, N: int) -> SchurResult:
    """Is I + T invertible, judged through the head/tail split at N?

    Sufficient criterion: the tail block D has operator norm < 1 and the
    Schur complement S = I + A - B (I + D)^{-1} C has nonzero determinant
    (within 1e-12 of the scale).
    """
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValidationError("T must be square")
    if not 0 < N <= T.shape[0]:
        raise ValidationError("split index N out of range")
    A = T[:N, :N]
    B = T[:N, N:]
    C = T[N:, :N]
    D = T[N:, N:]
    tail = float(np.linalg.norm(D, 2)) if D.size else 0.0
    if tail >= 1.0:
        return SchurResult(False, "tail norm >= 1", tail, 0.0)
    S = np.eye(N) + A
    if D.size:
        S = S - B @ np.linalg.solve(np.eye(D.shape[0]) + D, C)
    det = complex(np.linalg.det(S))
    if abs(det) <= 1e-12:
        return SchurResult(False, "Schur complement singular", tail, det)
    return SchurResult(True, "", tail, det)
