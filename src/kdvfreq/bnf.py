"""Birkhoff normal forms of the two Hamiltonians to order four, the
quadratic-coefficient matrix machinery, and exact resonance scanning.

The scanner works on the coefficient lattice over powers of pi^2: every
float c is a (dyadic) rational, so the conditions k.lambda = 0 and
(Ck)_A = 0 separate coefficient-wise and are decided in exact integer
arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = ["bnf_predict", "lambda_coeff", "c_matrix", "det_CA",
           "singular_set", "resonance_scan", "comb_identities_check",
           "ResonanceVector"]


def lambda_coeff(n: int, c: float, which: str) -> float:
    """Linear normal-form coefficient of I_n for the requested hierarchy level."""
    w = 2.0 * n * math.pi
    if which == "kdv":
        return w ** 3 + 6.0 * c * w
    if which == "kdv2":
        return w ** 5 + 10.0 * c * w ** 3 + 30.0 * c * c * w
    raise ValidationError("which must be 'kdv' or 'kdv2'")


def c_matrix(which: str, c: float, A) -> np.ndarray:
    """Quadratic-coefficient matrix over the index set A (symmetric)."""
    A = [int(a) for a in A]
    if which == "kdv":
        return 6.0 * np.eye(len(A))
    if which != "kdv2":
        raise ValidationError("which must be 'kdv' or 'kdv2'")
    out = np.empty((len(A), len(A)))
    for a, i in enumerate(A):
        for b, j in enumerate(A):
            out[a, b] = 60.0 * c if i == j else -20.0 * (2 * i * math.pi) * (2 * j * math.pi)
    return out


def _action_array(I) -> np.ndarray:
    if isinstance(I, dict):
        if not I:
            return np.zeros(1)
        nmax = max(I)
        out = np.zeros(nmax + 1)
        for n, v in I.items():
            if n < 1:
                raise ValidationError("action indices start at 1")
            out[n] = v
        return out
    arr = np.asarray(I, dtype=float)
    return np.concatenate([[0.0], arr])


def bnf_predict(I, c: float, which: str, nmax: int | None = None):
    """Quartic normal-form value of the Hamiltonian and its action gradient.

    I is a dict {n: I_n} or a sequence (I_1, I_2, ...) of nonnegative
    actions with finite support. Returns (H, omega) with omega[n] the
    second-order frequency prediction for 1 <= n <= nmax.
    """
    Iv = _action_array(I)
    if np.any(Iv < -1e-14):
        raise ValidationError("actions must be nonnegative")
    N = Iv.size - 1
    nmax = N if nmax is None else max(nmax, N)
    ns = np.arange(0, N + 1, dtype=float)
    w = 2.0 * ns * math.pi
    H0 = float(np.sum(w * Iv))
    if which == "kdv":
        lam = w ** 3 + 6.0 * c * w
        H = float(np.sum(lam * Iv)) - 3.0 * float(np.sum(Iv ** 2))
        omega = np.zeros(nmax + 1)
        for n in range(1, nmax + 1):
            In = Iv[n] if n <= N else 0.0
            omega[n] = lambda_coeff(n, c, "kdv") - 6.0 * In
        return H, omega
    if which != "kdv2":
        raise ValidationError("which must be 'kdv' or 'kdv2'")
    lam = w ** 5 + 10.0 * c * w ** 3 + 30.0 * c * c * w
    H = float(np.sum(lam * Iv)) + 10.0 * H0 * H0 \
        - 10.0 * float(np.sum(w ** 2 * Iv ** 2)) - 30.0 * c * float(np.sum(Iv ** 2))
    omega = np.zeros(nmax + 1)
    for n in range(1, nmax + 1):
        In = Iv[n] if n <= N else 0.0
        wn = 2.0 * n * math.pi
        omega[n] = lambda_coeff(n, c, "kdv2") + 20.0 * wn * H0 \
            - 20.0 * wn ** 2 * In - 60.0 * c * In
    return H, omega


# ---------------------------------------------------------------------------
# nondegeneracy

def det_CA(c: float, A) -> float:
    """det C_A^(2) by the rank-one update formula (no generic determinant).

    C_A = D - B with D_i = 80 pi^2 i^2 + 60c diagonal and B_ij = 80 pi^2 i j
    of rank one, so det C_A = det D - sum_i B_ii prod_{j != i} D_j.
    """
    A = [int(a) for a in A]
    if not A:
        raise ValidationError("index set A must be nonempty")
    D = [80.0 * math.pi ** 2 * i * i + 60.0 * c for i in A]
    det_D = math.prod(D)
    corr = 0.0
    for i_pos, i in enumerate(A):
        corr += 80.0 * math.pi ** 2 * i * i * math.prod(
            D[j] for j in range(len(A)) if j != i_pos)
    return det_D - corr


def _det_scale(c: float, A) -> float:
    A = [int(a) for a in A]
    D = [abs(80.0 * math.pi ** 2 * i * i + 60.0 * c) + 1.0 for i in A]
    return math.prod(D)


def singular_set(A, width: float | None = None, tol: float = 1e-10) -> list[float]:
    """Mean values c at which det C_A^(2) vanishes, sorted increasing.

    Singletons give {0}; for |A| >= 2 there is one root between consecutive
    poles -4 pi^2 i^2 / 3 and one positive root, located by bisection.
    """
    A = sorted(int(a) for a in A)
    if not A:
        raise ValidationError("index set A must be nonempty")
    if len(A) == 1:
        return [0.0]

    fs = [3.0 / (4.0 * math.pi ** 2 * i * i) for i in A]

    def g(c):
        return sum(1.0 / (1.0 + c * f) for f in fs) - 1.0

    def bisect(lo, hi):
        glo, ghi = g(lo), g(hi)
        if glo * ghi > 0:
            raise NumericalError("singular-set bracket lost a sign change")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if gm * glo <= 0:
                hi = mid
            else:
                lo, glo = mid, gm
            if hi - lo < tol * max(1.0, abs(mid)):
                break
        return 0.5 * (lo + hi)

    poles = sorted(-1.0 / f for f in fs)     # increasing: -4pi^2 i_n^2/3 < ... < -4pi^2 i_1^2/3
    roots = []
    for lo_p, hi_p in zip(poles[:-1], poles[1:]):
        pad = 1e-9 * (hi_p - lo_p)
        roots.append(bisect(lo_p + pad, hi_p - pad))
    hi = width if width else 10.0 * abs(poles[0])
    while g(hi) > 0:
        hi *= 2.0
        if hi > 1e18:
            raise NumericalError("positive singular root not bracketed")
    roots.append(bisect(1e-12, hi))
    roots.sort()
    if len(roots) != len(A):
        raise NumericalError(
            f"found {len(roots)} singular values for |A| = {len(A)}")
    return roots


# ---------------------------------------------------------------------------
# resonance scan

@dataclass(frozen=True)
class ResonanceVector:
    """Sparse integer vector split over A and its complement."""

    k_A: tuple
    k_Z: tuple          # pairs (index, value)


def resonance_scan(A, c=0, kmax: int = 6, window: int = 40,
                   freq_source=None) -> list[ResonanceVector]:
    """Enumerate k = k_A + k_Z with |k_A|_inf <= kmax and |k_Z| <= 2 supported
    in 1..window, and report every k failing BOTH nondegeneracy conditions
    (k.lambda != 0 or (Ck)_A != 0) at mean value c.

    Exact: with S_r = sum k_j j^r, k.lambda = pi (32 pi^4 S5 + 80 pi^2 c S3
    + 60 c^2 S1) vanishes iff S5 = 0 and (c = 0 or S3 = S1 = 0); the i-th
    component of (Ck)_A vanishes iff (c = 0 or k_i = 0) and S1 = i k_i.
    Every representable c is rational, so the lattice separation is exact.
    An optional freq_source(n) -> omega_n only annotates the report.
    """
    A = sorted(int(a) for a in A)
    if kmax < 0 or window < 0:
        raise ValidationError("kmax and window must be nonnegative")
    if A and A[0] < 1:
        raise ValidationError("gap indices in A must be at least 1")
    Z = [j for j in range(1, window + 1) if j not in A]
    c_zero = (c == 0)

    kz_options = [()] + [((j, v),) for j in Z for v in (-2, -1, 1, 2)]
    kz_options += [((j1, v1), (j2, v2)) for j1, j2 in combinations(Z, 2)
                   for v1 in (-1, 1) for v2 in (-1, 1)]
    # k.lambda = 0 needs S5 = 0: visit only the k_Z whose S5 cancels k_A's
    by_s5: dict[int, list[tuple]] = {}
    for kz in kz_options:
        by_s5.setdefault(sum(v * j ** 5 for j, v in kz), []).append(kz)

    offenders = []
    rng = range(-kmax, kmax + 1)
    for kA in product(rng, repeat=len(A)):
        s1a = sum(k * i for k, i in zip(kA, A))
        s3a = sum(k * i ** 3 for k, i in zip(kA, A))
        s5a = sum(k * i ** 5 for k, i in zip(kA, A))
        for kz in by_s5.get(-s5a, ()):
            if all(v == 0 for v in kA) and not kz:
                continue
            s1 = s1a + sum(v * j for j, v in kz)
            s3 = s3a + sum(v * j ** 3 for j, v in kz)
            if not (c_zero or (s3 == 0 and s1 == 0)):
                continue
            ck_zero = all((c_zero or k == 0) and (s1 == i * k)
                          for k, i in zip(kA, A))
            if ck_zero:
                offenders.append(ResonanceVector(tuple(kA), tuple(kz)))
    if freq_source is not None:
        for off in offenders:
            val = sum(k * freq_source(i) for k, i in zip(off.k_A, A))
            val += sum(v * freq_source(j) for j, v in off.k_Z)
            if abs(val) > 1e-6:
                raise NumericalError(
                    "exact scan and the supplied frequency source disagree")
    return offenders


# ---------------------------------------------------------------------------
# combinatorial identities

def comb_identities_check(R: int) -> dict:
    """Exhaustively verify the quintic-power identities over zero-sum triples
    and quadruples with entries bounded by R; any violation is a hard error.
    """
    if R > 50:
        raise ValidationError("exhaustive check is limited to R <= 50")
    triples = 0
    for k in range(-R, R + 1):
        if k == 0:
            continue
        for l in range(-R, R + 1):
            if l == 0:
                continue
            m = -k - l
            if m == 0 or abs(m) > R:
                continue
            lhs = 2 * (k ** 5 + l ** 5 + m ** 5)
            rhs = 5 * k * l * m * (k * k + l * l + m * m)
            if lhs != rhs:
                raise NumericalError(f"triple identity fails at {(k, l, m)}")
            triples += 1
    quads = 0
    for k in range(-R, R + 1):
        if k == 0:
            continue
        for l in range(-R, R + 1):
            if l == 0:
                continue
            for m in range(-R, R + 1):
                if m == 0:
                    continue
                n = -k - l - m
                if n == 0 or abs(n) > R:
                    continue
                xi = k * k + k * l + l * l + k * m + l * m + m * m
                if xi == 0:
                    raise NumericalError(f"xi vanishes at {(k, l, m, n)}")
                lhs = k ** 5 + l ** 5 + m ** 5 + n ** 5
                rhs = 5 * (k + l) * (k + m) * (k + n) * xi
                if lhs != rhs:
                    raise NumericalError(f"quadruple identity fails at {(k, l, m, n)}")
                quads += 1
    return {"R": R, "triples": triples, "quadruples": quads, "ok": True}
