"""Actions, contour moments, Hamiltonians and the KdV / KdV2 frequency sums.

Every gap integral reduces to a Gauss-Chebyshev sum over the lower gap side;
closed gaps contribute exactly zero. The frequency sums run over the open
gaps only (closed gaps vanish identically), with a conservative tail bound
accounting for gaps hidden below the detection floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import roots
from .errors import NumericalError, ValidationError
from .hill import HillSpectrum, _varsigma, periodic_spectrum
from .potentials import Potential, evaluate, evaluate_derivative
from .roots import PsiFunction, cheb_nodes, psi_solve

__all__ = ["ActionVector", "MomentTable", "FrequencyReport", "HamiltonianValues",
           "JacobianResult", "action_vector", "moments", "freq_kdv",
           "freq_kdv2", "hamiltonians", "frequency_report", "frequency_jacobian",
           "spectrum_for", "psi_for"]


def spectrum_for(q: Potential, N: int, dtype=np.float64) -> HillSpectrum:
    """periodic_spectrum through at least max(N, 12), extended until the open
    gaps end three indices below the truncation."""
    n_spec = max(N, 12)
    for _ in range(3):
        spec = periodic_spectrum(q, n_spec, dtype=dtype)
        opens = spec.open_indices()
        if not opens or max(opens) <= n_spec - 3:
            return spec
        n_spec = max(opens) + 6
    raise NumericalError("open gaps do not terminate below the truncation")


def psi_for(spec: HillSpectrum, n: int, tol: float = 1e-8,
            nodes: int = 96) -> PsiFunction:
    return psi_solve(spec, n, tol=tol, nodes=nodes)


def _F_table(spec: HillSpectrum, nodes: int) -> dict[int, np.ndarray]:
    """F on the minus side of every open gap, integrated from the spectral
    data (``roots.gap_F_integrated``)."""
    return roots.gap_F_integrated(spec, nodes)


# ---------------------------------------------------------------------------
# actions

@dataclass
class ActionVector:
    """Actions I_n >= 0 with per-entry quadrature error estimates.

    ``ratio`` holds the gap-normalized value 8 n pi I_n / gamma_n^2, which
    stays well defined in the collapsed limit (it tends to chi_n(tau_n));
    I_n itself is exactly 0 there.
    """

    I: np.ndarray
    ratio: np.ndarray
    err: np.ndarray
    flagged: np.ndarray
    N: int


def _chi_values(spec: HillSpectrum, n: int, lam: np.ndarray) -> np.ndarray:
    """chi_n(lam) = n pi/sqrt(lam - lam0) * prod_{open m != n} (lam_m^* - lam)/varsigma_m."""
    pref, fac, _ = roots._gap_quotient_products(spec, spec.lambda_dot, n, n, lam)
    return pref * np.prod(fac, axis=0)


def _action_ratios(spec: HillSpectrum, ns, t, root, prod) -> np.ndarray:
    """(2/pi) int (t - t_n)^2 chi_n(lam_t) / sqrt(1-t^2) dt over each open gap
    n of ns, from the rows sqrt(lam - lam0) and prod_{m != n} of chi_n."""
    chi = (np.array(ns)[:, None] * math.pi / root) * prod
    t_n = 2.0 * (spec.lambda_dot[ns] - spec.tau[ns]).astype(float) / spec.gamma[ns].astype(float)
    return (2.0 * np.sum((t - t_n[:, None]) ** 2 * chi, axis=1) / t.size).astype(float)


def action_vector(spec: HillSpectrum, N: int | None = None,
                  nodes: int = 96) -> ActionVector:
    """Actions I_n of gaps 1..N (default spec.N), each from 2 x nodes
    Chebyshev nodes with the change from nodes as its error estimate;
    collapsed gaps give exactly I_n = err = 0. The nodes pass reads the
    spectrum's node block; the 2 x nodes pass multiplies its products up one
    gap m at a time, with no (d, d, 2 nodes) array (see ``roots``)."""
    if nodes < 1:
        raise ValidationError("nodes must be at least 1")
    N = spec.N if N is None else N
    I = np.zeros(N + 1)
    ratio = np.full(N + 1, np.nan)
    err = np.zeros(N + 1)
    for n in range(1, N + 1):
        if not spec.open_gap[n]:
            ratio[n] = float(_chi_values(spec, n, np.atleast_1d(spec.tau[n]))[0])
    opens = spec.open_indices()
    ns = [n for n in opens if n <= N]
    block = spec._gap_nodes(nodes)
    r1 = _action_ratios(spec, ns, cheb_nodes(nodes), block.root[:len(ns)],
                        block.products(spec.lambda_dot[opens], 0, len(ns)))
    t2 = cheb_nodes(2 * nodes)
    tau, gamma, star = (a[opens][:, None] for a in (spec.tau, spec.gamma, spec.lambda_dot))
    lam = tau[:len(ns)] + t2 * (gamma[:len(ns)] / 2)
    prod = np.ones_like(lam)
    with np.errstate(invalid="ignore", divide="ignore"):  # m == n: on its own gap
        for i in range(len(opens)):
            fac = (star[i] - lam) / _varsigma(tau[i], gamma[i], lam)
            fac[i:i + 1] = 1              # row i is gap m itself, if m <= N
            prod *= fac
    r2 = _action_ratios(spec, ns, t2, np.sqrt(lam - spec.lam0), prod)
    for n, a, b in zip(ns, r1, r2):
        g = float(spec.gamma[n])
        scale = g * g / (8.0 * n * math.pi)
        I[n] = scale * b
        err[n] = abs(scale * (b - a))
        ratio[n] = b
    flagged = err > 1e-6 * np.maximum(I, 1e-12)
    return ActionVector(I=I, ratio=ratio, err=err, flagged=flagged, N=N)


# ---------------------------------------------------------------------------
# moments

@dataclass
class MomentTable:
    """Contour moments: omega_m[m] is the (N+1, K+1) matrix of Omega_nk^(m)
    for even m; R[(n, m)] the single-gap moments for odd m <= 5."""

    omega2: np.ndarray
    omega4: np.ndarray
    R: dict
    N: int
    K: int
    nodes: int


def moments(spec: HillSpectrum, psis: dict[int, PsiFunction],
            N: int, K: int | None = None, nodes: int = 96) -> MomentTable:
    """Omega_nk^(m) for m = 2, 4, n <= N, k <= K, and R_k^(m) for m = 1, 3, 5.

    Odd Omega moments and even R moments vanish identically (short circuit),
    as does every moment of a collapsed gap k. Per n, one product over the
    spectrum's node block gives g_nk on every open gap k <= K; each moment
    is a sum along its row, the same sum as gap by gap (see ``roots``).
    """
    K = spec.N if K is None else K
    if not 1 <= K <= spec.N:
        raise ValidationError(f"K must lie in 1..{spec.N} (the spectrum truncation)")
    for n in range(1, N + 1):
        if n not in psis:
            raise ValidationError(f"psi_{n} missing from the supplied family")
    Fv = _F_table(spec, nodes)
    om2 = np.zeros((N + 1, K + 1))
    om4 = np.zeros((N + 1, K + 1))
    R = {(k, m): 0.0 for k in range(1, K + 1) for m in (1, 3, 5)}
    opens = [k for k in spec.open_indices() if k <= K]
    F = np.array([Fv[k] for k in opens], dtype=float).reshape(len(opens), nodes)
    F2 = F ** 2
    w = 2.0 * math.pi / nodes
    for n in range(1, N + 1):
        g = np.asarray(roots._block_quotients(spec, psis[n], nodes, 0, len(opens)),
                       dtype=float)
        om2[n, opens] = w * np.sum(F2 * g, axis=1)
        om4[n, opens] = w * np.sum(F2 * F2 * g, axis=1)
    t = cheb_nodes(nodes)
    root_w = np.sqrt(1.0 - t * t)
    for k, Fk in zip(opens, F):
        gk = float(spec.gamma[k])
        for m in (1, 3, 5):
            R[(k, m)] = -(gk / nodes) * float(np.sum(Fk ** m * root_w))
    return MomentTable(omega2=om2, omega4=om4, R=R, N=N, K=K, nodes=nodes)


def omega0_table(spec: HillSpectrum, psis: dict[int, PsiFunction],
                 N: int, K: int, nodes: int | None = None) -> np.ndarray:
    """The normalization moments Omega_nk^(0) / (2 pi); identity when solved."""
    out = np.zeros((N + 1, K + 1))
    for n in range(1, N + 1):
        for k in range(1, K + 1):
            out[n, k] = roots.condition_integral(spec, psis[n], k, nodes)
    return out


# ---------------------------------------------------------------------------
# frequencies

@dataclass
class FrequencyReport:
    """omega_n^(1), omega_n^(2) and their renormalized parts through index N,
    with the actions, spectrum and moments they were computed from."""

    N: int
    K: int
    mean: float
    H0: float
    omega1: np.ndarray
    omega1_star: np.ndarray
    omega2: np.ndarray
    omega2_star: np.ndarray
    tail1: np.ndarray
    tail2: np.ndarray
    warn: np.ndarray
    actions: ActionVector = field(repr=False)
    spectrum: HillSpectrum = field(repr=False)
    moments: MomentTable = field(repr=False)


def _collapsed_tail_bound(spec: HillSpectrum, n: int, weight) -> float:
    """Bound on sum_k weight(k)*Omega_nk^(2) over gaps hidden below the
    detection floor (gamma up to the per-gap ``gamma_floor``), x2 safety."""
    total = 0.0
    for k in range(1, spec.N + 1):
        if spec.open_gap[k]:
            continue
        om_kk = float(spec.gamma_floor[k]) ** 2 / (16.0 * k * k * math.pi)
        if k == n:
            total += weight(k) * om_kk
        else:
            total += weight(k) * om_kk * n / abs(n * n - k * k)
    return 2.0 * total


def freq_kdv(spec: HillSpectrum, mom: MomentTable, n: int):
    """omega_n^(1)-star = -12 sum_k k Omega_nk^(2) plus a tail bound."""
    ks = np.arange(1, mom.K + 1)
    star = -12.0 * float(np.sum(ks * mom.omega2[n, 1:]))
    tail = 12.0 * _collapsed_tail_bound(spec, n, lambda k: float(k))
    return star, tail


def freq_kdv2(spec: HillSpectrum, mom: MomentTable, n: int):
    """omega_n^(2)-star = -160 pi^2 sum k^3 Omega^(2) + 80 sum k Omega^(4)."""
    ks = np.arange(1, mom.K + 1)
    star = (-160.0 * math.pi ** 2 * float(np.sum(ks ** 3 * mom.omega2[n, 1:]))
            + 80.0 * float(np.sum(ks * mom.omega4[n, 1:])))
    tail = 160.0 * math.pi ** 2 * _collapsed_tail_bound(spec, n, lambda k: float(k ** 3))
    return star, tail


def frequency_report(u: Potential, N: int, K: int | None = None, nodes: int = 96,
                     dtype=np.float64, psi_tol: float = 1e-8) -> FrequencyReport:
    """Full pipeline: mean split, spectrum, psi family, moments, frequencies.

    The star quantities are computed on the zero-mean part q = u - c and the
    full frequencies reassembled by the shift formulas
    omega1 = (2npi)^3 + 6c(2npi) + omega1*(q),
    omega2 = (2npi)^5 + 10c(2npi)^3 + 60npi c^2 + 20(2npi)H0(q)
             + omega2*(q) + 10c omega1*(q).
    """
    c = u.mean
    q = u.drop_mean()
    spec = spectrum_for(q, N, dtype=dtype)
    psis = {n: psi_for(spec, n, tol=psi_tol, nodes=nodes) for n in range(1, N + 1)}
    mom = moments(spec, psis, N, K=K, nodes=nodes)
    acts = action_vector(spec, N=spec.N, nodes=nodes)
    grid = np.arange(4096) / 4096.0
    uq = evaluate(q, grid)
    H0 = 0.5 * float(np.mean(uq ** 2))
    ns = np.arange(0, N + 1, dtype=float)
    w = 2.0 * ns * math.pi
    o1s = np.zeros(N + 1)
    o2s = np.zeros(N + 1)
    t1 = np.zeros(N + 1)
    t2 = np.zeros(N + 1)
    for n in range(1, N + 1):
        o1s[n], t1[n] = freq_kdv(spec, mom, n)
        o2s[n], t2[n] = freq_kdv2(spec, mom, n)
    omega1 = w ** 3 + 6.0 * c * w + o1s
    omega2 = w ** 5 + 10.0 * c * w ** 3 + 30.0 * c * c * w + 20.0 * w * H0 \
        + o2s + 10.0 * c * o1s
    omega1[0] = omega2[0] = 0.0
    warn = (t1 > 0.1 * np.abs(o1s)) & (np.abs(o1s) > 0)
    return FrequencyReport(N=N, K=mom.K, mean=c, H0=H0,
                           omega1=omega1, omega1_star=o1s,
                           omega2=omega2, omega2_star=o2s,
                           tail1=t1, tail2=t2, warn=warn, actions=acts,
                           spectrum=spec, moments=mom)


# ---------------------------------------------------------------------------
# Hamiltonians

@dataclass
class HamiltonianValues:
    """Direct integrals and renormalized values from the moment sums."""

    H0: float
    H1: float
    H2: float
    H1_star: float          # moment route (primary)
    H1_star_subtraction: float
    H2_star: float          # moment route (primary)
    H2_star_subtraction: float
    route_gap_H1: float
    route_gap_H2: float
    flagged: bool


def hamiltonians(rep: FrequencyReport) -> HamiltonianValues:
    """H0, H1, H2 of the zero-mean part of the report's potential by
    4096-point trapezoid (spectrally exact here) plus the renormalized H1*,
    H2* by both the moment and the subtraction route."""
    spec, acts, mom = rep.spectrum, rep.actions, rep.moments
    q = spec.potential
    grid = np.arange(4096) / 4096.0
    u = evaluate(q, grid)
    ux = evaluate_derivative(q, grid, 1)
    uxx = evaluate_derivative(q, grid, 2)
    H0 = 0.5 * float(np.mean(u ** 2))
    H1 = 0.5 * float(np.mean(ux ** 2 + 2.0 * u ** 3))
    H2 = 0.5 * float(np.mean(uxx ** 2 + 10.0 * u * ux ** 2 + 5.0 * u ** 4))
    ns = np.arange(0, acts.N + 1, dtype=float)
    w = 2.0 * ns * math.pi
    H1_sub = H1 - float(np.sum(w ** 3 * acts.I))
    H2_sub = H2 - float(np.sum(w ** 5 * acts.I)) - 10.0 * H0 * H0
    H1_mom = 0.0
    H2_mom = 0.0
    for k in range(1, mom.K + 1):
        wk = 2.0 * k * math.pi
        H1_mom += -4.0 * wk * mom.R[(k, 3)]
        H2_mom += -(40.0 / 3.0) * wk ** 3 * mom.R[(k, 3)] + 16.0 * wk * mom.R[(k, 5)]
    gap1 = abs(H1_mom - H1_sub)
    gap2 = abs(H2_mom - H2_sub)
    # combined error estimate: quadrature flags plus gamma accuracy of each action
    est = 0.0
    for n in range(1, acts.N + 1):
        rel = 2.0 * float(spec.gamma_rel_err[n])
        est += (2 * n * math.pi) ** 3 * (acts.I[n] * rel + acts.err[n])
    flagged = gap1 > 10.0 * (est + 1e-12 * max(1.0, abs(H1_mom)))
    return HamiltonianValues(H0=H0, H1=H1, H2=H2,
                             H1_star=H1_mom, H1_star_subtraction=H1_sub,
                             H2_star=H2_mom, H2_star_subtraction=H2_sub,
                             route_gap_H1=gap1, route_gap_H2=gap2, flagged=flagged)


# ---------------------------------------------------------------------------
# frequency Jacobian

@dataclass
class JacobianResult:
    A: tuple
    jac: np.ndarray
    symmetry_defect: float
    sym_eigs: np.ndarray
    I_base: np.ndarray
    negative_definite: bool


def frequency_jacobian(A, h: float, which: str = "kdv", family=None,
                       base_eps: float = 0.05, N: int | None = None) -> JacobianResult:
    """Finite-difference Jacobian d omega*/d I over the index set A.

    The default family drives each gap in A by an independent cosine mode of
    amplitude eps_j around base_eps; central differences in every direction
    give dI and d omega*, and the Jacobian is their quotient matrix.
    """
    A = tuple(int(a) for a in A)
    d = len(A)
    if d == 0:
        raise ValidationError("index set A must be nonempty")
    if family is None:
        def family(eps):
            return Potential(tuple(A), tuple(complex(e) for e in eps), 0.0)
    base = np.full(d, base_eps)
    N = N if N is not None else max(A) + 2

    def measure(eps):
        rep = frequency_report(family(eps), N)
        idx = list(A)
        I = rep.actions.I[idx]
        om = rep.omega1_star[idx] if which == "kdv" else rep.omega2_star[idx]
        return np.asarray(I, dtype=float), np.asarray(om, dtype=float)

    dI = np.zeros((d, d))
    dw = np.zeros((d, d))
    for j in range(d):
        ep = base.copy(); ep[j] += h
        em = base.copy(); em[j] -= h
        Ip, wp = measure(ep)
        Im, wm = measure(em)
        dI[:, j] = (Ip - Im) / (2 * h)
        dw[:, j] = (wp - wm) / (2 * h)
    if np.linalg.cond(dI) > 1e8:
        raise NumericalError("action increments are ill-conditioned; "
                             "the family does not vary the gaps independently")
    jac = dw @ np.linalg.inv(dI)
    sym = 0.5 * (jac + jac.T)
    defect = float(np.linalg.norm(jac - jac.T) / max(np.linalg.norm(jac), 1e-300))
    eigs = np.linalg.eigvalsh(sym)
    I_base, _ = measure(base)
    return JacobianResult(A=A, jac=jac, symmetry_defect=defect, sym_eigs=eigs,
                          I_base=I_base, negative_definite=bool(np.max(eigs) < 0))
