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
from ._util import parallel_map
from .errors import NumericalError, ValidationError
from .hill import HillSpectrum, periodic_spectrum
from .potentials import Potential, evaluate, evaluate_derivative
from .roots import PsiFunction, cheb_nodes, gap_contour, psi_solve

__all__ = ["ActionVector", "MomentTable", "FrequencyReport", "HamiltonianValues",
           "JacobianResult", "action", "action_vector", "moments", "freq_kdv",
           "freq_kdv2", "hamiltonians", "frequency_report", "frequency_jacobian",
           "spectrum_for", "psi_for"]


def spectrum_for(q: Potential, N: int, dtype=np.float64,
                 ode_tol: float | None = None) -> HillSpectrum:
    """periodic_spectrum through at least max(N, 12), extended until the open
    gaps end three indices below the truncation."""
    n_spec = max(N, 12)
    for _ in range(3):
        spec = periodic_spectrum(q, n_spec, ode_tol=ode_tol, dtype=dtype)
        opens = spec.open_indices()
        if not opens or max(opens) <= n_spec - 3:
            return spec
        n_spec = max(opens) + 6
    raise NumericalError("open gaps do not terminate below the truncation")


def psi_for(spec: HillSpectrum, n: int, M: int | None = None, tol: float = 1e-8,
            nodes: int = 96) -> PsiFunction:
    return psi_solve(spec, n, M=M, tol=tol, nodes=nodes)


def _F_table(q: Potential, spec: HillSpectrum, nodes: int) -> dict[int, np.ndarray]:
    """F on the minus side of every open gap, integrated from the spectral
    data (``roots.gap_F_integrated``); q is the potential spec belongs to."""
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


def _action_ratio(spec: HillSpectrum, n: int, nodes: int) -> float:
    """(2/pi) int (t - t_n)^2 chi_n(lam_t) / sqrt(1-t^2) dt over gap n."""
    if not spec.open_gap[n]:
        return float(_chi_values(spec, n, np.atleast_1d(spec.tau[n]))[0])
    t = cheb_nodes(nodes)
    ct = gap_contour(spec, n, t)
    chi = _chi_values(spec, n, ct.lam.astype(spec.tau.dtype))
    t_n = 2.0 * float(spec.lambda_dot[n] - spec.tau[n]) / float(spec.gamma[n])
    return float(2.0 * np.sum((t - t_n) ** 2 * chi) / nodes)


def action(q: Potential, spec: HillSpectrum, n: int, nodes: int = 96):
    """Action I_n of gap n with a node-doubling error estimate.

    Returns (I_n, err). Collapsed gaps give exactly (0.0, 0.0).
    """
    if not spec.open_gap[n]:
        return 0.0, 0.0
    g = float(spec.gamma[n])
    scale = g * g / (8.0 * n * math.pi)
    q1 = _action_ratio(spec, n, nodes)
    q2 = _action_ratio(spec, n, 2 * nodes)
    return scale * q2, abs(scale * (q2 - q1))


def action_vector(q: Potential, spec: HillSpectrum, N: int | None = None,
                  nodes: int = 96) -> ActionVector:
    if nodes < 1:
        raise ValidationError("nodes must be at least 1")
    N = spec.N if N is None else N
    I = np.zeros(N + 1)
    ratio = np.full(N + 1, np.nan)
    err = np.zeros(N + 1)
    for n in range(1, N + 1):
        ratio[n] = _action_ratio(spec, n, nodes)
        if spec.open_gap[n]:
            g = float(spec.gamma[n])
            scale = g * g / (8.0 * n * math.pi)
            r2 = _action_ratio(spec, n, 2 * nodes)
            I[n] = scale * r2
            err[n] = abs(scale * (r2 - ratio[n]))
            ratio[n] = r2
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


def moments(q: Potential, spec: HillSpectrum, psis: dict[int, PsiFunction],
            N: int, K: int | None = None, nodes: int = 96,
            m_set=(2, 4), r_orders=(1, 3, 5)) -> MomentTable:
    """Omega_nk^(m) for even m in m_set, n <= N, k <= K, and R_n^(m) for m in
    r_orders.

    Odd Omega moments and even R moments vanish identically (short circuit),
    as does every moment of a collapsed gap k.
    """
    K = spec.N if K is None else K
    if K > spec.N:
        raise ValidationError("K cannot exceed the spectrum truncation")
    if any(m not in (0, 2, 4) for m in m_set):
        raise ValidationError("supported moment orders are 0, 2, 4 (odd ones vanish)")
    for n in range(1, N + 1):
        if n not in psis:
            raise ValidationError(f"psi_{n} missing from the supplied family")
    Fv = _F_table(q, spec, nodes)
    om2 = np.zeros((N + 1, K + 1))
    om4 = np.zeros((N + 1, K + 1))
    R: dict = {}
    opens = [k for k in spec.open_indices() if k <= K]
    t = cheb_nodes(nodes)
    root_w = np.sqrt(1.0 - t * t)
    for k in opens:
        ct = gap_contour(spec, k, t)
        lam = ct.lam.astype(spec.tau.dtype)
        F2 = np.asarray(Fv[k], dtype=float) ** 2
        for n in range(1, N + 1):
            g = np.asarray(roots.psi_quotient_on_gap(spec, psis[n], k, lam), dtype=float)
            if 2 in m_set:
                om2[n, k] = (2.0 * math.pi / nodes) * float(np.sum(F2 * g))
            if 4 in m_set:
                om4[n, k] = (2.0 * math.pi / nodes) * float(np.sum(F2 * F2 * g))
        gk = float(spec.gamma[k])
        Fk = np.asarray(Fv[k], dtype=float)
        for m in r_orders:
            if m % 2 == 0:
                R[(k, m)] = 0.0
            else:
                R[(k, m)] = -(gk / nodes) * float(np.sum(Fk ** m * root_w))
    for k in range(1, K + 1):
        if k not in opens:
            for m in r_orders:
                R[(k, m)] = 0.0
    return MomentTable(omega2=om2, omega4=om4, R=R, N=N, K=K, nodes=nodes)


def omega0_table(spec: HillSpectrum, psis: dict[int, PsiFunction],
                 N: int, K: int, nodes: int | None = None) -> np.ndarray:
    """The normalization moments Omega_nk^(0) / (2 pi); identity when solved."""
    out = np.zeros((N + 1, K + 1))
    for n in range(1, N + 1):
        for k in range(1, K + 1):
            out[n, k] = roots.condition_integral(spec, psis[n], k, nodes)
    return out


def moment_without_shortcircuit(q: Potential, spec: HillSpectrum, psi: PsiFunction,
                                k: int, m: int, nodes: int = 96) -> float:
    """Omega_nk^(m) with both gap sides quadratured separately and combined.

    For odd m (or even R moments) the side sums cancel; evaluating them
    independently checks the side sign conventions rather than assuming them.
    """
    if not spec.open_gap[k]:
        return 0.0
    t = cheb_nodes(nodes)
    ct = gap_contour(spec, k, t)
    lam = ct.lam.astype(spec.tau.dtype)
    g = np.asarray(roots.psi_quotient_on_gap(spec, psi, k, lam), dtype=float)
    Fm = np.asarray(_F_table(q, spec, nodes)[k], dtype=float)
    side_minus = (math.pi / nodes) * np.sum(Fm ** m * g)
    side_plus = (math.pi / nodes) * np.sum((-Fm) ** m * g)
    return float(side_minus + side_plus)


def r_moment_without_shortcircuit(q: Potential, spec: HillSpectrum, k: int,
                                  m: int, nodes: int = 96) -> float:
    """R_k^(m) from both gap sides separately (cancels to noise for even m)."""
    if not spec.open_gap[k]:
        return 0.0
    Fm = np.asarray(_F_table(q, spec, nodes)[k], dtype=float)
    t = cheb_nodes(nodes)
    w = np.sqrt(1.0 - t * t)
    gk = float(spec.gamma[k])
    side_minus = -(gk / (2.0 * nodes)) * np.sum(Fm ** m * w)
    side_plus = +(gk / (2.0 * nodes)) * np.sum((-Fm) ** m * w)
    return float(side_minus + side_plus)


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
    actions: ActionVector = field(repr=False, default=None)
    spectrum: HillSpectrum = field(repr=False, default=None)
    moments: MomentTable = field(repr=False, default=None)


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


def frequency_report(u: Potential, N: int, M: int | None = None,
                     K: int | None = None, nodes: int = 96,
                     dtype=np.float64, psi_tol: float = 1e-8,
                     jobs: int = 1) -> FrequencyReport:
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
    solved = parallel_map(lambda n: psi_for(spec, n, M=M, tol=psi_tol, nodes=nodes),
                          range(1, N + 1), jobs)
    psis = {p.n: p for p in solved}
    mom = moments(q, spec, psis, N, K=K, nodes=nodes)
    acts = action_vector(q, spec, N=spec.N, nodes=nodes)
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
    rep = FrequencyReport(N=N, K=mom.K, mean=c, H0=H0,
                          omega1=omega1, omega1_star=o1s,
                          omega2=omega2, omega2_star=o2s,
                          tail1=t1, tail2=t2, warn=warn, actions=acts,
                          spectrum=spec, moments=mom)
    return rep


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


def hamiltonians(q: Potential, spec: HillSpectrum, acts: ActionVector,
                 mom: MomentTable) -> HamiltonianValues:
    """H0, H1, H2 by 4096-point trapezoid (spectrally exact here) plus the
    renormalized H1*, H2* by both the moment and the subtraction route."""
    if abs(q.mean) > 1e-13:
        raise ValidationError("star identities require a zero-mean potential")
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
                       base_eps: float = 0.05, N: int | None = None,
                       dtype=np.float64, nodes: int = 96) -> JacobianResult:
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
        rep = frequency_report(family(eps), N, nodes=nodes, dtype=dtype)
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
