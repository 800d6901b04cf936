"""Actions, contour moments, Hamiltonians and the KdV / KdV2 frequency sums.

Every gap integral reduces to a Gauss-Chebyshev sum over the lower gap side;
closed gaps contribute exactly zero. The frequency sums run over the open
gaps only (closed gaps vanish identically), with a conservative tail bound
accounting for gaps hidden below the detection floor.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import roots
from .errors import NumericalError, ValidationError
from .hill import NODES, HillSpectrum, _collapsed_quotient, _varsigma, periodic_spectrum
from .potentials import Potential, evaluate, evaluate_derivative
from .roots import PsiFunction, cheb_nodes, psi_solve

__all__ = ["ActionVector", "MomentTable", "FrequencyReport", "HamiltonianValues",
           "JacobianResult", "action_vector", "moments", "frequency_sums",
           "hamiltonians", "frequency_report", "frequency_jacobian",
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


def psi_for(spec: HillSpectrum, n: int, tol: float = 1e-8) -> PsiFunction:
    return psi_solve(spec, n, tol=tol)


def _F_table(spec: HillSpectrum) -> dict[int, np.ndarray]:
    """F on the minus side of every open gap, integrated from the spectral
    data (``roots.gap_F_integrated``)."""
    return roots.gap_F_integrated(spec)


def _F_rows(spec: HillSpectrum) -> np.ndarray:
    """The F table as float rows (open gaps x NODES)."""
    Fv, opens = _F_table(spec), spec.open_indices()
    return np.array([Fv[k] for k in opens], dtype=float).reshape(len(opens), NODES)


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


def _action_ratios(spec: HillSpectrum, ns, t, root, prod) -> np.ndarray:
    """(2/pi) int (t - t_n)^2 chi_n(lam_t) / sqrt(1-t^2) dt over each open gap
    n of ns, from the rows sqrt(lam - lam0) and prod_{m != n} of chi_n."""
    chi = (np.array(ns)[:, None] * math.pi / root) * prod
    t_n = 2.0 * (spec.lambda_dot[ns] - spec.tau[ns]).astype(float) / spec.gamma[ns].astype(float)
    return (2.0 * np.sum((t - t_n[:, None]) ** 2 * chi, axis=1) / t.size).astype(float)


def action_vector(spec: HillSpectrum, N: int | None = None) -> ActionVector:
    """Actions I_n of gaps 1..N (default spec.N), each from 2 x NODES
    Chebyshev nodes with the change from NODES as its error estimate;
    collapsed gaps give exactly I_n = err = 0. The NODES pass reads the
    spectrum's node block; the 2 x NODES pass multiplies its products up one
    gap m at a time, with no (d, d, 2 NODES) array (see ``roots``)."""
    N = spec.N if N is None else N
    if N > spec.N:
        raise ValidationError(f"N={N} exceeds the spectrum truncation {spec.N}")
    I = np.zeros(N + 1)
    ratio = np.full(N + 1, np.nan)
    err = np.zeros(N + 1)
    for n in range(1, N + 1):
        if not spec.open_gap[n]:
            ratio[n] = float(_collapsed_quotient(spec, n))
    opens = spec.open_indices()
    ns = [n for n in opens if n <= N]
    block = spec._block
    r1 = _action_ratios(spec, ns, cheb_nodes(NODES), block.root[:len(ns)],
                        block.products(spec.lambda_dot[opens])[:len(ns)])
    t2 = cheb_nodes(2 * NODES)
    tau, gamma, star = (a[opens][:, None] for a in (spec.tau, spec.gamma, spec.lambda_dot))
    lam = tau[:len(ns)] + t2 * (gamma[:len(ns)] / 2)
    prod = np.ones_like(lam)
    for i in range(len(opens)):
        with np.errstate(invalid="ignore", divide="ignore"):  # row i: on gap m itself
            vs = _varsigma(tau[i], gamma[i], lam)
        vs[i:i + 1] = 1                   # row i is gap m itself, if m <= N
        fac = (star[i] - lam) / vs
        fac[i:i + 1] = 1
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
    for even m, with K the spectrum truncation; R[(n, m)] the single-gap
    moments for odd m <= 5."""

    omega2: np.ndarray
    omega4: np.ndarray
    R: dict
    N: int
    K: int


def moments(spec: HillSpectrum, psis: dict[int, PsiFunction], N: int) -> MomentTable:
    """Omega_nk^(m) for m = 2, 4, n <= N, k <= K = spec.N, and R_k^(m) for
    m = 1, 3, 5.

    Odd Omega moments and even R moments vanish identically (short circuit),
    as does every moment of a collapsed gap k. Per n, g_nk on every open
    gap k is read from the node values psi_n carries; each moment is a sum
    along its row, the same sum as gap by gap.
    """
    K = spec.N
    for n in range(1, N + 1):
        if n not in psis:
            raise ValidationError(f"psi_{n} missing from the supplied family")
    om2 = np.zeros((N + 1, K + 1))
    om4 = np.zeros((N + 1, K + 1))
    opens = spec.open_indices()
    F = _F_rows(spec)
    F2 = F ** 2
    w = 2.0 * math.pi / NODES
    for n in range(1, N + 1):
        g = np.asarray(psis[n].node_values, dtype=float)
        om2[n, opens] = w * np.sum(F2 * g, axis=1)
        om4[n, opens] = w * np.sum(F2 * F2 * g, axis=1)
    return MomentTable(omega2=om2, omega4=om4, R=_r_moments(spec, F), N=N, K=K)


def _r_moments(spec: HillSpectrum, F: np.ndarray) -> dict:
    """R_k^(m) = -(gamma_k / NODES) sum_t F_k(t)^m sqrt(1 - t^2) for m = 1,
    3, 5 and k <= spec.N, from the F rows of the open gaps; exactly 0 on a
    collapsed gap."""
    R = {(k, m): 0.0 for k in range(1, spec.N + 1) for m in (1, 3, 5)}
    t = cheb_nodes(NODES)
    root_w = np.sqrt(1.0 - t * t)
    opens = spec.open_indices()
    for m in (1, 3, 5):
        for k, s in zip(opens, np.sum(F ** m * root_w, axis=1).tolist()):
            R[(k, m)] = -(float(spec.gamma[k]) / NODES) * s
    return R


def omega0_table(psis: dict[int, PsiFunction]) -> np.ndarray:
    """Omega_nk^(0) / (2 pi) for n, k <= len(psis); identity when solved."""
    N = len(psis)
    out = np.zeros((N + 1, N + 1))
    for n in range(1, N + 1):
        for k in range(1, N + 1):
            out[n, k] = roots.condition_integral(psis[n], k)
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


def frequency_sums(spec: HillSpectrum, mom: MomentTable):
    """(omega1*, tail1, omega2*, tail2) over n = 0..mom.N, 0 at n = 0, with
    omega_n^(1)* = -12 sum_k k Omega_nk^(2) and omega_n^(2)* = -160 pi^2 sum_k
    k^3 Omega_nk^(2) + 80 sum_k k Omega_nk^(4). Each tail bounds its sum over
    the gaps hidden below the detection floor (gamma up to ``gamma_floor``),
    x2 safety, adding the collapsed k in ascending order."""
    ns = np.arange(mom.N + 1)
    hid = np.zeros((2, mom.N + 1))          # weights k and k^3
    for k in range(1, spec.N + 1):
        if spec.open_gap[k]:
            continue
        om_kk = float(spec.gamma_floor[k]) ** 2 / (16.0 * k * k * math.pi)
        w = np.array([[k], [k ** 3]], dtype=float) * om_kk
        d = np.abs(ns * ns - k * k)
        hid += np.where(d == 0, w, w * ns / np.maximum(d, 1))
    ks = np.arange(1, mom.K + 1)
    om2, om4 = mom.omega2[:, 1:], mom.omega4[:, 1:]
    o1s = -12.0 * np.sum(ks * om2, axis=1)
    o2s = (-160.0 * math.pi ** 2 * np.sum(ks ** 3 * om2, axis=1)
           + 80.0 * np.sum(ks * om4, axis=1))
    o1s[0] = o2s[0] = 0.0
    return o1s, 12.0 * (2.0 * hid[0]), o2s, 160.0 * math.pi ** 2 * (2.0 * hid[1])


def frequency_report(u: Potential, N: int, dtype=np.float64,
                     psi_tol: float = 1e-8) -> FrequencyReport:
    """Full pipeline: mean split, spectrum, psi family, moments, frequencies.

    The frequency sums run over every gap k <= spec.N.

    The star quantities are computed on the zero-mean part q = u - c and the
    full frequencies reassembled by the shift formulas
    omega1 = (2npi)^3 + 6c(2npi) + omega1*(q),
    omega2 = (2npi)^5 + 10c(2npi)^3 + 60npi c^2 + 20(2npi)H0(q)
             + omega2*(q) + 10c omega1*(q).
    """
    c = u.mean
    q = u.drop_mean()
    spec = spectrum_for(q, N, dtype=dtype)
    psis = {n: psi_for(spec, n, tol=psi_tol) for n in range(1, N + 1)}
    mom = moments(spec, psis, N)
    acts = action_vector(spec)
    grid = np.arange(4096) / 4096.0
    uq = evaluate(q, grid)
    H0 = 0.5 * float(np.mean(uq ** 2))
    ns = np.arange(0, N + 1, dtype=float)
    w = 2.0 * ns * math.pi
    o1s, t1, o2s, t2 = frequency_sums(spec, mom)
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
    """Direct integrals and the renormalized values by both routes."""

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


def hamiltonians(spec: HillSpectrum) -> HamiltonianValues:
    """H0, H1, H2 of the spectrum's potential by 4096-point trapezoid
    (spectrally exact here) plus the renormalized H1*, H2* by the moment
    route (R_k^(3), R_k^(5)) and the subtraction route (the actions), both
    over every gap k <= spec.N: no psi and no Omega moment is needed."""
    if spec.potential.mean != 0:     # the routes hold for q = u - mean only
        raise ValidationError("hamiltonians needs the spectrum of a zero-mean potential")
    acts = action_vector(spec)
    R = _r_moments(spec, _F_rows(spec))
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
    for k in range(1, spec.N + 1):
        wk = 2.0 * k * math.pi
        H1_mom += -4.0 * wk * R[(k, 3)]
        H2_mom += -(40.0 / 3.0) * wk ** 3 * R[(k, 3)] + 16.0 * wk * R[(k, 5)]
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


@functools.lru_cache(maxsize=128)
def _family_point(u: Potential, N: int):
    """Read-only copies of I, omega1* and omega2* of ``frequency_report(u, N)``.

    One report holds both frequencies, so the KdV and the KdV2 Jacobian of
    one family share one report per member. Only these three (N+1)-arrays
    are kept, not the report with its node block. One Jacobian makes 2|A| + 1
    reports, so the 128 entries cover a kdv then kdv2 pair up to |A| = 63;
    past that the LRU order misses every point, which is correct but
    reuses nothing."""
    rep = frequency_report(u, N)
    out = tuple(np.array(a, dtype=float)
                for a in (rep.actions.I, rep.omega1_star, rep.omega2_star))
    for a in out:
        a.flags.writeable = False
    return out


def frequency_jacobian(A, h: float, which: str = "kdv", family=None,
                       base_eps: float = 0.05, N: int | None = None) -> JacobianResult:
    """Finite-difference Jacobian d omega*/d I over the index set A.

    The default family drives each gap in A by an independent cosine mode of
    amplitude eps_j around base_eps; central differences in every direction
    give dI and d omega*, and the Jacobian is their quotient matrix. The
    points come from ``_family_point``, so the kdv and the kdv2 Jacobian of
    one family (same A, h, base_eps, N) make each report once.
    """
    A = tuple(int(a) for a in A)
    d = len(A)
    if d == 0:
        raise ValidationError("index set A must be nonempty")
    if min(A) < 1 or len(set(A)) != d:
        raise ValidationError(f"indices in A must be distinct and at least 1, got {list(A)}")
    if which not in ("kdv", "kdv2"):
        raise ValidationError("which must be 'kdv' or 'kdv2'")
    if not (math.isfinite(h) and h != 0):
        raise ValidationError(f"step h must be finite and nonzero, got {h}")
    if family is None:
        def family(eps):
            return Potential(tuple(A), tuple(complex(e) for e in eps), 0.0)
    base = np.full(d, base_eps)
    N = N if N is not None else max(A) + 2
    if N < max(A):
        raise ValidationError(f"N={N} is below the largest index in A, {max(A)}")

    def measure(eps):
        I, om1, om2 = _family_point(family(eps), N)
        idx = list(A)
        return I[idx], (om1 if which == "kdv" else om2)[idx]

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
