"""Checks of the workloads' outputs, computed apart from the program.

Only NumPy is used here, never kdvfreq. The references are:

- a Fourier Hill-matrix eigensolve for the periodic and antiperiodic
  eigenvalues, each pair refined by a long-double Rayleigh-Ritz step;
- H0, H1 and H2 of a Fourier state from Parseval and a padded physical grid;
- properties the method must have (the action-gap law, flatness of the
  renormalized KdV frequencies, the signs and sizes of the frequency
  Jacobians, conservation laws, valid JSON and CSV).

Each ``check_*`` returns a list of failure messages; an empty list passes.
``self_check`` feeds every check a deliberately wrong copy of real outputs
and reports each check that fails to reject it.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import math

import numpy as np

from inputs import (CLI_FLOW_M, CLI_N, CLI_SEQ_SAMPLES, FAMILY_A, KDV2_STEPS,
                    KDV_STEPS)

LD = np.longdouble
PI_LD = LD("3.14159265358979323846264338327950288")
# discriminant noise of the shooting at lambda ~ 1: ten times the ODE
# tolerance the spectrum uses (1e-16 in long double, 1e-13 in float64)
NOISE = {"longdouble": 1e-15, "float64": 1e-12}


# ---------------------------------------------------------------------------
# references

def _hill_matrix(pot, K, dtype, pi):
    """-d^2/dx^2 + q on the modes e^{i pi k x}, |k| <= K (period 2 covers
    the periodic and the antiperiodic problem)."""
    cdt = np.clongdouble if dtype is LD else complex
    ks = np.arange(-K, K + 1)
    H = np.diag((ks.astype(dtype) * pi) ** 2).astype(cdt)
    i = np.arange(2 * K + 1)
    for n, re, im in pot:
        u = cdt(complex(re, im))
        j = i[: 2 * K + 1 - 2 * n]
        H[j + 2 * n, j] += u
        H[j, j + 2 * n] += np.conj(u)
    return H


def hill_edges(pot, N, K=None):
    """lambda_0^+ and the gap edges lambda_n^-+ for n <= N.

    Returns long-double arrays (lam_minus, lam_plus, gamma, err) indexed
    0..N, where lam_plus[0] is lambda_0^+. The float64 eigenvectors of each
    pair are refined by Rayleigh-Ritz in long double, so gamma = 2r comes
    without cancellation; err bounds the Ritz error (residual^2 / separation
    plus rounding).
    """
    K = N + 64 if K is None else K
    ev, V = np.linalg.eigh(_hill_matrix(pot, K, float, math.pi))
    H = _hill_matrix(pot, K, LD, PI_LD)
    eps = float(np.finfo(LD).eps)
    lm = np.full(N + 1, np.nan, dtype=LD)
    lp = np.full(N + 1, np.nan, dtype=LD)
    gam = np.zeros(N + 1, dtype=LD)
    err = np.zeros(N + 1)
    for n in range(N + 1):
        idx = [0] if n == 0 else [2 * n - 1, 2 * n]
        W = V[:, idx].astype(np.clongdouble)
        for a in range(W.shape[1]):
            for b in range(a):
                W[:, a] -= (np.conj(W[:, b]) @ W[:, a]) * W[:, b]
            W[:, a] /= np.sqrt(np.sum(np.abs(W[:, a]) ** 2))
        HW = H @ W
        A = np.conj(W.T) @ HW
        res = float(np.sqrt(np.sum(np.abs(HW - W @ A) ** 2)))
        hi = idx[-1] + 1
        sep = min(abs(ev[hi] - ev[idx[-1]]), abs(ev[idx[0]] - ev[idx[0] - 1]) if n else np.inf)
        if n == 0:
            lp[0] = A[0, 0].real
        else:
            mid = (A[0, 0].real + A[1, 1].real) / 2
            r = np.sqrt(((A[0, 0].real - A[1, 1].real) / 2) ** 2 + np.abs(A[0, 1]) ** 2)
            lm[n], lp[n], gam[n] = mid - r, mid + r, 2 * r
        err[n] = res * res / sep + 16.0 * eps * (abs(float(ev[idx[-1]])) + 1.0)
    return lm, lp, gam, err


def fft_state(pot, M):
    """Fourier coefficients of a potential in fft layout of length M."""
    uh = np.zeros(M, dtype=complex)
    for n, re, im in pot:
        uh[n] = complex(re, im)
        uh[-n] = complex(re, -im)
    return uh


def hamiltonians(uh):
    """H0 = 1/2 <u^2>, H1 = 1/2 <u_x^2 + 2u^3>, H2 = 1/2 <u_xx^2 + 10 u u_x^2
    + 5 u^4> of the state with coefficients uh (fft layout).

    Quadratic terms by Parseval; the others on a grid padded to 4M points,
    which integrates every product up to degree 4 exactly."""
    M = uh.size
    k = 2.0 * math.pi * np.fft.fftfreq(M, d=1.0 / M)
    P = 4 * M

    def phys(vh):
        pad = np.zeros(P, dtype=complex)
        pad[: M // 2] = vh[: M // 2]
        pad[P - M // 2:] = vh[M // 2:]
        return np.fft.ifft(pad).real * P

    a2 = np.abs(uh) ** 2
    u, ux = phys(uh), phys(1j * k * uh)
    H0 = 0.5 * float(np.sum(a2))
    H1 = 0.5 * float(np.sum(k ** 2 * a2) + 2.0 * np.mean(u ** 3))
    H2 = 0.5 * float(np.sum(k ** 4 * a2) + 10.0 * np.mean(u * ux * ux)
                     + 5.0 * np.mean(u ** 4))
    return H0, H1, H2


def reality_defect(uh):
    conj = np.conj(uh[np.mod(-np.arange(uh.size), uh.size)])
    return float(np.max(np.abs(uh - conj))) / max(1.0, float(np.max(np.abs(uh))))


def _noise(lam, precision):
    return NOISE[precision] + 1e-18 * abs(float(lam))


# ---------------------------------------------------------------------------
# spectra

def _floor_gamma(n, lam, precision):
    """Widest gap the shooting may report collapsed: bump E <= 12 noise, with
    E = (gamma / (4 n pi))^2, and a factor 2 of slack on E."""
    return 4.0 * n * math.pi * math.sqrt(24.0 * _noise(lam, precision))


def _check_edges(fails, tag, F, N, lm, lp, gam, rel_err, precision):
    """Gap edges against the Fourier eigensolve F = hill_edges(...).

    Open gaps: |edge error| and |gamma error| <= 10 gamma_rel_err gamma plus
    the Ritz error. Collapsed gaps: the Fourier gap lies below the detection
    floor and tau sits inside it."""
    Fm, Fp, Fg, Ferr = F
    tol0 = 100.0 * NOISE[precision] + Ferr[0]
    if not abs(float(lp[0] - Fp[0])) <= tol0:
        fails.append(f"{tag}: lambda_0^+ {float(lp[0])!r} vs Fourier {float(Fp[0])!r}")
    for n in range(1, N + 1):
        if gam[n] > 0:
            tol = 10.0 * rel_err[n] * float(gam[n]) + Ferr[n]
            d = max(abs(float(lm[n] - Fm[n])), abs(float(lp[n] - Fp[n])),
                    abs(float(gam[n] - Fg[n])))
            if not d <= tol:
                fails.append(f"{tag}: gap {n} edges off the Fourier eigensolve "
                             f"by {d:.3e} > tol {tol:.3e}")
        else:
            cap = _floor_gamma(n, Fp[n], precision)
            tau_f = (Fm[n] + Fp[n]) / 2
            dt = abs(float(lp[n] - tau_f))
            if not (float(Fg[n]) <= cap and dt <= float(Fg[n]) / 2 + Ferr[n]
                    + 1e-14 * abs(float(tau_f))):
                fails.append(f"{tag}: gap {n} reported collapsed but Fourier gamma "
                             f"{float(Fg[n]):.3e} (floor {cap:.3e}), tau off by {dt:.3e}")


def _ld(values):
    return np.array([LD(v) if v is not None else LD("nan") for v in values], dtype=LD)


def check_deep(pot, out):
    """frequency_report at N=24 in long double (criteria 3 and 8)."""
    fails = []
    N = out["N"]
    gam = _ld(out["gamma"])
    _check_edges(fails, "deep-ld", hill_edges(pot, N), N, _ld(out["lambda_minus"]),
                      _ld(out["lambda_plus"]), gam, out["gamma_rel_err"], "longdouble")
    I = np.array(out["I"])
    opens = [n for n in range(1, N + 1) if gam[n] > 0]
    if not opens or max(opens) < 8:
        fails.append(f"deep-ld: open gaps {opens} do not reach n = 8")
    # action-gap law 8 n pi I_n / gamma_n^2 -> 1 beyond the degree of q; the
    # reported gamma is used, since I_n inherits its error (checked above)
    law = {n: abs(8.0 * n * math.pi * I[n] / float(gam[n]) ** 2 - 1.0)
           for n in opens if n >= len(pot)}
    trend = [n * v for n, v in sorted(law.items())]
    if law and (max(law.values()) > 0.05
                or any(b > 1.02 * a + 1e-12 for a, b in zip(trend, trend[1:]))):
        fails.append(f"deep-ld: action-gap law fails: {law}")
    for n in range(1, N + 1):
        if (gam[n] > 0) != (I[n] > 0):
            fails.append(f"deep-ld: action I_{n} = {I[n]!r} but gamma {float(gam[n])!r}")
    om = np.array(out["omega1_star"])
    flat = [n * abs(om[n] + 6.0 * I[n]) for n in range(8, out["n_report"] + 1)]
    if not (np.all(np.isfinite(flat)) and max(flat) <= 2.0 * flat[0]):
        fails.append(f"deep-ld: n|omega1* + 6I| not flat: {max(flat):.3e} > 2 x {flat[0]:.3e}")
    return fails


def check_family(rnd, out):
    """frequency_jacobian near I = 0 on A = {1..6} (criterion 12)."""
    fails = []
    jk = np.array(out["kdv"])
    j2 = np.array(out["kdv2"])
    if not (np.all(np.isfinite(jk)) and np.all(np.isfinite(j2))):
        return ["family-f64: non-finite Jacobian entries"]
    dk = np.diag(jk)
    if np.max(np.abs(dk + 6.0)) > 0.2 * 6.0:
        fails.append(f"family-f64: KdV diagonal {dk} not within 20% of -6")
    top = float(np.max(np.linalg.eigvalsh(0.5 * (jk + jk.T))))
    if not top < 0.0:
        fails.append(f"family-f64: symmetric KdV Jacobian not negative definite ({top:.3e})")
    want = np.array([-80.0 * math.pi ** 2 * n * n for n in FAMILY_A])
    d2 = np.diag(j2) / want - 1.0
    if np.max(np.abs(d2)) > 0.2:
        fails.append(f"family-f64: KdV2 diagonal off -80 n^2 pi^2 by {np.max(np.abs(d2)):.3f}")
    return fails


def check_pde(rnd, out):
    """KdV and KdV2 runs conserve H0 (and H1 for KdV) and stay real."""
    fails = []
    for eq, steps, hs, tol in (("kdv", KDV_STEPS, (0, 1), 1e-8),
                               ("kdv2", KDV2_STEPS, (0,), 1e-7)):
        run = out[eq]
        first = np.array(run["first"]) @ np.array([1.0, 1j])
        last = np.array(run["last"]) @ np.array([1.0, 1j])
        if run["aborted"] or run["steps"] != steps:
            fails.append(f"pde {eq}: aborted={run['aborted']} after {run['steps']} steps")
            continue
        if np.max(np.abs(first - fft_state(rnd[eq], first.size))) > 1e-15:
            fails.append(f"pde {eq}: initial state is not the input potential")
        h0, h1 = hamiltonians(first), hamiltonians(last)
        for i in hs:
            if abs(h1[i] - h0[i]) > tol * abs(h0[i]):
                fails.append(f"pde {eq}: H{i} drifts {abs(h1[i] - h0[i]) / abs(h0[i]):.3e} "
                             f"> {tol:g} relative")
        if reality_defect(last) > 1e-13:
            fails.append(f"pde {eq}: reality defect {reality_defect(last):.3e}")
    return fails


# ---------------------------------------------------------------------------
# command line

def parse_cli(texts: dict) -> dict:
    """Parse each command's stdout; a parse error is kept as a string."""
    parsed = {}
    for name, text in texts.items():
        try:
            if name == "evolve":
                parsed[name] = [json.loads(line) for line in text.splitlines()]
            elif name == "flow-exp":
                parsed[name] = list(csv.reader(io.StringIO(text)))
            else:
                parsed[name] = json.loads(text)
        except ValueError as exc:
            parsed[name] = f"unparseable output: {exc}"
    return parsed


def _f64_rel_err(sp):
    """A float64 spectrum reports no gamma_rel_err: rebuild it as noise / (2E),
    with the bump E = (gamma / (4 n pi))^2 of a small gap."""
    return [0.0] + [_noise(sp["lambda_plus"][n], "float64")
                    / (2.0 * (g / (4 * n * math.pi)) ** 2) if g else 0.0
                    for n, g in enumerate(sp["gamma"]) if n > 0]


def check_cli(rnd, codes: dict, parsed: dict):
    """Every command that exits 0 prints valid output that agrees with the
    references; a command that exits otherwise is counted as failed."""
    ok = {name for name, code in codes.items() if code == 0}
    fails = [f"cli {name}: {parsed[name]}" for name in ok if isinstance(parsed[name], str)]
    ok -= {name for name in ok if isinstance(parsed[name], str)}
    pot = rnd["potential"]
    N = CLI_N
    F = hill_edges(pot, 20)

    if "spectrum" in ok:
        sp = parsed["spectrum"]
        _check_edges(fails, "cli spectrum", F, N, _ld(sp["lambda_minus"]),
                     _ld(sp["lambda_plus"]), _ld(sp["gamma"]), _f64_rel_err(sp), "float64")

    if "actions" in ok:
        for n, I in enumerate(parsed["actions"]["I"], start=1):
            if I < 0 or (I > 0 and abs(8.0 * n * math.pi * I / float(F[2][n]) ** 2 - 1.0) > 0.05):
                fails.append(f"cli actions: I_{n} = {I!r} breaks the action-gap law")

    if "freq" in ok:
        rows = np.array(parsed["freq"]["rows"], dtype=float)
        if rows.shape != (N, 7) or not np.all(np.isfinite(rows)):
            fails.append(f"cli freq: rows of shape {rows.shape} or not finite")
        else:
            # to leading order in the actions, omega_n^(1)* = -6 I_n
            I, om = rows[:, 1], rows[:, 3]
            if np.max(np.abs(om + 6.0 * I)) > 0.2 * 6.0 * max(np.max(I), 1e-300):
                fails.append(f"cli freq: omega1* far from -6 I: {om} vs {I}")

    if "hamiltonians" in ok:
        h = parsed["hamiltonians"]
        mine = hamiltonians(fft_state(pot, 64))
        for i, key in enumerate(("H0", "H1", "H2")):
            if abs(h[key] - mine[i]) > 1e-10 * abs(mine[i]):
                fails.append(f"cli hamiltonians: {key} = {h[key]!r}, integral gives {mine[i]!r}")
        # The program's estimate leaves out gaps below its detection floor;
        # each such gap k takes ~(2k pi)^3 I_k, I_k = gamma_k^2 / (8k pi), from
        # one route only. A flagged result passes when the Fourier gammas of
        # those gaps account for the route gap.
        hidden = sum((2 * k * math.pi) ** 3 * float(F[2][k]) ** 2 / (8 * k * math.pi)
                     for k in range(1, 21) if F[2][k] <= _floor_gamma(k, F[1][k], "float64"))
        gap = abs(h["H1_star"] - h["H1_star_subtraction"])
        if (abs(gap - h["route_gap_H1"]) > 1e-12 * max(1.0, abs(h["H1_star"]))
                or (h["flagged"] and gap > 4.0 * hidden)):
            fails.append(f"cli hamiltonians: H1* routes differ by {gap!r}, flagged, "
                         f"beyond the hidden gaps' share {hidden!r}")

    if "evolve" in ok:
        ev = parsed["evolve"]
        first = np.array(ev[0]["modes"]) @ np.array([1.0, 1j])
        h0 = hamiltonians(fft_state(pot, first.size))[0]
        if ev[0]["t"] != 0 or np.max(np.abs(first - fft_state(pot, first.size))) > 1e-15:
            fails.append("cli evolve: first sample is not the input potential at t = 0")
        drift = max(abs(0.5 * float(np.sum(np.array(s["modes"]) ** 2)) - h0) for s in ev)
        ts = [s["t"] for s in ev]
        if drift > 1e-8 * h0 or any(b <= a for a, b in zip(ts, ts[1:])):
            fails.append(f"cli evolve: H0 drifts {drift / h0:.3e} relative along the samples")

    if "resonance" in ok:
        res = parsed["resonance"]
        if res.get("A") != [1, 2] or res.get("offenders") != []:
            fails.append(f"cli resonance: offenders {res.get('offenders')}")

    if "seqtest" in ok:
        seq = parsed["seqtest"]
        if (seq.get("samples") != CLI_SEQ_SAMPLES or seq.get("inf_product_violations") != 0
                or not seq.get("op_G_worst_ratio", math.inf) <= 4.0):
            fails.append(f"cli seqtest: {seq}")

    if "flow-exp" in ok:
        fl = parsed["flow-exp"]
        lo, hi = CLI_FLOW_M
        if (fl[0] != ["m", "input_gap", "output_gap", "verdict"]
                or [int(r[0]) for r in fl[1:]] != list(range(lo, hi + 1))
                or not all(r[3] for r in fl[1:])):
            fails.append(f"cli flow-exp: table {fl[:2]}...")
    return fails


# ---------------------------------------------------------------------------
# the checks reject wrong values

def _bump_open_edge(out, key="lambda_plus"):
    bad = copy.deepcopy(out)
    n = max(i for i, g in enumerate(bad["gamma"]) if g is not None and LD(g) > 0)
    tol = 10.0 * bad["gamma_rel_err"][n] * float(LD(bad["gamma"][n]))
    bad[key][n] = str(LD(bad[key][n]) + LD(10.0 * tol))
    return bad


def _mutations(workload):
    """(what is wrong, function making the wrong copy) for each check."""
    if workload == "deep-ld":
        def law(o):
            o = copy.deepcopy(o)
            n = max(i for i, v in enumerate(o["I"]) if v > 0)
            o["I"][n] *= 1.2
            return o

        def flat(o):
            o = copy.deepcopy(o)
            o["omega1_star"][o["n_report"]] += 1e3 * abs(o["omega1_star"][8]) + 1.0
            return o
        return [("edge moved 10 x its tolerance", _bump_open_edge),
                ("lambda^- moved 10 x its tolerance", lambda o: _bump_open_edge(o, "lambda_minus")),
                ("action 20% off the gap law", law),
                ("flatness broken at n = 24", flat)]
    if workload == "family-f64":
        def edit(key, fn):
            def mut(o):
                o = copy.deepcopy(o)
                m = np.array(o[key])
                fn(m)
                o[key] = m.tolist()
                return o
            return mut

        def pos(m):
            m[0, 1] = m[1, 0] = 20.0
        return [("KdV diagonal 30% off", edit("kdv", lambda m: m.__setitem__((0, 0), -7.8))),
                ("KdV Jacobian not negative definite", edit("kdv", pos)),
                ("KdV2 diagonal 30% off", edit("kdv2", lambda m: m.__setitem__((2, 2), 1.3 * m[2, 2])))]
    if workload == "pde":
        def scale(eq, f):
            def mut(o):
                o = copy.deepcopy(o)
                o[eq]["last"][1] = [f * v for v in o[eq]["last"][1]]
                return o
            return mut

        def unreal(o):
            o = copy.deepcopy(o)
            o["kdv"]["last"][-1][1] += 1e-10
            return o
        return [("KdV H0 off by ~1e-7", scale("kdv", 1 + 1e-7)),
                ("KdV2 H0 off by ~1e-6", scale("kdv2", 1 + 1e-6)),
                ("state not real", unreal)]
    if workload == "cli":
        def p(name, fn):
            def mut(o):
                codes, parsed = copy.deepcopy(o)
                fn(codes, parsed[name]) if name else fn(codes, parsed)
                return codes, parsed
            return mut

        def edge(c, sp):
            n = max(i for i, g in enumerate(sp["gamma"]) if g)
            sp["lambda_plus"][n] += 100.0 * _f64_rel_err(sp)[n] * sp["gamma"][n]

        def routes(c, h):
            h["H1_star"] += 1e-3 * abs(h["H1"])
            h["route_gap_H1"] = abs(h["H1_star"] - h["H1_star_subtraction"])
            h["flagged"] = True

        def evo(c, ev):
            ev[-1]["modes"][1] = [v * (1 + 1e-6) for v in ev[-1]["modes"][1]]
        return [("unparseable seqtest output", p(None, lambda c, ps: ps.__setitem__("seqtest", "unparseable output"))),
                ("spectrum edge moved 10 x its tolerance", p("spectrum", edge)),
                ("action 20% off", p("actions", lambda c, a: a["I"].__setitem__(0, 1.2 * a["I"][0]))),
                ("freq row not finite", p("freq", lambda c, f: f["rows"][0].__setitem__(3, float("nan")))),
                ("H1 off by 1e-8", p("hamiltonians", lambda c, h: h.__setitem__("H1", h["H1"] * (1 + 1e-8)))),
                ("H1* routes apart", p("hamiltonians", routes)),
                ("evolve H0 off by 1e-6", p("evolve", evo)),
                ("resonance offender", p("resonance", lambda c, r: r["offenders"].append({"k_A": [1, 0]}))),
                ("seqtest violation", p("seqtest", lambda c, s: s.__setitem__("inf_product_violations", 1))),
                ("flow-exp row missing", p("flow-exp", lambda c, f: f.pop()))]
    raise ValueError(workload)


def run_check(workload, rnd, out):
    if workload == "deep-ld":
        return check_deep(rnd["potential"], out)
    if workload == "family-f64":
        return check_family(rnd, out)
    if workload == "pde":
        return check_pde(rnd, out)
    return check_cli(rnd, *out)


def self_check(workload, rnd, out):
    """Names of the wrong values that the checks let through."""
    return [what for what, mutate in _mutations(workload)
            if not run_check(workload, rnd, mutate(out))]
