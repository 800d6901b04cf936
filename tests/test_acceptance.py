"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import math
import time

import numpy as np
import pytest

from kdvfreq import bnf, flow, invariants as inv, pde, seqspace
from kdvfreq.potentials import make_potential


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_free_operator_suite():
    t0 = time.perf_counter()
    q0 = make_potential([], 0.0)
    rep = inv.frequency_report(q0, 16)
    spec = inv.spectrum_for(q0, 16)
    n = np.arange(1, 17)
    lam_err = float(np.max(np.abs(spec.lambda_plus[1:17].astype(float)
                                  / (n ** 2 * math.pi ** 2) - 1)))
    lam_err = max(lam_err, float(np.max(np.abs(
        spec.lambda_minus[1:17].astype(float) / (n ** 2 * math.pi ** 2) - 1))))
    I_max = float(np.max(rep.actions.I))
    w = 2 * n * math.pi
    om1_err = float(np.max(np.abs(rep.omega1[1:17] / w ** 3 - 1)))
    om2_err = float(np.max(np.abs(rep.omega2[1:17] / w ** 5 - 1)))
    elapsed = time.perf_counter() - t0
    ok = lam_err <= 1e-9 and I_max <= 1e-12 and om1_err <= 1e-9 \
        and om2_err <= 1e-9 and elapsed <= 60.0
    report(1, ok, f"lam rel {lam_err:.1e}, I max {I_max:.1e}, "
                  f"omega1 rel {om1_err:.1e}, omega2 rel {om2_err:.1e}, "
                  f"{elapsed:.1f} s")


def test_criterion_02_psi_normalization(spec_three, psis_three):
    om0 = inv.omega0_table(spec_three, psis_three, 12, 12)
    err = float(np.max(np.abs(om0[1:, 1:] - np.eye(12))))
    report(2, err <= 1e-6, f"max |Omega0/2pi - delta| = {err:.2e} over n,k <= 12")


def test_criterion_03_action_gap_law(pipe_two_03):
    spec, acts = pipe_two_03
    opens = [n for n in spec.open_indices() if n >= 4]
    dev_open = max(abs(acts.ratio[n] - 1.0) for n in opens)
    trend = [n * abs(acts.ratio[n] - 1.0) for n in range(4, 11)]
    monotone = all(b <= a * 1.02 + 1e-12 for a, b in zip(trend, trend[1:]))
    ok = dev_open <= 0.05 and monotone
    report(3, ok, f"open gaps n>=4 {opens}: max |8npiI/g^2 - 1| = {dev_open:.2e}; "
                  f"n-weighted trend {trend[0]:.2e} -> {trend[-1]:.2e} non-increasing")


@pytest.mark.parametrize("mode", [1, 2])
def test_criterion_04_quartic_matching(mode):
    ratios = {}
    for which in ("kdv", "kdv2"):
        defect = {}
        for eps in (0.1, 0.05):
            q = make_potential([(mode, eps)], 0.0)
            rep = inv.frequency_report(q, max(2 * mode, 4), psi_tol=1e-10)
            I = {k: rep.actions.I[k] for k in range(1, rep.actions.N + 1)
                 if rep.actions.I[k] > 0}
            _, om = bnf.bnf_predict(I, 0.0, which, nmax=rep.N)
            target = rep.omega1 if which == "kdv" else rep.omega2
            defect[eps] = abs(target[mode] - om[mode])
        ratios[which] = defect[0.1] / defect[0.05]
    ok = all(8.0 <= r <= 32.0 for r in ratios.values())
    report(4, ok, f"mode {mode}: defect ratios kdv {ratios['kdv']:.1f}, "
                  f"kdv2 {ratios['kdv2']:.1f} in [8, 32]")


def test_criterion_05_cross_oracle(q_crosscheck):
    rep = inv.frequency_report(q_crosscheck, 4)
    traj = pde.evolve(q_crosscheck, 0.05, "kdv")
    om1, _ = pde.measure_mode_frequency(traj, 2)
    rel1 = abs(om1 - rep.omega1[2]) / abs(rep.omega1[2])
    traj2 = pde.evolve(q_crosscheck, 0.002, "kdv2")
    om2, _ = pde.measure_mode_frequency(traj2, 2)
    rel2 = abs(om2 - rep.omega2[2]) / abs(rep.omega2[2])
    drift, _ = pde.isospectral_drift(q_crosscheck, traj, [1, 2, 3], samples=4)
    ok = rel1 <= 0.01 and rel2 <= 0.02 and drift <= 1e-6
    report(5, ok, f"omega2^(1) rel diff {rel1:.1e} (<=1%), "
                  f"omega2^(2) rel diff {rel2:.1e} (<=2%), gap drift {drift:.1e}")


def test_criterion_06_one_smoothing():
    q = make_potential([(1, 0.1)], 0.0)
    rows = pde.one_smoothing_gap(q, np.linspace(0.0, 1.0, 11), dt=1e-5, M=256)
    early = max(env for t, _, env in rows if t <= 0.5)
    late = max(env for _, _, env in rows)
    # calibrated envelope constant, regression-tested with 1.5x headroom
    ok = late <= 2.0 * early and late <= 0.011
    report(6, ok, f"envelope max {late:.2e} <= 2 x early max {early:.2e}, "
                  f"C <= 0.011")


def test_criterion_07_H2_star_identity(pipe_two_02_ld):
    rep = pipe_two_02_ld
    spec, mom, acts = rep.spectrum, rep.moments, rep.actions
    h = inv.hamiltonians(rep)
    rel = abs(h.H2_star - h.H2_star_subtraction) / abs(h.H2_star)
    sharp = [n for n in spec.open_indices() if spec.gamma_rel_err[n] <= 5e-7]
    worst_sharp = max(abs(mom.R[(n, 1)] - acts.I[n]) / acts.I[n] for n in sharp)
    worst_all = 0.0
    for n in spec.open_indices():
        d = abs(mom.R[(n, 1)] - acts.I[n]) / acts.I[n]
        worst_all = max(worst_all, d / max(1e-6, 4.0 * spec.gamma_rel_err[n]))
    ok = rel <= 1e-4 and len(sharp) >= 2 and worst_sharp <= 1e-6 and worst_all <= 1.0
    report(7, ok, f"H2* moment vs subtraction rel {rel:.2e} (<=1e-4); "
                  f"R=I rel {worst_sharp:.2e} (<=1e-6) on gaps {sharp}, "
                  f"noise-bounded on all open gaps")


def test_criterion_08_asymptotic_flatness(report_four):
    rep = report_four
    vals = {n: n * abs(rep.omega1_star[n] + 6.0 * rep.actions.I[n])
            for n in range(8, 25)}
    sup = max(vals.values())
    ok = sup <= 2.0 * vals[8]
    report(8, ok, f"sup(8<=n<=24) n|omega* + 6I| = {sup:.2e} <= "
                  f"2 x value at n=8 ({vals[8]:.2e})")


def test_criterion_09_appendix_d_suite():
    rep = bnf.comb_identities_check(30)
    sets_ok = True
    detail = []
    for A in ([1, 2], [1, 2, 3]):
        roots = bnf.singular_set(A)
        poles = [-(4.0 / 3.0) * math.pi ** 2 * i * i for i in sorted(A)]
        inter = len(roots) == len(A) and roots[-1] > 0
        for v, r in enumerate(roots[:-1]):
            # nu-th negative root between consecutive poles
            inter &= poles[len(A) - 1 - v] < r < poles[len(A) - 2 - v]
        resid_ok = all(abs(bnf.det_CA(c, A)) <= 1e-8 * bnf._det_scale(c, A)
                       for c in roots)
        sets_ok &= inter and resid_ok
        detail.append(f"S_{{{','.join(map(str, A))}}} interlaced, residual ok")
    offenders = bnf.resonance_scan([1, 2], 0, 6, 40)
    ok = rep["ok"] and sets_ok and offenders == []
    report(9, ok, f"identities exhaustive R=30 ({rep['triples']} triples, "
                  f"{rep['quadruples']} quadruples); {'; '.join(detail)}; "
                  f"resonance scan empty ({len(offenders)} offenders)")


def test_criterion_10_appendix_ab_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        x = rng.standard_normal(48)
        for p in (1.0, 2.0, math.inf):
            nx = seqspace.weighted_norm(x, 0.0, p)
            worst = max(worst, seqspace.weighted_norm(seqspace.op_G(x), 0.0, p) / nx)
    violations = 0
    for _ in range(500):
        a = rng.standard_normal(32)
        a *= rng.uniform(0.05, 0.3) / max(1.0, float(np.sum(np.abs(a))))
        val, bound = seqspace.inf_product(a, "bound")
        violations += abs(val - 1.0) > bound
    sp_err = abs(seqspace.sin_product(math.pi ** 2 / 4.0, 10_000) - 2.0 / math.pi) \
        / (2.0 / math.pi)
    ok = worst <= 4.0 and violations == 0 and sp_err <= 1e-4
    report(10, ok, f"op_G worst ratio {worst:.3f} <= 4 (500 samples, p=1,2,inf); "
                   f"{violations} bound violations; sin-product rel err {sp_err:.1e}")


def test_criterion_11_nonuniform_continuity():
    rows, du = flow.kdv_continuity_experiment(1.0 / 8.0, 1.0, 0.9,
                                              list(range(115, 132, 2)))
    desig = [r for r in rows if r.designated]
    kdv_ok = all(r.input_gap < 1e-3 and r.output_gap >= du / 2.0 for r in desig)
    rows_h, du_h, th_h = flow.kdv2_continuity_experiment(
        1.0, 1.0, "hs", 0.1, list(range(21, 30, 2)))
    hs_ok = all(r.input_gap < 1e-3 and r.output_gap >= th_h
                for r in rows_h if r.designated)
    rows_l, du_l, th_l = flow.kdv2_continuity_experiment(
        0.5, 1.0, "level-set", 0.08, list(range(21, 30, 2)))
    lv_ok = all(r.input_gap < 1e-3 and r.output_gap >= th_l
                for r in rows_l if r.designated)
    ok = kdv_ok and hs_ok and lv_ok and desig and any(r.designated for r in rows_h) \
        and any(r.designated for r in rows_l)
    report(11, ok, f"kdv: in<1e-3, out>=delta/2={du / 2:.3f} at designated m; "
                   f"kdv2-hs: out>={th_h:.3f}; kdv2-level-set: out>={th_l:.4f}")


def test_criterion_12_jacobian_concavity(jacobian_pair):
    jk, j2 = jacobian_pair
    A = jk.A
    diag_k = np.diag(jk.jac)
    off_k = jk.jac - np.diag(diag_k)
    kdv_ok = np.max(np.abs(diag_k + 6.0)) <= 0.2 * 6.0 \
        and np.max(np.abs(off_k)) <= 0.2 * 6.0
    want2 = np.array([-80.0 * math.pi ** 2 * n * n for n in A])
    diag_2 = np.diag(j2.jac)
    off_2 = np.abs(j2.jac - np.diag(diag_2))
    kdv2_ok = np.max(np.abs(diag_2 / want2 - 1.0)) <= 0.2 \
        and bool(np.all(off_2 <= 0.2 * np.abs(diag_2)[:, None]))
    neg = jk.negative_definite
    ok = kdv_ok and kdv2_ok and neg
    report(12, ok, f"KdV jac diag within {np.max(np.abs(diag_k + 6)):.1e} of -6, "
                   f"offdiag max {np.max(np.abs(off_k)):.1e}; KdV2 diag rel "
                   f"{np.max(np.abs(diag_2 / want2 - 1)):.1e} of -80n^2pi^2; "
                   f"symmetrized KdV Jacobian negative definite: {neg}")
