import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from kdvfreq import invariants as inv
from kdvfreq.errors import ValidationError
from kdvfreq.potentials import (cosine_sum, evaluate, evaluate_derivative,
                                make_potential, single_mode)
from kdvfreq.roots import condition_integral, psi_solve

from oracles import (moment_without_shortcircuit, moments_per_gap,
                     r_moment_without_shortcircuit, rectangle_action)


@pytest.fixture(scope="module")
def pipe_single():
    q = single_mode(1, 0.05)
    spec = inv.spectrum_for(q, 4)
    psis = {n: inv.psi_for(spec, n) for n in range(1, 5)}
    mom = inv.moments(spec, psis, 4)
    acts = inv.action_vector(spec)
    return q, spec, psis, mom, acts


def test_actions_free():
    q = make_potential([], 0.0)
    spec = inv.spectrum_for(q, 6)
    acts = inv.action_vector(spec)
    assert np.all(acts.I == 0.0)


def test_action_leading_order(pipe_single):
    q, spec, _, _, acts = pipe_single
    g = float(spec.gamma[1])
    assert acts.I[1] == pytest.approx(g * g / (8 * math.pi), rel=0.02)
    assert acts.err[1] <= 1e-6 * max(acts.I[1], 1e-12)


def test_action_vs_rectangle_oracle():
    q = cosine_sum([(1, 0.2), (2, 0.2)])
    spec = inv.spectrum_for(q, 8)
    acts = inv.action_vector(spec)
    want, imag = rectangle_action(q, spec, 1)
    assert imag < 1e-8 * max(1.0, abs(want))
    assert acts.I[1] == pytest.approx(want, rel=1e-5)


def test_action_vector_rejects_N_past_the_spectrum(pipe_single):
    _, spec, _, _, _ = pipe_single
    with pytest.raises(ValidationError):
        inv.action_vector(spec, N=spec.N + 1)


@pytest.mark.parametrize("k", [-1, 0, 13])
def test_gap_index_outside_the_spectrum_rejected(k):
    spec = inv.spectrum_for(cosine_sum([(1, 0.2), (2, 0.2)]), 12)
    assert spec.N == 12
    psi = psi_solve(spec, 1)
    with pytest.raises(ValidationError, match="outside spectrum range 1..12"):
        condition_integral(psi, k)


def test_action_nonnegative_and_zero_iff_collapsed():
    q = cosine_sum([(1, 0.2), (2, 0.2)])
    spec = inv.spectrum_for(q, 8)
    acts = inv.action_vector(spec)
    for n in range(1, 9):
        assert acts.I[n] >= -1e-12
        if not spec.open_gap[n]:
            assert acts.I[n] == 0.0
        else:
            assert acts.I[n] > 0.0


def test_moment_identity_row(pipe_single):
    q, spec, psis, mom, acts = pipe_single
    om0 = inv.omega0_table(psis)
    assert np.max(np.abs(om0[1:, 1:] - np.eye(4))) < 1e-8


def test_moment_collapsed_columns_zero(pipe_single):
    q, spec, psis, mom, _ = pipe_single
    for k in range(1, mom.K + 1):
        if not spec.open_gap[k]:
            assert np.all(mom.omega2[:, k] == 0.0)
            assert np.all(mom.omega4[:, k] == 0.0)
            assert mom.R[(k, 1)] == 0.0


def test_moment_diagonal_scaling():
    # one-gap potential: Omega_nn^(2) ~ gamma^2/(16 n^2 pi) and
    # n Omega_nn^(4) ~ (3/(16 n pi)) gamma^4/(64 n^2 pi^2)
    n = 1
    q = single_mode(n, 0.02)
    spec = inv.spectrum_for(q, 4)
    psis = {m: inv.psi_for(spec, m) for m in range(1, 5)}
    mom = inv.moments(spec, psis, 4)
    g = float(spec.gamma[n])
    assert mom.omega2[n, n] == pytest.approx(g ** 2 / (16 * n * n * math.pi), rel=0.10)
    want4 = (3.0 / (16 * n * math.pi)) * g ** 4 / (64 * n ** 2 * math.pi ** 2)
    assert n * mom.omega4[n, n] == pytest.approx(want4, rel=0.15)


def test_R1_equals_action(pipe_single):
    q, spec, psis, mom, acts = pipe_single
    for n in spec.open_indices():
        if spec.gamma_rel_err[n] < 1e-7 and float(spec.gamma[n]) > 1e-6:
            assert mom.R[(n, 1)] == pytest.approx(acts.I[n], rel=1e-6)


def test_odd_even_shortcircuit_spot_check(pipe_single):
    q, spec, psis, mom, _ = pipe_single
    k = spec.open_indices()[0]
    val = moment_without_shortcircuit(spec, psis[1], k, 3)
    scale = abs(mom.omega2[1, k]) + 1e-12
    assert abs(val) <= 1e-9 * max(1.0, scale)
    val_r = r_moment_without_shortcircuit(spec, k, 2)
    assert abs(val_r) <= 1e-9


def test_freq_free_exact():
    q = make_potential([], 0.0)
    rep = inv.frequency_report(q, 6)
    n = np.arange(1, 7)
    w = 2 * n * math.pi
    assert np.max(np.abs(rep.omega1[1:] / w ** 3 - 1)) < 1e-12
    assert np.max(np.abs(rep.omega2[1:] / w ** 5 - 1)) < 1e-12


def test_freq_leading_order(pipe_single):
    q, spec, psis, mom, acts = pipe_single
    o1s, _, o2s, _ = inv.frequency_sums(spec, mom)
    o1 = o1s[1]
    # omega1* = -6 I_1 + O(eps^4)
    assert o1 == pytest.approx(-6 * acts.I[1], abs=5e-6)
    o2 = o2s[1]
    assert o2 == pytest.approx(-20 * (2 * math.pi) ** 2 * acts.I[1], rel=5e-3)


def test_freq_report_mean_shift():
    c = 0.3
    q0 = single_mode(1, 0.05)
    qc = cosine_sum([(1, 0.05)], mean=c)
    r0 = inv.frequency_report(q0, 3)
    rc = inv.frequency_report(qc, 3)
    n = np.arange(0, 4)
    w = 2 * n * math.pi
    assert np.allclose(rc.omega1[1:], r0.omega1[1:] + 6 * c * w[1:], rtol=1e-12)
    want2 = r0.omega2[1:] + 10 * c * w[1:] ** 3 + 30 * c * c * w[1:] \
        + 10 * c * r0.omega1_star[1:]
    assert np.allclose(rc.omega2[1:], want2, rtol=1e-12)


def test_sigma_vs_tau_sensitivity():
    # replacing the solved sigma by tau changes omega1* by less than the
    # reported tail estimate at small amplitude; the substituted psi is
    # evaluated in the oracles' product form
    q = single_mode(1, 0.05)
    spec = inv.spectrum_for(q, 4)
    psis = {n: inv.psi_for(spec, n) for n in range(1, 5)}
    mom = inv.moments(spec, psis, 4)
    o1s, tails, _, _ = inv.frequency_sums(spec, mom)
    o1, tail = o1s[1], tails[1]
    lazy = {}
    for n, p in psis.items():
        sig = p.sigma.copy()
        for k in spec.open_indices():
            if k != n:
                sig[k] = spec.tau[k]
        lazy[n] = SimpleNamespace(n=n, sigma=sig, rho=p.rho)
    om2, om4, R = moments_per_gap(spec, lazy, 4)
    o1b = inv.frequency_sums(spec, inv.MomentTable(om2, om4, R, 4, spec.N))[0][1]
    assert o1 != o1b                      # the moments read the substituted roots
    assert abs(o1 - o1b) <= tail + 1e-10


def test_hamiltonian_direct_values():
    q = single_mode(1, 0.1)
    h = inv.hamiltonians(inv.frequency_report(q, 4).spectrum)
    # q = 0.2 cos(2 pi x): H0 = 0.01, H1 = (2 pi)^2 * 0.01 (cubic integrates to 0)
    assert h.H0 == pytest.approx(0.01, rel=1e-12)
    assert h.H1 == pytest.approx((2 * math.pi) ** 2 * 0.01, rel=1e-12)


def test_hamiltonian_routes_agree_on_a_gap_below_the_shooting_floor():
    # modes 1-3 at amplitude <= 0.1: gap 4 (gamma ~ 1.2e-4) lies below the
    # float64 shooting floor, where it was reported collapsed and the H1*
    # routes differed by 4.5e-6 (flagged); the matrix spectrum resolves it
    u = make_potential([(1, 0.07243588709191993 + 0.04065171227962779j),
                        (2, 0.06950042792189133 - 0.03401630657417024j),
                        (3, -0.0015978232395252579 + 0.0697299482861864j)])
    rep = inv.frequency_report(u, 8)
    h = inv.hamiltonians(rep.spectrum)
    assert rep.spectrum.open_gap[4]
    assert not h.flagged
    assert h.route_gap_H1 <= 1e-11 * h.H1
    assert h.route_gap_H2 <= 1e-11 * h.H2


def test_hamiltonians_moment_route_is_the_report_R_sum():
    rep = inv.frequency_report(cosine_sum([(1, 0.1), (2, 0.05)]), 6)
    h = inv.hamiltonians(rep.spectrum)
    R = rep.moments.R
    H1 = H2 = 0.0
    for k in range(1, rep.spectrum.N + 1):
        wk = 2.0 * k * math.pi
        H1 += -4.0 * wk * R[(k, 3)]
        H2 += -(40.0 / 3.0) * wk ** 3 * R[(k, 3)] + 16.0 * wk * R[(k, 5)]
    assert H1 != 0 and H2 != 0
    assert h.H1_star == H1
    assert h.H2_star == H2


def test_H0_action_identity():
    q = cosine_sum([(1, 0.2), (2, 0.2)])
    spec = inv.spectrum_for(q, 8, dtype=np.longdouble)
    acts = inv.action_vector(spec)
    H0_sum = sum(2 * n * math.pi * acts.I[n] for n in range(1, acts.N + 1))
    grid = np.arange(4096) / 4096.0
    from kdvfreq.potentials import evaluate
    H0 = 0.5 * float(np.mean(evaluate(q, grid) ** 2))
    assert H0_sum == pytest.approx(H0, rel=1e-5)


def test_hamiltonians_of_the_zero_mean_part():
    # the report removes the mean, so H of u is the direct H of u - 0.2
    u = cosine_sum([(1, 0.1)], mean=0.2)
    h = inv.hamiltonians(inv.frequency_report(u, 4).spectrum)
    x = np.arange(4096) / 4096.0
    q = evaluate(u, x) - 0.2
    qx = evaluate_derivative(u, x, 1)
    qxx = evaluate_derivative(u, x, 2)
    assert h.H0 == pytest.approx(0.5 * np.mean(q ** 2), rel=1e-12)
    assert h.H1 == pytest.approx(0.5 * np.mean(qx ** 2 + 2 * q ** 3), rel=1e-12)
    assert h.H2 == pytest.approx(
        0.5 * np.mean(qxx ** 2 + 10 * q * qx ** 2 + 5 * q ** 4), rel=1e-12)
    with pytest.raises(ValidationError):
        inv.hamiltonians(inv.spectrum_for(u, 4))


def test_freq_zero_potential_tail_zero():
    q = make_potential([], 0.0)
    spec = inv.spectrum_for(q, 4)
    psis = {n: inv.psi_for(spec, n) for n in range(1, 5)}
    mom = inv.moments(spec, psis, 4)
    o1s, tails, _, _ = inv.frequency_sums(spec, mom)
    o1, tail = o1s[1], tails[1]
    assert o1 == 0.0
    assert tail >= 0.0


def test_sharpness_probe_recorded():
    # rough mode profile at s = -0.4: n^(1+2s) |omega1*| recorded; only basic
    # sanity is asserted (finite, nonzero on driven range)
    from kdvfreq.potentials import rough_profile
    q = rough_profile(-0.4, 6, amp=0.05)
    rep = inv.frequency_report(q, 6)
    s = -0.4
    probe = [n ** (1 + 2 * s) * abs(rep.omega1_star[n]) for n in range(1, 7)]
    print("sharpness probe n^(1+2s)|omega1*|:", [f"{v:.3e}" for v in probe])
    assert all(np.isfinite(v) for v in probe)
    assert probe[0] > 0


def test_kdv2_renormalized_decay_monitor(report_four):
    # |omega2* + 80 n^2 pi^2 I_n| monitored over n: recorded with an envelope
    # fit; hard-asserted only where the values dominate the solve noise
    rep = report_four
    vals = [abs(rep.omega2_star[n] + 80.0 * n * n * math.pi ** 2 * rep.actions.I[n])
            for n in range(1, 13)]
    print("kdv2 renormalized decay:", [f"{v:.3e}" for v in vals])
    assert all(np.isfinite(v) for v in vals)
    # beyond the driven gaps the sequence stays below its n <= 4 peak
    assert max(vals[4:]) <= max(vals[:4])


MEMO_JAC = dict(A=(1, 2), h=0.01, base_eps=0.07, N=4)


def test_kdv2_jacobian_after_kdv_makes_no_report(monkeypatch):
    made = []
    report = inv.frequency_report

    def spy(u, N, **kwargs):
        made.append(u)
        return report(u, N, **kwargs)

    monkeypatch.setattr(inv, "frequency_report", spy)
    inv._family_point.cache_clear()
    inv.frequency_jacobian(which="kdv", **MEMO_JAC)
    assert len(made) == 2 * len(MEMO_JAC["A"]) + 1
    inv.frequency_jacobian(which="kdv2", **MEMO_JAC)
    assert len(made) == 2 * len(MEMO_JAC["A"]) + 1


def test_cold_kdv2_jacobian_equals_warm():
    inv.frequency_jacobian(which="kdv", **MEMO_JAC)
    warm = inv.frequency_jacobian(which="kdv2", **MEMO_JAC)
    inv._family_point.cache_clear()
    cold = inv.frequency_jacobian(which="kdv2", **MEMO_JAC)
    for a, b in ((warm.jac, cold.jac), (warm.sym_eigs, cold.sym_eigs),
                 (warm.I_base, cold.I_base)):
        assert np.array_equal(a, b)


def _no_report(u, N):
    raise AssertionError("a report was made before the arguments were checked")


@pytest.mark.parametrize("which", ["kdv3", "KdV", ""])
def test_jacobian_rejects_unknown_which(monkeypatch, which):
    # "kdv3" used to return the KdV2 Jacobian
    monkeypatch.setattr(inv, "_family_point", _no_report)
    with pytest.raises(ValidationError, match="which must be 'kdv' or 'kdv2'"):
        inv.frequency_jacobian(which=which, **MEMO_JAC)


@pytest.mark.parametrize("h", [0.0, -0.0, math.inf, -math.inf, math.nan])
def test_jacobian_rejects_zero_or_nonfinite_step(monkeypatch, h):
    # h = 0 used to end in an SVD that did not converge
    monkeypatch.setattr(inv, "_family_point", _no_report)
    with pytest.raises(ValidationError, match="finite and nonzero"):
        inv.frequency_jacobian(which="kdv", **dict(MEMO_JAC, h=h))


@pytest.mark.parametrize("A", [(1, 1), (0, 1), (-1, 2)])
def test_jacobian_rejects_repeated_or_nonpositive_index(monkeypatch, A):
    # these used to make reports and then fail as "ill-conditioned"
    made = []
    monkeypatch.setattr(inv, "frequency_report", lambda *a, **k: made.append(a))
    inv._family_point.cache_clear()
    with pytest.raises(ValidationError, match="distinct and at least 1"):
        inv.frequency_jacobian(which="kdv", **dict(MEMO_JAC, A=A))
    assert made == []


def test_jacobian_rejects_N_below_the_index_set(monkeypatch):
    # N = 3 < max(A) = 5 used to make a report and then raise IndexError
    made = []
    monkeypatch.setattr(inv, "frequency_report", lambda *a, **k: made.append(a))
    inv._family_point.cache_clear()
    with pytest.raises(ValidationError, match="below the largest index"):
        inv.frequency_jacobian((1, 5), h=0.01, N=3)
    assert made == []


def test_family_memo_misses_on_N_and_on_one_coefficient():
    q = cosine_sum([(1, 0.07), (2, 0.05)])
    inv._family_point.cache_clear()
    inv._family_point(q, 4)
    inv._family_point(q, 5)
    inv._family_point(cosine_sum([(1, 0.07), (2, 0.0500001)]), 4)
    assert inv._family_point.cache_info().misses == 3
    inv._family_point(q, 4)
    assert inv._family_point.cache_info().hits == 1


def test_family_memo_arrays_are_read_only():
    for a in inv._family_point(cosine_sum([(1, 0.07)]), 4):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[1] = 0.0


# ---------------------------------------------------------------------------
# dH*/deps = sum_n omega_n* dI_n/deps along a family (omega = dH/dI)

H_STEPS = (2e-3, 1e-3, 5e-4)


@lru_cache(maxsize=None)
def _identity_point(eps):
    """Actions, both stars and H* (subtraction route) of
    {1: 0.2 + eps, 2: 0.2 - eps/2, 3: 0.1 + 0.3 eps} at N = 24, long double."""
    q = cosine_sum([(1, 0.2 + eps), (2, 0.2 - eps / 2), (3, 0.1 + 0.3 * eps)])
    rep = inv.frequency_report(q, 24, dtype=np.longdouble)
    h = inv.hamiltonians(rep.spectrum)
    return (rep.actions.I, {"kdv": rep.omega1_star, "kdv2": rep.omega2_star},
            {"kdv": h.H1_star_subtraction, "kdv2": h.H2_star_subtraction})


@pytest.mark.parametrize("which", ["kdv", "kdv2"])
def test_hamiltonian_derivative_is_the_frequency_sum(which):
    # the defect dH*/deps - sum_n omega_n* dI_n/deps at eps = 0 by central
    # differences at the steps H_STEPS, h^2 removed by Richardson on both
    # pairs; the two Richardson values differ by what neither removes (the
    # h^4 term and the rounding of H* over h), and their mean must lie within
    # that change of 0
    if np.finfo(np.longdouble).eps > 1e-17:
        pytest.skip("needs 80-bit longdouble")
    _, omega, _ = _identity_point(0.0)

    def defect(h):
        Ip, _, Hp = _identity_point(h)
        Im, _, Hm = _identity_point(-h)
        return (Hp[which] - Hm[which]) / (2 * h) - np.sum(omega[which] * (Ip - Im) / (2 * h))

    d = [defect(h) for h in H_STEPS]
    r1, r2 = (4 * d[1] - d[0]) / 3, (4 * d[2] - d[1]) / 3
    assert abs(r1 + r2) / 2 <= abs(r1 - r2), (r1, r2)
