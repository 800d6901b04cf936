import math

import numpy as np
import pytest

from kdvfreq import pde
from kdvfreq.errors import PhaseWrapError, ValidationError
from kdvfreq.potentials import (cosine_sum, evaluate, evaluate_derivative,
                                make_potential, single_mode)
from oracles import padded_etdrk4


def band_potential(M):
    """A mean plus up to three modes, all inside the dealiased band."""
    pairs = [(n, complex(0.04 / n, 0.01 * n)) for n in range(1, min(4, M // 3))]
    return make_potential(pairs, 0.1)


@pytest.fixture(scope="module")
def kdv_run():
    q = single_mode(2, 0.05)
    return q, pde.evolve(q, 0.01, "kdv", dt=1e-5, M=128)


def test_airy_exact_phases():
    q = cosine_sum([(1, 0.08), (3, 0.02)])
    traj = pde.evolve(q, 0.02, "airy", dt=2e-4, M=64)
    for n in (1, 3):
        w = (2 * math.pi * n) ** 3
        want = q.coeff(n) * np.exp(1j * w * traj.times)
        got = traj.mode_series(n)
        assert np.max(np.abs(got - want)) < 1e-12


def test_airy_measured_frequency():
    q = single_mode(1, 0.1)
    traj = pde.evolve(q, 0.05, "airy", dt=1e-4, M=64)
    om, resid = pde.measure_mode_frequency(traj, 1)
    assert om == pytest.approx((2 * math.pi) ** 3, rel=1e-10)
    assert resid < 1e-10


def test_kdv_conservation(kdv_run):
    q, traj = kdv_run
    h0 = pde.grid_hamiltonians(traj.state(0))
    h1 = pde.grid_hamiltonians(traj.state(len(traj.times) - 1))
    assert abs(h1["H0"] - h0["H0"]) <= 1e-8 * h0["H0"]
    assert abs(h1["H1"] - h0["H1"]) <= 1e-8 * abs(h0["H1"])


def test_kdv2_conservation():
    q = single_mode(1, 0.05)
    traj = pde.evolve(q, 2e-4, "kdv2", dt=2e-7, M=128)
    h0 = pde.grid_hamiltonians(traj.state(0))
    h1 = pde.grid_hamiltonians(traj.state(len(traj.times) - 1))
    assert abs(h1["H0"] - h0["H0"]) <= 1e-7 * h0["H0"]


def test_reality_and_mean_preserved(kdv_run):
    _, traj = kdv_run
    last = traj.state(len(traj.times) - 1)
    assert last.reality_defect() < 1e-13
    assert abs(traj.states[-1][0] - traj.states[0][0]) == 0.0


def test_fourth_order_convergence():
    q = single_mode(1, 0.1)
    ref = pde.evolve(q, 1e-3, "kdv", dt=1.25e-6, M=64).states[-1]
    e_coarse = np.max(np.abs(pde.evolve(q, 1e-3, "kdv", dt=2e-5, M=64).states[-1] - ref))
    e_fine = np.max(np.abs(pde.evolve(q, 1e-3, "kdv", dt=1e-5, M=64).states[-1] - ref))
    assert e_coarse / e_fine >= 8.0


def test_measured_kdv_shift_matches_action(kdv_run):
    # arg u_2 rotates at (4 pi)^3 - 6 I_2 + h.o.t.
    q, _ = kdv_run
    traj = pde.evolve(q, 0.05, "kdv", dt=1e-5, M=128)
    om, _ = pde.measure_mode_frequency(traj, 2)
    from kdvfreq import invariants as inv
    spec = inv.spectrum_for(q, 4)
    acts = inv.action_vector(spec)
    shift = om - (4 * math.pi) ** 3
    assert shift == pytest.approx(-6 * acts.I[2], rel=0.01)


def test_phase_wrap_guard():
    q = single_mode(2, 0.05)
    traj = pde.evolve(q, 0.01, "kdv", dt=1e-5, M=64, stride=250)
    # (4 pi)^3 * 2.5e-3 per sample >> pi
    with pytest.raises(PhaseWrapError):
        pde.measure_mode_frequency(traj, 2)


def test_mode_amplitude_guard(kdv_run):
    _, traj = kdv_run
    with pytest.raises(ValidationError):
        pde.measure_mode_frequency(traj, 17)


def test_isospectral_drift_zero_airy():
    q = make_potential([], 0.0)
    traj = pde.evolve(q, 0.01, "airy", dt=1e-3, M=64)
    drift, _ = pde.isospectral_drift(traj, [1, 2], samples=3)
    assert drift == 0.0


def test_isospectral_drift_kdv_small():
    q = single_mode(1, 0.1)
    traj = pde.evolve(q, 0.01, "kdv", dt=1e-5, M=128)
    drift, table = pde.isospectral_drift(traj, [1, 2], samples=3)
    assert drift <= 1e-7
    assert table


def test_one_smoothing_zero_time():
    q = single_mode(1, 0.1)
    rows = pde.one_smoothing_gap(q, [0.0])
    assert rows[0][1] == 0.0


def test_one_smoothing_zero_potential():
    q = make_potential([], 0.0)
    rows = pde.one_smoothing_gap(q, [0.0, 0.05], dt=1e-4, M=64)
    assert all(gap == pytest.approx(0.0, abs=1e-12) for _, gap, _ in rows)


def test_one_smoothing_short_grid():
    # gap vanishes at t=0 and is strictly positive later (it oscillates
    # rather than growing monotonically at short times)
    q = single_mode(1, 0.1)
    rows = pde.one_smoothing_gap(q, [0.0, 0.01, 0.02], dt=1e-5, M=128)
    gaps = [g for _, g, _ in rows]
    assert gaps[0] == 0.0 and min(gaps[1:]) > 0


def test_state_to_potential_roundtrip():
    q = cosine_sum([(1, 0.07), (2, 0.03)], mean=0.1)
    traj = pde.evolve(q, 1e-4, "airy", dt=1e-4, M=64)
    back = pde.state_to_potential(traj.state(0), max_mode=4)
    assert back.mean == pytest.approx(0.1, abs=1e-14)
    assert back.coeff(1) == pytest.approx(0.07, abs=1e-13)
    assert back.coeff(2) == pytest.approx(0.03, abs=1e-13)


def test_grid_validation():
    with pytest.raises(ValidationError):
        pde.evolve(single_mode(1, 0.1), 0.01, "kdv", M=100)
    with pytest.raises(ValidationError):
        pde.evolve(single_mode(1, 0.1), 0.01, "heat")


@pytest.mark.parametrize("bad", [
    dict(T=-0.01), dict(T=0.0), dict(T=math.inf), dict(T=math.nan),
    dict(dt=-1e-5), dict(dt=0.0), dict(dt=math.inf), dict(dt=math.nan),
    dict(stride=0), dict(stride=-1),
])
def test_step_validation(bad):
    # a negative dt used to take one step of T, a negative T to run backward,
    # and stride 0 to divide by zero
    args = dict(T=0.05, dt=1e-5, stride=None) | bad
    with pytest.raises(ValidationError, match=next(iter(bad))):
        pde.evolve(single_mode(1, 0.05), args["T"], "kdv", dt=args["dt"],
                   stride=args["stride"])


def test_kdv2_conservation_stated_horizon():
    # H0 drift <= 1e-7 over T = 0.01 for a small potential
    q = single_mode(1, 0.05)
    traj = pde.evolve(q, 0.01, "kdv2", dt=4e-7, M=128)
    h0 = pde.grid_hamiltonians(traj.state(0))
    h1 = pde.grid_hamiltonians(traj.state(len(traj.times) - 1))
    assert abs(h1["H0"] - h0["H0"]) <= 1e-7 * h0["H0"]


def test_isospectral_drift_kdv2():
    # amplitude 0.05, T = 0.005: gap drift <= 1e-5
    q = single_mode(1, 0.05)
    traj = pde.evolve(q, 0.005, "kdv2", dt=4e-7, M=128)
    drift, _ = pde.isospectral_drift(traj, [1, 2], samples=3)
    assert drift <= 1e-5


@pytest.mark.parametrize("eq, M", [("kdv", 64), ("kdv", 256), ("kdv2", 128),
                                   ("kdv", 1), ("kdv", 2), ("kdv", 4),
                                   ("kdv2", 1), ("kdv2", 2), ("kdv2", 4)])
def test_step_matches_padded_reference(eq, M):
    # the retained-band real-FFT step against products zero-padded to 2M
    # complex points and masked to |n| <= M/3, over 200 steps
    q = band_potential(M)
    dt = pde.DEFAULTS[eq]["dt"]
    want = padded_etdrk4(q, eq, dt, M, 200)
    got = pde.evolve(q, 200 * dt, eq, dt=dt, M=M).states[-1]
    assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * np.max(np.abs(want))


@pytest.mark.parametrize("eq, M", [("kdv", 64), ("kdv2", 128)])
def test_stored_states_band_limited_and_real(eq, M):
    q = band_potential(M)
    dt = pde.DEFAULTS[eq]["dt"]
    traj = pde.evolve(q, 300 * dt, eq, dt=dt, M=M, stride=50)
    R = M // 3
    assert len(traj.times) == 7
    assert np.all(traj.states[:, R + 1:M - R] == 0)
    assert np.all(traj.states[1:, R] != 0)      # the products reach the band edge
    for i in range(len(traj.times)):
        assert traj.state(i).reality_defect() == 0.0


def test_grid_hamiltonians_match_direct_quadrature():
    q = cosine_sum([(1, 0.1), (3, 0.05)], mean=0.2)
    h = pde.grid_hamiltonians(pde.GridState(64, pde.potential_to_state(q, 64), 0.0))
    x = np.arange(4096) / 4096.0
    u = evaluate(q, x)
    ux = evaluate_derivative(q, x, 1)
    uxx = evaluate_derivative(q, x, 2)
    assert h["H0"] == pytest.approx(0.5 * np.mean(u ** 2), rel=1e-12)
    assert h["H1"] == pytest.approx(0.5 * np.mean(ux ** 2 + 2 * u ** 3), rel=1e-12)
    assert h["H2"] == pytest.approx(
        0.5 * np.mean(uxx ** 2 + 10 * u * ux ** 2 + 5 * u ** 4), rel=1e-12)
