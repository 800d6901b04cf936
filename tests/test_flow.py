import cmath
import math

import numpy as np
import pytest

from kdvfreq.errors import ValidationError
from kdvfreq.flow import (BirkhoffState, crossover_index, flow_map,
                          kdv2_continuity_experiment, kdv_continuity_experiment,
                          kdv_full_frequencies, kdv_star_frequencies)


def sample_state():
    return BirkhoffState.real_state([(1, 0.3 + 0.1j), (2, 0.05), (5, 0.01j)])


def test_state_reality_and_actions():
    z = sample_state()
    assert z.is_real(1e-15)
    assert z.action(1) == pytest.approx(abs(0.3 + 0.1j) ** 2, rel=1e-14)
    assert z.action(3) == 0.0


def test_flow_identity_at_t0():
    z = sample_state()
    out = flow_map(z, 0.0, kdv_full_frequencies)
    assert out.z == z.z


def test_flow_preserves_moduli():
    z = sample_state()
    out = flow_map(z, 0.37, kdv_full_frequencies)
    for n in z.z:
        assert abs(out.z[n]) == pytest.approx(abs(z.z[n]), rel=1e-15)
        assert out.action(abs(n)) == pytest.approx(z.action(abs(n)), rel=1e-12)


def test_flow_group_property():
    z = sample_state()
    freq = kdv_full_frequencies
    t, s = 0.21, 0.13
    once = flow_map(z, t + s, freq)
    twice = flow_map(flow_map(z, s, freq), t, freq)
    for n in z.z:
        assert abs(once.z[n] - twice.z[n]) <= 1e-12 * max(1.0, abs(once.z[n]))


def test_flow_homeomorphism_inverse():
    z = sample_state()
    freq = kdv_star_frequencies
    back = flow_map(flow_map(z, 0.8, freq), -0.8, freq)
    for n in z.z:
        assert back.z[n] == pytest.approx(z.z[n], rel=1e-14)


def test_flow_continuity_in_t():
    z = sample_state()
    freq = kdv_star_frequencies
    last = math.inf
    for t in (1e-1, 1e-3, 1e-5):
        gap = flow_map(z, t, freq).diff_norm(z, 0.5)
        assert gap < last
        last = gap
    assert last < 1e-3


def test_kdv_experiment_rows():
    ms = [4, 6, 8, 10, 12, 20, 31]
    rows, du = kdv_continuity_experiment(1.0 / 8.0, 1.0, 0.8, ms)
    by_m = {r.m: r for r in rows}
    # input gap decreasing beyond m = 6
    gaps = [by_m[m].input_gap for m in ms if m >= 6]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # designated rows separate by delta/2
    for r in rows:
        if r.designated:
            assert r.output_gap >= du / 2.0
            assert r.verdict == "separated"
    # exact input-gap formula sqrt(2) delta sqrt(m) n^-sigma
    for m in ms:
        want = math.sqrt(2.0) * du * math.sqrt(m) * (2.0 ** m) ** (-0.125)
        assert by_m[m].input_gap == pytest.approx(want, rel=1e-12)


def test_kdv_experiment_delta_zero():
    rows, du = kdv_continuity_experiment(0.125, 1.0, 0.0, [3, 5])
    assert du == 0.0
    assert all(r.input_gap == 0.0 and r.output_gap == 0.0 for r in rows)


def test_kdv_experiment_crossover():
    ms = list(range(3, 42, 2))
    rows, _ = kdv_continuity_experiment(0.125, 1.0, 0.8, ms)
    m_star = crossover_index(rows)
    assert m_star is not None
    # and the crossover persists: inputs shrink, outputs stay >= delta/2


def test_kdv_experiment_validation():
    with pytest.raises(ValidationError):
        kdv_continuity_experiment(0.3, 1.0, 0.5, [4])
    with pytest.raises(ValidationError):
        kdv_continuity_experiment(0.125, -1.0, 0.5, [4])


def test_kdv2_hs_variant():
    ms = [5, 9, 13, 17, 21]
    rows, du, thresh = kdv2_continuity_experiment(1.0, 1.0, "hs", 0.1, ms)
    for r in rows:
        if r.designated:
            assert r.output_gap >= thresh
    gaps = [r.input_gap for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2


def test_kdv2_level_set_conserves_H0():
    ms = [5, 9, 13]
    sigma, t = 0.5, 1.0
    # conservation is asserted inside; a failure raises
    rows, du, thresh = kdv2_continuity_experiment(sigma, t, "level-set", 0.05, ms)
    for r in rows:
        if r.designated:
            assert r.output_gap >= thresh
    assert thresh == pytest.approx(du / 2.0)


def test_kdv2_t0_divergence_zero():
    z = BirkhoffState.real_state([(1, 0.2), (4, 0.1)])
    from kdvfreq.flow import kdv2_star_frequencies
    out = flow_map(z, 0.0, kdv2_star_frequencies)
    assert out.diff_norm(z, 0.5) == 0.0


def test_kdv2_variant_validation():
    with pytest.raises(ValidationError):
        kdv2_continuity_experiment(0.5, 1.0, "hs", 0.1, [4])
    with pytest.raises(ValidationError):
        kdv2_continuity_experiment(1.2, 1.0, "level-set", 0.1, [4])
    with pytest.raises(ValidationError):
        kdv2_continuity_experiment(0.5, 1.0, "nope", 0.1, [4])


def test_random_real_states_have_nonnegative_actions():
    rng = np.random.default_rng(3)
    for _ in range(100):
        pairs = [(int(n), complex(rng.standard_normal(), rng.standard_normal()))
                 for n in rng.choice(range(1, 40), size=5, replace=False)]
        z = BirkhoffState.real_state(pairs)
        assert z.is_real(1e-15)
        for n in z.support():
            assert z.action(n) >= 0.0


@pytest.mark.parametrize("sigma, variant", [(1.0, "hs"), (0.5, "level-set")])
def test_kdv2_delta_zero_rows_are_identical(sigma, variant):
    rows, du, thresh = kdv2_continuity_experiment(sigma, 1.0, variant, 0.0, [3, 5, 8])
    assert (du, thresh) == (0.0, 0.0)
    assert [(r.m, r.input_gap, r.output_gap, r.designated, r.verdict) for r in rows] == [
        (m, 0.0, 0.0, False, "identical") for m in (3, 5, 8)]


def test_kdv2_level_set_unbuildable_stages_are_nan_rows():
    # at m = 1..3 the rebalanced mode-1 amplitude of q would be imaginary
    rows, du, thresh = kdv2_continuity_experiment(0.5, 0.005, "level-set", 0.95,
                                                  range(1, 7))
    assert [r.m for r in rows] == [1, 2, 3, 4, 5, 6]
    for r in rows[:3]:
        assert math.isnan(r.input_gap) and math.isnan(r.output_gap)
        assert not r.designated and r.verdict == "inconclusive"
    for r in rows[3:]:
        assert math.isfinite(r.input_gap) and math.isfinite(r.output_gap)
    assert du < 1.0 and thresh == du / 2.0


def test_kdv2_level_set_rejects_delta_used_of_1_or_more():
    with pytest.raises(ValidationError, match="delta must stay below 1"):
        kdv2_continuity_experiment(0.5, 0.001, "level-set", 2.0, [4])
