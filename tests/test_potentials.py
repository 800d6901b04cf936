import numpy as np
import pytest

from kdvfreq.potentials import (cosine_sum, evaluate, evaluate_derivative,
                                make_potential, potential_from_json,
                                potential_to_json, single_mode)


def test_zero_potential():
    q = make_potential([], 0.0)
    assert evaluate(q, 0.3) == 0.0
    assert q.degree == 0


def test_single_mode_values():
    q = make_potential([(1, 0.1)], 0.0)
    assert evaluate(q, 0.0) == pytest.approx(0.2, abs=1e-15)
    assert evaluate(q, 0.25) == pytest.approx(0.0, abs=1e-14)


def test_reality_mirroring_two_modes():
    q = make_potential([(1, 0.1), (3, 0.05j)], 0.0)
    x = np.arange(128) / 128.0
    vals = evaluate(q, x)          # raises if the imaginary residue is large
    assert np.all(np.isfinite(vals))


def test_negative_mode_mirrors():
    q1 = make_potential([(-1, 0.1 - 0.2j)], 0.0)
    q2 = make_potential([(1, 0.1 + 0.2j)], 0.0)
    x = np.arange(16) / 16.0
    assert np.allclose(evaluate(q1, x), evaluate(q2, x), atol=1e-15)


def test_duplicate_mode_rejected():
    with pytest.raises(ValueError):
        make_potential([(1, 0.1), (1, 0.2)])


def test_conflicting_pair_rejected():
    with pytest.raises(ValueError):
        make_potential([(1, 0.1j), (-1, 0.1j)])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        make_potential([(1, np.nan)])
    with pytest.raises(ValueError):
        make_potential([(2, 1.0)], mean=np.inf)


@pytest.mark.parametrize("mode", [1.5, True, np.True_, float("inf"), float("nan")])
def test_non_integer_mode_rejected(mode):
    # 1.5 and True used to be read as mode 1
    with pytest.raises(ValueError, match="not an integer"):
        make_potential([(mode, 0.1)])


def test_integral_mode_types_accepted():
    q = make_potential([(np.int64(2), 0.1), (3.0, 0.05)])
    assert q.modes == (2, 3) and all(type(m) is int for m in q.modes)


@pytest.mark.parametrize("n", ["1.5", "true", "2.5e0"])
def test_json_non_integer_mode_rejected(n):
    with pytest.raises(ValueError, match="not an integer"):
        potential_from_json('{"mean": 0.0, "modes": [{"n": %s, "re": 0.1}]}' % n)


def test_mode_zero_rejected():
    with pytest.raises(ValueError):
        make_potential([(0, 0.1)])


def test_mean_by_trapezoid():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pairs = [(n, complex(rng.normal(), rng.normal()) * 0.1)
                 for n in rng.choice(range(1, 9), size=3, replace=False)]
        mean = float(rng.normal())
        q = make_potential(pairs, mean)
        x = np.arange(1024) / 1024.0
        assert np.mean(evaluate(q, x)) == pytest.approx(mean, abs=1e-10)


def test_imaginary_residue_invariant():
    rng = np.random.default_rng(11)
    x = np.arange(128) / 128.0
    for _ in range(50):
        pairs = [(int(n), complex(rng.normal(), rng.normal()))
                 for n in rng.choice(range(1, 20), size=4, replace=False)]
        q = make_potential(pairs, float(rng.normal()))
        evaluate(q, x)             # the <= 1e-12 * sum|u_n| assert lives inside


def test_derivative_exact():
    q = single_mode(2, 0.3)
    x = np.arange(64) / 64.0
    num = (evaluate(q, x + 1e-6) - evaluate(q, x - 1e-6)) / 2e-6
    assert np.allclose(evaluate_derivative(q, x, 1), num, atol=1e-4)


def test_json_roundtrip():
    q = cosine_sum([(1, 0.1), (4, 0.02)], mean=0.5)
    q2 = potential_from_json(potential_to_json(q))
    assert q2 == q


def test_json_schema_fields():
    import json
    obj = json.loads(potential_to_json(single_mode(3, 0.25)))
    assert set(obj) == {"mean", "modes"}
    assert obj["modes"][0] == {"n": 3, "re": 0.25, "im": 0.0}


def test_bad_json_rejected():
    with pytest.raises(ValueError):
        potential_from_json("[1, 2, 3]")
