import math

import numpy as np
import pytest

from kdvfreq.errors import ValidationError
from kdvfreq.seqspace import (inf_product, op_A, op_G,
                              schur_invertible, sin_product, weighted_norm)


def test_op_A_unit_vector():
    x = np.zeros(16)
    x[0] = 1.0
    out = op_A(x)
    assert out[0] == 0.0
    for n in range(2, 17):
        assert out[n - 1] == pytest.approx(1.0 / (1 - n * n), rel=1e-14)


def test_op_A_zero():
    assert np.all(op_A(np.zeros(8)) == 0.0)


def test_op_A_diagonal_exclusion_exact():
    for k in range(1, 9):
        e = np.zeros(8)
        e[k - 1] = 1.0
        assert op_A(e)[k - 1] == 0.0
        assert op_G(e)[k - 1] == 0.0


def test_op_A_norm_ratio_envelope():
    rng = np.random.default_rng(0)
    for s, p in ((-1.0, 2.0), (0.0, 2.0)):
        ratios = []
        for _ in range(100):
            x = rng.standard_normal(64)
            nx = weighted_norm(x, s, p)
            ratios.append(weighted_norm(op_A(x), s + 1.0, p) / nx)
        assert max(ratios) < 10.0


def test_op_A_boundedness_stable_under_doubling():
    rng = np.random.default_rng(1)
    worst = {}
    for L in (64, 128):
        ratios = []
        for _ in range(60):
            x = rng.standard_normal(L)
            ratios.append(weighted_norm(op_A(x), 0.0, 2.0) / weighted_norm(x, -1.0, 2.0))
        worst[L] = max(ratios)
    assert worst[128] <= 1.25 * worst[64]


def test_op_G_unit_vector():
    x = np.zeros(12)
    x[0] = 1.0
    out = op_G(x)
    for n in range(2, 13):
        assert out[n - 1] == pytest.approx(1.0 / (n - 1) ** 2, rel=1e-14)


def test_op_G_bound_500_samples():
    rng = np.random.default_rng(42)
    for _ in range(500):
        x = rng.standard_normal(48)
        for p in (1.0, 2.0, math.inf):
            nx = weighted_norm(x, 0.0, p)
            assert weighted_norm(op_G(x), 0.0, p) <= 4.0 * nx + 1e-12


def test_op_G_constant_ones():
    L = 64
    out = op_G(np.ones(L))
    assert np.max(out) <= 2 * math.pi ** 2 / 6


def test_inf_product_trivial():
    val, bound = inf_product(np.zeros(5))
    assert val == 1.0 and bound == 0.0


def test_inf_product_bound_500_samples():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = rng.standard_normal(32)
        a *= 0.3 / max(1.0, np.sum(np.abs(a)))      # S <= 0.3
        val, bound = inf_product(a)
        assert abs(val - 1.0) <= bound


def test_inf_product_bound_complex_samples():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a *= 0.25 / max(1.0, np.sum(np.abs(a)))
        val, bound = inf_product(a)
        assert abs(val - 1.0) <= bound


def test_inf_product_rejects_large_terms():
    with pytest.raises(ValidationError):
        inf_product(np.array([0.9]))


def test_sin_product_quarter_pi2():
    # sin(pi/2)/(pi/2) = 2/pi
    val = sin_product(math.pi ** 2 / 4.0, 10_000)
    assert val == pytest.approx(2.0 / math.pi, rel=1e-4)
    assert val == pytest.approx(2.0 / math.pi, rel=1e-10)   # tail-corrected


def test_sin_product_generic_lambda():
    for lam in (1.0, 7.3, 30.0, -4.0):
        want = math.sin(math.sqrt(lam)) / math.sqrt(lam) if lam > 0 else \
            math.sinh(math.sqrt(-lam)) / math.sqrt(-lam)
        assert sin_product(lam, 5_000) == pytest.approx(want, rel=1e-9)


def test_norm_nesting():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.standard_normal(32)
        s = sorted(rng.uniform(-2, 2, size=2))
        assert weighted_norm(x, s[0], 2.0) <= weighted_norm(x, s[1], 2.0) + 1e-12


def test_weighted_norm_inf():
    x = np.array([1.0, -3.0, 0.5])
    want = max((1 + n) ** 0.5 * abs(v) for n, v in zip((1, 2, 3), x))
    assert weighted_norm(x, 0.5, math.inf) == pytest.approx(want, rel=1e-14)


def test_schur_trivial():
    res = schur_invertible(np.zeros((5, 5)), 2)
    assert bool(res) and res.tail_norm == 0.0


def test_schur_tail_blocked():
    T = np.zeros((6, 6))
    T[3:, 3:] = 2.0 * np.eye(3)
    res = schur_invertible(T, 3)
    assert not res
    assert res.reason == "tail norm >= 1"


def test_schur_detects_singular_head():
    T = np.zeros((4, 4))
    T[0, 0] = -1.0          # I + T singular in the head block
    res = schur_invertible(T, 2)
    assert not res
    assert res.reason == "Schur complement singular"


def test_schur_validation():
    with pytest.raises(ValidationError):
        schur_invertible(np.zeros((3, 4)), 2)
    with pytest.raises(ValidationError):
        schur_invertible(np.zeros((3, 3)), 0)


def test_schur_on_kdv_jacobian_residual(jacobian_pair):
    # T = d omega*/(-6) - I at amplitude 0.05 on A = {1..6}: a compact-looking
    # perturbation of the identity, certified invertible through the split
    jk, _ = jacobian_pair
    T = jk.jac / (-6.0) - np.eye(len(jk.A))
    res = schur_invertible(T, 3)
    assert bool(res)
    assert res.tail_norm < 1.0
