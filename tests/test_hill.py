import math

import numpy as np
import pytest

from kdvfreq import hill
from kdvfreq._dop853 import integrate_hill
from kdvfreq.hill import discriminant, discriminant_batch, periodic_spectrum
from kdvfreq.potentials import cosine_sum, evaluate, make_potential, single_mode

from oracles import canonical_root, fd_transfer_discriminant, hill_matrix_eigenvalues


def test_discriminant_free():
    q = make_potential([], 0.0)
    d = discriminant(q, math.pi ** 2)
    assert d.delta == pytest.approx(-2.0, abs=1e-10)
    assert d.wronskian_residual < 1e-11 * 100


def test_discriminant_constant_shift():
    q = make_potential([], 0.8)
    for lam in (3.0, 30.0, 150.0):
        d = discriminant(q, lam)
        assert d.delta == pytest.approx(2 * math.cos(math.sqrt(lam - 0.8)), abs=1e-10)


# (dtype, ode_tol) as periodic_spectrum picks them
_SHOOTING = [(np.float64, 1e-13), (np.longdouble, 1e-16)]
_FREE_LAMS = [-40.0, 0.5, 9.0, 100.0, 400.0, 1500.0, 3000.0, 4500.0, 6000.0]


def _free_noise(lams, tol):
    """hill._delta_noise per lam, relative to |Delta| where the free
    solutions grow (negative or complex lam)."""
    lams = np.asarray(lams)
    grow = np.abs(2 * np.cos(np.sqrt(lams.astype(np.clongdouble)))).astype(float)
    return np.array([hill._delta_noise(abs(complex(lam)), tol)
                     for lam in lams]) * np.maximum(1.0, grow)


@pytest.mark.parametrize("dtype,tol", _SHOOTING)
def test_free_discriminant_derivative_closed_form(dtype, tol):
    # q = 0: Delta = 2 cos sqrt(lam), Delta-dot = -sin sqrt(lam) / sqrt(lam)
    lams = np.array(_FREE_LAMS, dtype=dtype)
    d = discriminant_batch(make_potential([], 0.0), lams, tol=tol)
    r = np.sqrt(lams.astype(np.clongdouble))
    err = np.abs((d["ddelta"] + np.sin(r) / r).astype(complex))
    assert np.all(err <= _free_noise(lams, tol))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="hill._delta_noise underestimates the q=0 error of Delta "
                          "above lam ~ 1e3 (float64) and ~ 1e2 (long double): the "
                          "error grows like ode_tol sqrt(lam), the estimate does not")
@pytest.mark.parametrize("dtype,tol", _SHOOTING)
def test_free_discriminant_closed_form(dtype, tol):
    lams = np.array(_FREE_LAMS, dtype=dtype)
    d = discriminant_batch(make_potential([], 0.0), lams, tol=tol)
    err = np.abs((d["delta"] - 2 * np.cos(np.sqrt(lams.astype(np.clongdouble)))
                  ).astype(complex))
    assert np.all(err <= _free_noise(lams, tol))


def test_discriminant_complex_lambda():
    q = make_potential([], 0.0)
    lam = 9.0 + 4.0j
    d = discriminant(q, lam)
    assert d.delta == pytest.approx(2 * np.cos(np.sqrt(lam)), abs=1e-10)


@pytest.mark.parametrize("lam", [9.0 + 4.0j, -20.0 + 30.0j, 500.0 + 50.0j,
                                 3000.0 - 200.0j, 100.0j])
def test_free_discriminant_complex_closed_form(lam):
    d = discriminant(make_potential([], 0.0), lam)
    r = np.sqrt(np.clongdouble(lam))
    noise = _free_noise([lam], 1e-11)[0]
    assert abs(d.delta - complex(2 * np.cos(r))) <= noise
    assert abs(d.delta_dot + complex(np.sin(r) / r)) <= noise


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("pairs", [[], [(1, 0.4), (2, 0.35 - 0.2j), (3, 0.3)]])
def test_qfun_elementwise_matches_evaluate(dtype, pairs):
    q = make_potential(pairs, 0.7)
    x = np.linspace(0.0, 1.0, 37, dtype=dtype).reshape(1, 37)
    got = hill._qfun(q, dtype)(x)
    assert got.shape == x.shape and got.dtype == dtype
    assert np.allclose(got.astype(float), evaluate(q, x.astype(float)),
                       rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("dtype,tol", _SHOOTING)
def test_without_dlam_gives_the_state_rows(dtype, tol):
    # the step sequences differ (z rows enter the error norm), so the rows
    # agree to the shooting noise, relative to their size
    q = cosine_sum([(1, 0.4), (2, 0.35), (3, 0.3), (4, 0.25)])
    qf = hill._qfun(q, dtype)
    lams = np.array([-5.0, 10.0, 100.0, 1000.0, 3000.0, 6000.0], dtype=dtype)
    full = integrate_hill(qf, lams, tol, tol, with_dlam=True)
    rows = integrate_hill(qf, lams, tol, tol, with_dlam=False)
    assert full.shape == (8, lams.size) and rows.shape == (4, lams.size)
    noise = np.array([hill._delta_noise(abs(float(lam)), tol) for lam in lams])
    scale = np.maximum(1.0, np.abs(full[:4].astype(float)))
    assert np.all(np.abs((full[:4] - rows).astype(float)) <= noise * scale)


def test_discriminant_vs_fd_oracle():
    q = single_mode(1, 0.2)      # q = 0.2 * 2cos(2 pi x)
    want = fd_transfer_discriminant(q, 0.0)
    got = discriminant(q, 0.0).delta
    assert got == pytest.approx(want, abs=2e-6 * max(1.0, abs(want)))


def test_free_spectrum_exact():
    q = make_potential([], 0.0)
    spec = periodic_spectrum(q, 8)
    n = np.arange(1, 9)
    assert np.max(np.abs(spec.lambda_plus[1:] / (n ** 2 * np.pi ** 2) - 1)) < 1e-9
    assert abs(spec.lambda_plus[0]) < 1e-9
    assert np.all(spec.gamma[1:] == 0.0)
    assert np.max(np.abs(spec.mu[1:] / (n ** 2 * np.pi ** 2) - 1)) < 1e-9


def test_constant_spectrum_is_shift():
    q0 = make_potential([], 0.0)
    qc = make_potential([], 1.3)
    s0 = periodic_spectrum(q0, 6)
    sc = periodic_spectrum(qc, 6)
    assert np.max(np.abs(sc.lambda_plus[1:].astype(float)
                         - 1.3 - s0.lambda_plus[1:].astype(float))) < 1e-9
    assert np.max(np.abs(sc.mu[1:].astype(float)
                         - 1.3 - s0.mu[1:].astype(float))) < 1e-9


def test_small_gap_perturbation_and_matrix_oracle():
    eps = 0.05
    q = single_mode(1, eps)
    spec = periodic_spectrum(q, 6)
    # first gap opens to 2 eps at leading order
    assert float(spec.gamma[1]) == pytest.approx(2 * eps, rel=2e-3)
    lam0, pairs = hill_matrix_eigenvalues(q, 6, K=64)
    assert float(spec.lambda_plus[0]) == pytest.approx(lam0, abs=1e-8)
    for n in range(1, 7):
        lm, lp = pairs[n - 1]
        # gap edges carry the estimated gamma noise; a collapsed report may
        # sit anywhere inside an oracle gap below the detection floor
        slack = 1e-8 + float(spec.gamma[n]) * spec.gamma_rel_err[n] \
            + (0.0 if spec.open_gap[n] else (lp - lm))
        assert float(spec.lambda_minus[n]) == pytest.approx(lm, abs=slack)
        assert float(spec.lambda_plus[n]) == pytest.approx(lp, abs=slack)
        assert float(spec.tau[n]) == pytest.approx((lm + lp) / 2, abs=slack)


def test_two_mode_gaps_vs_oracle_longdouble():
    q = cosine_sum([(1, 0.2), (2, 0.2)])
    spec = periodic_spectrum(q, 8, dtype=np.longdouble)
    _, pairs = hill_matrix_eigenvalues(q, 8, K=100)
    for n in range(1, 9):
        lm, lp = pairs[n - 1]
        g_oracle = lp - lm
        if spec.open_gap[n]:
            # within the larger of the two error estimates: the spectrum's
            # own, and the float64 cancellation in the oracle's lp - lm
            err = max(float(spec.gamma[n]) * spec.gamma_rel_err[n],
                      16.0 * np.finfo(float).eps * (abs(lp) + 1.0))
            assert abs(float(spec.gamma[n]) - g_oracle) \
                < 20.0 * max(err, 1e-10 * g_oracle), f"gap {n}"
        else:
            # anything we report collapsed must be under the detection floor
            assert g_oracle < 2e-4, f"gap {n} wrongly collapsed"


@pytest.mark.parametrize("pairs", [[(1, 0.2), (2, 0.2)],
                                   [(1, 0.4), (2, 0.35), (3, 0.3), (4, 0.25)],
                                   [(1, 0.07 + 0.04j), (2, 0.07 - 0.03j), (3, 0.07j)]])
def test_shooting_discriminant_at_matrix_edges(pairs):
    # the edges come from the Fourier Hill matrix; shooting is independent of
    # it and must give (-1)^n Delta = 2 there (lam <= ~700, float64)
    q = make_potential(pairs)
    spec = periodic_spectrum(q, 8)
    ns = spec.open_indices()
    lams = np.concatenate([[spec.lam0], spec.lambda_minus[ns], spec.lambda_plus[ns]])
    signs = np.concatenate([[1.0], (-1.0) ** np.array(ns + ns)])
    d = discriminant_batch(q, lams, tol=spec.ode_tol)
    noise = np.array([hill._delta_noise(abs(float(lam)), spec.ode_tol) for lam in lams])
    assert np.all(np.abs(signs * d["delta"] - 2.0) <= noise)


def test_ordering_invariant(q_two_mode_03):
    spec = periodic_spectrum(q_two_mode_03, 8)
    seq = [float(spec.lambda_plus[0])]
    for n in range(1, 9):
        seq += [float(spec.lambda_minus[n]), float(spec.lambda_plus[n])]
    assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))


def test_eigenvalue_asymptotics_bounded(q_two_mode_03):
    spec = periodic_spectrum(q_two_mode_03, 10)
    n = np.arange(1, 11)
    dev = np.abs(spec.lambda_plus[1:].astype(float) - n ** 2 * np.pi ** 2)
    assert np.max(dev) < 1.0


def test_collapsed_gap_coincidence(q_two_mode_03):
    spec = periodic_spectrum(q_two_mode_03, 10)
    for n in range(1, 11):
        if spec.gamma[n] <= 1e-9:
            assert abs(float(spec.lambda_dot[n] - spec.tau[n])) <= 1e-8


def test_critical_point_pinch(q_two_mode_03):
    spec = periodic_spectrum(q_two_mode_03, 10)
    for n in spec.open_indices():
        assert float(spec.lambda_minus[n]) - 1e-9 <= float(spec.lambda_dot[n]) \
            <= float(spec.lambda_plus[n]) + 1e-9
        if n >= 4:
            assert abs(float(spec.lambda_dot[n] - spec.tau[n])) <= float(spec.gamma[n])


def test_refined_critical_estimate(q_two_mode_03):
    # |lam* - tau| <= C gamma^2 / n on smooth potentials, C calibrated once
    spec = periodic_spectrum(q_two_mode_03, 8, dtype=np.longdouble)
    for n in spec.open_indices():
        bound = 5.0 * float(spec.gamma[n]) ** 2 / n + 1e-9
        assert abs(float(spec.lambda_dot[n] - spec.tau[n])) <= bound


def test_dirichlet_inside_gap(q_two_mode_03):
    spec = periodic_spectrum(q_two_mode_03, 8)
    for n in range(1, 9):
        # a collapsed report can hide a true gap up to the detection cap
        pad = 1e-6 if spec.open_gap[n] else 5e-4
        lo = float(spec.lambda_minus[n]) - pad
        hi = float(spec.lambda_plus[n]) + pad
        assert lo <= float(spec.mu[n]) <= hi


def test_product_representation(q_two_mode_03):
    # Delta^2 - 4 against the eigenvalue product with sin-product tail
    q = q_two_mode_03
    spec = periodic_spectrum(q, 10)
    lam = np.array([float(spec.tau[1]) + 4.0, 55.0, 150.0, 260.0, -3.0])
    d = discriminant(q, lam[0])
    for L in lam:
        d = discriminant(q, float(L))
        lhs = d.delta ** 2 - 4.0
        rhs = complex(canonical_root(spec, float(L))) ** 2
        assert lhs == pytest.approx(rhs.real, rel=1e-6, abs=1e-8)
        assert abs(rhs.imag) < 1e-6 * abs(rhs.real) + 1e-9


def test_spectrum_json(q_two_mode_03):
    import json
    spec = periodic_spectrum(q_two_mode_03, 4)
    obj = json.loads(spec.to_json())
    assert obj["N"] == 4
    assert len(obj["lambda_plus"]) == 5
    assert obj["lambda_minus"][0] is None


def test_tol_validation():
    with pytest.raises(ValueError):
        discriminant(make_potential([], 0.0), 1.0, tol=-1.0)
    with pytest.raises(ValueError):
        periodic_spectrum(make_potential([], 0.0), 0)


@pytest.mark.parametrize("label,pairs,mean", [
    ("deep-single", [(1, 1.0)], 0.0),
    ("deeper-single", [(1, 2.0)], 0.0),
    ("six-mode", [(m, 0.5) for m in range(1, 7)], 0.0),
    ("shifted", [(1, 0.3), (2, 0.2)], 2.0),
    ("negative-mean", [(1, 0.4)], -3.0),
])
def test_spectrum_robustness_vs_oracle(label, pairs, mean):
    q = cosine_sum(pairs, mean=mean)
    spec = periodic_spectrum(q, 8)
    lam0, lampairs = hill_matrix_eigenvalues(q, 8, K=120)
    assert abs(float(spec.lambda_plus[0]) - lam0) < 1e-8
    for n in range(1, 9):
        lm, lp = lampairs[n - 1]
        slack = 2e-7 + float(spec.gamma[n]) * spec.gamma_rel_err[n] \
            + (0.0 if spec.open_gap[n] else (lp - lm))
        assert abs(float(spec.lambda_minus[n]) - lm) <= slack, f"{label} n={n}"
        assert abs(float(spec.lambda_plus[n]) - lp) <= slack, f"{label} n={n}"
