import math

import numpy as np
import pytest

from kdvfreq import invariants as inv
from kdvfreq.errors import ValidationError
from kdvfreq.hill import discriminant, discriminant_batch, periodic_spectrum
from kdvfreq.potentials import cosine_sum, make_potential, single_mode
from kdvfreq.roots import (canonical_root, cheb_nodes, condition_integral,
                           gap_contour, psi_quotient_on_gap, psi_solve,
                           standard_root)

from oracles import dense_sigma_root, floquet_F_on_gap


@pytest.fixture(scope="module")
def spec_free():
    return periodic_spectrum(make_potential([], 0.0), 8)


@pytest.fixture(scope="module")
def q_two():
    return cosine_sum([(1, 0.2), (2, 0.2)])


@pytest.fixture(scope="module")
def spec_two(q_two):
    return inv.spectrum_for(q_two, 8)


# ---------------------------------------------------------------------------
# standard root

def test_standard_root_collapsed_branch(spec_free):
    for lam in (3.0, 50.0 + 2.0j, -7.0):
        v = standard_root(spec_free, 2, lam)
        assert v == pytest.approx(complex(spec_free.tau[2]) - lam, abs=1e-12)


def test_standard_root_gap_sides(spec_two):
    n = 1
    g = float(spec_two.gamma[n])
    lam = float(spec_two.tau[n])        # t = 0
    minus = standard_root(spec_two, n, lam, side="minus")
    plus = standard_root(spec_two, n, lam, side="plus")
    assert minus == pytest.approx(1j * g / 2.0, abs=1e-12)
    assert plus == pytest.approx(-1j * g / 2.0, abs=1e-12)


def test_standard_root_inside_requires_side(spec_two):
    with pytest.raises(ValidationError):
        standard_root(spec_two, 1, float(spec_two.tau[1]))


def test_standard_root_sign_right_of_gap(spec_two):
    # real negative, matching the direct product square root
    n = 1
    lam = float(spec_two.lambda_plus[n]) + 2.0
    v = standard_root(spec_two, n, lam)
    direct = math.sqrt((float(spec_two.lambda_plus[n]) - lam)
                       * (float(spec_two.lambda_minus[n]) - lam))
    assert v.imag == pytest.approx(0.0, abs=1e-12)
    assert v.real < 0
    assert v.real == pytest.approx(-direct, rel=1e-12)


def test_standard_root_endpoints_vanish(spec_two):
    for side in ("plus", "minus"):
        ct = gap_contour(spec_two, 1, np.array([-1.0, 1.0]), side)
        assert ct.lam[0] == spec_two.lambda_minus[1]
        assert ct.lam[1] == spec_two.lambda_plus[1]
    # sqrt amplifies endpoint roundoff to sqrt(gamma * eps) ~ 1e-8
    assert abs(standard_root(spec_two, 1, float(spec_two.lambda_plus[1]))) < 1e-7


# ---------------------------------------------------------------------------
# canonical root

def test_canonical_root_free_closed_form(spec_free):
    # q=0, lam=-1: -2i sqrt(-1) sin(sqrt(-1))/sqrt(-1) = 2 sinh 1
    v = canonical_root(spec_free, -1.0)
    assert v == pytest.approx(2.0 * math.sinh(1.0), rel=1e-9)
    lam = 5.0 + 2.0j
    want = -2j * np.sin(np.sqrt(lam))
    assert canonical_root(spec_free, lam) == pytest.approx(want, rel=1e-9)


def test_canonical_root_sign_on_first_band(spec_two):
    lam = 0.5 * (float(spec_two.lam0) + float(spec_two.lambda_minus[1]))
    v = canonical_root(spec_two, lam)
    assert (1j * v).real > 0
    assert abs((1j * v).imag) < 1e-10 * abs(v)


def test_canonical_root_vs_discriminant(q_two, spec_two):
    lam = float(spec_two.tau[2]) + 5.0
    v = complex(canonical_root(spec_two, lam))
    d = discriminant(q_two, lam, tol=1e-12)
    want = d.delta ** 2 - 4.0
    assert v ** 2 == pytest.approx(want, rel=1e-6)


def test_canonical_root_rejects_gap_interior(spec_two):
    with pytest.raises(ValidationError):
        canonical_root(spec_two, float(spec_two.tau[1]))


def test_canonical_root_near_m2pi2_guard(spec_two):
    # lands within 1e-9 of 25 pi^2 (a collapsed gap), where the combined
    # sin-product form is 0/0
    v = canonical_root(spec_two, 25 * math.pi ** 2 + 1e-9)
    assert np.isfinite(v.real) and np.isfinite(v.imag)
    # continuous across the removable point: nearby value agrees to 1e-5
    v2 = canonical_root(spec_two, 25 * math.pi ** 2 + 1e-4)
    assert abs(v - v2) < 1e-4 * abs(v) + 1e-3


# ---------------------------------------------------------------------------
# Floquet exponent on gaps

def test_F_endpoints_zero(q_two, spec_two):
    assert floquet_F_on_gap(q_two, spec_two, 1, 1.0) == 0.0
    assert floquet_F_on_gap(q_two, spec_two, 1, -1.0) == 0.0


def test_F_sign_and_sides(q_two, spec_two):
    t = np.array([-0.5, 0.0, 0.5])
    lower = floquet_F_on_gap(q_two, spec_two, 1, t, side="minus")
    upper = floquet_F_on_gap(q_two, spec_two, 1, t, side="plus")
    assert np.all(lower < 0) and np.all(upper > 0)
    assert np.allclose(lower, -upper, atol=1e-14)


def test_F_matches_varsigma_expansion(q_two, spec_two):
    # F_n ~ i varsigma_n / (2 n pi) on the gap sides
    n = 2
    t = cheb_nodes(24)
    F = floquet_F_on_gap(q_two, spec_two, n, t, side="minus")
    g = float(spec_two.gamma[n])
    approx = -(g / 2.0) * np.sqrt(1 - t ** 2) / (2 * n * math.pi)
    assert np.max(np.abs(F - approx)) < 0.15 * np.max(np.abs(approx))


def test_F_collapsed_gap_rejected(q_two, spec_two):
    closed = [n for n in range(1, spec_two.N + 1) if not spec_two.open_gap[n]]
    with pytest.raises(ValidationError):
        floquet_F_on_gap(q_two, spec_two, closed[0], 0.0)


def test_F_supremum_scales_with_gap(q_two, spec_two):
    # sup |F_n| = O(gamma_n / n): calibrated constant 2
    for n in spec_two.open_indices():
        t = cheb_nodes(48)
        F = floquet_F_on_gap(q_two, spec_two, n, t, side="minus")
        assert np.max(np.abs(F)) <= 2.0 * float(spec_two.gamma[n]) / n


def test_F_normalization_reconstruction(q_two):
    # quadrature of DeltaDot/sqrt_c over the bands from lam0+ to lam_n^+
    # returns -i n pi within 1e-6 (gap sides contribute zero). tanh-sinh
    # nodes handle both the endpoint square roots and the branch points of
    # barely open gaps just beyond the band ends; gap data through N=24
    # keeps the canonical root's collapsed tail below the target accuracy.
    spec_two = inv.spectrum_for(q_two, 24)
    u = np.linspace(-3.4, 3.4, 261)
    x = np.tanh(0.5 * math.pi * np.sinh(u))
    du = u[1] - u[0]
    wts = du * 0.5 * math.pi * np.cosh(u) / np.cosh(0.5 * math.pi * np.sinh(u)) ** 2
    total = 0.0 + 0.0j
    for n in range(0, 8):
        a = float(spec_two.lambda_plus[n])
        b = float(spec_two.lambda_minus[n + 1])
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        lam = mid + half * x
        # extreme nodes round onto the gap edges; nudge them inside the band
        # (margin small enough that the piled-up weights are ~1e-13)
        lam = np.clip(lam, a + 1e-13 * (1 + abs(a)), b - 1e-13 * (1 + abs(b)))
        d = discriminant_batch(q_two, lam, tol=1e-12)
        w = canonical_root(spec_two, lam)
        total += half * np.sum(wts * np.asarray(d["ddelta"]) / w)
        want = -1j * (n + 1) * math.pi
        assert total == pytest.approx(want, abs=1e-6), f"band {n}"


# ---------------------------------------------------------------------------
# psi functions

def test_psi_free_trivial(spec_free):
    psi = psi_solve(spec_free, 3)
    assert psi.iterations == 0
    assert psi.prefactor == pytest.approx(2.0 / (3 * math.pi), rel=1e-9)
    assert abs(psi.rho) < 1e-9
    # sigma pinned to tau in every collapsed gap
    for m in range(1, spec_free.N + 1):
        if m != 3:
            assert psi.sigma[m] == spec_free.tau[m]


def test_psi_one_open_gap_self_consistency():
    q = single_mode(1, 0.04)
    spec = inv.spectrum_for(q, 4)
    psi = psi_solve(spec, 2)
    for k in spec.open_indices():
        if k == 2:
            continue
        assert abs(condition_integral(spec, psi, k)) <= 1e-8


def test_psi_normalization_row(spec_two):
    psi = psi_solve(spec_two, 1)
    assert condition_integral(spec_two, psi, 1) == pytest.approx(1.0, abs=1e-12)
    for k in spec_two.open_indices():
        if k != 1:
            assert abs(condition_integral(spec_two, psi, k)) <= 1e-8


def test_psi_localization_and_prefactor(spec_two):
    for n in (1, 2, 3):
        psi = psi_solve(spec_two, n)
        assert abs(psi.rho) <= 0.2
        for k in spec_two.open_indices():
            if k == n:
                continue
            assert abs(float(psi.sigma[k] - spec_two.tau[k])) <= float(spec_two.gamma[k])


def test_psi_sigma_vs_dense_oracle(spec_two):
    psi = psi_solve(spec_two, 1)
    want = dense_sigma_root(spec_two, psi, 2)
    assert float(psi.sigma[2]) == pytest.approx(want, abs=1e-9 * abs(want))
    # sigma_2^1 close to the critical point on the gap-2 scale
    assert abs(float(psi.sigma[2] - spec_two.lambda_dot[2])) <= 0.3 * float(spec_two.gamma[2])


def test_psi_residuals_reach_the_rounding_floor_longdouble(q_two):
    # one Newton step past tol: the residuals end far below it
    if np.finfo(np.longdouble).eps > 1e-17:
        pytest.skip("needs 80-bit longdouble")
    spec = periodic_spectrum(q_two, 8, dtype=np.longdouble)
    for n in range(1, 9):
        psi = psi_solve(spec, n, tol=1e-10)
        assert max(psi.residuals.values(), default=0.0) <= 1e-15, f"psi_{n}"


def test_psi_json(spec_two):
    import json
    psi = psi_solve(spec_two, 2)
    obj = json.loads(psi.to_json())
    assert obj["n"] == 2 and len(obj["sigma"]) == spec_two.N


def test_psi_index_validation(spec_two):
    with pytest.raises(ValidationError):
        psi_solve(spec_two, 0)
    with pytest.raises(ValidationError):
        psi_solve(spec_two, spec_two.N + 1)


# ---------------------------------------------------------------------------
# quadrature lemma bounds

def test_gap_integral_bound(q_two, spec_two):
    # |(1/2pi) oint f / varsigma_n| <= max_Gn |f| for analytic f
    n = 1
    K = 96
    t = cheb_nodes(K)
    ct = gap_contour(spec_two, n, t)
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = rng.standard_normal(4) * [1.0, 0.3, 0.1, 0.03]
        f = np.polynomial.polynomial.polyval(t, c)
        quad = abs(np.sum(f) / K)       # (1/2pi) oint f/varsigma via both sides
        assert quad <= np.max(np.abs(f)) + 1e-10


def test_partial_primitive_bound(q_two, spec_two):
    # running antiderivative of f / w_n stays below max |f| (in 1/pi units)
    K = 96
    t = cheb_nodes(K)
    rng = np.random.default_rng(5)
    for _ in range(25):
        c = rng.standard_normal(4) * [1.0, 0.3, 0.1, 0.03]
        f = np.polynomial.polynomial.polyval(t, c)
        partial = np.abs(np.cumsum(f) / K)
        assert np.max(partial) <= np.max(np.abs(f)) + 1e-10


def test_vanishing_loop(q_two, spec_two):
    # oint DeltaDot / sqrt_c = 0 around each open gap: in the chi form this is
    # (1/pi) int (lam* - lam_t) chi_n / sqrt(1-t^2) dt = 0
    from kdvfreq.invariants import _chi_values
    K = 96
    t = cheb_nodes(K)
    for n in spec_two.open_indices():
        ct = gap_contour(spec_two, n, t)
        chi = _chi_values(spec_two, n, ct.lam.astype(spec_two.tau.dtype))
        val = np.sum((float(spec_two.lambda_dot[n]) - ct.lam) * chi) / K
        # floored by the recorded gap-data uncertainty on marginal gaps
        tol = 1e-8 + 2.0 * float(spec_two.gamma[n]) * spec_two.gamma_rel_err[n]
        assert abs(val) <= tol, f"gap {n}"


def test_standard_root_side_limits_consistent(spec_two):
    # off-gap values at tau +- i eps approach the on-gap side values
    n = 1
    tau = float(spec_two.tau[n])
    g = float(spec_two.gamma[n])
    up = standard_root(spec_two, n, tau + 1e-10j)
    dn = standard_root(spec_two, n, tau - 1e-10j)
    assert up == pytest.approx(-1j * g / 2.0, rel=1e-6)
    assert dn == pytest.approx(+1j * g / 2.0, rel=1e-6)
