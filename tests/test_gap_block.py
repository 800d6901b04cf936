"""The shared node block against the per-gap evaluation it replaces, and
the one psi solve against per-gap solves of the same conditions.

lam^*, F, ``moments`` and ``action_vector`` read the standard roots from one
block per spectrum. Built with the bit-identity rule (divide by varsigma, an
exact unit diagonal factor, ascending m), every value equals the per-gap
reference in ``oracles`` exactly, not just to rounding; so do the moments
formed from given psi node values, and the frequency sums over every n at
once equal those made one n at a time. Any RuntimeWarning fails: the
standard root of a gap at its own nodes (NaN, or 0 where rounding puts an
end node on the edge) must stay quiet, and the block stores 1 there instead.

``psi_solve`` reads every psi_n from one linear solve, while the references
settle the roots of the product form gap by gap, by the lam^* sweep and by
Newton. There the pinned roots (tau_m on a collapsed gap m, lam_n^* at
m = n) agree bit for bit, and the rest within tolerances derived from the
sweep's settle bound (``_settle``, ``_row_tol``).
"""
import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdvfreq import hill
from kdvfreq import invariants as inv
from kdvfreq.hill import NODES, _varsigma
from kdvfreq.potentials import cosine_sum, make_potential, rough_profile, single_mode
from kdvfreq.roots import psi_solve

from oracles import (action_vector_per_gap, frequency_sums_per_n, gap_nodes,
                     moments_per_gap, psi_from_roots, psi_newton_per_gap,
                     psi_quotient_on_gap, psi_solve_per_gap)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# name: (potential, N, dtype, psi_tol)
CASES = {
    "four_mode_ld": (cosine_sum([(1, 0.4), (2, 0.35), (3, 0.3), (4, 0.25)]), 24,
                     np.longdouble, 1e-10),
    "family_f64": (make_potential([(j, (0.05 + 0.002 * j) * cmath.exp(1j * j))
                                   for j in range(1, 7)]), 8, np.float64, 1e-8),
    # period 1/2: every odd gap is collapsed, so psi_1 and psi_3 have every
    # open gap as an unknown
    "collapsed_gap": (single_mode(2, 0.1), 8, np.float64, 1e-8),
    "one_open_gap": (single_mode(1, 1e-5), 6, np.float64, 1e-8),
    # small gaps high up: varsigma of a gap at its own end nodes rounds to 0
    "rough_f64": (rough_profile(0.5, 24), 48, np.float64, 1e-8),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    q, N, dtype, tol = CASES[request.param]
    spec = inv.spectrum_for(q, N, dtype=dtype)
    if request.param == "collapsed_gap":
        assert not spec.open_gap[1] and not spec.open_gap[3] and spec.open_gap[2]
    if request.param == "one_open_gap":
        assert spec.open_indices() == [1]
    if request.param == "rough_f64":
        opens = spec.open_indices()
        with np.errstate(invalid="ignore"):
            own = _varsigma(spec.tau[opens][:, None], spec.gamma[opens][:, None],
                            spec._block.lam)
        assert np.any(own == 0)
    psis = {n: psi_solve(spec, n, tol=tol) for n in range(1, N + 1)}
    return spec, N, tol, psis


def _settle(spec, ks):
    """The sweep's settle bound 4 eps |tau_k| on the gaps ks: it stops once no
    root moves by more, and the nodes of gap k carry the rounding eps |tau_k|
    of lam itself."""
    eps = float(np.finfo(spec.tau.dtype).eps)
    return 4.0 * eps * np.abs(spec.tau[ks].astype(float))


def _row_tol(spec, k, g, residual):
    """Tolerance on the node values g of open gap k: g_nk ~ (sigma_k - lam) on
    the gap, so a root or node error of _settle carries through 1 / gamma_k
    into max |g| _settle / gamma_k, plus the largest residual of the solve,
    an absolute error of the node mean."""
    rel = _settle(spec, [k])[0] / float(spec.gamma[k])
    return float(np.max(np.abs(g))) * rel + residual


def _pinned(spec, n):
    """Roots psi_n does not solve for: tau_m on collapsed gaps, lam_n^* at n."""
    mask = ~spec.open_gap
    mask[[0, n]] = [False, True]
    return mask


def _assert_matches_sweep(spec, psi, ref):
    """psi (the solve) against ref (per gap): pinned roots bit for bit, the
    settled roots within the two settle bounds, every node row within
    _row_tol of the product form at ref's roots."""
    opens = spec.open_indices()
    pin = _pinned(spec, psi.n)
    assert np.array_equal(psi.sigma[pin], ref.sigma[pin]), psi.n
    moved = np.abs((psi.sigma[opens] - ref.sigma[opens]).astype(float))
    assert np.all(moved <= 2 * _settle(spec, opens)), psi.n
    residual = max(psi.residuals.values(), default=0.0)
    for i, k in enumerate(opens):
        want = psi_quotient_on_gap(spec, ref, k, gap_nodes(spec, k))
        err = np.abs((psi.node_values[i] - want).astype(float))
        assert np.all(err <= _row_tol(spec, k, want, residual)), (psi.n, k)


def test_psi_matches_per_gap_bit_for_bit(case):
    spec, N, tol, psis = case
    for n, psi in psis.items():
        ref = psi_solve_per_gap(spec, n, tol=tol)
        assert psi.sigma.dtype == ref.sigma.dtype
        assert max(psi.residuals.values(), default=0.0) <= tol
        assert max(ref.residuals.values(), default=0.0) <= tol
        _assert_matches_sweep(spec, psi, ref)


def test_psi_sweep_matches_newton_bit_for_bit(case):
    # the two per-gap references: each settles every root to _settle
    spec, N, tol, _ = case
    opens = spec.open_indices()
    for n in range(1, N + 1):
        ref, new = psi_solve_per_gap(spec, n, tol=tol), psi_newton_per_gap(spec, n, tol=tol)
        pin = _pinned(spec, n)
        assert np.array_equal(ref.sigma[pin], new.sigma[pin]), n
        moved = np.abs((ref.sigma[opens] - new.sigma[opens]).astype(float))
        assert np.all(moved <= 2 * _settle(spec, opens)), n


def test_psi_node_values_match_per_gap_bit_for_bit(case):
    # the node values against the product form at psi's own roots sigma,
    # normalized by its own k = n condition
    spec, N, _, psis = case
    opens = spec.open_indices()
    for n, psi in psis.items():
        assert psi.node_values.shape == (len(opens), NODES), n
        assert not psi.node_values.flags.writeable
        ref = psi_from_roots(spec, n, psi.sigma)
        residual = max(psi.residuals.values(), default=0.0)
        for i, k in enumerate(opens):
            want = psi_quotient_on_gap(spec, ref, k, gap_nodes(spec, k))
            err = np.abs((psi.node_values[i] - want).astype(float))
            assert np.all(err <= _row_tol(spec, k, want, residual)), (n, k)


def test_block_standard_roots_are_finite(case):
    spec, _, _, _ = case
    assert np.all(np.isfinite(spec._block.vs))


def test_moments_match_per_gap_bit_for_bit(case):
    spec, N, _, psis = case
    mom = inv.moments(spec, psis, N)
    om2, om4, R = moments_per_gap(spec, psis, N)
    assert mom.K == spec.N
    assert np.array_equal(mom.omega2, om2)
    assert np.array_equal(mom.omega4, om4)
    assert mom.R == R


def test_frequency_sums_match_per_n_bit_for_bit(case):
    spec, N, _, psis = case
    mom = inv.moments(spec, psis, N)
    got = inv.frequency_sums(spec, mom)
    for name, a, b in zip(("omega1*", "tail1", "omega2*", "tail2"), got,
                          frequency_sums_per_n(spec, mom)):
        assert a.shape == (N + 1,) and a.dtype == np.float64, name
        assert np.array_equal(a, b), name
    assert np.all(got[1][1:] > 0) and np.all(got[3][1:] > 0)    # hidden gaps count


@pytest.mark.parametrize("cut", [False, True])
def test_actions_match_per_gap_bit_for_bit(case, cut):
    spec, N, _, _ = case
    N = N // 2 if cut else None
    acts = inv.action_vector(spec, N=N)
    I, ratio, err = action_vector_per_gap(spec, N=N)
    assert np.array_equal(acts.I, I)
    assert np.array_equal(acts.ratio, ratio, equal_nan=True)
    assert np.array_equal(acts.err, err)


def test_one_block_per_spectrum(monkeypatch):
    # every node block and every spectrum the pipelines make is counted
    blocks, spectra = [], []
    GapNodes, periodic_spectrum = hill.GapNodes, inv.periodic_spectrum

    def gap_nodes(*args):
        blocks.append(GapNodes(*args))
        return blocks[-1]

    def spectrum(*args, **kwargs):
        spectra.append(periodic_spectrum(*args, **kwargs))
        return spectra[-1]

    monkeypatch.setattr(hill, "GapNodes", gap_nodes)
    monkeypatch.setattr(inv, "periodic_spectrum", spectrum)
    rep = inv.frequency_report(cosine_sum([(1, 0.2), (2, 0.2)]), 8)
    inv.hamiltonians(rep.spectrum)
    assert spectra and len(blocks) == len(spectra)
    assert rep.spectrum._block is blocks[-1]
    d = len(rep.spectrum.open_indices())
    assert blocks[-1].vs.shape == (d, d, NODES)
    assert blocks[-1].lam.shape == blocks[-1].root.shape == (d, NODES)
    assert "_block" not in repr(rep.spectrum)


@settings(max_examples=12, deadline=None)
@given(modes=st.lists(st.tuples(st.integers(1, 6), st.floats(1e-4, 0.3),
                                st.floats(0.0, 2 * np.pi)),
                      min_size=1, max_size=4, unique_by=lambda m: m[0]),
       dtype=st.sampled_from([np.float64, np.longdouble]))
def test_random_potentials_match_per_gap_bit_for_bit(modes, dtype):
    q = make_potential([(j, a * cmath.exp(1j * th)) for j, a, th in modes])
    N, tol = 6, 1e-10 if dtype is np.longdouble else 1e-8
    spec = inv.spectrum_for(q, N, dtype=dtype)
    psis = {n: psi_solve(spec, n, tol=tol) for n in range(1, N + 1)}
    for n, psi in psis.items():
        _assert_matches_sweep(spec, psi, psi_solve_per_gap(spec, n, tol=tol))
    mom = inv.moments(spec, psis, N)
    om2, om4, R = moments_per_gap(spec, psis, N)
    assert np.array_equal(mom.omega2, om2) and np.array_equal(mom.omega4, om4)
    assert mom.R == R
    acts = inv.action_vector(spec)
    I, ratio, err = action_vector_per_gap(spec)
    assert np.array_equal(acts.I, I) and np.array_equal(acts.err, err)
    assert np.array_equal(acts.ratio, ratio, equal_nan=True)
