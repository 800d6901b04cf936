"""The shared node block against the per-gap evaluation it replaces.

``psi_solve``, ``moments`` and ``action_vector`` read the standard roots
from one block per spectrum and node count. Built with the bit-identity rule
(divide by varsigma, an exact unit diagonal factor, ascending m), every value
equals the per-gap reference in ``oracles`` exactly, not just to rounding.
Any RuntimeWarning fails: the standard root of a gap at its own nodes (NaN,
or 0 where rounding puts an end node on the edge) must stay quiet.
"""
import cmath

import numpy as np
import pytest

from kdvfreq import invariants as inv
from kdvfreq.potentials import cosine_sum, make_potential, rough_profile, single_mode
from kdvfreq.roots import psi_solve

from oracles import action_vector_per_gap, moments_per_gap, psi_solve_per_gap

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# name: (potential, N, dtype, psi_tol, nodes)
CASES = {
    "four_mode_ld": (cosine_sum([(1, 0.4), (2, 0.35), (3, 0.3), (4, 0.25)]), 24,
                     np.longdouble, 1e-10, 96),
    "family_f64": (make_potential([(j, (0.05 + 0.002 * j) * cmath.exp(1j * j))
                                   for j in range(1, 7)]), 8, np.float64, 1e-8, 96),
    # period 1/2: every odd gap is collapsed, so psi_1 and psi_3 have every
    # open gap as an unknown; 31 nodes put one node on each tau exactly
    "collapsed_gap": (single_mode(2, 0.1), 8, np.float64, 1e-8, 31),
    "one_open_gap": (single_mode(1, 1e-5), 6, np.float64, 1e-8, 96),
    # small gaps high up: varsigma of a gap at its own end nodes rounds to 0
    "rough_f64": (rough_profile(0.5, 24), 48, np.float64, 1e-8, 96),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    q, N, dtype, tol, nodes = CASES[request.param]
    spec = inv.spectrum_for(q, N, dtype=dtype)
    if request.param == "collapsed_gap":
        assert not spec.open_gap[1] and not spec.open_gap[3] and spec.open_gap[2]
    if request.param == "one_open_gap":
        assert spec.open_indices() == [1]
    if request.param == "rough_f64":
        assert np.any(spec._gap_nodes(nodes).vs == 0)
    psis = {n: psi_solve(spec, n, tol=tol, nodes=nodes) for n in range(1, N + 1)}
    return spec, N, tol, nodes, psis


def test_psi_matches_per_gap_bit_for_bit(case):
    spec, N, tol, nodes, psis = case
    for n, psi in psis.items():
        ref = psi_solve_per_gap(spec, n, tol=tol, nodes=nodes)
        assert psi.sigma.dtype == ref.sigma.dtype
        assert np.array_equal(psi.sigma, ref.sigma, equal_nan=True), n
        assert psi.rho == ref.rho and psi.prefactor == ref.prefactor, n
        assert psi.residuals == ref.residuals, n
        assert psi.iterations == ref.iterations, n


@pytest.mark.parametrize("cut", [False, True])
def test_moments_match_per_gap_bit_for_bit(case, cut):
    spec, N, _, nodes, psis = case
    K = N // 2 if cut else None
    mom = inv.moments(spec, psis, N, K=K, nodes=nodes)
    om2, om4, R = moments_per_gap(spec, psis, N, K=K, nodes=nodes)
    assert mom.K < spec.N if cut else mom.K == spec.N
    assert np.array_equal(mom.omega2, om2)
    assert np.array_equal(mom.omega4, om4)
    assert mom.R == R


@pytest.mark.parametrize("cut", [False, True])
def test_actions_match_per_gap_bit_for_bit(case, cut):
    spec, N, _, nodes, _ = case
    N = N // 2 if cut else None
    acts = inv.action_vector(spec, N=N, nodes=nodes)
    I, ratio, err = action_vector_per_gap(spec, N=N, nodes=nodes)
    assert np.array_equal(acts.I, I)
    assert np.array_equal(acts.ratio, ratio, equal_nan=True)
    assert np.array_equal(acts.err, err)


def test_block_is_built_once_per_node_count():
    spec = inv.spectrum_for(cosine_sum([(1, 0.2), (2, 0.2)]), 8)
    star = spec._gap_nodes(96)            # the block lam^* was solved on
    psi_solve(spec, 1)
    inv.action_vector(spec)
    assert spec._gap_nodes(96) is star and list(spec._blocks) == [96]
    d = len(spec.open_indices())
    assert star.vs.shape == (d, d, 96) and star.lam.shape == star.root.shape == (d, 96)
    assert "_blocks" not in repr(spec)
