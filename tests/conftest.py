import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kdvfreq import invariants as inv
from kdvfreq.potentials import cosine_sum, make_potential, single_mode


@pytest.fixture(scope="session")
def q_zero():
    return make_potential([], 0.0)


@pytest.fixture(scope="session")
def q_three_mode():
    """3-mode amplitude-0.2 potential (psi-normalization suite)."""
    return cosine_sum([(1, 0.2), (2, 0.2), (3, 0.2)])


@pytest.fixture(scope="session")
def q_two_mode_03():
    """2-mode amplitude-0.3 potential (action-gap law)."""
    return cosine_sum([(1, 0.3), (2, 0.3)])


@pytest.fixture(scope="session")
def q_two_mode_02():
    """2-mode amplitude-0.2 potential (Hamiltonian identities)."""
    return cosine_sum([(1, 0.2), (2, 0.2)])


@pytest.fixture(scope="session")
def q_four_mode():
    """Smooth 4-mode potential with open gaps through n = 8 so the
    tail-frequency sums stay above the quadrature noise floor."""
    return cosine_sum([(1, 0.4), (2, 0.35), (3, 0.3), (4, 0.25)])


@pytest.fixture(scope="session")
def q_crosscheck():
    """q = 0.05 * 2 cos(2 pi 2 x) for the PDE cross-oracle."""
    return single_mode(2, 0.05)


@pytest.fixture(scope="session")
def spec_three(q_three_mode):
    return inv.spectrum_for(q_three_mode, 12)


@pytest.fixture(scope="session")
def psis_three(spec_three):
    return {n: inv.psi_for(spec_three, n) for n in range(1, 13)}


@pytest.fixture(scope="session")
def pipe_two_03(q_two_mode_03):
    spec = inv.spectrum_for(q_two_mode_03, 12)
    acts = inv.action_vector(spec)
    return spec, acts


@pytest.fixture(scope="session")
def pipe_two_02_ld(q_two_mode_02):
    """Extended-precision pipeline for the identities weighted by (2npi)^5."""
    if np.finfo(np.longdouble).eps > 1e-17:
        pytest.skip("extended-precision identities need 80-bit longdouble")
    return inv.frequency_report(q_two_mode_02, 8, dtype=np.longdouble)


@pytest.fixture(scope="session")
def report_four(q_four_mode):
    return inv.frequency_report(q_four_mode, 24, dtype=np.longdouble,
                                psi_tol=1e-10)


@pytest.fixture(scope="session")
def jacobian_pair():
    """Central-difference frequency Jacobians near I = 0 on A = {1..6}."""
    A = (1, 2, 3, 4, 5, 6)
    jk = inv.frequency_jacobian(A, h=0.01, which="kdv", base_eps=0.05, N=8)
    j2 = inv.frequency_jacobian(A, h=0.01, which="kdv2", base_eps=0.05, N=8)
    return jk, j2
