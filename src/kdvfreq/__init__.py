"""kdvfreq: spectral-theoretic frequencies of the KdV and KdV2 equations.

Periodic Hill spectra from the Fourier Hill matrix, gap-contour quadrature for
actions and moments, the renormalized frequency sums, Birkhoff normal-form
predictions, sequence-space utilities, a frequency flow with divergence
experiments, and an independent pseudo-spectral integrator for
cross-validation.
"""
from .potentials import (Potential, make_potential, evaluate, single_mode,
                         cosine_sum, rough_profile, potential_from_json,
                         potential_to_json)
from .hill import DiscriminantValue, HillSpectrum, discriminant, periodic_spectrum
from .roots import (GapContour, PsiFunction, standard_root, canonical_root,
                    psi_solve, gap_contour)
from .invariants import (ActionVector, MomentTable, FrequencyReport,
                         HamiltonianValues, action_vector, moments,
                         freq_kdv, freq_kdv2, hamiltonians, frequency_report,
                         frequency_jacobian)
from .bnf import (bnf_predict, det_CA, singular_set, resonance_scan,
                  comb_identities_check)
from .seqspace import (WeightedSeq, weighted_norm, op_A, op_G, inf_product,
                       sin_product, schur_invertible)
from .flow import (BirkhoffState, flow_map, kdv_continuity_experiment,
                   kdv2_continuity_experiment)
from .pde import (GridState, Trajectory, evolve, measure_mode_frequency,
                  isospectral_drift, one_smoothing_gap)
from .errors import (ValidationError, NumericalError, IntegrationError,
                     BracketError, NewtonError, PhaseWrapError)

__version__ = "0.1.0"
