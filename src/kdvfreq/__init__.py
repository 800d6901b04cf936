"""kdvfreq: spectral-theoretic frequencies of the KdV and KdV2 equations.

Periodic Hill spectra from the Fourier Hill matrix, gap-contour quadrature for
actions and moments, the renormalized frequency sums, Birkhoff normal-form
predictions, sequence-space utilities, a frequency flow with divergence
experiments, and an independent pseudo-spectral integrator for
cross-validation.

``import kdvfreq`` loads none of the submodules. A public name, or a
submodule name such as ``kdvfreq.invariants``, imports the module that owns
it the first time it is read (PEP 562), so a caller pays only for the
modules it uses.
"""
import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("Potential", "make_potential", "evaluate", "single_mode",
                     "cosine_sum", "rough_profile", "potential_from_json",
                     "potential_to_json"), "potentials"),
    **dict.fromkeys(("DiscriminantValue", "HillSpectrum", "discriminant",
                     "periodic_spectrum"), "hill"),
    **dict.fromkeys(("PsiFunction", "psi_solve"), "roots"),
    **dict.fromkeys(("ActionVector", "MomentTable", "FrequencyReport",
                     "HamiltonianValues", "action_vector", "moments",
                     "frequency_sums", "hamiltonians", "frequency_report",
                     "frequency_jacobian"), "invariants"),
    **dict.fromkeys(("bnf_predict", "det_CA", "singular_set", "resonance_scan",
                     "comb_identities_check"), "bnf"),
    **dict.fromkeys(("weighted_norm", "op_A", "op_G", "inf_product", "sin_product",
                     "schur_invertible"), "seqspace"),
    **dict.fromkeys(("BirkhoffState", "flow_map", "kdv_continuity_experiment",
                     "kdv2_continuity_experiment"), "flow"),
    **dict.fromkeys(("GridState", "Trajectory", "evolve", "measure_mode_frequency",
                     "isospectral_drift", "one_smoothing_gap"), "pde"),
    **dict.fromkeys(("ValidationError", "NumericalError", "IntegrationError",
                     "BracketError", "NewtonError", "PhaseWrapError"), "errors"),
}

__all__ = list(_EXPORTS)

_SUBMODULES = frozenset(("_dop853", "_util", "bnf", "cli", "errors", "flow", "hill",
                         "invariants", "pde", "potentials", "roots", "seqspace"))


def __getattr__(name):
    # An export is not cached on the package, so a name rebound in its own
    # module (perfbench's tracer wraps them there) shows through here too.
    if name in _EXPORTS:
        return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    if name in _SUBMODULES:         # importing it binds it on the package
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
