"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad user input (malformed potential, inconsistent truncations, ...)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (non-convergence, instability, ...)."""


class IntegrationError(NumericalError):
    """ODE integration failure (step-size underflow, overflow)."""


class BracketError(NumericalError):
    """An eigenvalue could not be isolated inside its search window."""


class NewtonError(NumericalError):
    """A root iteration (Newton, or the gap-root sweep) failed to converge."""


class PhaseWrapError(NumericalError):
    """Mode phase advanced by more than pi between samples."""
