"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid, inconsistent or unsupported run configuration."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to produce a usable result."""


class StepFailureError(NumericalError):
    """A time step failed: Newton did not converge, or a linear solve failed.

    Carries the residual-norm history and the failing step index so run
    drivers can report where and how the solve broke down.
    """

    def __init__(self, message, step=None, residuals=None):
        super().__init__(message)
        self.step = step
        self.residuals = list(residuals) if residuals is not None else []


class TrackingError(NumericalError):
    """Interface tracking failed (no crossing, or ambiguous crossings)."""


class MeasurementError(NumericalError):
    """A field measurement (e.g. mode extraction) could not be performed."""


class ResolutionWarning(UserWarning):
    """Mesh too coarse to resolve the diffuse interface reliably."""
