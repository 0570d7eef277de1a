"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures with 3, failed acceptance checks with 4.
"""


class FriedrichsError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FriedrichsError):
    """Invalid parameters, bounds, or config-file contents."""


class AssemblyError(FriedrichsError):
    """Mismatched components passed to model assembly."""


class IntegrationFailure(FriedrichsError):
    """Time integration exceeded its unitarity drift tolerance."""

    def __init__(self, message: str, drift: float):
        super().__init__(message)
        self.drift = drift


class NumericalOverflow(FriedrichsError):
    """Non-finite values appeared during a computation."""


class ConvergenceFailure(FriedrichsError):
    """An iteration reached its cap before meeting its tolerance."""


class ResourceBudgetError(FriedrichsError):
    """A computation would exceed its size or memory budget."""


class SpectralSeparationError(FriedrichsError):
    """A contour does not cleanly separate the spectrum."""


class PrecisionLimitError(FriedrichsError):
    """Requested value lies below the double-precision cancellation floor."""


class FitDomainError(FriedrichsError):
    """Power-law fit received nonpositive values."""

    def __init__(self, message: str, offending: list):
        super().__init__(message)
        self.offending = offending
