"""Exception types shared across the package."""


class AtcError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AtcError):
    """A state is physically unevaluable (e.g. a collapsed bond)."""


class UsageError(AtcError, ValueError):
    """Invalid parameters or inconsistent inputs supplied by the caller."""


class IllPosedParametersError(UsageError):
    """Mesh-optimization parameters make the target norm infinite."""


class KktSolverError(AtcError):
    """A Newton step's linear solve failed or did not meet its residual bound."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NonConvergenceError(AtcError):
    """Newton iteration gave up; diagnostics holds its NewtonDiagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
