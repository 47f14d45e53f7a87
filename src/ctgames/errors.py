"""Exception types shared across the package."""


class CTGamesError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(CTGamesError, ValueError):
    """An argument violates a documented precondition."""


class NotIrreducibleError(CTGamesError):
    """A generator's transition graph is not strongly connected."""

    def __init__(self, message, unreachable_state=None):
        super().__init__(message)
        self.unreachable_state = unreachable_state


class ConvergenceError(CTGamesError):
    """An iterative solver stopped before reaching its tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class OptimizationError(CTGamesError):
    """An inner optimizer failed."""


class NumericalError(CTGamesError):
    """A numeric result violates a sanity bound (likely a bug upstream)."""
