"""Exception hierarchy shared across the package."""


class PairdegError(Exception):
    """Base class for all pairdeg errors."""


class InvalidModelError(PairdegError, ValueError):
    """Model parameters violate an invariant (capacity, degeneracy, ...)."""


class EigensolverError(PairdegError):
    """The dense eigensolver failed or returned out-of-tolerance residuals."""

    def __init__(self, message, g=None):
        if g is not None:
            message = f"{message} (at g = {g})"
        super().__init__(message)
        self.g = g


class MatchingAmbiguityError(PairdegError):
    """State matching stayed ambiguous after the allowed step refinements."""


class InterpolationError(PairdegError):
    """Discriminant-polynomial reconstruction failed its hold-out validation."""


class VanishingDiscriminantError(PairdegError):
    """The discriminant vanishes identically: two states are degenerate at every g."""

    def __init__(self, message, pair):
        super().__init__(message)
        self.pair = pair


class LoopError(PairdegError):
    """A monodromy loop is invalid (encloses several roots, grazes one, ...)."""


class SelfOrthogonalityError(PairdegError):
    """An eigenvector is too close to self-orthogonal for the requested operation."""


class CutError(PairdegError, ValueError):
    """A cut has fewer than two samples, or a pair label outside 1..dim."""


class FitRejectedError(PairdegError):
    """A power-law fit exceeded its residual threshold."""


class ConfigError(PairdegError, ValueError):
    """Run configuration file is malformed or contains unknown keys."""
