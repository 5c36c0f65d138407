"""Exceptions shared across the package."""


class ThermopressError(Exception):
    """Base class for errors raised by this package."""


class GraphFormatError(ThermopressError):
    """Malformed graph/potential input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotIrreducibleError(ThermopressError):
    """Operation requires a strongly connected transition graph."""


class ConvergenceError(ThermopressError):
    """An iterative solver failed to reach its tolerance."""


class ZeroMassError(ThermopressError):
    """A cycle or word sum carries no mass, so its log diverges."""


class InvariantViolation(ThermopressError):
    """A mathematical invariant that must hold was violated."""
