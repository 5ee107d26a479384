"""Exception hierarchy shared by all tcalign modules, and the one integer-count,
finite-real and finite-positive rules."""

import math
import numbers


class TcaError(Exception):
    """Base class for all tcalign errors."""


class InvalidInput(TcaError):
    """Malformed argument: wrong shape, non-finite entries, mismatched dimensions."""


class InvalidConfig(TcaError):
    """Adaptation configuration violates a documented constraint."""


class InsufficientSamples(TcaError):
    """Fewer rows than the statistic requires (covariance needs n >= 2)."""


class DegenerateLabels(TcaError):
    """Training labels contain fewer than two distinct classes."""


class NumericalFailure(TcaError):
    """A numerical routine failed: an eigendecomposition did not converge, or a
    result (a matrix power, a softmax) is not finite."""


class SingularMatrix(NumericalFailure):
    """A matrix power is undefined: a negative exponent of a non-positive
    eigenvalue, or a fractional exponent of a negative one."""


class DivergenceError(NumericalFailure):
    """Gradient descent produced a non-finite objective.

    Carries, as ``last_iterate``, the lowest-objective iterate seen before
    the failure (not the last finite one), and the objective trace recorded
    up to it, so callers can inspect how the blow-up unfolded.
    """

    def __init__(self, message, last_iterate=None, objective_values=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.objective_values = objective_values if objective_values is not None else []


class ParseError(TcaError):
    """A persisted artifact (embedding file, label file, head JSON) is malformed.

    ``context`` names the byte offset or JSON field that failed validation.
    """

    def __init__(self, message, context=None):
        super().__init__(message if context is None else f"{message} ({context})")
        self.context = context


def _check_count(name: str, value, minimum: int, error: type[TcaError] = InvalidInput) -> None:
    """Raise ``error`` for a count that is not an integer (numpy integers pass,
    booleans do not) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value}")


def _check_positive(name: str, value, error: type[TcaError] = InvalidInput) -> None:
    """Raise ``error`` for a ``value`` that is not a finite real number > 0."""
    if not (_finite_real(value) and value > 0):
        raise error(f"{name} must be finite and positive, got {value}")


def _finite_real(value) -> bool:
    """Whether ``value`` is a finite real number (numpy floats and integers pass,
    booleans do not)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
