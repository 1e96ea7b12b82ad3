"""Exception types shared across the library."""


class MmclabError(Exception):
    """Base class for all library errors."""


class DimensionError(MmclabError, ValueError):
    """Matrix or vector shapes are incompatible with the operation."""


class DomainError(MmclabError, ValueError):
    """Input is outside the mathematical domain of the operation."""


class ArgumentError(MmclabError, ValueError):
    """An argument violates a precondition (counts, missing classes, ...)."""


class SizeError(MmclabError, ValueError):
    """An enumeration or allocation would exceed a hard size cap."""


class ConfigurationError(MmclabError, ValueError):
    """Mutually inconsistent objects were combined (mask vs data model, ...)."""


class ValidationError(MmclabError, ValueError):
    """An experiment config document failed validation."""


class TrainingError(MmclabError, RuntimeError):
    """Gradient descent diverged or produced non-finite values."""


class NumericError(MmclabError, RuntimeError):
    """A computation produced non-finite scores where finite ones are required."""
