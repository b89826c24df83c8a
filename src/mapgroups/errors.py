"""Exception types shared across the package."""

import operator


class InputError(ValueError):
    """Malformed or mismatched operation inputs."""


class ShapeMismatchError(InputError):
    """Fields with incompatible dimension, cutoff, or component count."""


class AliasingError(InputError):
    """Grid resolution too low for the requested mode cutoff."""


class EmptyMaskError(InputError):
    """Grid window contains no lattice nodes."""


class SupportError(InputError):
    """Cutoff support sticks out of the target domain."""


class ChartDomainError(InputError):
    """Point lies outside the relevant chart or logarithm domain."""


class IncompatibleSectionError(InputError):
    """Chart pieces disagree on an overlap beyond tolerance."""


class CoverageError(InputError):
    """Manifold point not contained in any witness window."""


class SolverError(RuntimeError):
    """Linear solve failed to meet its residual target."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NumericError(RuntimeError):
    """Nonfinite value produced at a named location."""


def check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int; InputError naming ``name`` unless it is a Python
    or NumPy integer of at least ``minimum``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise InputError(f"{name} must be >= {minimum}, got {count}")
    return count
