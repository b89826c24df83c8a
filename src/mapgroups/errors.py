"""Exception types shared across the package, and the input rules every
module asks: counts, real values and names."""

import math
import numbers
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
    or NumPy integer (a bool is not one) of at least ``minimum``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise InputError(f"{name} must be >= {minimum}, got {count}")
    return count


def check_real(value, name: str, low=-math.inf, high=math.inf, strict=False) -> float:
    """``value`` as a float; InputError naming ``name`` unless it is a real
    number (a bool is not), finite, and in [low, high], or in (low, high)
    when ``strict``.  An integer beyond the float range counts as infinite."""
    # A float (NumPy's float64 is one) skips the slower abstract-class test.
    if not isinstance(value, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise InputError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if not (math.isfinite(x) and (low < x < high if strict else low <= x <= high)):
        rules = ["finite"] + [
            f"{op} {bound:g}"
            for op, bound in ((">" if strict else ">=", low), ("<" if strict else "<=", high))
            if math.isfinite(bound)
        ]
        raise InputError(f"{name} must be {' and '.join(rules)}, got {x!r}")
    return x


def check_name(name, table, kind: str) -> str:
    """``name``; InputError unless it is a string key of ``table``."""
    if not isinstance(name, str) or name not in table:
        raise InputError(f"unknown {kind} {name!r}; available: {sorted(table)}")
    return name
