"""Exception types shared across the package, and the rule that picks one.

Two kinds of refusal, one per CLI exit code:

- `ValueError` means the function does not accept these arguments, decided
  before any numeric work: `as_int`, `as_real`, `as_complex` and
  `as_sequence` decide every count, real, complex and sequence argument,
  and shapes, indices, modes and keys the rest.  The CLI exits 2.
- `VandcondError` means the arguments are accepted but the numbers fail, or
  a bound's premise fails for these knots.  The CLI exits 3.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence


def as_int(name: str, value, low: int | None = None) -> int:
    """value as an int; ValueError unless an integer (not a bool) and at least `low` if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def as_real(name: str, value, low: float, high: float = math.inf) -> float:
    """value as a float; ValueError unless it is a real (not a bool) in (low, high)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not low < value < high:
        span = f"above {low:g}" if high == math.inf else f"in ({low:g}, {high:g})"
        raise ValueError(f"{name} must be a finite number {span}, got {value!r}")
    return float(value)


def as_complex(name: str, value) -> complex:
    """value as a complex; ValueError unless it is a number (not a bool, str or array)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{name} must be a complex number, got {value!r}")
    return complex(value)


def as_sequence(name: str, value, what: str):
    """value; ValueError unless it is a non-empty sequence, not a str or bytes."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise ValueError(f"{name} must be a sequence of {what}, got {value!r}")
    if not value:
        raise ValueError(f"{name} must not be empty")
    return value


class VandcondError(Exception):
    """Base class of the numeric and premise failures: accepted arguments
    whose numbers fail, or knots outside a bound's premise."""


class DuplicateKnot(VandcondError):
    """Two knots of one vector are closer than the distinctness tolerance."""

    def __init__(self, i: int, j: int, gap: float):
        self.i, self.j, self.gap = i, j, gap
        super().__init__(f"knots {i} and {j} coincide within tolerance (gap {gap:.3e})")


class KnotCollision(VandcondError):
    """A row knot and a column knot of a Cauchy/CV matrix (nearly) coincide."""

    def __init__(self, i: int, j: int, gap: float):
        self.i, self.j, self.gap = i, j, gap
        super().__init__(f"row knot {i} collides with column knot {j} (gap {gap:.3e})")


class RangeOverflow(VandcondError):
    """A value would exceed the double-precision range."""

    def __init__(self, log10_magnitude: float, where: str = ""):
        self.log10_magnitude = log10_magnitude
        self.where = where
        tag = f" at {where}" if where else ""
        super().__init__(f"log10 magnitude {log10_magnitude:.3f} out of range{tag}")


class ZeroPivot(VandcondError):
    """Elimination without pivoting hit a (numerically) zero pivot."""

    def __init__(self, step: int, magnitude: float):
        self.step, self.magnitude = step, magnitude
        super().__init__(f"pivot at step {step} has magnitude {magnitude:.3e}")


class ConvergenceFailure(VandcondError):
    pass


class NotEnoughSmallKnots(VandcondError):
    pass


class UnitRadius(VandcondError):
    """The refined norm bound is undefined when the largest knot modulus is 1."""


class NotSeparated(VandcondError):
    pass


class VacuousCertificate(VandcondError):
    pass


class NoPositiveBound(VandcondError):
    """No scanned arc certificate yields a bound exceeding 1."""
