"""Exception types shared across the package, and the rule that picks one.

Two kinds of refusal, one per CLI exit code:

- `ValueError` means the function does not accept these arguments.  That is
  decided from sizes, shapes, indices, modes, keys or emptiness alone,
  before any numeric work; `as_int` decides it for a count and its floor,
  everywhere a count is taken.  The CLI exits 2.
- `VandcondError` means the arguments are accepted but the numbers fail, or
  a bound's premise fails for these knots.  The CLI exits 3.
"""

from __future__ import annotations

import numbers


def as_int(name: str, value, low: int | None = None) -> int:
    """value as an int; ValueError unless it is an integer type (not a bool)
    and, when `low` is given, at least `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
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
