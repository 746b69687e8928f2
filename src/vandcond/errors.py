"""Exception types shared across the package, and the rule that picks one.

Two kinds of refusal, one per CLI exit code:

- `ValueError` means the function does not accept these arguments, decided
  before any numeric work: `as_int`, `as_real`, `as_complex`, `as_sequence`
  and `as_array` decide every count, real, complex, sequence and array
  argument, finiteness included, and shapes, indices, modes and keys the
  rest.  The CLI exits 2.
- `VandcondError` means the arguments are accepted but the numbers fail, or
  a bound's premise fails for these knots.  The CLI exits 3.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import reprlib
from collections.abc import Sequence

import numpy as np


def as_int(name: str, value, low: int | None = None) -> int:
    """value as an int; ValueError unless an integer (not a bool) and at least `low` if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def as_real(name: str, value, low: float, high: float = math.inf) -> float:
    """value as a float; ValueError unless a real (not a bool) whose float lies in (low, high)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    with contextlib.suppress(OverflowError):  # float() of an int past the float range
        if real and low < float(value) < high:
            return float(value)
    span = f"above {low:g}" if high == math.inf else f"in ({low:g}, {high:g})"
    raise ValueError(f"{name} must be a finite number {span}, got {value!r}")


def as_complex(name: str, value) -> complex:
    """value as a complex; ValueError unless a finite-modulus number (not a bool, str or array)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{name} must be a complex number, got {value!r}")
    with contextlib.suppress(OverflowError):  # complex() of an int past the float range
        z = complex(value)
        if math.isfinite(math.hypot(z.real, z.imag)):  # abs() may raise OverflowError
            return z
    raise ValueError(f"{name} must be finite")


def as_sequence(name: str, value, what: str):
    """value; ValueError unless it is a non-empty sequence, not a str or bytes."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise ValueError(f"{name} must be a sequence of {what}, got {value!r}")
    if not value:
        raise ValueError(f"{name} must not be empty")
    return value


def as_array(name: str, value, ndim: int | tuple, copy: bool = False) -> np.ndarray:
    """value as a C-ordered complex128 array; ValueError unless a non-empty
    array or nested sequence with `ndim` axes (or any count in a tuple) whose
    entries are numbers, not bools or strings, of finite modulus.  A numeric
    ndarray converts in one vectorized pass, copied only when `copy` is set
    or its dtype or layout differ; any other value is checked entry by entry.
    """
    ndims = ndim if isinstance(ndim, tuple) else (ndim,)
    numeric = isinstance(value, np.ndarray) and value.dtype.kind in "iufc"
    try:
        arr = value if numeric else np.array(value, dtype=object)
    except ValueError:  # nesting too ragged even for an object array
        arr = None
    if arr is None or arr.ndim not in ndims or arr.size == 0:
        dims = " or ".join(f"{d}-d" for d in ndims)
        raise ValueError(f"{name} must be a non-empty {dims} array, got {reprlib.repr(value)}")
    if not numeric:
        for x in arr.flat:
            if isinstance(x, bool) or not isinstance(x, numbers.Complex):
                raise ValueError(f"{name} must be numbers, got {reprlib.repr(x)}")
    with contextlib.suppress(OverflowError):  # an int past the float range
        arr = (np.array if copy else np.asarray)(arr, dtype=np.complex128, order="C")
        # Parts below 2**1023 keep |z| finite, so |z| is taken only past
        # them: |1.5e308 + 1.5e308j| = inf.
        parts = arr.view(np.float64)
        if max(parts.max(), -parts.min()) < 2.0 ** 1023 or np.isfinite(np.abs(arr)).all():
            return arr
    raise ValueError(f"{name} must be finite")


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

    def __init__(self, log10_magnitude: float, where: str):
        self.log10_magnitude, self.where = log10_magnitude, where
        super().__init__(f"log10 magnitude {log10_magnitude:.3f} out of range at {where}")


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


class VacuousCertificate(VandcondError):
    pass


class NoPositiveBound(VandcondError):
    """No scanned arc certificate yields a bound exceeding 1."""
