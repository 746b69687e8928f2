"""Exception types shared across the package."""

from __future__ import annotations


class VandcondError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(VandcondError):
    pass


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


class BlockTooLarge(VandcondError):
    pass


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


class BadShape(VandcondError):
    pass


class OddSize(VandcondError):
    pass


class NotSeparated(VandcondError):
    pass


class ArcTooLong(VandcondError):
    pass


class VacuousCertificate(VandcondError):
    pass


class NoPositiveBound(VandcondError):
    """No scanned arc certificate yields a bound exceeding 1."""


class InvalidOverride(VandcondError):
    pass
