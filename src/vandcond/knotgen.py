"""Knot sequence generators and knot file I/O.

A knot is a point in the complex plane.  An ordered vector of pairwise
distinct knots defines a Vandermonde matrix row-wise, or one axis of a
Cauchy matrix.  All generators compute the knot angle from an exact
rational fraction of the full turn and exponentiate once, so unit-circle
knots are accurate to about 1 ulp.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DuplicateKnot, as_complex, as_int, as_real
from .logdomain import DISTINCT_TOL, closest_pair, screen_distinct


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Immutable ordered sequence of distinct complex knots.

    `knots` is a read-only complex128 copy of the points, checked to be
    non-empty, of finite modulus and pairwise further apart than `tol` >= 0.
    `label` names the generator; knot files carry it in their header.

    Distinctness is screened first: `logdomain.screen_distinct` sorts the
    real parts and measures only the pairs whose real parts lie within
    2 tol, O(n log n).  When it finds no pair within 2 tol the knots are
    distinct and no n x n walk runs; otherwise `logdomain.closest_pair`
    walks every pair and decides, so DuplicateKnot(i, j, gap) names the
    first closest pair in row-major order, as the walk alone would.
    """

    knots: np.ndarray
    label: str = "custom"
    tol: InitVar[float] = DISTINCT_TOL

    def __post_init__(self, tol: float):
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol >= 0:
            raise ValueError(f"tol must be >= 0, got {tol!r}")
        arr = np.array(self.knots, dtype=np.complex128)
        if arr.size == 0:
            raise ValueError("knot vector must contain at least one knot")
        # Finite parts are not enough: |1.5e308 + 1.5e308j| = inf.
        if not np.all(np.isfinite(np.abs(arr))):
            raise ValueError("knots must be finite")
        if not screen_distinct(arr, tol):
            gap, i, j = closest_pair(arr, arr, skip_self=True)
            if gap <= tol:
                raise DuplicateKnot(i, j, gap)
        arr.flags.writeable = False
        object.__setattr__(self, "knots", arr)

    def __len__(self):
        return len(self.knots)

    def __iter__(self):
        return iter(self.knots)

    def __getitem__(self, i):
        return self.knots[i]

    def as_array(self) -> np.ndarray:
        return self.knots

    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.knots)))


def _turn(fracs) -> np.ndarray:
    """exp(2 pi i x) for each fraction x of the turn: every unit-circle point set."""
    return np.exp(2j * np.pi * np.asarray(fracs))


def unit_roots(n: int) -> np.ndarray:
    """The n-th roots of 1 from 1 counter-clockwise; distinct, so unchecked.

    `bounds.best_arc_search`'s band budgets their rounding (25u per point on
    the CV grid); re-derive the band if this arithmetic changes.
    """
    return _turn(np.arange(n) / n)


def roots_of_unity(n: int) -> KnotVector:
    """The n-th roots of 1 in counter-clockwise order starting at 1."""
    n = as_int("n", n, 1)
    return KnotVector(unit_roots(n), "dft")


def quasi_cyclic_fractions(n: int) -> list:
    """First n terms of 0, 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, 1/16, 3/16, ...

    After exhausting the 2^k-th roots the sequence appends the remaining
    2^(k+1)-st roots one by one in counter-clockwise order: for
    2^k <= i < 2^(k+1) the fraction is (2(i - 2^k) + 1) / 2^(k+1).
    """
    i = np.arange(1, n)
    p = np.ldexp(1.0, np.frexp(i)[1] - 1)  # the 2^k with 2^k <= i < 2^(k+1), exact
    return np.append(0.0, (2 * (i - p) + 1) / (2 * p)).tolist()[:n]


def quasi_cyclic(n: int) -> KnotVector:
    """Unit-circle knots ordered by the quasi-cyclic fraction sequence."""
    n = as_int("n", n, 1)
    return KnotVector(_turn(quasi_cyclic_fractions(n)), "quasi-cyclic")


def radical_inverse(i):
    """Binary radical inverse: bit-reverse i across the binary point.

    Takes an int (returns a float) or an int array (returns a float array),
    one pass per bit.  Each result is a sum of distinct powers of two, so
    it is exact whatever the order of addition.
    """
    bits = np.asarray(i, dtype=np.int64)
    f = np.zeros(bits.shape)
    for b in range(int(bits.max(initial=0)).bit_length()):
        f += 0.5 ** (b + 1) * ((bits >> b) & 1)
    return f if f.ndim else float(f)


def van_der_corput(n: int) -> KnotVector:
    """Unit-circle knots ordered by the van der Corput (bit-reversal) sequence.

    Prefix-closed: the first m knots equal ``van_der_corput(m)`` for all
    m <= n, so every leading block of the associated Vandermonde matrix is
    again a matrix of the same family.
    """
    n = as_int("n", n, 1)
    return KnotVector(_turn(radical_inverse(np.arange(n))), "van-der-corput")


def single_outlier(n: int, s_last: complex) -> KnotVector:
    """n-1 of the n-th roots of 1 plus one arbitrary final knot.

    The retained roots are omega^0 .. omega^(n-2); the dropped root's slot
    is taken by `s_last`.  Setting s_last = omega^(n-1) would recover the
    full root set, hence DuplicateKnot is raised on any collision.
    """
    n = as_int("n", n, 2)
    pts = np.append(unit_roots(n)[:-1], as_complex("s_last", s_last))
    return KnotVector(pts, "single-outlier")


def dft_plus_outlier(n: int, s_extra: complex) -> KnotVector:
    """All n n-th roots of 1 plus one extra knot appended: n+1 knots total.

    This (n+1)-point set is what the single-large-knot experiment table
    actually measures; `single_outlier` keeps the n-point variant.
    """
    n = as_int("n", n, 1)
    pts = np.append(unit_roots(n), as_complex("s_extra", s_extra))
    return KnotVector(pts, "dft-plus-outlier")


def scaled_cluster(n: int, k: int, rho: float) -> KnotVector:
    """(n-k)-th roots of 1 followed by the k-th roots of 1 scaled by rho.

    The scaled group contributes exactly k knots (i = 0..k-1) so the total
    is n and the matrix stays square.
    """
    n, k = as_int("n", n, 2), as_int("k", k, 1)
    if k >= n:
        raise ValueError(f"k must be < n = {n}, got {k}")
    rho = as_real("rho", rho, 0.0, 1.0)
    pts = np.concatenate((unit_roots(n - k), rho * unit_roots(k)))
    return KnotVector(pts, "scaled-cluster")


def read_knots(path) -> KnotVector:
    """Read a knot file: one `re,im` pair per line, `#` starts a comment."""
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                re_s, im_s = text.split(",")
                pts.append(complex(float(re_s), float(im_s)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad knot line {text!r}") from exc
    if not pts:
        raise ValueError(f"{path}: no knots found")
    return KnotVector(pts, "file")


def dump_knots(kv: KnotVector, fh) -> None:
    """Knot file text, 17 significant digits per coordinate, to an open file."""
    fh.write(f"# {kv.label} n={len(kv)}\n")
    for z in kv:
        fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def write_knots(kv: KnotVector, path) -> None:
    """Write a knot file with 17 significant digits per coordinate."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_knots(kv, fh)
