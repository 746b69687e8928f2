"""Knot sequence generators and knot file I/O.

A knot is a point in the complex plane.  An ordered vector of pairwise
distinct knots defines a Vandermonde matrix row-wise, or one axis of a
Cauchy matrix.  All generators compute the knot angle from an exact
rational fraction of the full turn and exponentiate once, so unit-circle
knots are accurate to about 1 ulp.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateKnot, EmptyInput

#: Default distinctness tolerance: above double rounding noise, below any
#: knot gap that the generators here can produce.
DISTINCT_TOL = 1e-13


@dataclass(frozen=True)
class KnotVector:
    """Immutable ordered sequence of distinct complex knots.

    `label` records which generator produced the vector and `params` the
    generator arguments, so downstream reports can cite their input.
    """

    knots: tuple
    label: str = "custom"
    params: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.knots)

    def __iter__(self):
        return iter(self.knots)

    def __getitem__(self, i):
        return self.knots[i]

    @property
    def n(self) -> int:
        return len(self.knots)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.knots, dtype=np.complex128)

    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.as_array())))


def _check_distinct(points: np.ndarray, tol: float) -> None:
    n = len(points)
    if n < 2:
        return
    diff = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(diff, np.inf)
    gap = float(diff.min())
    if gap <= tol:
        i, j = np.unravel_index(int(diff.argmin()), diff.shape)
        raise DuplicateKnot(int(i), int(j), gap)


def _build(points, label, params, tol=DISTINCT_TOL) -> KnotVector:
    arr = np.asarray(points, dtype=np.complex128)
    if arr.size == 0:
        raise EmptyInput("knot vector must contain at least one knot")
    _check_distinct(arr, tol)
    return KnotVector(tuple(complex(z) for z in arr), label, dict(params))


def make_knot_vector(points, tol: float = DISTINCT_TOL) -> KnotVector:
    """Wrap an explicit point list, verifying pairwise distinctness."""
    return _build(points, "custom", {"tol": tol}, tol)


def roots_of_unity(n: int) -> KnotVector:
    """The n-th roots of 1 in counter-clockwise order starting at 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = [cmath.exp(2j * cmath.pi * (i / n)) for i in range(n)]
    return _build(pts, "dft", {"n": n})


def quasi_cyclic_fractions(n: int) -> list:
    """First n terms of 0, 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, 1/16, 3/16, ...

    After exhausting the 2^k-th roots the sequence appends the remaining
    2^(k+1)-st roots one by one in counter-clockwise order: for
    2^k <= i < 2^(k+1) the fraction is (2(i - 2^k) + 1) / 2^(k+1).
    """
    fracs = [0.0]
    k = 0
    while len(fracs) < n:
        start = 1 << k
        for i in range(start, 2 * start):
            fracs.append((2 * (i - start) + 1) / (2 * start))
            if len(fracs) == n:
                break
        k += 1
    return fracs[:n]


def quasi_cyclic(n: int) -> KnotVector:
    """Unit-circle knots ordered by the quasi-cyclic fraction sequence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = [cmath.exp(2j * cmath.pi * f) for f in quasi_cyclic_fractions(n)]
    return _build(pts, "quasi-cyclic", {"n": n})


def radical_inverse(i: int) -> float:
    """Binary radical inverse: bit-reverse i across the binary point."""
    f, scale = 0.0, 0.5
    while i:
        if i & 1:
            f += scale
        i >>= 1
        scale *= 0.5
    return f


def van_der_corput(n: int) -> KnotVector:
    """Unit-circle knots ordered by the van der Corput (bit-reversal) sequence.

    Prefix-closed: the first m knots equal ``van_der_corput(m)`` for all
    m <= n, so every leading block of the associated Vandermonde matrix is
    again a matrix of the same family.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = [cmath.exp(2j * cmath.pi * radical_inverse(i)) for i in range(n)]
    return _build(pts, "van-der-corput", {"n": n})


def single_outlier(n: int, s_last: complex) -> KnotVector:
    """n-1 of the n-th roots of 1 plus one arbitrary final knot.

    The retained roots are omega^0 .. omega^(n-2); the dropped root's slot
    is taken by `s_last`.  Setting s_last = omega^(n-1) would recover the
    full root set, hence DuplicateKnot is raised on any collision.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    base = [cmath.exp(2j * cmath.pi * (i / n)) for i in range(n - 1)]
    pts = base + [complex(s_last)]
    return _build(pts, "single-outlier", {"n": n, "s_last": complex(s_last)})


def dft_plus_outlier(n: int, s_extra: complex) -> KnotVector:
    """All n n-th roots of 1 plus one extra knot appended: n+1 knots total.

    This (n+1)-point set is what the single-large-knot experiment table
    actually measures; `single_outlier` keeps the n-point variant.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = [cmath.exp(2j * cmath.pi * (i / n)) for i in range(n)]
    pts = base + [complex(s_extra)]
    return _build(pts, "dft-plus-outlier", {"n": n, "s_extra": complex(s_extra)})


def scaled_cluster(n: int, k: int, rho: float) -> KnotVector:
    """(n-k)-th roots of 1 followed by the k-th roots of 1 scaled by rho.

    The scaled group contributes exactly k knots (i = 0..k-1) so the total
    is n and the matrix stays square.
    """
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    outer = [cmath.exp(2j * cmath.pi * (i / (n - k))) for i in range(n - k)]
    inner = [rho * cmath.exp(2j * cmath.pi * (i / k)) for i in range(k)]
    return _build(outer + inner, "scaled-cluster", {"n": n, "k": k, "rho": rho})


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
        raise EmptyInput(f"{path}: no knots found")
    return _build(pts, "file", {"path": str(path)})


def dump_knots(kv: KnotVector, fh) -> None:
    """Knot file text, 17 significant digits per coordinate, to an open file."""
    fh.write(f"# {kv.label} n={len(kv)}\n")
    for z in kv:
        fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def write_knots(kv: KnotVector, path) -> None:
    """Write a knot file with 17 significant digits per coordinate."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_knots(kv, fh)
