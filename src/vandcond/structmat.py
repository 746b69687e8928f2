"""Dense structured matrix builders: Vandermonde, DFT, Cauchy, CV, blocks."""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import RangeOverflow, as_array, as_complex, as_int
from .knotgen import KnotVector, roots_of_unity, unit_roots
from .logdomain import check_disjoint, diff_blocks, retake_halved

#: Entries above 10**OVERFLOW_LOG10 are refused up front.
OVERFLOW_LOG10 = 307.5

#: How far from 1 |f|, or a largest knot modulus, may be and count as on the unit circle.
UNIT_F_TOL = 1e-12


@dataclass(frozen=True)
class DenseMatrix:
    """A read-only complex128 matrix of finite entries.

    `data` is a non-empty 2-d array or nested sequence of numbers
    (`errors.as_array`), of which the matrix keeps its own read-only copy.
    With `copy=False` a freshly built C-ordered complex128 array is handed
    over instead and frozen in place; the caller must keep no other
    reference to it.
    """

    data: np.ndarray
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
        arr = as_array("DenseMatrix entries", self.data, 2, copy)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def check_vandermonde_range(s: KnotVector) -> None:
    """RangeOverflow unless every |s_i**j|, j < n, is at most 10**OVERFLOW_LOG10.

    The largest of them is max(1, s_+)**(n - 1), so s_+ alone decides.
    """
    n = len(s)
    s_plus = s.max_modulus()
    if n > 1 and s_plus > 1.0 and (n - 1) * np.log10(s_plus) > OVERFLOW_LOG10:
        raise RangeOverflow((n - 1) * np.log10(s_plus), where="vandermonde")


def power_bands(pts: np.ndarray, cols: int):
    """Yield (lo, band) for lo = 0, 64, 128, ... below `cols`, with
    band[k] = pts**(lo + k) by repeated multiplication, k < min(64, cols - lo).

    Each band's rows are written contiguously, one power at a time, into one
    buffer that the next band overwrites.  Entry i of a power is pts[i]
    times entry i of the power before it, so the bits of a point's powers
    do not depend on which other points share the call:
    `spectral.genp_residual_experiment` builds rows of the Vandermonde
    matrix from slices of its knots, the same bits as `vandermonde_array`.
    """
    band = np.ones((min(cols, 64), len(pts)), dtype=np.complex128)
    for lo in range(0, cols, len(band)):
        if lo:
            np.multiply(band[-1], pts, out=band[0])
        rows = band[:cols - lo]
        for prev, row in zip(rows, rows[1:]):
            np.multiply(prev, pts, out=row)
        yield lo, rows


def vandermonde_array(pts: np.ndarray) -> np.ndarray:
    """A fresh writable n x n array with entry (i, j) = pts[i]**j, powers by
    repeated multiplication.

    Each band of `power_bands` is copied into its columns: the same products
    as a column-by-column fill, bit for bit, with no second n x n array.  No
    range or finiteness check is made; `vandermonde` adds both.
    """
    n = len(pts)
    V = np.empty((n, n), dtype=np.complex128)
    for lo, band in power_bands(pts, n):
        V[:, lo:lo + len(band)] = band.T
    return V


def vandermonde(s: KnotVector) -> DenseMatrix:
    """Square matrix with entry (i, j) = s_i**j (see `vandermonde_array`).

    The range check caps every |s_i**j| at 10**OVERFLOW_LOG10, so no product
    overflows; DenseMatrix makes the one finiteness scan.
    """
    check_vandermonde_range(s)
    return DenseMatrix(vandermonde_array(s.as_array()), copy=False)


def dft(n: int) -> DenseMatrix:
    """The n-point Fourier matrix: Vandermonde on the n-th roots of 1."""
    return vandermonde(roots_of_unity(n))


def _cauchy_matrix(sp: np.ndarray, tp: np.ndarray) -> DenseMatrix:
    """1 / (sp[i] - tp[j]), after `check_disjoint` has cleared every pair.

    Near the float range a reciprocal can fail: the difference, or numpy's
    divisor |d|^2 / max(|Re d|, |Im d|) <= sqrt 2 |d|, overflows, and the
    entry comes out 0 or nan.  Only a block with some |d| >= 2^1023 can
    meet one; there `retake_halved` halves each failed difference to
    x/2 - k/2, and the entry becomes 0.25 / (x/4 - k/4), whose divisor
    stays below the float range.  Every other entry keeps numpy's bits.
    """
    check_disjoint(sp, tp)
    data = np.empty((len(sp), len(tp)), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, d in diff_blocks(sp, tp):
            block = data[lo:lo + len(d)]
            np.divide(1.0, d, out=block)
            if np.abs(d).max() >= 2.0 ** 1023:
                i, j = retake_halved(d, (block == 0) | np.isnan(block),
                                     sp[lo:lo + len(d)], tp)
                block[i, j] = 0.25 / (0.5 * d[i, j])
    return DenseMatrix(data, copy=False)


def cauchy(s: KnotVector, t: KnotVector) -> DenseMatrix:
    """Matrix with entry (i, j) = 1 / (s_i - t_j); rectangular shapes allowed."""
    return _cauchy_matrix(s.as_array(), t.as_array())


def cv_knots(n: int, f: complex) -> np.ndarray:
    """The CV column grid t_j = f * omega_n^j, f finite and nonzero; every CV path builds it here.

    `bounds.best_arc_search`'s band budgets its rounding (25u per grid
    point); re-derive the band if this arithmetic changes.
    """
    f = as_complex("f", f)
    if f == 0:
        raise ValueError("f must be nonzero")
    # |f omega^j| = |f|, which as_complex keeps finite; numpy's complex multiply
    # by a scalar sets the overflow flag at odd lengths near the float range anyway.
    with np.errstate(over="ignore"):
        return f * unit_roots(n)


def check_unit_circle(f: complex) -> None:
    """ValueError unless f is finite and |f| = 1 within UNIT_F_TOL, where CV paths are exact."""
    if abs(abs(as_complex("f", f)) - 1.0) > UNIT_F_TOL:
        raise ValueError("f must lie on the unit circle")


def cv_matrix(s: KnotVector, f: complex) -> DenseMatrix:
    """Cauchy matrix whose column knots are the roots-of-unity grid scaled by f."""
    return _cauchy_matrix(s.as_array(), cv_knots(len(s), f))


def leading_block(M: DenseMatrix, q: int) -> DenseMatrix:
    """The q x q top-left (northwestern) submatrix; ValueError unless q is
    an integer in 1..min(rows, cols)."""
    top = min(M.rows, M.cols)
    if not 1 <= as_int("q", q) <= top:
        raise ValueError(f"q={q} is outside 1..{top} for the "
                         f"{M.rows}x{M.cols} matrix")
    return DenseMatrix(M.data[:q, :q], copy=False)


def dump_matrix(M: DenseMatrix, fh) -> None:
    """Debug dump: header `rows cols`, then one `re,im` pair per entry, row-major."""
    fh.write(f"{M.rows} {M.cols}\n")
    # One write per row; a complex row viewed as floats is re, im, re, im, ...
    row = "%.17g,%.17g\n" * M.cols
    for z in M.data:
        fh.write(row % tuple(z.view(np.float64).tolist()))

