"""Dense structured matrix builders: Vandermonde, DFT, Cauchy, CV, blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlockTooLarge, KnotCollision, Overflow
from .knotgen import DISTINCT_TOL, KnotVector, roots_of_unity

#: Entries above 10**OVERFLOW_LOG10 are refused up front.
OVERFLOW_LOG10 = 307.5


@dataclass(frozen=True)
class DenseMatrix:
    """Complex dense matrix plus a descriptor recording how it was built."""

    data: np.ndarray
    descriptor: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # ascontiguousarray returns the caller's own array when it already
        # fits, so freeze a view of it, never the caller's object.
        arr = np.ascontiguousarray(self.data, dtype=np.complex128).view()
        if arr.ndim != 2:
            raise ValueError("DenseMatrix requires a 2-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("DenseMatrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def vandermonde(s: KnotVector) -> DenseMatrix:
    """Square matrix with entry (i, j) = s_i**j, powers by repeated multiplication."""
    pts = s.as_array()
    n = len(pts)
    s_plus = float(np.max(np.abs(pts)))
    if n > 1 and s_plus > 1.0 and (n - 1) * np.log10(s_plus) > OVERFLOW_LOG10:
        raise Overflow((n - 1) * np.log10(s_plus))
    V = np.ones((n, n), dtype=np.complex128)
    for j in range(1, n):
        V[:, j] = V[:, j - 1] * pts
    if not np.all(np.isfinite(V)):
        raise Overflow((n - 1) * np.log10(max(s_plus, 1.0)))
    return DenseMatrix(V, "vandermonde", {"label": s.label, "n": n})


def dft(n: int) -> DenseMatrix:
    """The n-point Fourier matrix: Vandermonde on the n-th roots of 1."""
    M = vandermonde(roots_of_unity(n))
    return DenseMatrix(M.data, "dft", {"n": n})


def cauchy(s: KnotVector, t: KnotVector, tol: float = DISTINCT_TOL) -> DenseMatrix:
    """Matrix with entry (i, j) = 1 / (s_i - t_j); rectangular shapes allowed."""
    sp, tp = s.as_array(), t.as_array()
    diff = sp[:, None] - tp[None, :]
    gap = np.abs(diff)
    if gap.min() <= tol:
        i, j = np.unravel_index(int(gap.argmin()), gap.shape)
        raise KnotCollision(int(i), int(j), float(gap.min()))
    return DenseMatrix(1.0 / diff, "cauchy",
                       {"s_label": s.label, "t_label": t.label,
                        "rows": len(sp), "cols": len(tp)})


def cv_knots(n: int, f: complex) -> np.ndarray:
    """The CV column grid t_j = f * omega_n^j."""
    return complex(f) * roots_of_unity(n).as_array()


def cv_matrix(s: KnotVector, f: complex, tol: float = DISTINCT_TOL) -> DenseMatrix:
    """Cauchy matrix whose column knots are the roots-of-unity grid scaled by f."""
    if abs(f) == 0.0:
        raise ValueError("f must be nonzero")
    sp = s.as_array()
    n = len(sp)
    tp = cv_knots(n, f)
    diff = sp[:, None] - tp[None, :]
    gap = np.abs(diff)
    if gap.min() <= tol:
        i, j = np.unravel_index(int(gap.argmin()), gap.shape)
        raise KnotCollision(int(i), int(j), float(gap.min()))
    return DenseMatrix(1.0 / diff, "cv", {"s_label": s.label, "f": complex(f), "n": n})


def leading_block(M: DenseMatrix, q: int) -> DenseMatrix:
    """The q x q top-left (northwestern) submatrix."""
    if q < 1 or q > min(M.rows, M.cols):
        raise BlockTooLarge(f"q={q} exceeds the {M.rows}x{M.cols} matrix")
    return DenseMatrix(M.data[:q, :q], "block-of",
                       {"parent": M.descriptor, "q": q, **M.params})


def dump_matrix(M: DenseMatrix, fh) -> None:
    """Debug dump: header `rows cols`, then one `re,im` pair per entry, row-major."""
    fh.write(f"{M.rows} {M.cols}\n")
    for z in M.data.ravel(order="C"):
        fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def load_matrix(fh) -> DenseMatrix:
    """Inverse of :func:`dump_matrix`."""
    header = fh.readline().split()
    rows, cols = int(header[0]), int(header[1])
    vals = []
    for _ in range(rows * cols):
        re_s, im_s = fh.readline().strip().split(",")
        vals.append(complex(float(re_s), float(im_s)))
    return DenseMatrix(np.array(vals, dtype=np.complex128).reshape(rows, cols))
