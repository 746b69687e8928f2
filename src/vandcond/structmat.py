"""Dense structured matrix builders: Vandermonde, DFT, Cauchy, CV, blocks."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import BlockTooLarge, Overflow
from .knotgen import DISTINCT_TOL, KnotVector, roots_of_unity
from .logdomain import check_disjoint

#: Entries above 10**OVERFLOW_LOG10 are refused up front.
OVERFLOW_LOG10 = 307.5


@dataclass(frozen=True)
class DenseMatrix:
    """Complex dense matrix plus a descriptor recording how it was built.

    The matrix keeps its own read-only copy of `data`, so later writes to
    the caller's array never reach it.  With `copy=False` a freshly built
    array is handed over instead and frozen in place; the caller must keep
    no other reference to it.
    """

    data: np.ndarray
    descriptor: str = "custom"
    params: dict = field(default_factory=dict)
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
        convert = np.array if copy else np.asarray
        arr = convert(self.data, dtype=np.complex128, order="C")
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
    return DenseMatrix(V, "vandermonde", {"label": s.label, "n": n}, copy=False)


def dft(n: int) -> DenseMatrix:
    """The n-point Fourier matrix: Vandermonde on the n-th roots of 1."""
    M = vandermonde(roots_of_unity(n))
    return DenseMatrix(M.data, "dft", {"n": n}, copy=False)


def _cauchy_matrix(sp: np.ndarray, tp: np.ndarray, tol: float, descriptor: str,
                   params: dict) -> DenseMatrix:
    """1 / (sp[i] - tp[j]), filled in the same pass as the collision check."""
    data = np.empty((len(sp), len(tp)), dtype=np.complex128)
    check_disjoint(sp, tp, tol, out=data)
    return DenseMatrix(data, descriptor, params, copy=False)


def cauchy(s: KnotVector, t: KnotVector, tol: float = DISTINCT_TOL) -> DenseMatrix:
    """Matrix with entry (i, j) = 1 / (s_i - t_j); rectangular shapes allowed."""
    sp, tp = s.as_array(), t.as_array()
    return _cauchy_matrix(sp, tp, tol, "cauchy",
                          {"s_label": s.label, "t_label": t.label,
                           "rows": len(sp), "cols": len(tp)})


def cv_knots(n: int, f: complex) -> np.ndarray:
    """The CV column grid t_j = f * omega_n^j."""
    return complex(f) * roots_of_unity(n).as_array()


def cv_matrix(s: KnotVector, f: complex, tol: float = DISTINCT_TOL) -> DenseMatrix:
    """Cauchy matrix whose column knots are the roots-of-unity grid scaled by f."""
    if abs(f) == 0.0:
        raise ValueError("f must be nonzero")
    n = len(s)
    return _cauchy_matrix(s.as_array(), cv_knots(n, f), tol, "cv",
                          {"s_label": s.label, "f": complex(f), "n": n})


def leading_block(M: DenseMatrix, q: int) -> DenseMatrix:
    """The q x q top-left (northwestern) submatrix."""
    if q < 1 or q > min(M.rows, M.cols):
        raise BlockTooLarge(f"q={q} exceeds the {M.rows}x{M.cols} matrix")
    return DenseMatrix(M.data[:q, :q], "block-of",
                       {"parent": M.descriptor, "q": q, **M.params}, copy=False)


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
    return DenseMatrix(np.array(vals, dtype=np.complex128).reshape(rows, cols),
                       copy=False)
