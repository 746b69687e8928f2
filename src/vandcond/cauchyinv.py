"""Closed-form inverses for Cauchy, CV, and Vandermonde matrices.

Two inverse variants are provided side by side:

* ``paper`` evaluates the compact closed form exactly as stated:
  entry (i, j) is (-1)^n * s(t_j) * t(s_i) / (t_j - s_i), where
  s(x) = prod(x - s_k) and t(x) = prod(x - t_k).

* ``corrected`` evaluates the adjugate-exact entry
  s(t_i) * t(s_j) / ((t_i - s_j) * s'(s_j) * t'(t_i)),
  with s'(s_j) = prod_{k!=j}(s_j - s_k) and t'(t_i) = prod_{k!=i}(t_i - t_k).
  Desk computation on a 2x2 instance shows the compact form omits the
  difference-product divisors and transposes the index roles; only the
  corrected variant satisfies C @ Cinv = I.  Both log tables are kept
  because the downstream lower bounds are defined through the compact
  form; the dense inverses are corrected-only.

All knot products are accumulated as (log10 magnitude, phase) pairs so that
entries spanning hundreds of decades never overflow; conversion to complex
floats happens only at API boundaries.  Every entry comes from one walk
over t_i - s_j of `logdomain.log_blocks`, after one up-front
`check_disjoint`; its row sums are s(t_i) and its column sums t(s_j).
`_inverse_logs` writes each block in place into the tables (`*_inverse`,
`*_log_entries`), and `cv_column_peaks` reduces it to the column peaks and
sums of `bounds.bound_cv`, both variants at once, in O(n) memory.  Cauchy
tables take three n x n walks if corrected (with s'(s_j) and t'(t_i)), one if paper.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import RangeOverflow
from .knotgen import KnotVector
from .logdomain import (add_column_sums, check_disjoint, log_blocks, self_derivative_logs,
                        wrap_phase)
from .spectral import poly_from_roots
from .structmat import DenseMatrix, check_unit_circle, cv_knots


class InverseVariant(enum.Enum):
    PAPER = "paper"
    CORRECTED = "corrected"


def _cv_derivative_logs(tp: np.ndarray):
    """t'(t_i) of the CV grid, t(x) = x**n - f**n: n * t_i**(n-1) analytically."""
    n = len(tp)
    return math.log10(n) + (n - 1) * np.log10(np.abs(tp)), (n - 1) * np.angle(tp)


def cv_column_peaks(sp: np.ndarray, tp: np.ndarray):
    """(paper, corrected, column) of each column j, from one `log_blocks` walk.

    tp is the CV grid `cv_knots(n, f)`.  The peaks are max_i (r_i - log10|t_i - s_j|),
    r_i being log10|s(t_i)| for the paper inverse and log10|s(t_i)| - log10|t'(t_i)|
    for the corrected one, and `column` the column sums log10|t(s_j)|, all
    rounded as `_inverse_logs` rounds them, after the same `check_disjoint`.
    Entry (i, j) of either table is fl(fl(r_i - log10|t_i - s_j|) + col_j),
    and rounded addition is monotone, so fl(peak_j + col_j) is the largest
    entry of column j bit for bit: the caller adds its O(n) column term after
    the walk and needs no n x n table.
    """
    check_disjoint(sp, tp)
    tder = _cv_derivative_logs(tp)[0]
    paper, corrected = np.full((2, len(sp)), -np.inf)
    column = np.zeros(len(sp))
    for lo, _, logs, row in log_blocks(tp, sp):
        add_column_sums(column, logs)
        np.maximum(paper, np.max(row[:, None] - logs, axis=0), out=paper)
        row -= tder[lo:lo + len(row)]
        np.subtract(row[:, None], logs, out=logs)
        np.maximum(corrected, np.max(logs, axis=0), out=corrected)
    return paper, corrected, column


def _inverse_logs(sp: np.ndarray, tp: np.ndarray, variant: InverseVariant,
                  cv: bool = False, t_column: bool = True):
    """(log10 magnitude, raw phase) tables of every closed-form inverse entry.

    Every public inverse decides its variant here (an InverseVariant or its
    value, else ValueError).  Entry (i, j) of the corrected inverse, or of the
    transposed paper one, is row_i - log10|t_i - s_j| + col_j: rows s(t_i),
    over t'(t_i) if corrected (n t_i^(n-1) if `cv`); columns t(s_j), over
    s'(s_j) if corrected, or without t(s_j) if not `t_column`.  The walk's
    row sums are s(t_i), and its column sums plus n pi are t(s_j), whose n pi
    the paper form's (-1)^n cancels.  Each block is written in place into
    its rows of both tables, and the column term is added after the walk.
    The O(n) row and column phases are wrapped, not the n^2 entries: that
    would cost more than the walk.

    Error budget, first order in u = eps/2: an entry's log magnitude and
    phase each sum at most 4n terms, the logs and angles of t_i - s_k,
    t_i - t_k, s_j - t_k and s_j - s_k (3n + 1 if `cv`).  Each term is
    rounded in its difference, its modulus or angle, its logarithm and its
    addition: 4u each, against quantities of order one, in magnitude and in
    phase.  So each entry is within 4n * 8u = 16 n eps relative of the
    inverse of the matrix as stored, while the knots lie near the unit
    circle; a running column sum reaches k pi after k angles, and its
    roundings, which largely cancel, are counted at the scale of one term.
    """
    variant = InverseVariant(variant)
    n = len(sp)
    if len(tp) != n:
        raise ValueError("inverse requires a square matrix")
    check_disjoint(sp, tp)
    corrected = variant is InverseVariant.CORRECTED
    if corrected:
        tder = _cv_derivative_logs(tp) if cv else self_derivative_logs(tp)
    mag, ph = np.empty((2, n, n))
    col_mag, col_ph = np.zeros((2, n))
    for lo, d, logs, row_mag in log_blocks(tp, sp):
        rows = slice(lo, lo + len(d))
        np.arctan2(d.imag, d.real, out=ph[rows])  # the bits of np.angle(d)
        row_ph = np.sum(ph[rows], axis=1)
        if t_column:
            add_column_sums(col_mag, logs)
            add_column_sums(col_ph, ph[rows])
        if corrected:
            row_mag -= tder[0][rows]
            row_ph -= tder[1][rows]
        wrap_phase(row_ph)
        np.subtract(row_mag[:, None], logs, out=mag[rows])
        np.subtract(row_ph[:, None], ph[rows], out=ph[rows])
    if corrected:
        if t_column:
            col_ph += math.pi * n
        sder = self_derivative_logs(sp)
        col_mag -= sder[0]
        col_ph -= sder[1]
    mag += col_mag
    ph += wrap_phase(col_ph)
    return (mag, ph) if corrected else (mag.T, ph.T)


#: The conversion to complex floats refuses log10 magnitudes beyond this.
RANGE_LOG10 = 300.0


def _materialize(mag: np.ndarray, ph: np.ndarray) -> DenseMatrix:
    """Matrix of entries 10**mag * exp(i ph), built over the engine's tables."""
    peak = float(np.max(mag))
    if peak > RANGE_LOG10:
        i, j = np.unravel_index(int(mag.argmax()), mag.shape)
        raise RangeOverflow(peak, where=f"entry ({i},{j})")
    out = np.empty(mag.shape, dtype=np.complex128)
    np.power(10.0, mag, out=mag)
    np.cos(ph, out=out.real)
    np.sin(ph, out=out.imag)
    out.real *= mag
    out.imag *= mag
    return DenseMatrix(out, copy=False)


def _corrected(variant, tables: str) -> InverseVariant:
    """CORRECTED, the one variant of a dense inverse; paper is refused, naming `tables`."""
    if InverseVariant(variant) is InverseVariant.PAPER:
        raise ValueError(f"the paper form is no inverse; read its entries from {tables}")
    return InverseVariant.CORRECTED


def cauchy_inverse(s: KnotVector, t: KnotVector,
                   variant: InverseVariant) -> DenseMatrix:
    """Full inverse assembled entrywise from the corrected closed form."""
    variant = _corrected(variant, "cauchy_inverse_log_entries")
    return _materialize(*_inverse_logs(s.as_array(), t.as_array(), variant))


def cv_inverse(s: KnotVector, f: complex, variant: InverseVariant) -> DenseMatrix:
    """Full CV inverse, corrected form; the column grid is `cv_knots(n, f)`."""
    tp = cv_knots(len(s), f)
    variant = _corrected(variant, "cv_inverse_log_entries")
    return _materialize(*_inverse_logs(s.as_array(), tp, variant, cv=True))


def cv_inverse_log_entries(s: KnotVector, f: complex,
                           variant: InverseVariant):
    """(log10 magnitude, phase) tables of all CV inverse entries; overflow-free."""
    mag, ph = _inverse_logs(s.as_array(), cv_knots(len(s), f), variant, cv=True)
    return mag, wrap_phase(ph)


def cauchy_inverse_log_entries(s: KnotVector, t: KnotVector,
                               variant: InverseVariant):
    """(log10 magnitude, phase) tables of all Cauchy inverse entries."""
    mag, ph = _inverse_logs(s.as_array(), t.as_array(), variant)
    return mag, wrap_phase(ph)


def vandermonde_inverse_via_cv(s: KnotVector, f: complex,
                               variant: InverseVariant) -> DenseMatrix:
    """Vandermonde inverse through the CV factorization, corrected form; |f| must be 1.

    V^{-1} = diag(f^(n-1-k)) Omega^H diag(omega^-j) C^{-1} diag(1/(s_i^n - f^n)),
    with C the CV matrix of (s, f).  Column j of C^{-1} carries the factor
    t(s_j) = s_j^n - f^n, which the right diagonal divides out again, so
    neither is formed: the tables are taken without t(s_j).
    Omega^H diag(omega^-j) is the DFT shifted up a row (omega^-kj omega^-j =
    omega^-(k+1)j).  Off the unit circle this cancels |f|^(n-1-k) in floats.
    """
    sp = s.as_array()
    n = len(sp)
    tp = cv_knots(n, f)
    check_unit_circle(f)
    variant = _corrected(variant, "cv_inverse_log_entries")
    mag, ph = _inverse_logs(sp, tp, variant, cv=True, t_column=False)
    out = np.roll(np.fft.fft(_materialize(mag, ph).data, axis=0), -1, axis=0)
    out *= (complex(f) ** (n - 1 - np.arange(n)))[:, None]
    return DenseMatrix(out, copy=False)


def vandermonde_inverse_lagrange(s: KnotVector) -> DenseMatrix:
    """Vandermonde inverse from Lagrange basis coefficients.

    Column i holds the coefficients of s(x) / ((x - s_i) s'(s_i)); the
    orientation is fixed by the residual identity V @ V^{-1} = I.
    """
    sp = s.as_array()
    n = len(sp)
    full = poly_from_roots(s)  # ascending, monic, length n+1
    sp_mag, sp_ph = self_derivative_logs(sp)
    # Column i is deflated by its root s_i, all at once, from the top.
    out = np.empty((n, n), dtype=np.complex128)
    out[n - 1] = full[n]
    # Overflow surfaces as non-finite coefficients, detected below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            out[k - 1] = full[k] + sp * out[k]
        # s'(s_i) in two halves: |s'(s_i)| alone may pass 10^308.
        half = 10.0 ** (sp_mag / 2)
        out /= half
        out /= half * np.exp(1j * sp_ph)
    if not np.all(np.isfinite(out)):
        raise RangeOverflow(math.inf, where="lagrange coefficients")
    return DenseMatrix(out, copy=False)
