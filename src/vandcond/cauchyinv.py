"""Closed-form determinants and inverses for Cauchy, CV, and Vandermonde matrices.

Two inverse variants are provided side by side:

* ``paper`` evaluates the compact closed form exactly as stated:
  entry (i, j) is (-1)^n * s(t_j) * t(s_i) / (t_j - s_i), where
  s(x) = prod(x - s_k) and t(x) = prod(x - t_k).

* ``corrected`` evaluates the adjugate-exact entry
  s(t_i) * t(s_j) / ((t_i - s_j) * s'(s_j) * t'(t_i)),
  with s'(s_j) = prod_{k!=j}(s_j - s_k) and t'(t_i) = prod_{k!=i}(t_i - t_k).
  Desk computation on a 2x2 instance shows the compact form omits the
  difference-product divisors and transposes the index roles; only the
  corrected variant satisfies C @ Cinv = I.  Both are kept because the
  downstream lower bounds are defined through the compact form.

All knot products are accumulated as (log10 magnitude, phase) pairs so that
entries spanning hundreds of decades never overflow; conversion to complex
floats happens only at API boundaries.  Every entry comes from one walk
over t_i - s_j of `logdomain.log_blocks`, after one up-front
`check_disjoint`: the tables (`*_inverse`, `*_log_entries`) through
`inverse_blocks`, and the column peaks of `bounds.bound_cv`, both variants
at once, through `cv_column_peaks`.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import RangeOverflow
from .knotgen import KnotVector
from .logdomain import (check_disjoint, diff_blocks, log_blocks, log_products,
                        log_row_sums, pow_diff_logs, self_derivative_logs, wrap_phase)
from .spectral import poly_from_roots
from .structmat import DenseMatrix, check_unit_circle, cv_knots


class InverseVariant(enum.Enum):
    PAPER = "paper"
    CORRECTED = "corrected"


def cauchy_det(s: KnotVector, t: KnotVector) -> tuple[float, float]:
    """(log10 magnitude, phase in (-pi, pi]) of det C.

    det C = prod_{i<j} (s_j - s_i)(t_i - t_j) / prod_{i,j} (s_i - t_j).
    """
    sp, tp = s.as_array(), t.as_array()
    if len(sp) != len(tp):
        raise ValueError("determinant requires a square matrix")
    check_disjoint(sp, tp)
    n = len(sp)
    cross_mag, cross_ph = log_products(sp, tp)
    mag, ph = -float(np.sum(cross_mag)), -float(np.sum(cross_ph))
    # Row i of a block keeps s_i - s_j left of the diagonal (j < i), takes
    # t_i - t_j right of it (j > i) and 1 on it (log and angle 0): every row is
    # summed whole inside one block, so the result does not depend on its size.
    def operands(i, j):  # of the block at row lo: s left of the diagonal, t right
        left = j < lo + i
        return (np.where(left, sp[lo + i], tp[lo + i]),
                np.where(left, sp[j], tp[j]))

    row_mag, row_ph = np.empty(n), np.empty(n)
    with np.errstate(over="ignore"):
        for lo, d in diff_blocks(sp, sp):
            hi = lo + len(d)
            k = np.arange(len(d))
            np.subtract(tp[lo:hi, None], tp[None, hi:], out=d[:, hi:])
            np.copyto(d[:, lo:hi], tp[lo:hi, None] - tp[None, lo:hi], where=k[:, None] < k)
            d[k, lo + k] = 1.0
            row_mag[lo:hi] = log_row_sums(d, np.log10(np.abs(d)), operands)
            row_ph[lo:hi] = np.sum(np.angle(d), axis=1)
    mag += float(np.sum(row_mag))
    ph += float(np.sum(row_ph))
    return mag, wrap_phase(ph)


def _cv_derivative_logs(tp: np.ndarray):
    """t'(t_i) of the CV grid, t(x) = x**n - f**n: n * t_i**(n-1) analytically."""
    n = len(tp)
    return math.log10(n) + (n - 1) * np.log10(np.abs(tp)), (n - 1) * np.angle(tp)


def inverse_blocks(sp: np.ndarray, tp: np.ndarray, variant: InverseVariant,
                   cv_f=None):
    """Yield (lo, mag, ph): rows lo.. of the closed-form inverse's log tables.

    Entry (i, j), of the corrected inverse or the transposed paper one, is
    row_i - log10|t_i - s_j| + col_j in (log10 magnitude, raw phase).
    Rows are s(t_i), over t'(t_i) if corrected, times (-1)**n for paper;
    columns are t(s_j), or x**n - f**n with `cv_f`, over s'(s_j) if
    corrected.  After `check_disjoint`, columns, s' and t' come first, then
    each `log_blocks` block is turned into entries.  Phases stay unwrapped:
    wrapping costs more than the rest of the walk.
    """
    n = len(sp)
    if len(tp) != n:
        raise ValueError("inverse requires a square matrix")
    check_disjoint(sp, tp)
    col = log_products(sp, tp) if cv_f is None else pow_diff_logs(sp, cv_f, n)
    corrected = variant is InverseVariant.CORRECTED
    if corrected:
        col = [c - d for c, d in zip(col, self_derivative_logs(sp))]
        tder = self_derivative_logs(tp) if cv_f is None else _cv_derivative_logs(tp)
    for lo, d, mag, row_mag in log_blocks(tp, sp):
        block = mag, np.angle(d)
        for k, x in enumerate(block):
            row = np.sum(x, axis=1) if k else row_mag
            if corrected:
                row -= tder[k][lo:lo + len(d)]
            elif k:
                row += math.pi * n
            np.subtract(row[:, None], x, out=x)  # in place: no n x n scratch
            x += col[k]
        yield lo, *block


def cv_column_peaks(sp: np.ndarray, tp: np.ndarray):
    """(paper, corrected): max_i (r_i - log10|t_i - s_j|) for each column j.

    tp is the CV grid `cv_knots(n, f)`.  r_i is log10|s(t_i)| for the paper
    inverse and log10|s(t_i)| - log10|t'(t_i)| for the corrected one, both
    rounded as `inverse_blocks` rounds them, and both come from one
    `log_blocks` walk, after the same `check_disjoint`.  Entry
    (i, j) of either table is fl(fl(r_i - log10|t_i - s_j|) + col_j), and
    rounded addition is monotone, so fl(peak_j + col_j) is the largest entry
    of column j bit for bit: the caller adds its O(n) column term after the
    walk and needs no n x n table.
    """
    check_disjoint(sp, tp)
    tder = _cv_derivative_logs(tp)[0]
    paper, corrected = np.full((2, len(sp)), -np.inf)
    for lo, _, logs, row in log_blocks(tp, sp):
        np.maximum(paper, np.max(row[:, None] - logs, axis=0), out=paper)
        row -= tder[lo:lo + len(row)]
        np.subtract(row[:, None], logs, out=logs)
        np.maximum(corrected, np.max(logs, axis=0), out=corrected)
    return paper, corrected


def _inverse_logs(sp: np.ndarray, tp: np.ndarray, variant: InverseVariant,
                  cv_f=None):
    """(log10 magnitude, raw phase) tables of every inverse entry; every public
    inverse decides its variant here, an InverseVariant or its value (else ValueError)."""
    variant = InverseVariant(variant)
    mag, ph = np.empty((2, len(sp), len(sp)))
    for lo, block_mag, block_ph in inverse_blocks(sp, tp, variant, cv_f):
        mag[lo:lo + len(block_mag)] = block_mag
        ph[lo:lo + len(block_ph)] = block_ph
    return (mag, ph) if variant is InverseVariant.CORRECTED else (mag.T, ph.T)


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


def cauchy_inverse(s: KnotVector, t: KnotVector,
                   variant: InverseVariant) -> DenseMatrix:
    """Full inverse assembled entrywise from the chosen closed form."""
    return _materialize(*_inverse_logs(s.as_array(), t.as_array(), variant))


def cv_inverse(s: KnotVector, f: complex, variant: InverseVariant) -> DenseMatrix:
    """Full CV inverse; the column polynomial is t(x) = x**n - f**n."""
    return _materialize(*_inverse_logs(s.as_array(), cv_knots(len(s), f), variant,
                                       complex(f)))


def cv_inverse_log_entries(s: KnotVector, f: complex,
                           variant: InverseVariant):
    """(log10 magnitude, phase) tables of all CV inverse entries; overflow-free."""
    mag, ph = _inverse_logs(s.as_array(), cv_knots(len(s), f), variant, complex(f))
    return mag, wrap_phase(ph, out=ph)


def cauchy_inverse_log_entries(s: KnotVector, t: KnotVector,
                               variant: InverseVariant):
    """(log10 magnitude, phase) tables of all Cauchy inverse entries."""
    mag, ph = _inverse_logs(s.as_array(), t.as_array(), variant)
    return mag, wrap_phase(ph, out=ph)


def vandermonde_inverse_via_cv(s: KnotVector, f: complex,
                               variant: InverseVariant) -> DenseMatrix:
    """Vandermonde inverse through the CV factorization; |f| must be 1.

    V^{-1} = diag(f^(n-1-k)) Omega^H diag(omega^-j) C^{-1} diag(1/(s_i^n - f^n)),
    with C the CV matrix of (s, f) and the chosen inverse variant plugged in.
    The right diagonal is applied in log10, before the one conversion, and
    Omega^H diag(omega^-j) is the DFT shifted up a row (omega^-kj omega^-j =
    omega^-(k+1)j).  Off the unit circle this cancels |f|^(n-1-k) in floats.
    """
    sp = s.as_array()
    n = len(sp)
    tp = cv_knots(n, f)
    check_unit_circle(f)
    mag, ph = _inverse_logs(sp, tp, variant, f)
    pow_mag, pow_ph = pow_diff_logs(sp, f, n)
    mag -= pow_mag
    ph -= pow_ph
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
