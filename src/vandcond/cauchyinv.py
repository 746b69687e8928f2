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
floats happens only at API boundaries.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import KnotCollision, RangeOverflow
from .knotgen import DISTINCT_TOL, KnotVector
from .logdomain import (RANGE_LOG10, LogComplex, check_disjoint, diff_blocks,
                        log_products, pow_diff_logs, self_derivative_logs,
                        wrap_phase)
from .spectral import poly_from_roots
from .structmat import DenseMatrix, cv_knots


class InverseVariant(enum.Enum):
    PAPER = "paper"
    CORRECTED = "corrected"


def log_root_product(knots: KnotVector, x: complex) -> LogComplex:
    """prod_i (x - s_i) as a LogComplex; exactly zero when x is a knot."""
    mag, ph = log_products(np.array([complex(x)]), knots.as_array())
    if not np.isfinite(mag[0]):
        return LogComplex(-math.inf, 0.0)
    return LogComplex(float(mag[0]), wrap_phase(float(ph[0])))


def cauchy_det(s: KnotVector, t: KnotVector, tol: float = DISTINCT_TOL) -> LogComplex:
    """det C = prod_{i<j} (s_j - s_i)(t_i - t_j) / prod_{i,j} (s_i - t_j)."""
    sp, tp = s.as_array(), t.as_array()
    if len(sp) != len(tp):
        raise ValueError("determinant requires a square matrix")
    check_disjoint(sp, tp, tol)
    n = len(sp)
    cross_mag, cross_ph = log_products(sp, tp)
    mag, ph = -float(np.sum(cross_mag)), -float(np.sum(cross_ph))
    # Row blocks hold s_j - s_i at column i < row j, t_i - t_j at column j > row i.
    for pts, keep in ((sp, np.less), (tp, np.greater)):
        for lo, d in diff_blocks(pts, pts):
            d = d[keep(np.arange(n), np.arange(lo, lo + len(d))[:, None])]
            mag += float(np.sum(np.log10(np.abs(d))))
            ph += float(np.sum(np.angle(d)))
    return LogComplex(mag, wrap_phase(ph))


def inverse_factors(sp: np.ndarray, tp: np.ndarray, variant: InverseVariant,
                    tol: float, cv_f=None):
    """(row_mag, row_ph, col_mag, col_ph): the O(n) factors of the closed form.

    Entry (i, j) of the corrected inverse, (j, i) of the paper one, is
    row_i / (t_i - s_j) * col_j in (log10 magnitude, raw phase).  Rows are
    s(t_i), over t'(t_i) if corrected, times (-1)**n for paper.  Columns are
    t(s_j), or x**n - f**n in closed form with `cv_f`, over s'(s_j) if corrected.
    """
    n = len(sp)
    if len(tp) != n:
        raise ValueError("inverse requires a square matrix")
    check_disjoint(sp, tp, tol)
    row_mag, row_ph = log_products(tp, sp)
    col_mag, col_ph = log_products(sp, tp) if cv_f is None else pow_diff_logs(sp, cv_f, n)
    if variant is InverseVariant.PAPER:
        return row_mag, row_ph + math.pi * n, col_mag, col_ph
    sp_mag, sp_ph = self_derivative_logs(sp)
    if cv_f is None:
        tp_mag, tp_ph = self_derivative_logs(tp)
    else:
        # t(x) = x**n - f**n, so t'(t_i) = n * t_i**(n-1) analytically.
        tp_mag = math.log10(n) + (n - 1) * np.log10(np.abs(tp))
        tp_ph = (n - 1) * np.angle(tp)
    return row_mag - tp_mag, row_ph - tp_ph, col_mag - sp_mag, col_ph - sp_ph


def _inverse_logs(sp: np.ndarray, tp: np.ndarray, variant: InverseVariant,
                  tol: float, cv_f=None):
    """(log10 magnitude, wrapped phase) tables of every inverse entry.

    Filled from `inverse_factors` one row block of t_i - s_j at a time;
    the paper variant reads the tables transposed.
    """
    row_mag, row_ph, col_mag, col_ph = inverse_factors(sp, tp, variant, tol, cv_f)
    n = len(sp)
    mag = np.empty((n, n))
    ph = np.empty((n, n))
    for lo, d in diff_blocks(tp, sp):
        hi = lo + len(d)
        np.subtract(row_mag[lo:hi, None], np.log10(np.abs(d)), out=mag[lo:hi])
        mag[lo:hi] += col_mag
        np.subtract(row_ph[lo:hi, None], np.angle(d), out=ph[lo:hi])
        ph[lo:hi] += col_ph
    wrap_phase(ph, out=ph)
    return (mag, ph) if variant is InverseVariant.CORRECTED else (mag.T, ph.T)


def _materialize(mag: np.ndarray, ph: np.ndarray, params: dict) -> DenseMatrix:
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
    return DenseMatrix(out, "custom", params, copy=False)


def _inverse_cell(sp: np.ndarray, tp: np.ndarray, i: int, j: int,
                  variant: InverseVariant, tol: float, cv_f=None) -> LogComplex:
    """Entry (i, j) of the `_inverse_logs` tables from the O(n) factors alone.

    The operations and their order are those of the table fill, so the
    cell is equal to the table's; indices follow numpy's (negative ones
    count from the end, out-of-range ones raise IndexError).
    """
    row_mag, row_ph, col_mag, col_ph = inverse_factors(sp, tp, variant, tol, cv_f)
    r, c = (i, j) if variant is InverseVariant.CORRECTED else (j, i)
    r, c = range(len(sp))[r], range(len(sp))[c]
    d = tp[r:r + 1] - sp[c:c + 1]
    mag = row_mag[r] - np.log10(np.abs(d))[0] + col_mag[c]
    ph = row_ph[r] - np.angle(d)[0] + col_ph[c]
    return LogComplex(float(mag), wrap_phase(float(ph)))


def cauchy_inverse_entry(s: KnotVector, t: KnotVector, i: int, j: int,
                         variant: InverseVariant,
                         tol: float = DISTINCT_TOL) -> LogComplex:
    """Entry (i, j) of the chosen inverse variant, in the log domain."""
    return _inverse_cell(s.as_array(), t.as_array(), i, j, variant, tol)


def cv_inverse_entry(s: KnotVector, f: complex, i: int, j: int,
                     variant: InverseVariant,
                     tol: float = DISTINCT_TOL) -> LogComplex:
    """Entry (i, j) of the CV inverse, with t(x) = x**n - f**n substituted."""
    return _inverse_cell(s.as_array(), cv_knots(len(s), f), i, j, variant, tol,
                         complex(f))


def cauchy_inverse(s: KnotVector, t: KnotVector, variant: InverseVariant,
                   tol: float = DISTINCT_TOL) -> DenseMatrix:
    """Full inverse assembled entrywise from the chosen closed form."""
    logs = _inverse_logs(s.as_array(), t.as_array(), variant, tol)
    return _materialize(*logs, {"inverse_of": "cauchy", "variant": variant.value})


def cv_inverse(s: KnotVector, f: complex, variant: InverseVariant,
               tol: float = DISTINCT_TOL) -> DenseMatrix:
    """Full CV inverse; the column polynomial is t(x) = x**n - f**n."""
    logs = _inverse_logs(s.as_array(), cv_knots(len(s), f), variant, tol, complex(f))
    return _materialize(*logs, {"inverse_of": "cv", "variant": variant.value,
                                "f": complex(f)})


def cv_inverse_log_entries(s: KnotVector, f: complex,
                           variant: InverseVariant,
                           tol: float = DISTINCT_TOL):
    """(log10 magnitude, phase) tables of all CV inverse entries; overflow-free."""
    return _inverse_logs(s.as_array(), cv_knots(len(s), f), variant, tol, complex(f))


def cauchy_inverse_log_entries(s: KnotVector, t: KnotVector,
                               variant: InverseVariant,
                               tol: float = DISTINCT_TOL):
    """(log10 magnitude, phase) tables of all Cauchy inverse entries."""
    return _inverse_logs(s.as_array(), t.as_array(), variant, tol)


def vandermonde_inverse_via_cv(s: KnotVector, f: complex,
                               variant: InverseVariant,
                               tol: float = DISTINCT_TOL) -> DenseMatrix:
    """Vandermonde inverse through the CV factorization.

    V^{-1} = diag(f^(n-1-j)) Omega^H diag(omega^-j) C^{-1} diag(1/(s_i^n - f^n)),
    with C the CV matrix of (s, f) and the chosen inverse variant plugged in.
    """
    sp = s.as_array()
    n = len(sp)
    cinv = cv_inverse(s, f, variant, tol).data
    f = complex(f)
    mag, ph = pow_diff_logs(sp, f, n)
    if np.any(np.isinf(mag) & (mag < 0)):
        bad = int(np.argmin(mag))
        raise KnotCollision(bad, 0, 0.0)
    if np.max(np.abs(mag)) > RANGE_LOG10:
        raise RangeOverflow(float(np.max(np.abs(mag))), where="diag(s^n - f^n)")
    right = 10.0 ** (-mag) * np.exp(-1j * ph)
    # Omega^H y is the DFT of y.
    out = np.fft.fft(np.exp(-2j * np.pi * np.arange(n) / n)[:, None] * cinv, axis=0)
    out = (f ** (n - 1 - np.arange(n)))[:, None] * out * right[None, :]
    if not np.all(np.isfinite(out)):
        raise RangeOverflow(math.inf, where="assembled inverse")
    return DenseMatrix(out, "custom",
                       {"inverse_of": "vandermonde", "route": "cv",
                        "variant": variant.value, "f": f}, copy=False)


def vandermonde_inverse_lagrange(s: KnotVector) -> DenseMatrix:
    """Vandermonde inverse from Lagrange basis coefficients.

    Column i holds the coefficients of s(x) / ((x - s_i) s'(s_i)); the
    orientation is fixed by the residual identity V @ V^{-1} = I.
    """
    sp = s.as_array()
    n = len(sp)
    full = poly_from_roots(s)  # ascending, monic, length n+1
    sp_mag, sp_ph = self_derivative_logs(sp)
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        # Deflate by the root s_i: synthetic division from the top coefficient.
        q = np.empty(n, dtype=np.complex128)
        q[n - 1] = full[n]
        for k in range(n - 1, 0, -1):
            q[k - 1] = full[k] + sp[i] * q[k]
        deriv = 10.0 ** sp_mag[i] * np.exp(1j * sp_ph[i])
        out[:, i] = q / deriv
    if not np.all(np.isfinite(out)):
        raise RangeOverflow(math.inf, where="lagrange coefficients")
    return DenseMatrix(out, "custom",
                       {"inverse_of": "vandermonde", "route": "lagrange"},
                       copy=False)
