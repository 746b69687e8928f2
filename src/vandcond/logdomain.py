"""Log-domain kernels shared by the inverse formulas and the bounds.

Knot products are kept as (log10 magnitude, phase) pairs, so products of
thousands of factors spanning hundreds of decades never overflow.  Every
difference table is formed in row blocks of at most `CHUNK` entries, so
one block's scratch is 16 * CHUNK bytes of complex differences plus
8 * CHUNK bytes of float magnitudes (384 KB), whatever the knot count.

This module depends on numpy and the package's error types only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import KnotCollision

#: Points at most this far apart collide, within one knot vector or between
#: the row and column knots of a Cauchy or CV matrix: above double rounding
#: noise, below any knot gap that the generators can produce.
DISTINCT_TOL = 1e-13

#: Entries per row block of a difference table: 256 KB of complex
#: differences plus 128 KB of magnitudes, which stay in a 2 MB L2 cache and,
#: in a warm process, come from freed heap memory.  Blocks of 2^18 entries
#: (6 MB) missed L2 and page-faulted up to about 2,400 times per walk at
#: n = 1536; 2^13 and smaller lost to per-block overhead.  No row's sum,
#: minimum or count crosses a block, so results do not depend on this size.
CHUNK = 1 << 14

_TWO_PI = 2.0 * math.pi
_LOG10_2 = math.log10(2.0)


def wrap_phase(p, out=None):
    """Phase p, scalar or array, reduced exactly into (-pi, pi].

    The result is p - 2 pi k for the one integer k that lands there; fmod
    and a single shift by 2 pi are both exact.  A scalar comes back as a
    float; an array is written into `out` (which may be `p`) when given.
    """
    r = np.fmod(p, _TWO_PI, out=np.empty(np.shape(p)) if out is None else out)
    np.subtract(r, _TWO_PI, out=r, where=r > math.pi)
    np.add(r, _TWO_PI, out=r, where=r <= -math.pi)
    return float(r) if r.ndim == 0 else r


def diff_blocks(xs: np.ndarray, knots: np.ndarray):
    """Yield (lo, xs[lo:hi, None] - knots[None, :]) in blocks of <= CHUNK entries."""
    rows = max(1, CHUNK // max(1, len(knots)))
    for lo in range(0, len(xs), rows):
        yield lo, xs[lo:lo + rows, None] - knots[None, :]


def log_products(xs: np.ndarray, knots: np.ndarray):
    """log10 magnitude and raw phase of prod_k (x - knots[k]) for each x.

    Exact hits produce -inf magnitudes.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.complex128))
    return _log_sums(xs, np.asarray(knots, dtype=np.complex128), skip_self=False)


def log_magnitudes(xs: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """The `log_products` magnitudes alone, bit for bit, with no phase work."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.complex128))
    return _log_sums(xs, np.asarray(knots, dtype=np.complex128), skip_self=False,
                     phase=False)[0]


def self_derivative_logs(points: np.ndarray, phase: bool = True):
    """log10 magnitude and raw phase of prod_{k != j} (p_j - p_k) for each j.

    Without `phase` the phase is None and no angle is taken.
    """
    points = np.asarray(points, dtype=np.complex128)
    return _log_sums(points, points, skip_self=True, phase=phase)


def _log_sums(xs: np.ndarray, knots: np.ndarray, skip_self: bool, phase: bool = True):
    """Row sums of log10|x - knot| and angle(x - knot); skip_self drops x_j - x_j.

    Without `phase` the angle sums are skipped and None is returned for them.
    A difference past the float range (finite points of opposite signs near
    1.8e308) is taken again from the halved operands, exactly, as
    log10|x/2 - knot/2| + log10 2; such a row sums to +inf or nan at first,
    so rows that do not meet one keep their bits.
    """
    mag = np.empty(len(xs))
    ph = np.empty(len(xs)) if phase else None
    with np.errstate(divide="ignore", over="ignore"):
        for lo, d in diff_blocks(xs, knots):
            if skip_self:
                k = np.arange(len(d))
                d[k, lo + k] = 1.0
            logs = np.log10(np.abs(d))
            rows = np.sum(logs, axis=1)
            if not np.all(rows < np.inf):
                i, j = np.nonzero(logs == np.inf)
                d[i, j] = 0.5 * xs[lo + i] - 0.5 * knots[j]
                logs[i, j] = np.log10(np.abs(d[i, j])) + _LOG10_2
                rows = np.sum(logs, axis=1)
            mag[lo:lo + len(d)] = rows
            if phase:
                ph[lo:lo + len(d)] = np.sum(np.angle(d), axis=1)
    return mag, ph


def _quotient(a, b):
    """a / b for |a| <= |b|, without the overflow numpy's division meets near 1e308.

    numpy divides through 1 / (br + bi (bi / br)), with br the larger part
    of b, and that sum can overflow only once |b| reaches 2^1023.  Where it
    does, both sides are first scaled by 1/4 with `np.ldexp`, exactly;
    elsewhere the exponent is 0 and every quotient keeps numpy's bits.
    """
    b = np.asarray(b, dtype=np.complex128)
    big = np.maximum(abs(b.real), abs(b.imag))
    small = np.minimum(abs(b.real), abs(b.imag))
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.where(np.isinf(big + small * (small / big)), -2, 0)

    def scaled(x):
        out = np.empty(np.broadcast_shapes(np.shape(a), b.shape), dtype=np.complex128)
        out.real = np.ldexp(np.real(x), e)
        out.imag = np.ldexp(np.imag(x), e)
        return out

    return scaled(a) / scaled(b)


def pow_diff_logs(z: np.ndarray, f: complex, n: int):
    """log10 magnitude and phase of z**n - f**n, safe for |z| far from 1.

    Where |z|**n or |f|**n exceeds 1e150 the difference is factored as
    z**n (1 - (f/z)**n), or f**n ((z/f)**n - 1) when |f| dominates, so the
    huge power never leaves the log domain.  An exact zero gives -inf.
    """
    z = np.asarray(z, dtype=np.complex128)
    f = complex(f)
    fl = math.log10(abs(f)) if f != 0 else -math.inf
    mag = np.empty(len(z))
    ph = np.empty(len(z))
    with np.errstate(divide="ignore"):
        zl = np.log10(np.abs(z))
        direct = n * np.maximum(zl, fl) <= 150.0
        top = ~direct & (zl >= fl)
        low = ~direct & ~top
        if direct.any():
            # f**n is formed only here, where it is at most 1e150.
            w = z[direct] ** n - f ** n
            mag[direct] = np.log10(np.abs(w))
            ph[direct] = np.where(w == 0, 0.0, np.angle(w))
        # Each `_quotient` costs tens of microseconds even when empty, and
        # on the unit circle both factored branches are.
        if top.any():
            rest = 1.0 - _quotient(f, z[top]) ** n
            mag[top] = n * zl[top] + np.log10(np.abs(rest))
            ph[top] = n * np.angle(z[top]) + np.angle(rest)
        if low.any():
            rest = _quotient(z[low], f) ** n - 1.0
            mag[low] = n * fl + np.log10(np.abs(rest))
            ph[low] = n * math.atan2(f.imag, f.real) + np.angle(rest)
    return mag, ph


def closest_pair(sp: np.ndarray, tp: np.ndarray, skip_self: bool = False):
    """(gap, i, j) of the smallest |s_i - t_j|, the first such pair in row-major order.

    skip_self leaves out i == j, for one vector scanned against itself.
    A difference past the float range (finite points of opposite signs near
    1.8e308) is a gap of inf, which is the right answer here.
    """
    gap, i, j = math.inf, 0, 0
    with np.errstate(over="ignore"):
        for lo, d in diff_blocks(sp, tp):
            a = np.abs(d)
            if skip_self:
                k = np.arange(len(a))
                a[k, lo + k] = np.inf
            k = int(a.argmin())
            if a.flat[k] < gap:
                gap, i, j = float(a.flat[k]), lo + k // a.shape[1], k % a.shape[1]
    return gap, i, j


def check_disjoint(sp: np.ndarray, tp: np.ndarray) -> None:
    """Raise KnotCollision at the `closest_pair` (i, j) if |s_i - t_j| <= DISTINCT_TOL."""
    gap, i, j = closest_pair(sp, tp)
    if gap <= DISTINCT_TOL:
        raise KnotCollision(i, j, gap)
