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


def block_rows(width: int) -> int:
    """Rows of `width` entries per block: as many as fit in CHUNK, at least one."""
    return max(1, CHUNK // max(1, width))


def diff_blocks(xs: np.ndarray, knots: np.ndarray):
    """Yield (lo, xs[lo:hi, None] - knots[None, :]) in blocks of <= CHUNK entries."""
    rows = block_rows(len(knots))
    for lo in range(0, len(xs), rows):
        yield lo, xs[lo:lo + rows, None] - knots[None, :]


def log_products(xs: np.ndarray, knots: np.ndarray):
    """log10 magnitude and raw phase of prod_k (x - knots[k]) for each x.

    Exact hits produce -inf magnitudes.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.complex128))
    return _log_sums(xs, np.asarray(knots, dtype=np.complex128))


def log_magnitudes(xs: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """The `log_products` magnitudes alone, bit for bit, with no phase work."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.complex128))
    return _log_sums(xs, np.asarray(knots, dtype=np.complex128), phase=False)[0]


def self_derivative_logs(points: np.ndarray, phase: bool = True):
    """log10 magnitude and raw phase of prod_{k != j} (p_j - p_k) for each j.

    Without `phase` the phase is None and no angle is taken.
    """
    points = np.asarray(points, dtype=np.complex128)
    return _log_sums(points, points, skip_self=True, phase=phase)


def retake_halved(d: np.ndarray, redo: np.ndarray, operands):
    """Take the differences of a block that `redo` marks again, halved.

    d is a block of differences x - k of finite points; a difference past
    the float range (points of opposite signs near 1.8e308) came out
    infinite.  operands(i, j) gives the (x, k) of block entries (i, j); each
    marked one is written back as x/2 - k/2, exactly half the difference,
    with its angle.  Returns the block indices (i, j) taken again.
    """
    i, j = np.nonzero(redo)
    x, k = operands(i, j)
    d[i, j] = 0.5 * x - 0.5 * k
    return i, j


def log_row_sums(d: np.ndarray, logs: np.ndarray, operands) -> np.ndarray:
    """Row sums of logs = log10|d| for a block of differences d, none past the float range.

    A difference past the float range has a log10 magnitude of +inf, so its
    row sums to +inf, or nan beside an exact hit.  Only then are those
    entries halved by `retake_halved` (operands as there) and given
    log10|x/2 - k/2| + log10 2; rows that meet none keep their bits.
    """
    rows = np.sum(logs, axis=1)
    if rows.max() < np.inf:
        return rows
    i, j = retake_halved(d, logs == np.inf, operands)
    logs[i, j] = np.log10(np.abs(d[i, j])) + _LOG10_2
    return np.sum(logs, axis=1)


def log_blocks(xs: np.ndarray, knots: np.ndarray, skip_self: bool = False):
    """Yield (lo, d, logs, rows) for rows lo.. of the one log walk over x - knot.

    d is the block of differences xs[lo + i] - knots[j], logs = log10|d| and
    rows their row sums; skip_self sets each x_j - x_j to 1 (log and angle 0).
    A difference past the float range comes out inf with no warning (the
    setting also holds in the consumer between blocks) and is taken again,
    halved in d, by `log_row_sums` before the block is yielded.
    """
    with np.errstate(divide="ignore", over="ignore"):
        for lo, d in diff_blocks(xs, knots):
            if skip_self:
                k = np.arange(len(d))
                d[k, lo + k] = 1.0
            logs = np.abs(d)
            np.log10(logs, out=logs)
            yield lo, d, logs, log_row_sums(d, logs, lambda i, j: (xs[lo + i], knots[j]))


def _log_sums(xs: np.ndarray, knots: np.ndarray, skip_self=False, phase=True):
    """Row sums of log10|x - knot| and, with `phase`, of angle(x - knot), else None."""
    mag = np.empty(len(xs))
    ph = np.empty(len(xs)) if phase else None
    for lo, d, _, rows in log_blocks(xs, knots, skip_self):
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


#: Candidate pairs per knot past which `screen_distinct` leaves the answer
#: to `closest_pair`: the screen stays O(n) in memory and time.  Unit-circle
#: knots share real parts mostly with their conjugates, so the bounds-sweep
#: and CLI knot sets measure 0.31 to 0.53 pairs per knot, and their unions
#: with the CV grid 0.16 to 0.27; at 8 the pair arrays peak near 420 bytes
#: per knot (1.6 MiB traced at n = 4097).
_SCREEN_PAIRS = 8


def screen_distinct(sp: np.ndarray, tol: float) -> bool:
    """True when no two points of sp lie within tol >= 0, found with no n x n walk.

    Sorted by real part, a point's partners within 2 tol lie in the window
    re_j <= re_i + 2 tol, which `searchsorted` finds.  A pair whose gap, as
    `closest_pair` computes it, is at most tol has |fl(re_i - re_j)| <= tol:
    numpy's |z| is never below |Re z|, and rounding is monotone, so the
    rounded re_j cannot pass the rounded re_i + 2 tol.  The screen measures
    |s_i - s_j| for the window pairs only, and any gap up to 2 tol, the
    window's own width, answers False, so that no last-bit agreement with
    `closest_pair` is needed.  False also when the windows hold more than
    `_SCREEN_PAIRS` pairs per point (many equal real parts, or a wide tol):
    then `closest_pair` must decide, at the cost of the full walk.
    """
    n = len(sp)
    s = sp[np.argsort(sp.real)]
    with np.errstate(over="ignore"):
        reach = np.searchsorted(s.real, s.real + 2.0 * tol, side="right")
    span = reach - np.arange(1, n + 1)
    total = int(span.sum())
    if total > _SCREEN_PAIRS * n:
        return False
    # Pair each sorted point with the span[i] points after it.
    first = np.repeat(np.arange(n), span)
    second = first + 1 + np.arange(total) - np.repeat(np.cumsum(span) - span, span)
    with np.errstate(over="ignore"):
        gap = np.abs(s[first] - s[second])
    return not bool(np.any(gap <= 2.0 * tol))


def check_disjoint(sp: np.ndarray, tp: np.ndarray) -> None:
    """Raise KnotCollision at the `closest_pair` (i, j) if |s_i - t_j| <= DISTINCT_TOL.

    Each Cauchy pair is checked once, before its walk: `screen_distinct` on
    the union clears it, or else `closest_pair` walks every pair and decides.
    """
    if screen_distinct(np.concatenate((sp, tp)), DISTINCT_TOL):
        return
    gap, i, j = closest_pair(sp, tp)
    if gap <= DISTINCT_TOL:
        raise KnotCollision(i, j, gap)
