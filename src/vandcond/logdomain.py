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

from .errors import DuplicateKnot, KnotCollision

#: Points at most this far apart collide: above double rounding noise, below
#: any knot gap that the generators can produce.  Read only by `check_distinct`
#: (one knot vector), `check_disjoint` (a Cauchy or CV pair) and their screen.
DISTINCT_TOL = 1e-13

#: Entries per row block of a difference table: 256 KB of complex
#: differences plus 128 KB of magnitudes, which stay in a 2 MB L2 cache and,
#: in a warm process, come from freed heap memory.  Blocks of 2^18 entries
#: (6 MB) missed L2 and page-faulted up to about 2,400 times per walk at
#: n = 1536; 2^13 and smaller lost to per-block overhead.  No row's sum,
#: minimum or count crosses a block, and column sums run through
#: `add_column_sums`, so results do not depend on this size.
CHUNK = 1 << 14

_TWO_PI = 2.0 * math.pi
_LOG10_2 = math.log10(2.0)


def wrap_phase(p: np.ndarray) -> np.ndarray:
    """Reduce the float array p in place exactly into (-pi, pi]; returns p.

    Each entry becomes p - 2 pi k for the one integer k that lands there;
    fmod and a single shift by 2 pi are both exact.
    """
    np.fmod(p, _TWO_PI, out=p)
    np.subtract(p, _TWO_PI, out=p, where=p > math.pi)
    np.add(p, _TWO_PI, out=p, where=p <= -math.pi)
    return p


def block_rows(width: int) -> int:
    """Rows of `width` entries per block: as many as fit in CHUNK, at least one."""
    return max(1, CHUNK // max(1, width))


def diff_blocks(xs: np.ndarray, knots: np.ndarray):
    """Yield (lo, xs[lo:hi, None] - knots[None, :]) in blocks of <= CHUNK entries."""
    rows = block_rows(len(knots))
    for lo in range(0, len(xs), rows):
        yield lo, xs[lo:lo + rows, None] - knots[None, :]


def log_magnitudes(xs: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """log10 magnitude of prod_k (x - knots[k]) for each x, with no phase work.

    Exact hits produce -inf.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.complex128))
    return _log_sums(xs, np.asarray(knots, dtype=np.complex128), phase=False)[0]


def self_derivative_logs(points: np.ndarray, phase: bool = True):
    """log10 magnitude and raw phase of prod_{k != j} (p_j - p_k) for each j.

    Without `phase` the phase is None and no angle is taken.
    """
    points = np.asarray(points, dtype=np.complex128)
    return _log_sums(points, points, skip_self=True, phase=phase)


def retake_halved(d: np.ndarray, redo: np.ndarray, xs: np.ndarray, knots: np.ndarray):
    """Take the differences of a block that `redo` marks again, halved.

    d is the block of differences xs[i] - knots[j] of finite points; a
    difference past the float range (points of opposite signs near 1.8e308)
    came out infinite.  Each marked entry is written back as
    xs[i]/2 - knots[j]/2, exactly half the difference, with its angle.
    Returns the block indices (i, j) taken again.
    """
    i, j = np.nonzero(redo)
    d[i, j] = 0.5 * xs[i] - 0.5 * knots[j]
    return i, j


def add_column_sums(acc: np.ndarray, block: np.ndarray) -> None:
    """acc += column sums of a C-ordered block, one running sum per column at any block size.

    numpy sums axis 0 row after row, so acc joins the first row for the sum.
    """
    first = block[0].copy()
    block[0] += acc
    np.sum(block, axis=0, out=acc)
    block[0] = first


def log_blocks(xs: np.ndarray, knots: np.ndarray, skip_self: bool = False):
    """Yield (lo, d, logs, rows) for rows lo.. of the one log walk over x - knot.

    d is the block of differences xs[lo + i] - knots[j], logs = log10|d| and
    rows their row sums; skip_self sets each x_j - x_j to 1 (log and angle 0).
    A difference past the float range comes out inf with no warning (the
    setting also holds in the consumer between blocks) and sums its row to
    +inf, or nan beside an exact hit.  Only then are those entries taken
    again, halved in d, by `retake_halved` and given log10|x/2 - k/2| +
    log10 2, before the block is yielded; rows that meet none keep their bits.
    """
    with np.errstate(divide="ignore", over="ignore"):
        for lo, d in diff_blocks(xs, knots):
            if skip_self:
                k = np.arange(len(d))
                d[k, lo + k] = 1.0
            logs = np.abs(d)
            np.log10(logs, out=logs)
            with np.errstate(invalid="ignore"):  # -inf + inf: a hit beside an inf
                rows = np.sum(logs, axis=1)
            if not rows.max() < np.inf:
                i, j = retake_halved(d, logs == np.inf, xs[lo:lo + len(d)], knots)
                logs[i, j] = np.log10(np.abs(d[i, j])) + _LOG10_2
                rows = np.sum(logs, axis=1)
            yield lo, d, logs, rows


def _log_sums(xs: np.ndarray, knots: np.ndarray, skip_self=False, phase=True):
    """Row sums of log10|x - knot| and, with `phase`, of angle(x - knot), else None."""
    mag = np.empty(len(xs))
    ph = np.empty(len(xs)) if phase else None
    for lo, d, _, rows in log_blocks(xs, knots, skip_self):
        mag[lo:lo + len(d)] = rows
        if phase:
            ph[lo:lo + len(d)] = np.sum(np.angle(d), axis=1)
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


def screen_distinct(sp: np.ndarray) -> bool:
    """True when no two points of sp lie within DISTINCT_TOL, found with no n x n walk.

    Sorted by real part, a point's partners within w = 2 DISTINCT_TOL lie in
    the window re_j <= re_i + w, which `searchsorted` finds.  A pair whose
    gap, as `closest_pair` computes it, is at most DISTINCT_TOL has
    |fl(re_i - re_j)| <= DISTINCT_TOL: numpy's |z| is never below |Re z|,
    and rounding is monotone, so the rounded re_j cannot pass the rounded
    re_i + w.  The screen measures |s_i - s_j| for the window pairs only, and
    any gap up to w answers False, so that no last-bit agreement with
    `closest_pair` is needed.  False also when the windows hold more than
    `_SCREEN_PAIRS` pairs per point (many equal real parts): then
    `closest_pair` must decide, at the cost of the full walk.
    """
    n = len(sp)
    s = sp[np.argsort(sp.real)]
    with np.errstate(over="ignore"):
        reach = np.searchsorted(s.real, s.real + 2.0 * DISTINCT_TOL, side="right")
    span = reach - np.arange(1, n + 1)
    total = int(span.sum())
    if total > _SCREEN_PAIRS * n:
        return False
    # Pair each sorted point with the span[i] points after it.
    first = np.repeat(np.arange(n), span)
    second = first + 1 + np.arange(total) - np.repeat(np.cumsum(span) - span, span)
    with np.errstate(over="ignore"):
        gap = np.abs(s[first] - s[second])
    return not bool(np.any(gap <= 2.0 * DISTINCT_TOL))


def check_distinct(sp: np.ndarray) -> None:
    """Raise DuplicateKnot at the `closest_pair` (i, j), i != j, if |s_i - s_j| <= DISTINCT_TOL."""
    if screen_distinct(sp):
        return
    gap, i, j = closest_pair(sp, sp, skip_self=True)
    if gap <= DISTINCT_TOL:
        raise DuplicateKnot(i, j, gap)


def check_disjoint(sp: np.ndarray, tp: np.ndarray) -> None:
    """Raise KnotCollision at the `closest_pair` (i, j) if |s_i - t_j| <= DISTINCT_TOL.

    Each Cauchy pair is checked once, before its walk: `screen_distinct` on
    the union clears it, or else `closest_pair` walks every s-t pair and decides.
    """
    if screen_distinct(np.concatenate((sp, tp))):
        return
    gap, i, j = closest_pair(sp, tp)
    if gap <= DISTINCT_TOL:
        raise KnotCollision(i, j, gap)
