"""Condition-number lower bounds, separation certificates, and arc search.

Every bound evaluator returns a :class:`BoundReport` whose value lives in
log10 so that estimates spanning hundreds of decades stay exact.  Reports
carrying ``variant="paper"`` are the paper's forms as stated, not lower
bounds in general: on the 59 cells of the 50-digit oracle tests cv-inverse
exceeds kappa on 42 (by up to 2.1 decades), circle-value on 28, coeff-norm
on 20.  Bounds carrying ``variant="corrected"`` or no variant are
conservative, but the arc bound's ||Cinv|| step is unproven (`bound_arc`).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .cauchyinv import InverseVariant, cv_column_peaks
from .errors import (KnotCollision, NoPositiveBound, NotEnoughSmallKnots, UnitRadius,
                     VacuousCertificate, VandcondError, as_complex, as_int, as_real, as_sequence)
from .knotgen import KnotVector
from .logdomain import block_rows, diff_blocks, self_derivative_logs
from .spectral import max_abs_on_circle, root_logs, singular_values, top_singular_value
from .structmat import UNIT_F_TOL, check_unit_circle, cv_knots, vandermonde

#: Catalan's constant G to 18 digits: the staging integral is q 2G/pi in closed form.
CATALAN = 0.915965594177219015

_LOG2 = math.log10(2.0)

#: Largest n at which the computed-norm cluster bound takes sigma_1 from the
#: full SVD of V; above it the matrix-free `top_singular_value` is faster.
#: Best-of-40 on 2 cores, scaled_cluster(n, n // 8, rho), two runs each,
#: building V plus its SVD against Lanczos on the knots:
#: n = 96: 3.0-3.4 ms against 4.8-5.3 (rho = 3/4) and 3.2-3.5 (rho = 1/2);
#: n = 128: 5.7-6.1 ms against 4.2-5.1 and 2.2-2.3;
#: n = 192: 11.5-12.7 ms against 5.8-7.6 and 2.8-4.1.
SVD_MAX_N = 128

#: Knots within this absolute distance of the inflated disc boundary count
#: as exterior, keeping the separation premise valid.  `best_arc_search`'s
#: band is derived for this strict, absolute margin.
BOUNDARY_TOL = 1e-14

EASY = "easy"
CLUSTER = "cluster"
REFINED_NORM = "refined-norm"
CV_INVERSE = "cv-inverse"
CIRCLE_VALUE = "circle-value"
COEFF_NORM = "coeff-norm"
DFT_BLOCK = "dft-block"
ARC_VANDERMONDE = "arc-vandermonde"


@dataclass
class BoundReport:
    """One evaluated lower bound: identifier, log10 value, and context."""

    bound_id: str
    log10value: float
    variant: str | None
    params: dict
    applicable: bool = True
    reason: str = ""


@dataclass(frozen=True)
class SeparationCertificate:
    """Witness for an arc-based bound.

    An arc of `l` consecutive column-grid knots spans a chord with midpoint
    `c` and radius `r`.  `m_minus` row knots fall strictly inside the
    inflated disc of radius eta*r, `m_plus` outside or on its boundary, and
    `rho_bar = l - m_minus` is the exponent the bound grows with.
    """

    j_lo: int
    j_hi: int
    l: int
    c: complex
    r: float
    eta: float
    m_minus: int
    m_plus: int
    rho_bar: int


def _safe_log10(x: float) -> float:
    return -math.inf if x == 0.0 else math.log10(x)


def _cv_grid(n: int, f: complex) -> np.ndarray:
    """`cv_knots(n, f)` for a kappa bound; f = 0 or nan is refused as off the circle."""
    check_unit_circle(f)
    return cv_knots(n, f)


def bound_easy(s: KnotVector) -> BoundReport:
    """kappa >= max(1, s_+^(n-1) / sqrt(n)) with s_+ the largest knot modulus."""
    n = len(s)
    s_plus = s.max_modulus()
    raw = (n - 1) * _safe_log10(s_plus) - 0.5 * math.log10(n) if n > 1 else 0.0
    value = max(0.0, raw)
    return BoundReport(EASY, value, None, {"n": n, "s_plus": s_plus})


def cluster_log10(log10_norm: float, k: int, nu: float, norm_mode: str) -> float:
    """log10 of the cluster estimate |V| nu^(k-1) / (sqrt(k) d), given log10 |V|;
    d = max(k, nu/(nu-1)) for `literal` and nu/(nu-1) for `computed-norm`."""
    if norm_mode not in ("literal", "computed-norm"):
        raise ValueError(f"unknown norm_mode {norm_mode!r}")
    d = max(k, nu / (nu - 1.0)) if norm_mode == "literal" else nu / (nu - 1.0)
    return log10_norm + (k - 1) * math.log10(nu) - (0.5 * math.log10(k) + math.log10(d))


def bound_cluster(s: KnotVector, k: int, nu: float,
                  norm_mode: str = "literal") -> BoundReport:
    """Lower bound driven by k knots of modulus at most 1/nu.

    `literal` uses |V| = max(1, s_+^(n-1)) and the divisor
    sqrt(k) * max(k, nu/(nu-1)) exactly as the cluster estimate states.
    `computed-norm` substitutes the spectral norm for |V| and resolves the
    max clause to nu/(nu-1); that combination reproduces the reference
    experiment column for scaled clusters (verified to a fraction of a
    percent) and is reported side by side with the literal form.  The norm
    comes from the full SVD up to n = SVD_MAX_N and from the Lanczos Ritz
    value of `spectral.top_singular_value` above it, converged or not, so V
    is built only when n <= SVD_MAX_N.  Params record which (`norm_method`,
    "svd" exactly when n <= SVD_MAX_N) and the Lanczos steps run (0 up to
    SVD_MAX_N; `spectral.LANCZOS_MAX_STEPS` means the run stopped at its
    cap).  The Ritz value never exceeds the norm, so the bound stays a
    lower bound.
    """
    nu, k = as_real("nu", nu, 1.0), as_int("k", k, 1)
    if norm_mode not in ("literal", "computed-norm"):
        raise ValueError(f"unknown norm_mode {norm_mode!r}")
    moduli = np.abs(s.as_array())
    small = int(np.sum(moduli <= (1.0 / nu) * (1.0 + 1e-12)))
    if small < k:
        raise NotEnoughSmallKnots(
            f"need {k} knots with modulus <= {1.0 / nu:.6g}, found {small}")
    n = len(s)
    if norm_mode == "literal":
        log_norm = max(0.0, (n - 1) * _safe_log10(s.max_modulus()))
        norm_tag = "max-entry"
        div_tag = "max(k, nu/(nu-1))"
        extra = {}
    else:
        if n <= SVD_MAX_N:
            method, sigma1, steps = "svd", singular_values(vandermonde(s)).sigma1, 0
        else:
            method, (sigma1, steps, _) = "lanczos", top_singular_value(s)
        log_norm = math.log10(sigma1)
        norm_tag = "spectral"
        div_tag = "nu/(nu-1)"
        extra = {"norm_method": method, "lanczos_steps": steps}
    return BoundReport(CLUSTER, cluster_log10(log_norm, k, nu, norm_mode), None,
                       {"n": n, "k": k, "nu": nu, "norm": norm_tag,
                        "denominator": div_tag, "log10_norm": log_norm, **extra})


def bound_refined_norm(s: KnotVector) -> BoundReport:
    """Geometric-sum norm bound ||V|| >= (s_+^n - 1) / ((s_+ - 1) sqrt(n)).

    The report value is the norm bound itself; dividing by the sqrt(n) cap
    on the smallest singular value gives the kappa bound, recorded in
    params as `log10_kappa_bound`.
    """
    n = len(s)
    s_plus = s.max_modulus()
    if abs(s_plus - 1.0) < UNIT_F_TOL:
        raise UnitRadius("largest knot modulus is 1; geometric sum degenerates")
    x = n * math.log(s_plus) if s_plus > 0.0 else -math.inf  # expm1 keeps s_+^n - 1's digits
    log_num = (n * math.log10(s_plus) + math.log10(-math.expm1(-x)) if s_plus > 1.0
               else math.log10(-math.expm1(x)))
    value = log_num - math.log10(abs(s_plus - 1.0)) - 0.5 * math.log10(n)
    return BoundReport(REFINED_NORM, value, None,
                       {"n": n, "s_plus": s_plus,
                        "log10_kappa_bound": value - 0.5 * math.log10(n)})


@functools.lru_cache(maxsize=1)
def _cv_peaks(s: KnotVector, f: complex, f_repr: str):
    """(f, nudged, paper peaks, corrected peaks, log10|s_j^n - f^n|) for `bound_cv`.

    All are `cauchyinv.cv_column_peaks` on the grid `cv_knots(n, f)`;
    on a grid collision f turns once by (3 - sqrt 5)/2 of a grid step and
    the walk runs again.  Cached for the last call only, so the two
    cv-inverse lines of a knot set share one walk and no more than O(n)
    floats are held.  KnotVector hashes by identity (it is immutable, and
    the cache keeps it alive); `f_repr` is repr(f), which tells -0.0 from
    0.0 where f itself compares equal.  A refusal raises, so it is not cached.
    """
    sp = s.as_array()
    n = len(sp)
    nudged = False
    try:
        peaks = cv_column_peaks(sp, _cv_grid(n, f))
    except KnotCollision:
        step = math.pi * (3.0 - math.sqrt(5.0)) / n
        f *= complex(math.cos(step), math.sin(step))
        nudged = True
        peaks = cv_column_peaks(sp, _cv_grid(n, f))
    return f, nudged, *peaks


def bound_cv(s: KnotVector, f: complex, variant: InverseVariant) -> BoundReport:
    """kappa >= sqrt(n) * ||Cinv|| / max_i |s_i^n - f^n| for the CV matrix.

    ||Cinv|| is lower-bounded by the largest inverse-entry magnitude under
    the chosen variant, in log10, so any scale works.  No SVD runs and no
    n x n array is built, at any n: past small n a double-precision SVD of
    C floors far below the certified entry bound.
    The grid is `cv_knots(n, f)`, and ValueError is raised unless |f| = 1.
    On a grid collision f turns once by (3 - sqrt 5)/2 of a grid step.
    `variant` is an InverseVariant or its value; anything else is a ValueError.

    The n x n walk over t_i - s_j runs once per (s, f) for both variants:
    the first line on a knot set pays for it, through `_cv_peaks`, and
    keeps max_i (r_i - log10|t_i - s_j|) per column for each variant's row
    term r_i.  Rounded addition is monotone, so adding the column term
    afterwards, log10|s_j^n - f^n| (over s'(s_j) if corrected), gives the
    largest table entry bit for bit.  The corrected line also pays for its
    own n x n walk over s_i - s_k, for s'(s_j); the paper line needs none.

    D = diag(s_j^n - f^n) is the walk's column sums over the grid as stored,
    the column term of Cinv.  The step C = D^-1 V T holds on the exact grid,
    whose D differs by a relative eps sum_i |t_i| / |s_j - t_i|: about
    eps (1e13 + n (1 + ln n)) < 0.01 for grid points 2 sin(pi/n) apart and
    over `check_disjoint`'s 1e-13 from each s_j.  The step gives
    kappa >= n ||Cinv|| / max|D| (T's singular values are sqrt(n), ||V|| >= sqrt(n));
    the bound's sqrt(n) leaves 0.5 log10 n decades for that, n >= 2 (n = 1: t_0 = f).
    """
    variant = InverseVariant(variant)
    f = as_complex("f", f)
    f, nudged, paper, corrected, pow_mag = _cv_peaks(s, f, repr(f))
    n = len(s)
    if variant is InverseVariant.CORRECTED:
        peaks, col = corrected, pow_mag - self_derivative_logs(s.as_array(), phase=False)[0]
    else:
        peaks, col = paper, pow_mag
    log_inv_entry = float(np.max(peaks + col))
    log_pow = float(np.max(pow_mag))
    value = 0.5 * math.log10(n) + log_inv_entry - log_pow
    params = {"n": n, "f": f, "nudged": nudged,
              "log10_inv_norm_entry": log_inv_entry,
              "log10_max_pow_diff": log_pow}
    return BoundReport(CV_INVERSE, value, variant.value, params)


def _outside_disc(s_plus: float) -> str:
    """Why a unit-disc bound does not apply, or '' when every knot has |s| <= 1."""
    ok = s_plus <= 1.0 + UNIT_F_TOL
    return "" if ok else f"knots leave the unit disc (s_+ = {s_plus:.6g})"


def bound_circle_value(s: KnotVector, grid: int = 0) -> BoundReport:
    """kappa >= sqrt(n) * max_{|f|=1} |s(f)| / 2, via grid + refinement.

    Applicable only when all knots lie in the closed unit disc (the
    divisor 2 caps |s_i - f| there); the gate is recorded, not enforced.
    """
    n = len(s)
    f_star, log_max = max_abs_on_circle(s, grid)
    value = 0.5 * math.log10(n) + log_max - _LOG2
    s_plus = s.max_modulus()
    reason = _outside_disc(s_plus)
    return BoundReport(
        CIRCLE_VALUE, value, InverseVariant.PAPER.value,
        {"n": n, "f_star": f_star, "log10_circle_max": log_max, "s_plus": s_plus},
        applicable=not reason, reason=reason)


def bound_coeff_norm(s: KnotVector) -> BoundReport:
    """kappa >= 0.5 ||coeff|| sqrt(n+1) for the monic coefficient vector.

    By Parseval ||coeff|| sqrt(n+1) is the 2-norm of s on the (n+1)-th roots
    of 1, summed in log10.  At most n of those n+1 points are knots, where
    s is 0 (log -inf), so the sum has a finite term.  The logs come from
    `spectral.root_logs`: after `bound_circle_value` on the same knot
    vector, whose scan holds them as its even samples, no walk runs here;
    run first, this pays for the (n+1) x n walk and the scan reads it.
    """
    n = len(s)
    logmags = root_logs(s)
    finite = logmags[np.isfinite(logmags)]
    peak = float(np.max(finite))
    log_l2 = peak + 0.5 * math.log10(float(np.sum(10.0 ** (2.0 * (finite - peak)))))
    value = log_l2 - _LOG2
    s_plus = s.max_modulus()
    reason = _outside_disc(s_plus)
    return BoundReport(
        COEFF_NORM, value, InverseVariant.PAPER.value,
        {"n": n, "log10_coeff_norm": log_l2 - 0.5 * math.log10(n + 1),
         "s_plus": s_plus},
        applicable=not reason, reason=reason)


QC_MODES = ("base", "coarse", "refined", "product", "integral")


def _is_pow2(q: int) -> bool:
    return q >= 1 and (q & (q - 1)) == 0


def _staging_integral_log10(q: float) -> float:
    """The circle-distance staging integral, in log10, from its closed form.

    The integral of ln(2 cos((1/2 - x/q) pi/2)) over [0, q] equals
    q * 2 G / pi with G Catalan's constant.
    """
    return q * 2.0 * CATALAN / math.pi / math.log(10.0)


def bound_quasi_cyclic(q: int, mode: str) -> BoundReport:
    """Staged lower bounds for the quasi-cyclic knot family, n = 3q.

    base:     2^(q/2) sqrt(n)     (every factor staged at sqrt(2))
    coarse:   18^(q/6) sqrt(n)    (one interior staging point)
    refined:  (2 cos(pi/12) sqrt(6))^(q/3) sqrt(n)
    product:  full discrete staging prod max(sqrt(2), 2 cos((1/2 - i/q) pi/2))
    integral: exp(q * 2 G / pi) in closed form, reported WITHOUT the
              sqrt(n) factor to match the kappa' reference column.
    """
    if mode not in QC_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    q = as_int("q", q, 1)
    n = 3 * q
    half_log_n = 0.5 * math.log10(n)
    params = {"q": q, "n": n, "mode": mode}
    if mode in ("base", "product") and not _is_pow2(q):
        raise ValueError(f"mode {mode!r} requires q to be a power of two (q={q})")
    if mode == "base":
        value = (q / 2.0) * _LOG2 + half_log_n
    elif mode == "coarse":
        value = (q / 6.0) * math.log10(18.0) + half_log_n
        params["staging_exact"] = (q % 12 == 0)
    elif mode == "refined":
        factor = 2.0 * math.cos(math.pi / 12.0) * math.sqrt(6.0)
        value = (q / 3.0) * math.log10(factor) + half_log_n
        params["staging_exact"] = (q % 12 == 0)
    elif mode == "product":
        i = np.arange(q)
        stages = np.maximum(math.sqrt(2.0),
                            2.0 * np.cos((0.5 - i / q) * np.pi / 2.0))
        value = float(np.sum(np.log10(stages))) + half_log_n
    else:  # integral
        value = _staging_integral_log10(q)
    return BoundReport(f"quasi-cyclic-{mode}", value, InverseVariant.PAPER.value, params)


def bound_dft_block(n: int, mode: str) -> BoundReport:
    """Lower bounds for the half-size leading block of the n-point DFT matrix.

    base:     2^(n/4 - 1) sqrt(n) as stated.
    integral: exp(q * 2 G / pi) with q = n/2 (closed form), the kappa' analogue.
    """
    if mode not in ("base", "integral"):
        raise ValueError(f"unknown mode {mode!r}")
    if (n := as_int("n", n)) % 2 != 0 or n < 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    q = n // 2
    if mode == "base":
        value = (n / 4.0 - 1.0) * _LOG2 + 0.5 * math.log10(n)
    else:
        value = _staging_integral_log10(q)
    return BoundReport(DFT_BLOCK, value, InverseVariant.PAPER.value,
                       {"n": n, "q": q, "mode": mode})


def _chord(t: np.ndarray, j_lo: int, j_hi: int):
    """Midpoint c and half-length r of the chord from t[j_lo] to t[j_hi].

    Their rounding is budgeted in `best_arc_search`'s band; re-derive the
    band if this arithmetic changes.
    """
    c = 0.5 * (t[j_lo] + t[j_hi])
    return c, float(abs(c - t[j_lo]))


def _arc_score(rho_bar: int, eta: float, r: float) -> float:
    """log10 of the arc bound on ||Cinv||: rho_bar log10(eta) + log10((eta-1) r)."""
    return rho_bar * math.log10(eta) + math.log10((eta - 1.0) * r)


def _count_inside(centers, radii, pts, eta_grid) -> np.ndarray:
    """[a, e]: points with |p - centers[a]| < eta_grid[e] * radii[a] - BOUNDARY_TOL.

    `best_arc_search`'s band budgets this arithmetic (numpy's |.|, the
    strict < and the subtraction of BOUNDARY_TOL); re-derive the band if it
    changes.
    """
    counts = np.empty((len(centers), len(eta_grid)), dtype=np.int64)
    for lo, d in diff_blocks(centers, pts):
        dist = np.abs(d)
        for e, eta in enumerate(eta_grid):
            lim = eta * radii[lo:lo + len(d)] - BOUNDARY_TOL
            counts[lo:lo + len(d), e] = np.count_nonzero(dist < lim[:, None], axis=1)
    return counts


#: Unit roundoff of double precision, the unit of the arc counts' error bound.
_U = 2.0 ** -53


def _lattice_place(x, n: int, stride: int, starts: int):
    """Place points x in (0, 3n) among the arc starts j = k*stride, taken mod n.

    Returns (g, k, below, above): g indexes the start nearest below x,
    counted on from j = 0 across periods of `starts`; that start is k and
    the one nearest above is k + 1, both mod `starts`, at distances below
    and above from x.

    When stride divides n the starts form one uniform lattice and one
    division places x.  The general path gives the same g and distances
    there (x - m n and y - k stride are exact, x < 2^52), except where x
    lies within a rounding of a start, which the band opens either way.  The
    shortcut is kept for speed: on the 12 bounds-sweep knot sets, where
    stride always divides n, `_rotation_counts` took 87.5 ms with it against
    118.3 ms without (medians of 20 alternating pairs, faster in 19 of 20;
    2 shared vCPUs).
    """
    if n % stride == 0:
        k = np.floor(x / stride)
        below = np.subtract(x, k * stride, out=x)
        return k, k, below, stride - below
    m = np.floor(x / n)
    y = x - m * n
    k = np.floor(y / stride)
    return starts * m + k, k, y - k * stride, np.minimum(k * stride + stride, n) - y


def _rotation_counts(pts: np.ndarray, f: complex, n: int, stride: int, eta_grid):
    """`_count_inside` of every strided arc, by rotation, and the arcs it leaves open.

    Returns (counts[i, k, e], open[i, k]) for the arc of chord step
    d = 1 + i*stride from j = k*stride, at eta_grid[e]; starts with
    k*stride + d >= n are no arcs and their counts mean nothing.  Where
    open[i, k] is set the count is not settled and `_count_inside` must
    take that arc.  `best_arc_search` states the geometry and the band;
    below, b = 2^-46 and M = m0 + b rho, lo_t and hi_t bound the moduli
    that rho alone settles, and delta = p_row / rho + q_row.
    """
    steps = np.arange(1, n // 2, stride)
    starts = -(-n // stride)
    width = 3 * starts + 1
    counts = np.zeros((len(steps), starts, len(eta_grid)), dtype=np.int64)
    unsettled = np.zeros((len(steps), starts), dtype=bool)
    f = complex(f)
    to_j = n / (2.0 * math.pi)
    b = 128.0 * _U
    band0 = 4.0 * _U * to_j + 32.0 * n * _U
    rho = np.abs(pts)
    # 1/rho is taken at the smallest normal float for a knot at 0 or of
    # subnormal modulus; a row that such a knot straddles is opened.
    tiny = np.finfo(float).tiny
    inv_rho = 1.0 / np.maximum(rho, tiny)
    rho_tiny = rho[rho < tiny].max(initial=-1.0)
    rho_sorted = np.sort(rho)
    # Knot angle less arg f, in grid steps, in [n, 2n].
    base = np.mod((np.angle(pts) - cmath.phase(f)) * to_j, n) + n
    rows = block_rows(len(pts))
    # kappa and the band overflow, and sqrt(w) is nan, only off the
    # straddling entries, which nothing reads.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(steps), rows):
            d = steps[lo:lo + rows]
            hi = lo + len(d)
            cm = abs(f) * np.cos(math.pi * d / n)
            half = abs(f) * np.sin(math.pi * d / n)
            centre = base - 0.5 * d[:, None]
            shift = (np.arange(len(d)) * width + 1.0)[:, None]
            for e, eta in enumerate(eta_grid):
                big_r = eta * half - BOUNDARY_TOL
                m0 = b * (1.0 + eta)
                near = cm - big_r
                lo_t = (np.abs(near) - m0) / (1.0 + b)
                hi_t = (cm + big_r + m0) / (1.0 - b)
                m_row = m0 + b * hi_t
                g = near * (cm + big_r) / (2.0 * cm)
                p_row = m_row * (2.0 * big_r + m_row) / (2.0 * cm) + 16.0 * _U * np.abs(g)
                q_row = 8.0 * _U * hi_t / cm + 2.0 * _U
                wild = ~np.isfinite(g + p_row + q_row) | (lo_t <= rho_tiny)
                if wild.any():
                    g, p_row, q_row = (np.where(wild, 0.0, v) for v in (g, p_row, q_row))
                below = rho < lo_t[:, None]
                crossing = ~below & (rho <= hi_t[:, None])
                kappa = rho * (0.5 / cm)[:, None] + g[:, None] * inv_rho
                delta = p_row[:, None] * inv_rho + q_row[:, None]
                w = (1.0 - delta) - np.abs(kappa)
                ok = w > 0.0
                straddle = crossing & ok
                unsettled[lo:hi] |= (wild | (crossing & ~ok).any(axis=1))[:, None]
                h = np.arccos(np.clip(kappa, -1.0, 1.0, out=kappa), out=kappa)
                h *= to_j
                h *= straddle
                band = np.divide(delta, np.sqrt(w, out=w), out=delta)
                band *= to_j
                band += band0
                ends = []
                for x in (centre - h, centre + h):
                    gx, k, under, over = _lattice_place(x, n, stride, starts)
                    edge = straddle & (np.minimum(under, over) <= band)
                    if edge.any():
                        i, j = np.nonzero(edge)
                        unsettled[lo + i[band[i, j] >= 0.5]] = True
                        for kk, gap in ((k, under), (k + 1.0, over)):
                            hit = gap[i, j] <= band[i, j]
                            unsettled[lo + i[hit], kk[i[hit], j[hit]].astype(np.intp) % starts] = True
                    ends.append((gx + shift).astype(np.intp).ravel())
                diff = (np.bincount(ends[0], minlength=len(d) * width)
                        - np.bincount(ends[1], minlength=len(d) * width))
                cum = np.cumsum(diff.reshape(len(d), width), axis=1)
                full = np.where(near < 0.0, np.searchsorted(rho_sorted, lo_t), 0)
                counts[lo:hi, :, e] = (cum[:, :starts] + cum[:, starts:2 * starts]
                                       + cum[:, 2 * starts:3 * starts] + full[:, None])
    return counts, unsettled


def _arc_counts(t: np.ndarray, pts: np.ndarray, f: complex, stride: int, eta_grid):
    """(j_lo, j_hi, m_minus[a, e]) for the arcs `best_arc_search` scans, in its order.

    The arcs run on the grid t = `cv_knots(n, f)` from j_lo = 0, stride, ...
    over j_hi = j_lo + 1, j_lo + 1 + stride, ... below min(n, j_lo + n // 2).
    m_minus is `_count_inside` on each arc's `_chord`: formed by
    `_rotation_counts`, with the arcs it leaves open counted again directly.
    """
    counts, unsettled = _rotation_counts(pts, f, len(t), stride, eta_grid)
    steps = 1 + stride * np.arange(counts.shape[0])
    k, i = np.nonzero(stride * np.arange(counts.shape[1])[:, None] + steps < len(t))
    j_lo = stride * k
    j_hi = j_lo + steps[i]
    m_minus = counts[i, k]
    redo = np.flatnonzero(unsettled[i, k])
    if redo.size:
        chords = [_chord(t, j_lo[a], j_hi[a]) for a in redo]
        m_minus[redo] = _count_inside(np.array([c for c, _ in chords]),
                                      np.array([r for _, r in chords]), pts, eta_grid)
    return j_lo, j_hi, m_minus


def _best_arc(t: np.ndarray, pts: np.ndarray, f: complex, eta_grid):
    """((value, -l, -j_lo, -eta), j_lo, j_hi, eta) of the best (arc, eta) on the grid
    t for `best_arc_search`, or None when no arc has fewer knots inside than its length.

    Only such an arc can score.  Its r comes from the scalar `_chord`, and
    the key is unique per (arc, eta), so the best does not depend on the
    order of the scan.
    """
    n = len(t)
    lows, highs, m_minus = _arc_counts(t, pts, f, max(1, n // 64), eta_grid)
    scoring = np.flatnonzero(np.any(m_minus < (highs - lows + 1)[:, None], axis=1))
    half_log_n = 0.5 * math.log10(n)
    best = None
    for j_lo, j_hi, counts in zip(lows[scoring].tolist(), highs[scoring].tolist(),
                                  m_minus[scoring].tolist()):
        l = j_hi - j_lo + 1
        r = _chord(t, j_lo, j_hi)[1]
        for eta, count in zip(eta_grid, counts):
            if count < l:
                value = _arc_score(l - count, eta, r) + half_log_n - _LOG2
                key = (value, -l, -j_lo, -eta)
                if best is None or key > best[0]:
                    best = (key, j_lo, j_hi, eta)
    return best


def arc_certificate(s: KnotVector, f: complex, j_lo: int, j_hi: int,
                    eta: float) -> SeparationCertificate:
    """Build the separation witness for the arc t_{j_lo} .. t_{j_hi}.

    t is the CV grid `cv_knots(n, f)` of the matrix the certificate bounds;
    ValueError unless |f| = 1, since the arc bound holds only there.
    The center is the chord midpoint, the radius the half-chord length;
    row knots strictly inside the disc of radius eta*r count toward
    m_minus, knots on the boundary (within 1e-14) count as exterior.
    """
    eta = as_real("eta", eta, 1.0)
    n = len(s)
    j_lo, j_hi = as_int("j_lo", j_lo), as_int("j_hi", j_hi)
    if not (0 <= j_lo <= j_hi < n):
        raise ValueError("need 0 <= j_lo <= j_hi < n")
    l = j_hi - j_lo + 1
    if l > n / 2.0:
        raise ValueError(f"arc of {l} knots exceeds n/2 = {n / 2:g}")
    c, r = _chord(_cv_grid(n, f), j_lo, j_hi)
    m_minus = int(_count_inside(np.array([c]), np.array([r]), s.as_array(), (eta,))[0, 0])
    return SeparationCertificate(j_lo, j_hi, l, complex(c), r, eta,
                                 m_minus, n - m_minus, l - m_minus)


def bound_arc(s: KnotVector, cert: SeparationCertificate) -> BoundReport:
    """Arc bound on kappa for unit-disc knots, from the certificate.

    rho_bar log10(eta) + log10((eta-1) r) estimates log10 ||Cinv|| of the CV
    inverse; adding 0.5 log10(n) - log10(2) turns it into a condition-number
    bound, applicable when every knot has |s| <= 1 and r > 0.  The ||Cinv||
    step is unproven: on 2397 certificates (the bounds tests' seven
    generators, n <= 24, every arc, eta in 1.1..3, f = e^(0.3i)) it exceeded
    -log10 sigma_min(C) by up to 0.34 decades at rho_bar = 1, while the kappa
    form stayed below the SVD kappa on all.  `best_arc_search` reports none
    of those arcs on its default eta grid, but one on quasi_cyclic(6) with
    eta = 2 in the grid.
    """
    if cert.rho_bar <= 0:
        raise VacuousCertificate(f"rho_bar = {cert.rho_bar} is not positive")
    n = len(s)
    value = _arc_score(cert.rho_bar, cert.eta, cert.r) if cert.r > 0.0 else -math.inf
    value = value + 0.5 * math.log10(n) - _LOG2
    s_plus = s.max_modulus()
    params = {"n": n, "j_lo": cert.j_lo, "j_hi": cert.j_hi, "l": cert.l,
              "eta": cert.eta, "r": cert.r, "c": cert.c,
              "m_minus": cert.m_minus, "m_plus": cert.m_plus,
              "rho_bar": cert.rho_bar, "s_plus": s_plus}
    reason = _outside_disc(s_plus) if math.isfinite(value) else "degenerate arc (r = 0)"
    return BoundReport(ARC_VANDERMONDE, value, None, params,
                       applicable=not reason, reason=reason)


def best_arc_search(s: KnotVector, f: complex, eta_grid=(1.1, 1.2, 1.5)):
    """Scan arcs and inflation factors for the best arc-based kappa bound.

    The arcs lie on the CV grid `cv_knots(n, f)`, the one `arc_certificate`
    uses; ValueError unless |f| = 1.  Arcs (j_lo, j_hi) with
    2 <= l <= n/2 are scanned at stride max(1, n // 64), so every arc below
    n = 128, jointly with every eta in `eta_grid`.  Returns the certificate
    and report maximizing the unit-disc arc bound, ties broken toward
    smaller l, then j_lo, then eta.
    Raises NoPositiveBound when no certificate produces a bound above 1
    (log10 value > 0), which is the expected outcome for evenly spaced knots.

    Every m_minus equals what `_count_inside` gives on that arc's rounded
    `_chord`, but it is counted by rotation.  With t_j = f w^j, w = e^(2 pi
    i/n), the arc from j of chord step d has centre c = f w^j e^(i pi d/n)
    cos(pi d/n), |c| = |f| cos(pi d/n), and counting radius
    R = eta |f| sin(pi d/n) - BOUNDARY_TOL, whatever j.  A knot rho e^(i phi)
    lies inside when cos(phi - arg c) > kappa = rho/(2|c|) + (|c|^2 - R^2) /
    (2 rho |c|), a form in which rho^2 cannot overflow.  So for each (d, eta)
    the starts that count the knot form one open interval of half-width
    acos(kappa) n/(2 pi) grid steps around its angle, and one difference
    array over the starts, mod n, gives every count of that (d, eta) in
    O(n + n/stride) work, not O(n^2/stride).  Rows of d are taken in blocks
    of at most `logdomain.CHUNK` entries.

    The band.  `_count_inside` and this model of it differ by at most
    37u + 3.5u rho + 66u eta in |p - c| - R (u = 2^-53: the grid point
    25u, the chord midpoint 27u and half-length 54u, the difference and
    numpy's |.| 2.5u (rho + 1), and the model's own rho, |c| and R u rho, 8u
    and 10u eta); M = 2^-46 (1 + rho + eta) covers it twice over, and with
    it the rounding of the tests that follow.  A knot with
    |rho - |c|| - R > M or rho + |c| < R - M is settled by rho alone.
    Elsewhere |p - c| - R within M of 0 needs cos(theta) within
    M (2R + M) / (2 rho |c|) of kappa; adding kappa's rounding,
    16u (rho/(2|c|) + ||c|^2 - R^2| / (2 rho |c|)), gives delta.  As
    |acos'(x)| = 1/sqrt(1 - x^2) grows with |x|, the angles where the two
    can disagree lie within delta / sqrt(1 - |kappa| - delta) of
    acos(kappa), plus 4u for acos, and 32nu grid steps cover the angle
    arithmetic.  An arc whose start lies in such a band of some knot is
    counted again by `_count_inside`, and so is its whole row of starts when
    that band is half a grid step or wider, when some knot of the row has
    |kappa| + delta >= 1 (near tangency, or rho |c| tiny), or when the
    row's own bounds leave the float range (eta near 1e300).  The constants
    hold for the arithmetic of `_chord`, `_count_inside`, `structmat.cv_knots`
    and `BOUNDARY_TOL` as written, and each of those points back here.
    """
    eta_grid = tuple(as_real("eta", eta, 1.0)
                     for eta in as_sequence("eta_grid", eta_grid, "numbers"))
    n = len(s)
    best = _best_arc(_cv_grid(n, f), s.as_array(), f, eta_grid)
    if best is None or best[0][0] <= 0.0:
        raise NoPositiveBound(
            "no arc certificate yields a bound above 1; "
            "knots are evenly spaced or n is too small")
    cert = arc_certificate(s, f, *best[1:])
    return cert, bound_arc(s, cert)


def _refusing(bound_id: str, evaluate):
    """`evaluate` as a thunk whose VandcondError or ValueError becomes a refusal
    report: value -inf, not applicable, the error in `reason`."""
    def thunk() -> BoundReport:
        try:
            return evaluate()
        except (VandcondError, ValueError) as exc:
            return BoundReport(bound_id, -math.inf, None, {}, applicable=False,
                               reason=f"{type(exc).__name__}: {exc}")
    return thunk


def evaluators(s: KnotVector, f: complex) -> list:
    """(label, bound_id, thunk) for each line of `vandcond bounds`; none runs yet.

    Each thunk returns its evaluator's report, or the refusal report when the
    evaluator raises VandcondError or ValueError; any other exception
    propagates.  ValueError unless |f| = 1, before any thunk exists.  Cluster
    lines need knots inside the circle, |s| < 1 - UNIT_F_TOL as everywhere in
    the package; quasi-cyclic lines need `s.label == "quasi-cyclic"` and 3 | n.
    """
    check_unit_circle(f)
    out = [("easy", EASY, lambda: bound_easy(s)),
           ("refined-norm", REFINED_NORM, lambda: bound_refined_norm(s))]
    moduli = np.abs(s.as_array())
    small = moduli[moduli < 1.0 - UNIT_F_TOL]
    if small.size:
        # k knots inside, nu = 1/their largest modulus: inf for a knot at 0
        # or of subnormal modulus, which bound_cluster refuses.
        with np.errstate(divide="ignore", over="ignore"):
            k, nu = small.size, float(np.divide(1.0, small.max()))
        out += [(f"cluster-{m}", CLUSTER, lambda m=m: bound_cluster(s, k, nu, m))
                for m in ("literal", "computed-norm")]
    out += [(f"cv-inverse-{v.value}", CV_INVERSE, lambda v=v: bound_cv(s, f, v))
            for v in InverseVariant]
    out += [("circle-value", CIRCLE_VALUE, lambda: bound_circle_value(s)),
            ("coeff-norm", COEFF_NORM, lambda: bound_coeff_norm(s))]
    if s.label == "quasi-cyclic" and len(s) % 3 == 0:
        out += [(f"quasi-cyclic-{m}", f"quasi-cyclic-{m}",
                 lambda m=m: bound_quasi_cyclic(len(s) // 3, m)) for m in QC_MODES]
    out.append(("arc", ARC_VANDERMONDE, lambda: best_arc_search(s, f)[1]))
    return [(label, bound_id, _refusing(bound_id, evaluate))
            for label, bound_id, evaluate in out]
