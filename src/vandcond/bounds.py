"""Condition-number lower bounds, separation certificates, and arc search.

Every bound evaluator returns a :class:`BoundReport` whose value lives in
log10 so that estimates spanning hundreds of decades stay exact.  Bounds
derived from the compact closed-form inverse carry ``variant="paper"`` and
may exceed the measured condition number on exactly uniform knots (the
evaluation on the plain roots of unity is kept as a regression probe);
bounds carrying ``variant="corrected"`` or no variant are conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cauchyinv import InverseVariant, inverse_blocks
from .errors import (KnotCollision, NoPositiveBound, NotEnoughSmallKnots,
                     NotSeparated, UnitRadius, VacuousCertificate, VandcondError)
from .knotgen import KnotVector, unit_roots
from .logdomain import diff_blocks, log_magnitudes, pow_diff_logs
from .spectral import max_abs_on_circle, singular_values, top_singular_value
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
#: as exterior, keeping the separation premise valid.
BOUNDARY_TOL = 1e-14

EASY = "easy"
CLUSTER = "cluster"
REFINED_NORM = "refined-norm"
CV_INVERSE = "cv-inverse"
CIRCLE_VALUE = "circle-value"
COEFF_NORM = "coeff-norm"
DFT_BLOCK = "dft-block"
SEPARATION_SIGMA = "separation-sigma"
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
    if not 1.0 < nu < math.inf:  # also refuses nan
        raise ValueError(f"nu must be a finite number above 1, got {nu!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
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
    log_num = float(pow_diff_logs(np.array([s_plus]), 1.0, n)[0][0])
    value = log_num - math.log10(abs(s_plus - 1.0)) - 0.5 * math.log10(n)
    return BoundReport(REFINED_NORM, value, None,
                       {"n": n, "s_plus": s_plus,
                        "log10_kappa_bound": value - 0.5 * math.log10(n)})


def bound_cv(s: KnotVector, f: complex, variant: InverseVariant) -> BoundReport:
    """kappa >= sqrt(n) * ||Cinv|| / max_i |s_i^n - f^n| for the CV matrix.

    ||Cinv|| is lower-bounded by the largest inverse-entry magnitude under
    the chosen variant, in log10 from one magnitude-only walk of
    `cauchyinv.inverse_blocks`, so any scale works.  No SVD runs and no
    n x n array is built, at any n: past small n a double-precision SVD of
    C floors far below the certified entry bound.
    The grid is `cv_knots(n, f)`, and ValueError is raised unless |f| = 1.
    On a grid collision f turns once by (3 - sqrt 5)/2 of a grid step.
    """
    f = complex(f)
    sp = s.as_array()
    n = len(sp)

    def largest_entry(f):
        blocks = inverse_blocks(sp, _cv_grid(n, f), variant, f, phase=False)
        return max(float(np.max(mag)) for _, mag, _ in blocks)

    nudged = False
    try:
        log_inv_entry = largest_entry(f)
    except KnotCollision:
        step = math.pi * (3.0 - math.sqrt(5.0)) / n
        f *= complex(math.cos(step), math.sin(step))
        nudged = True
        log_inv_entry = largest_entry(f)
    log_pow = float(np.max(pow_diff_logs(sp, f, n)[0]))
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
    s is 0 (log -inf), so the sum has a finite term.
    """
    n = len(s)
    logmags = log_magnitudes(unit_roots(n + 1), s.as_array())
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
    if q < 1:
        raise ValueError("q must be >= 1")
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
    if n % 2 != 0 or n < 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    q = n // 2
    if mode == "base":
        value = (n / 4.0 - 1.0) * _LOG2 + 0.5 * math.log10(n)
    else:
        value = _staging_integral_log10(q)
    return BoundReport(DFT_BLOCK, value, InverseVariant.PAPER.value,
                       {"n": n, "q": q, "mode": mode})


def is_separated(S: KnotVector, T: KnotVector, eta: float, c: complex) -> bool:
    """True iff |t - c| <= |s - c| / eta for every s in S, t in T."""
    if not 1.0 < eta < math.inf:  # also refuses nan
        raise ValueError(f"eta must be a finite number above 1, got {eta!r}")
    ds = np.abs(S.as_array() - complex(c))
    dt = np.abs(T.as_array() - complex(c))
    return bool(np.max(dt) <= np.min(ds) / eta)


def sigma_bound_separated(S: KnotVector, T: KnotVector, eta: float,
                          c: complex, rho: int) -> BoundReport:
    """1 / sigma_rho(C) >= (eta - 1) eta^(rho - 1) delta for separated sets.

    C is the Cauchy matrix on (S, T) and delta = min_i |s_i - c|.  The
    growth factor is implemented as (eta - 1), the sign that makes the
    bound positive for eta > 1.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if not is_separated(S, T, eta, c):
        raise NotSeparated(f"sets are not ({eta}, {c})-separated")
    delta = float(np.min(np.abs(S.as_array() - complex(c))))
    if delta == 0.0:
        value = -math.inf
    else:
        value = (math.log10(eta - 1.0) + (rho - 1) * math.log10(eta)
                 + math.log10(delta))
    ok = math.isfinite(value)
    return BoundReport(SEPARATION_SIGMA, value, None,
                       {"m": len(S), "l": len(T), "eta": eta, "rho": rho,
                        "delta": delta, "c": complex(c)},
                       applicable=ok,
                       reason="" if ok else "a row knot coincides with the center")


def _chord(t: np.ndarray, j_lo: int, j_hi: int):
    """Midpoint c and half-length r of the chord from t[j_lo] to t[j_hi]."""
    c = 0.5 * (t[j_lo] + t[j_hi])
    return c, float(abs(c - t[j_lo]))


def _arc_score(rho_bar: int, eta: float, r: float) -> float:
    """log10 of the arc bound on ||Cinv||: rho_bar log10(eta) + log10((eta-1) r)."""
    return rho_bar * math.log10(eta) + math.log10((eta - 1.0) * r)


def _count_inside(centers, radii, pts, eta_grid) -> np.ndarray:
    """[a, e]: points with |p - centers[a]| < eta_grid[e] * radii[a] - BOUNDARY_TOL."""
    counts = np.empty((len(centers), len(eta_grid)), dtype=np.int64)
    for lo, d in diff_blocks(centers, pts):
        dist = np.abs(d)
        for e, eta in enumerate(eta_grid):
            lim = eta * radii[lo:lo + len(d)] - BOUNDARY_TOL
            counts[lo:lo + len(d), e] = np.count_nonzero(dist < lim[:, None], axis=1)
    return counts


def arc_certificate(s: KnotVector, f: complex, j_lo: int, j_hi: int,
                    eta: float) -> SeparationCertificate:
    """Build the separation witness for the arc t_{j_lo} .. t_{j_hi}.

    t is the CV grid `cv_knots(n, f)` of the matrix the certificate bounds;
    ValueError unless |f| = 1, since the arc bound holds only there.
    The center is the chord midpoint, the radius the half-chord length;
    row knots strictly inside the disc of radius eta*r count toward
    m_minus, knots on the boundary (within 1e-14) count as exterior.
    """
    if not 1.0 < eta < math.inf:  # also refuses nan
        raise ValueError(f"eta must be a finite number above 1, got {eta!r}")
    n = len(s)
    if not (0 <= j_lo <= j_hi < n):
        raise ValueError("need 0 <= j_lo <= j_hi < n")
    l = j_hi - j_lo + 1
    if l > n / 2.0:
        raise ValueError(f"arc of {l} knots exceeds n/2 = {n / 2:g}")
    c, r = _chord(_cv_grid(n, f), j_lo, j_hi)
    m_minus = int(_count_inside(np.array([c]), np.array([r]), s.as_array(), (eta,))[0, 0])
    return SeparationCertificate(j_lo, j_hi, l, complex(c), r, float(eta),
                                 m_minus, n - m_minus, l - m_minus)


def bound_arc(s: KnotVector, cert: SeparationCertificate) -> BoundReport:
    """Arc bound on kappa for unit-disc knots, from the certificate.

    log10 ||Cinv|| >= rho_bar log10(eta) + log10((eta-1) r) bounds the CV
    inverse; adding 0.5 log10(n) - log10(2) turns it into a condition-number
    bound, applicable when every knot has |s| <= 1 and r > 0.
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
    """
    n = len(s)
    eta_grid = tuple(float(e) for e in eta_grid)
    if not eta_grid or not all(1.0 < e < math.inf for e in eta_grid):
        raise ValueError(f"eta_grid values must be finite and above 1, got {eta_grid}")
    stride = max(1, n // 64)
    t = _cv_grid(n, f)
    arcs = [(j_lo, j_hi) + _chord(t, j_lo, j_hi) for j_lo in range(0, n, stride)
            for j_hi in range(j_lo + 1, min(n, j_lo + n // 2), stride)]
    m_minus = _count_inside(np.array([a[2] for a in arcs]),
                            np.array([a[3] for a in arcs]), s.as_array(), eta_grid)
    half_log_n = 0.5 * math.log10(n)
    best = None  # ((value, -l, -j_lo, -eta), j_lo, j_hi, eta)
    for (j_lo, j_hi, _, r), counts in zip(arcs, m_minus.tolist()):
        l = j_hi - j_lo + 1
        for eta, count in zip(eta_grid, counts):
            if count < l:
                value = _arc_score(l - count, eta, r) + half_log_n - _LOG2
                key = (value, -l, -j_lo, -eta)
                if best is None or key > best[0]:
                    best = (key, j_lo, j_hi, eta)
    del arcs, m_minus  # a caller keeping NoPositiveBound would keep them
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
    lines need knots inside the unit circle; quasi-cyclic lines need
    `s.label == "quasi-cyclic"` and 3 | n.
    """
    check_unit_circle(f)
    out = [("easy", EASY, lambda: bound_easy(s)),
           ("refined-norm", REFINED_NORM, lambda: bound_refined_norm(s))]
    moduli = np.abs(s.as_array())
    small = moduli[moduli < 1.0 - 1e-9]
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
