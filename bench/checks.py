"""Independent references for the benchmark's correctness checks.

Each check recomputes a result from its definition with plain numpy, in
the log domain where magnitudes leave the double range, and returns an
empty string when the package agrees or a one-line reason when it does
not.  None of this runs inside a timed pass.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log10(2.0)

#: Catalan's constant, for the closed form of the staging integral.
CATALAN = 0.915965594177219015

#: Relative tolerance in log10 for values the package computes by the same
#: formula; only summation order differs.
LOG_TOL = 1e-9

#: Relative tolerance in log10 for the coefficient norm, which the package
#: reaches through a different route (the coefficients themselves).
COEFF_TOL = 1e-6


def close(got: float, ref: float, tol: float = LOG_TOL) -> bool:
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def _mismatch(what: str, got: float, ref: float, tol: float = LOG_TOL) -> str:
    return "" if close(got, ref, tol) else f"{what} {got!r} vs reference {ref!r}"


def log10_sum_pow10(logs, axis=None):
    """log10 of sum(10**logs) without overflow; -inf terms are zeros."""
    logs = np.asarray(logs, dtype=float)
    peak = np.max(logs, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        total = np.log10(np.sum(10.0 ** (logs - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(total, axis=axis) if axis is not None else float(total.ravel()[0])


def log10_abs_poly(xs, pts) -> np.ndarray:
    """log10 |prod_k (x - pts[k])| at every x; -inf where x is a root."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.complex128))
    out = np.empty(len(xs))
    chunk = max(1, 1_000_000 // max(1, len(pts)))
    with np.errstate(divide="ignore"):
        for lo in range(0, len(xs), chunk):
            d = np.abs(xs[lo:lo + chunk, None] - pts[None, :])
            out[lo:lo + chunk] = np.sum(np.log10(d), axis=1)
    return out


def _roots(n: int, count: int | None = None) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n if count is None else count) / n)


def expected_knots(gen: str, n: int, s_last: complex) -> np.ndarray:
    """The knot sequences of the bounds sweep, from their definitions."""
    if gen == "quasi-cyclic":
        m = np.arange(1, n)
        start = 2 ** np.floor(np.log2(m))
        fracs = np.concatenate([[0.0], (2 * (m - start) + 1) / (2 * start)])
        return np.exp(2j * np.pi * fracs)
    if gen == "van-der-corput":
        bits = max(1, (n - 1).bit_length())
        fracs = [int(format(i, f"0{bits}b")[::-1], 2) / 2 ** bits for i in range(n)]
        return np.exp(2j * np.pi * np.array(fracs))
    if gen == "scaled-cluster":
        k = n // 8
        return np.concatenate([_roots(n - k), 0.5 * _roots(k)])
    if gen == "single-outlier":
        return np.concatenate([_roots(n, n - 1), [s_last]])
    raise ValueError(f"unknown generator {gen!r}")


def check_knots(gen: str, n: int, s_last: complex, kv) -> str:
    pts = kv.as_array()
    if len(pts) != n:
        return f"{len(pts)} knots, expected {n}"
    gap = float(np.max(np.abs(pts - expected_knots(gen, n, s_last))))
    return "" if gap <= 1e-14 else f"knots differ from their definition by {gap:.3e}"


def _log10_pow_diff(pts, f: complex, n: int) -> np.ndarray:
    """log10 |s^n - f^n| per knot, factoring out the larger power."""
    lz = np.log10(np.abs(pts))
    lf = math.log10(abs(f))
    big = lz > lf
    ratio = np.where(big, f / pts, pts / f) ** n
    return n * np.maximum(lz, lf) + np.log10(np.abs(np.where(big, 1.0 - ratio, ratio - 1.0)))


def _self_products(pts) -> np.ndarray:
    d = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(d, 1.0)
    return np.sum(np.log10(d), axis=1)


def cv_max_entry(pts, f: complex, variant: str) -> float:
    """log10 of the largest CV-inverse entry, from the closed forms.

    paper:     (i, j) -> s(t_j) t(s_i) / (t_j - s_i)
    corrected: (i, j) -> s(t_i) t(s_j) / ((t_i - s_j) s'(s_j) t'(t_i))
    with t(x) = x^n - f^n on the grid t_j = f omega^j.
    """
    n = len(pts)
    t = f * _roots(n)
    s_at_t = log10_abs_poly(t, pts)
    t_at_s = _log10_pow_diff(pts, f, n)
    d = np.log10(np.abs(t[:, None] - pts[None, :]))  # [i over t, j over s]
    if variant == "paper":
        return float(np.max(t_at_s[:, None] + s_at_t[None, :] - d.T))
    t_prime = math.log10(n) + (n - 1) * np.log10(np.abs(t))
    logs = (s_at_t[:, None] + t_at_s[None, :] - d
            - _self_products(pts)[None, :] - t_prime[:, None])
    return float(np.max(logs))


def _check_cluster(label, pts, rep) -> str:
    n = len(pts)
    k, nu = rep.params["k"], rep.params["nu"]
    if label == "cluster-literal":
        log_norm = max(0.0, (n - 1) * math.log10(float(np.max(np.abs(pts)))))
        log_div = 0.5 * math.log10(k) + math.log10(max(k, nu / (nu - 1.0)))
    else:
        # The spectral norm lies between the largest column norm and the
        # Frobenius norm of V, entries s_i^j.
        log_norm = rep.params["log10_norm"]
        entry_logs = 2.0 * np.arange(n)[None, :] * np.log10(np.abs(pts))[:, None]
        lo = 0.5 * float(np.max(log10_sum_pow10(entry_logs, axis=0)))
        hi = 0.5 * log10_sum_pow10(entry_logs)
        if not lo - LOG_TOL <= log_norm <= hi + LOG_TOL:
            return f"log10 spectral norm {log_norm!r} outside [{lo!r}, {hi!r}]"
        log_div = 0.5 * math.log10(k) + math.log10(nu / (nu - 1.0))
    return _mismatch("log10value", rep.log10value,
                     log_norm + (k - 1) * math.log10(nu) - log_div)


def _check_circle(pts, rep) -> str:
    n = len(pts)
    log_max = rep.params["log10_circle_max"]
    at_star = float(log10_abs_poly([rep.params["f_star"]], pts)[0])
    problem = _mismatch("log10 |s(f*)|", log_max, at_star)
    if problem:
        return problem
    # Every fourth point of the package's own scan grid: its refined
    # maximum may not fall below any of them.
    grid = max(1024, 16 * n) // 4
    grid_max = float(np.max(log10_abs_poly(_roots(grid), pts)))
    if log_max < grid_max - LOG_TOL * max(1.0, abs(grid_max)):
        return f"circle maximum {log_max!r} below a grid value {grid_max!r}"
    return _mismatch("log10value", rep.log10value, 0.5 * math.log10(n) + log_max - LOG2)


def _check_coeff(pts, rep) -> str:
    if not rep.applicable:
        return ""
    # Parseval on N = n + 1 roots of unity: ||c||^2 = (1/N) sum |s(w_k)|^2.
    n = len(pts)
    logs = log10_abs_poly(_roots(n + 1), pts)
    log_norm = 0.5 * (log10_sum_pow10(2.0 * logs) - math.log10(n + 1))
    ref = math.log10(0.5) + log_norm + 0.5 * math.log10(n + 1)
    return _mismatch("log10value", rep.log10value, ref, COEFF_TOL)


def _staged(q: int, mode: str) -> float:
    half_log_n = 0.5 * math.log10(3 * q)
    if mode == "base":
        return q / 2.0 * LOG2 + half_log_n
    if mode == "coarse":
        return q / 6.0 * math.log10(18.0) + half_log_n
    if mode == "refined":
        return q / 3.0 * math.log10(2.0 * math.cos(math.pi / 12.0) * math.sqrt(6.0)) + half_log_n
    if mode == "product":
        i = np.arange(q)
        stages = np.maximum(math.sqrt(2.0), 2.0 * np.cos((0.5 - i / q) * np.pi / 2.0))
        return float(np.sum(np.log10(stages))) + half_log_n
    return q * 2.0 * CATALAN / math.pi / math.log(10.0)


def _check_arc(pts, f, rep) -> str:
    p = rep.params
    n = len(pts)
    t = f * _roots(n)
    c = 0.5 * (t[p["j_lo"]] + t[p["j_hi"]])
    r = abs(c - t[p["j_lo"]])
    m_minus = int(np.sum(np.abs(pts - c) < p["eta"] * r - 1e-14))
    if m_minus != p["m_minus"]:
        return f"m_minus {p['m_minus']} vs recount {m_minus}"
    rho_bar = p["l"] - m_minus
    ref = (rho_bar * math.log10(p["eta"]) + math.log10((p["eta"] - 1.0) * r)
           + 0.5 * math.log10(n) - LOG2)
    return _mismatch("log10value", rep.log10value, ref)


def check_report(label: str, kv, f: complex, rep) -> str:
    """Compare one evaluator's report with its reference; '' when it agrees."""
    if not math.isfinite(rep.log10value):
        return ""  # judged by the outcome classifier
    pts = kv.as_array()
    n = len(pts)
    if label == "easy":
        ref = max(0.0, (n - 1) * math.log10(float(np.max(np.abs(pts))))
                  - 0.5 * math.log10(n))
        return _mismatch("log10value", rep.log10value, ref)
    if label == "refined-norm":
        s_plus = float(np.max(np.abs(pts)))
        top = n * math.log10(s_plus)
        num = top if top > 300.0 else math.log10(abs(s_plus ** n - 1.0))
        ref = num - math.log10(abs(s_plus - 1.0)) - 0.5 * math.log10(n)
        return _mismatch("log10value", rep.log10value, ref)
    if label.startswith("cluster-"):
        return _check_cluster(label, pts, rep)
    if label.startswith("cv-inverse-"):
        f_used = rep.params["f"]
        entry = cv_max_entry(pts, f_used, label.rsplit("-", 1)[1])
        pow_diff = float(np.max(_log10_pow_diff(pts, f_used, n)))
        return (_mismatch("largest inverse entry", rep.params["log10_inv_norm_entry"], entry)
                or _mismatch("log10value", rep.log10value,
                             0.5 * math.log10(n) + entry - pow_diff))
    if label == "circle-value":
        return _check_circle(pts, rep)
    if label == "coeff-norm":
        return _check_coeff(pts, rep)
    if label.startswith("quasi-cyclic-"):
        mode = label[len("quasi-cyclic-"):]
        tol = 1e-6 if mode == "integral" else LOG_TOL  # Simpson vs closed form
        return _mismatch("log10value", rep.log10value, _staged(n // 3, mode), tol)
    if label == "arc":
        return _check_arc(pts, f, rep)
    return f"no reference for {label!r}"
