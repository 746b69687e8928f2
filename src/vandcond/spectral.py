"""Reference numerics: SVD spectra, root polynomials, circle maxima, and GENP."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, RangeOverflow, ZeroPivot
from .knotgen import KnotVector, unit_roots
from .logdomain import log_magnitudes
from .structmat import DenseMatrix, dft

#: Pivots at or below this magnitude signal a structurally singular block
#: rather than mere ill-conditioning.
ZERO_PIVOT_TOL = 1e-300

#: Columns per block of the GENP factor.  Only the diagonal blocks are
#: eliminated column by column; everything else is BLAS-3 work.
GENP_BLOCK = 64

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SpectrumSummary:
    """Full singular spectrum with condition number and a trust flag.

    `trustworthy` is False once kappa exceeds 1 / (max(rows, cols) * eps):
    beyond that the smallest computed singular value is dominated by
    backward-error noise of order eps * sigma_1, so kappa is reported as-is
    but carries no reproducible digits.
    """

    sigma: np.ndarray
    sigma1: float
    sigma_min: float
    kappa: float
    log10kappa: float
    trustworthy: bool


@dataclass(frozen=True)
class GenpStats:
    """Mean/std of relative residuals from the no-pivoting solve experiment.

    `min_pivot` is the smallest pivot magnitude of the shared factor and
    `growth` the growth factor max|U| / max|A|; both are deterministic
    diagnostics of how far elimination without pivoting strays.
    """

    n: int
    trials: int
    seed: int
    mean_rn: float
    std_rn: float
    min_pivot: float
    growth: float


def singular_values(M: DenseMatrix) -> SpectrumSummary:
    """Full singular spectrum of a dense matrix in double precision."""
    try:
        sigma = np.linalg.svd(M.data, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    sigma1 = float(sigma[0])
    sigma_min = float(sigma[-1])
    if sigma_min > 0.0:
        kappa = sigma1 / sigma_min
        log10kappa = math.log10(sigma1) - math.log10(sigma_min)
    else:
        kappa = math.inf
        log10kappa = math.inf
    trust_cap = 1.0 / (max(M.rows, M.cols) * _EPS)
    return SpectrumSummary(sigma, sigma1, sigma_min, kappa, log10kappa,
                           trustworthy=(kappa <= trust_cap))


def poly_from_roots(knots: KnotVector) -> np.ndarray:
    """Monic coefficients of prod (x - s_i), ascending powers, length n+1.

    Factors go in Leja order (largest |s_i| first, then the root farthest
    in product of distances from those taken), so partial products stay small.
    """
    pts = knots.as_array()
    n = len(pts)
    if n > 4096:
        raise ValueError("degree capped at 4096")
    coeff = np.zeros(n + 1, dtype=np.complex128)
    coeff[0] = 1.0
    score = np.zeros(n)  # sum of log distances to the roots taken
    k = int(np.argmax(np.abs(pts)))
    # Overflow surfaces as non-finite coefficients, detected below; a root
    # taken scores log 0 = -inf, so it is not taken again.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in range(n):
            z = pts[k]
            coeff[1:m + 2] = coeff[:m + 1] - z * coeff[1:m + 2]
            coeff[0] *= -z
            score += np.log(np.abs(pts - z))
            k = int(np.argmax(score))
    if not np.all(np.isfinite(coeff)):
        raise RangeOverflow(math.inf, where="polynomial coefficients")
    return coeff


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def max_abs_on_circle(knots: KnotVector, grid: int = 0):
    """Maximize |prod (f - s_i)| over f on the unit circle.

    A scan of the `grid`-th roots of 1 (`knotgen.unit_roots`) picks the best
    cell, then golden-section refinement narrows the angle to 1e-12; a scan
    point that still wins is returned as that exact root.  The result
    lower-bounds the true supremum by construction.  `grid=0` selects
    max(1024, 16 n): the product has at most n oscillations around the
    circle, so at least 16 samples per oscillation land in every cell
    before refinement.
    """
    pts = knots.as_array()
    n = len(pts)
    if grid <= 0:
        grid = max(1024, 16 * n)
    if grid < 8:
        raise ValueError("grid must be >= 8")
    roots = unit_roots(grid)
    mags = log_magnitudes(roots, pts)
    best = int(np.argmax(mags))

    def g(theta: float) -> float:
        return float(log_magnitudes(np.exp(1j * theta), pts)[0])

    span = 2.0 * np.pi / grid
    theta0 = 2.0 * np.pi * (best / grid)
    # Golden-section search for the maximum of g on [a, b].
    a, b = theta0 - span, theta0 + span
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    g1, g2 = g(x1), g(x2)
    while b - a > 1e-12:
        if g1 < g2:
            a, x1, g1 = x1, x2, g2
            x2 = a + _GOLDEN * (b - a)
            g2 = g(x2)
        else:
            b, x2, g2 = x2, x1, g1
            x1 = b - _GOLDEN * (b - a)
            g1 = g(x1)
    theta_best = 0.5 * (a + b)
    g_best = g(theta_best)
    if (g_best, theta_best) > (float(mags[best]), theta0):
        return complex(np.exp(1j * theta_best)), g_best
    return complex(roots[best]), float(mags[best])


def _genp_factor(a: np.ndarray):
    """Blocked right-looking LU with no row or column interchange.

    Works in place on one packed copy of `a`: the unit-lower L sits below
    the diagonal (its ones are implied) and U on and above it.  Each block
    of `GENP_BLOCK` columns factors its diagonal block column by column;
    one triangular solve each then forms the L21 column block and the U12
    row block, and one matrix product applies the Schur update to the
    trailing matrix.  Every pivot is checked as it is reached, and the
    finished factor once for overflow, so solves on it need no finiteness
    scan.  Returns (LU, min |pivot|).
    """
    # scipy.linalg costs about 0.35 s to import and only GENP needs it.
    import scipy.linalg

    LU = np.array(a, dtype=np.complex128)
    n = LU.shape[0]
    min_pivot = math.inf
    # Overflow surfaces as non-finite entries, detected below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, GENP_BLOCK):
            k1 = min(k0 + GENP_BLOCK, n)
            for k in range(k0, k1):
                mag = abs(LU[k, k])
                if mag <= ZERO_PIVOT_TOL:
                    raise ZeroPivot(k, mag)
                min_pivot = min(min_pivot, mag)
                LU[k + 1:k1, k] /= LU[k, k]
                LU[k + 1:k1, k + 1:k1] -= np.outer(LU[k + 1:k1, k],
                                                   LU[k, k + 1:k1])
            if k1 < n:
                diag = LU[k0:k1, k0:k1]
                # L21 = A21 U11^-1 and U12 = L11^-1 A12.
                LU[k1:, k0:k1] = scipy.linalg.solve_triangular(
                    diag, LU[k1:, k0:k1].T, trans="T", lower=False,
                    check_finite=False).T
                LU[k0:k1, k1:] = scipy.linalg.solve_triangular(
                    diag, LU[k0:k1, k1:], lower=True, unit_diagonal=True,
                    check_finite=False)
                LU[k1:, k1:] -= LU[k1:, k0:k1] @ LU[k0:k1, k1:]
    if not np.all(np.isfinite(LU)):
        raise RangeOverflow(math.inf, where="GENP factor")
    return LU, min_pivot


def _genp_solve_packed(LU: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with the packed factor for one or many right-hand-side columns.

    The packed layout is LAPACK's getrf output, so identity pivots make
    one getrs call do both triangular solves.  `_genp_factor` has checked
    the factor finite.
    """
    import scipy.linalg

    piv = np.arange(LU.shape[0], dtype=np.int32)
    return scipy.linalg.lu_solve((LU, piv), b, check_finite=False)


def genp_solve(A: DenseMatrix, b):
    """Solve A x = b by Gaussian elimination with no pivoting.

    Returns the solution and the smallest pivot magnitude encountered, the
    standard diagnostic for singular or ill-conditioned leading blocks.
    """
    if A.rows != A.cols:
        raise ValueError("matrix must be square")
    b = np.asarray(b, dtype=np.complex128)
    if b.shape[0] != A.rows:
        raise ValueError("right-hand side length mismatch")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side entries must be finite")
    LU, min_pivot = _genp_factor(A.data)
    return _genp_solve_packed(LU, b), min_pivot


def genp_residual_experiment(n: int, trials: int, seed: int) -> GenpStats:
    """Relative residuals of no-pivot solves on the n-point Fourier matrix.

    Each trial draws a real standard normal right-hand side from a Philox
    stream spawned off (seed, trial index) and records ||A x - b|| / ||b||.
    All trials share one blocked LU factor (see `_genp_factor`) and are
    solved together as the columns of one n x trials right-hand side.

    Results are bit-reproducible for a fixed (n, trials, seed).  Residual
    means at n >= 256 are dominated by rounding-order noise: once they
    reach about 1 they carry no reproducible digits across factorization
    orders, and they moved when the factor became blocked (n=256 from
    6.4e3 to 4.4e2 at seed 12345).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    A = dft(n)
    LU, min_pivot = _genp_factor(A.data)
    streams = np.random.SeedSequence(seed).spawn(trials)
    B = np.empty((n, trials), dtype=np.complex128)
    for t in range(trials):
        B[:, t] = np.random.Generator(np.random.Philox(streams[t])).standard_normal(n)
    X = _genp_solve_packed(LU, B)
    rns = np.linalg.norm(A.data @ X - B, axis=0) / np.linalg.norm(B, axis=0)
    mean = float(rns.mean())
    std = float(rns.std(ddof=1)) if trials > 1 else 0.0
    # max|U| one block row at a time: np.triu of the whole factor would copy it.
    u_max = max(float(np.abs(np.triu(LU[k:k + GENP_BLOCK, k:])).max())
                for k in range(0, n, GENP_BLOCK))
    growth = u_max / float(np.abs(A.data).max())
    return GenpStats(n, trials, seed, mean, std, min_pivot, growth)
