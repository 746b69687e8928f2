"""Reference numerics: SVD spectra, a Lanczos sigma_1, root polynomials, circle maxima, and GENP."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, RangeOverflow, ZeroPivot, as_int
from .knotgen import KnotVector, unit_roots
from .logdomain import log_magnitudes
from .structmat import DenseMatrix, check_vandermonde_range, vandermonde_array

#: Pivots at or below this magnitude signal a structurally singular block
#: rather than mere ill-conditioning.
ZERO_PIVOT_TOL = 1e-300

#: Columns per block of the GENP factor.  Only the diagonal blocks are
#: eliminated column by column; everything else is BLAS-3 work.
GENP_BLOCK = 64

#: Step cap of `top_singular_value`.  The scaled clusters of the cluster
#: bound converge in at most 27 steps at n = 32 to 1536.
LANCZOS_MAX_STEPS = 64

#: Ritz residual, relative to the Ritz value, at which `top_singular_value` stops.
LANCZOS_TOL = 1e-13

#: Relative margin of the circle scan's FFT screen, far above its rounding
#: bound (see `max_abs_on_circle`).
CIRCLE_SCREEN_TOL = 1e-6

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


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """w less its projection on the orthonormal rows of `basis`, taken twice."""
    for _ in range(2):  # conj(basis) w, conjugating vectors rather than basis
        w = w - np.conj(basis @ np.conj(w)) @ basis
    return w


def _vandermonde_operator(pts: np.ndarray, scale: float):
    """Closures x -> scale V x and y -> scale V^H y for V = [s_i^j], never formed.

    With m = ceil(sqrt(n)) and p = ceil(n / m), columns r + m k (r < m) of
    V are D^k P^T, where P[r] = s^r holds the first m powers and
    D = diag(s^m): V = [P^T | D P^T | D^2 P^T | ...].
    - V x is one product X P, X the p x m matrix of x (zero-padded, row k
      holding x[m k : m k + m]); Horner's rule in s^m then sums its p rows.
    - V^H y is Y conj(P)^T read row by row, with Y[k] = conj(s^m)^k y.  It is
      taken as the conjugate of conj(Y) P^T, so no conjugate of P is kept.
    Each closure is one p x m x n matrix product plus p - 1 elementwise
    steps over n entries.  The operator keeps P, and each call makes one
    p x n array: O(n sqrt n) memory.  `scale` multiplies the argument first;
    the caller picks it so that every product stays within the range
    `top_singular_value` squares.
    """
    n = len(pts)
    m = math.isqrt(n - 1) + 1
    p = -(-n // m)
    P = np.ones((m, n), dtype=np.complex128)
    for r in range(1, m):
        np.multiply(P[r - 1], pts, out=P[r])
    d = P[-1] * pts

    def matvec(x: np.ndarray) -> np.ndarray:
        X = np.zeros(p * m, dtype=np.complex128)
        X[:n] = scale * x
        Z = X.reshape(p, m) @ P
        acc = Z[-1]
        for k in range(p - 2, -1, -1):
            acc *= d
            acc += Z[k]
        return acc

    def rmatvec(y: np.ndarray) -> np.ndarray:
        Y = np.empty((p, n), dtype=np.complex128)
        np.conj(scale * y, out=Y[0])
        for k in range(1, p):
            np.multiply(Y[k - 1], d, out=Y[k])
        return np.conj(Y @ P.T).reshape(-1)[:n]

    return matvec, rmatvec


def top_singular_value(s: KnotVector):
    """(sigma_1 of V, steps, converged) for V = [s_i^j] by Golub-Kahan-Lanczos
    bidiagonalization, with no n x n array.

    V multiplies vectors through `_vandermonde_operator`, in O(n sqrt n)
    memory; with the Lanczos vectors the run holds
    O(n (sqrt n + LANCZOS_MAX_STEPS)).  The start vector is fixed (Philox
    seed 0) and each new Lanczos vector is orthogonalized twice against all
    earlier ones, so reruns give the same bits.  After k steps the largest
    singular value theta of the k x k bidiagonal B_k is the Ritz value, with
    residual beta_k |p_k| (p the left singular vector of B_k).  The
    iteration stops once that residual is at most LANCZOS_TOL * theta
    (`converged`), or after min(n, LANCZOS_MAX_STEPS) steps.  The value
    returned is ||V x|| recomputed for the unit Ritz vector x: a Rayleigh
    quotient, so up to the rounding of that product it never exceeds
    sigma_1, converged or not.

    Knots past `structmat.check_vandermonde_range` are refused as for
    `vandermonde`.  Norms square the entries, so once the largest entry
    max(1, s_+)^(n-1) passes 2^480 the iteration runs on 2^-e V, an exact
    scaling of each vector V multiplies, and scales sigma_1 back; below that
    it runs on V itself.  RangeOverflow is raised if sigma_1 leaves the
    float range.
    """
    check_vandermonde_range(s)
    n = len(s)
    big = max(1.0, s.max_modulus()) ** (n - 1)
    e = max(0, math.frexp(big)[1] - 480)
    matvec, rmatvec = _vandermonde_operator(s.as_array(), math.ldexp(1.0, -e))
    cap = min(n, LANCZOS_MAX_STEPS)
    U = np.zeros((cap, n), dtype=np.complex128)
    V = np.zeros((cap, n), dtype=np.complex128)
    B = np.zeros((cap, cap))  # alpha on the diagonal, beta above it
    v = np.random.Generator(np.random.Philox(0)).standard_normal(n)
    v = v / np.linalg.norm(v)
    beta = 0.0
    q = np.ones(1)  # the Ritz vector's coefficients in the rows of V
    converged = False
    for j in range(cap):
        V[j] = v
        # beta and U[-1] are still 0 when j = 0.
        u = _orthogonalize(matvec(v) - beta * U[j - 1], U[:j])
        alpha = np.linalg.norm(u)
        if alpha == 0.0:  # matvec(v) lies in span U[:j]: nothing more to find
            break
        U[j] = u / alpha
        B[j, j] = alpha
        B[j - 1, j] = beta
        w = _orthogonalize(rmatvec(U[j]) - alpha * v, V[:j + 1])
        beta = np.linalg.norm(w)
        try:
            P, theta, QH = np.linalg.svd(B[:j + 1, :j + 1])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
        q = QH[0].conj()
        if beta * abs(P[j, 0]) <= LANCZOS_TOL * theta[0]:
            converged = True
            break
        v = w / beta
    x = q @ V[:len(q)]
    sigma1 = float(np.linalg.norm(matvec(x / np.linalg.norm(x))))
    try:
        return math.ldexp(sigma1, e), len(q), converged
    except OverflowError:
        raise RangeOverflow(math.log10(sigma1) + e * math.log10(2.0),
                            where="sigma_1") from None


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


@functools.lru_cache(maxsize=1)
def root_logs(knots: KnotVector) -> np.ndarray:
    """log10|s(w)| at the n + 1 roots of 1 w, read-only, cached for the last knots.

    These are the even samples of `max_abs_on_circle` and the Parseval
    points of `bounds.bound_coeff_norm`; the first of the two to run on a
    knot vector pays for the (n+1) x n walk, the other reads its result.
    One entry, so no more than n + 1 floats are held; KnotVector hashes by
    identity, and the cache keeps it alive.
    """
    logs = log_magnitudes(unit_roots(len(knots) + 1), knots.as_array())
    logs.flags.writeable = False
    return logs


def max_abs_on_circle(knots: KnotVector, grid: int = 0):
    """Maximize |prod (f - s_i)| over f on the unit circle.

    The scan grid is the `grid`-th roots of 1 (`knotgen.unit_roots`), grid >= 8;
    `grid=0` selects max(1024, 16 n): the product has at most n
    oscillations around the circle, so at least 16 samples per oscillation
    land in every cell before refinement.  The best grid point is the first
    largest `log_magnitudes` value in grid order, and only the points where
    it can lie are evaluated:

    * On the circle T = |s|^2 = prod (1 + |s_i|^2 - 2 Re(conj(s_i) f)) is a
      real trigonometric polynomial of degree n, so its values at the
      m = 2n + 2 roots of 1 fix it.  These are computed exactly (2 n^2 log
      terms, against 16 n^2 for the whole grid) and scaled by their largest.
      The even half of them is the n + 1 roots of 1 bit for bit, read from
      `root_logs`, which `bounds.bound_coeff_norm` reads too: whichever of
      the two runs first on a knot vector pays for that (n+1) x n walk, and
      the scan itself always walks the odd half.
    * One FFT gives T's coefficients; frequency k goes to slot k mod `grid`
      (so any grid >= 8 works, also one below m) and one inverse FFT gives
      the interpolated T at every grid point.  Slot n + 1 of the FFT is the
      Nyquist frequency n + 1, which T lacks: it holds only rounding, so it
      is zeroed rather than folded onto either side.
    * Each interpolated value is off by at most about
      Lambda_m (2 ln(10) E + sqrt(m) log2(m) eps), with E the rounding of
      one log10 sum (about n eps max |log10|f - s_i||) and
      Lambda_m <= 1 + (2/pi) ln m the Lebesgue constant of the
      interpolation: about 1e-10 at n = 1536 near the circle (4e-13
      measured) and 1e-8 at n = 4096 with knots out to 1e300 (1e-9 measured).
    * The exact argmax lies within twice that bound, plus 2 ln(10) E, of the
      interpolated maximum.  Every point within `CIRCLE_SCREEN_TOL`
      = 1e-6 of it, relative to the larger of it and the largest sample,
      is kept and evaluated exactly: a margin of over a decade at the ends
      of the supported range and over three near the circle.
    * A row sum of logs does not depend on the other rows of its block, so
      index, value and refinement are the same bits as a scan of the whole
      grid.  Near ties are all kept: the roots of unity keep n points.  When
      |s| is nearly constant on the circle (all knots packed near 0) every
      point is kept, and the scan costs a whole-grid scan plus an eighth.

    Golden-section refinement then narrows the angle around the best grid
    point to 1e-12; a grid point that still wins is returned as that exact
    root.  The result lower-bounds the true supremum by construction.
    """
    pts = knots.as_array()
    n = len(pts)
    grid = as_int("grid", grid, 0) or max(1024, 16 * n)
    if grid < 8:
        raise ValueError(f"grid must be 0 or >= 8, got {grid}")
    m = 2 * n + 2
    logs = np.empty(m)
    logs[0::2] = root_logs(knots)
    logs[1::2] = log_magnitudes(unit_roots(m)[1::2], pts)
    # 10^-inf = 0 at a knot on a sample point; underflow to 0 is harmless.
    coef = np.fft.fft(10.0 ** (2.0 * (logs - np.max(logs))))
    coef[n + 1] = 0.0  # the Nyquist slot: rounding only, T has degree n
    k = np.arange(m)
    k[n + 2:] -= m  # slots n+2 .. 2n+1 hold frequencies -n .. -1
    folded = np.zeros(grid, dtype=np.complex128)
    np.add.at(folded, k % grid, coef)
    vals = np.fft.ifft(folded).real * (grid / m)
    top = float(np.max(vals))
    cand = np.flatnonzero(vals >= top - CIRCLE_SCREEN_TOL * max(top, 1.0))
    roots = unit_roots(grid)
    exact = log_magnitudes(roots[cand], pts)
    i = int(np.argmax(exact))
    best, best_log = int(cand[i]), float(exact[i])

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
    if (g_best, theta_best) > (best_log, theta0):
        return complex(np.exp(1j * theta_best)), g_best
    return complex(roots[best]), best_log


def _substitute(T: np.ndarray, B: np.ndarray, lower: bool, unit: bool) -> None:
    """Solve T X = B in place in B, T triangular, one row of B at a time.

    Reads only the triangle of T that `lower` names, plus its diagonal
    unless `unit` (ones implied), so a packed LU block serves as either
    factor.  B is 1-D or holds one right-hand side per column.  T has at
    most `GENP_BLOCK` rows: each row costs one vector-matrix product with
    the rows of B already solved.
    """
    n = T.shape[0]
    for i in (range(n) if lower else range(n - 1, -1, -1)):
        if lower:
            B[i] -= T[i, :i] @ B[:i]
        else:
            B[i] -= T[i, i + 1:] @ B[i + 1:]
        if not unit:
            B[i] /= T[i, i]


def _genp_factor(a: np.ndarray):
    """Blocked right-looking LU with no row or column interchange, in place.

    Overwrites `a`, a writable complex128 square array, with the packed
    factor: the unit-lower L below the diagonal (its ones implied) and U on
    and above it.  Each block of `GENP_BLOCK` columns factors its diagonal
    block column by column.  `_substitute` then forms the L21 column block
    on a contiguous copy of A21^T (solving U11^T against it) and the U12 row
    block in place, and the Schur update goes to the trailing matrix in
    panels of at most 4 * GENP_BLOCK columns, so no temporary exceeds
    (n - k1) x 4 * GENP_BLOCK.  Every pivot is checked as it is reached, and
    the finished factor once, one block row at a time, for overflow, so
    solves on it need no finiteness scan.  Returns (a, min |pivot|).
    """
    n = a.shape[0]
    min_pivot = math.inf
    # Overflow surfaces as non-finite entries, detected below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, GENP_BLOCK):
            k1 = min(k0 + GENP_BLOCK, n)
            for k in range(k0, k1):
                mag = float(abs(a[k, k]))
                if mag <= ZERO_PIVOT_TOL:
                    raise ZeroPivot(k, mag)
                min_pivot = min(min_pivot, mag)
                a[k + 1:k1, k] /= a[k, k]
                a[k + 1:k1, k + 1:k1] -= np.outer(a[k + 1:k1, k], a[k, k + 1:k1])
            if k1 < n:
                diag = a[k0:k1, k0:k1]
                # L21 = A21 U11^-1 and U12 = L11^-1 A12.
                L21T = np.ascontiguousarray(a[k1:, k0:k1].T)
                _substitute(diag.T, L21T, lower=True, unit=False)
                a[k1:, k0:k1] = L21T.T
                _substitute(diag, a[k0:k1, k1:], lower=True, unit=True)
                for j0 in range(k1, n, 4 * GENP_BLOCK):
                    j1 = min(j0 + 4 * GENP_BLOCK, n)
                    a[k1:, j0:j1] -= L21T.T @ a[k0:k1, j0:j1]
    if not all(np.isfinite(a[k:k + GENP_BLOCK]).all() for k in range(0, n, GENP_BLOCK)):
        raise RangeOverflow(math.inf, where="GENP factor")
    return a, min_pivot


def _genp_solve_packed(LU: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with the packed factor for one or many right-hand-side columns.

    A blocked forward solve with the unit-lower L, then a blocked back
    solve with U: per `GENP_BLOCK` rows, one matrix product takes off the
    blocks already solved and `_substitute` solves the diagonal block.
    `_genp_factor` has checked the factor finite; a solution that leaves
    the float range comes out non-finite, with no warning.
    """
    n = LU.shape[0]
    X = np.array(b, dtype=np.complex128)
    starts = range(0, n, GENP_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in starts:
            k1 = min(k0 + GENP_BLOCK, n)
            X[k0:k1] -= LU[k0:k1, :k0] @ X[:k0]
            _substitute(LU[k0:k1, k0:k1], X[k0:k1], lower=True, unit=True)
        for k0 in reversed(starts):
            k1 = min(k0 + GENP_BLOCK, n)
            X[k0:k1] -= LU[k0:k1, k1:] @ X[k1:]
            _substitute(LU[k0:k1, k0:k1], X[k0:k1], lower=False, unit=False)
    return X


def genp_solve(A: DenseMatrix, b):
    """Solve A x = b by Gaussian elimination with no pivoting.

    Returns the solution and the smallest pivot magnitude encountered, the
    standard diagnostic for singular or ill-conditioned leading blocks.
    The factor is made in place in one copy of A.data; neither A nor b is
    written.  RangeOverflow is raised if the factor or the solution leaves
    the float range.
    """
    if A.rows != A.cols:
        raise ValueError("matrix must be square")
    b = np.asarray(b, dtype=np.complex128)
    if b.shape[0] != A.rows:
        raise ValueError("right-hand side length mismatch")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side entries must be finite")
    LU, min_pivot = _genp_factor(np.array(A.data, dtype=np.complex128))
    x = _genp_solve_packed(LU, b)
    if not np.all(np.isfinite(x)):
        raise RangeOverflow(math.inf, where="GENP solve")
    return x, min_pivot


def genp_residual_experiment(n: int, trials: int, seed: int) -> GenpStats:
    """Relative residuals of no-pivot solves on the n-point Fourier matrix.

    One Philox stream of `seed` draws a trials x n block of real standard
    normals, row t being trial t's right-hand side b, so fewer trials read a
    prefix of the same draws.  Each trial records ||A x - b|| / ||b||.
    n below 2, trials below 1, a negative seed, or any of them not an
    integer is refused with ValueError (`errors.as_int`).
    All trials share one blocked LU factor (see `_genp_factor`) and are
    solved together as the columns of one n x trials right-hand side.  The
    DFT matrix is built straight into the buffer that is factored, and built
    again for the residual once the factor is freed, so the run holds one
    n x n array at a time.

    Results are bit-reproducible for a fixed (n, trials, seed).  Residual
    means at n >= 128 are dominated by rounding-order noise: once they
    reach about 1 they carry no reproducible digits across factorization
    or solve orders.  At seed 12345 with 100 trials they read n=16 1.01e-13,
    n=32 7.91e-10, n=64 2.73e-3, n=128 13.9, n=256 282, n=512 3.04e3 and
    n=1024 2.71e4.
    """
    n, trials = as_int("n", n, 2), as_int("trials", trials, 1)
    seed = as_int("seed", seed, 0)
    LU, min_pivot = _genp_factor(vandermonde_array(unit_roots(n)))
    rng = np.random.Generator(np.random.Philox(seed))
    B = rng.standard_normal((trials, n)).T.astype(np.complex128, order="C")
    X = _genp_solve_packed(LU, B)
    bands = range(0, n, GENP_BLOCK)
    # max|U| one block row at a time: np.triu of the whole factor would copy it.
    u_max = max(float(np.abs(np.triu(LU[k:k + GENP_BLOCK, k:])).max()) for k in bands)
    del LU  # the residual's A takes the factor's place
    A = vandermonde_array(unit_roots(n))
    rns = np.linalg.norm(A @ X - B, axis=0) / np.linalg.norm(B, axis=0)
    mean = float(rns.mean())
    std = float(rns.std(ddof=1)) if trials > 1 else 0.0
    growth = u_max / max(float(np.abs(A[k:k + GENP_BLOCK]).max()) for k in bands)
    return GenpStats(n, trials, seed, mean, std, min_pivot, growth)
