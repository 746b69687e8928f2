import math
import tracemalloc

import numpy as np
import pytest

from vandcond import knotgen, spectral, structmat
from vandcond.errors import ConvergenceFailure, RangeOverflow, ZeroPivot
from vandcond.logdomain import log_magnitudes, log_products


def kv(points):
    return knotgen.KnotVector(points)


class TestSingularValues:
    def test_dft_four(self):
        s = spectral.singular_values(structmat.dft(4))
        assert np.allclose(s.sigma, 2.0, atol=1e-12)
        assert abs(s.kappa - 1.0) < 1e-12
        assert s.trustworthy

    def test_half_dft_block(self):
        s = spectral.singular_values(structmat.leading_block(structmat.dft(8), 4))
        assert abs(s.kappa - 15.3) / 15.3 < 0.02

    def test_quasi_cyclic_twelve(self):
        s = spectral.singular_values(
            structmat.vandermonde(knotgen.quasi_cyclic(12)))
        assert abs(s.kappa - 21.6) / 21.6 < 0.02

    def test_trust_flag_flips_in_eps_regime(self):
        good = spectral.singular_values(structmat.dft(8))
        assert good.trustworthy
        bad = spectral.singular_values(
            structmat.leading_block(structmat.dft(64), 32))
        assert not bad.trustworthy
        assert bad.kappa > 1e13

    def test_sorted_descending(self):
        rng = np.random.Generator(np.random.Philox(21))
        M = structmat.DenseMatrix(rng.standard_normal((6, 6))
                                  + 1j * rng.standard_normal((6, 6)))
        s = spectral.singular_values(M)
        assert np.all(np.diff(s.sigma) <= 0)
        assert s.sigma1 == s.sigma[0] and s.sigma_min == s.sigma[-1]


GENERATORS = {
    "dft": knotgen.roots_of_unity,
    "quasi-cyclic": knotgen.quasi_cyclic,
    "van-der-corput": knotgen.van_der_corput,
    "single-outlier": lambda n: knotgen.single_outlier(n, 1.5),
    "scaled-cluster": lambda n: knotgen.scaled_cluster(n, max(1, n // 8), 0.5),
    "dft-plus-outlier": lambda n: knotgen.dft_plus_outlier(n, 1.5),
}
SIGMA1_CASES = [(gen, n, scale) for gen in GENERATORS
                for n in (1, 2, 3, 7, 64, 192, 384) for scale in (1.0, 0.5)
                if n > 1 or gen not in ("single-outlier", "scaled-cluster")]


class TestTopSingularValue:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gen, n, scale", SIGMA1_CASES)
    def test_matches_the_svd_and_repeats_bit_for_bit(self, gen, n, scale):
        s = kv(scale * GENERATORS[gen](n).as_array())
        sigma1 = np.linalg.svd(structmat.vandermonde(s).data, compute_uv=False)[0]
        value, steps, converged = spectral.top_singular_value(s)
        assert abs(value / sigma1 - 1.0) <= 1e-12
        assert converged and 1 <= steps <= min(len(s), spectral.LANCZOS_MAX_STEPS)
        assert spectral.top_singular_value(s) == (value, steps, converged)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [65, 400])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.01])
    def test_closed_form_on_scaled_roots_of_unity(self, n, r):
        # s = r omega^i gives V = F diag(r^j), with F's columns orthogonal
        # of norm sqrt(n): the singular values are sqrt(n) r^j.
        value, _, converged = spectral.top_singular_value(kv(r * knotgen.unit_roots(n)))
        assert converged
        assert abs(value / (math.sqrt(n) * max(1.0, r) ** (n - 1)) - 1.0) <= 1e-12

    def test_capped_run_stays_below_sigma1(self, monkeypatch):
        s = knotgen.scaled_cluster(192, 24, 0.5)
        sigma1 = np.linalg.svd(structmat.vandermonde(s).data, compute_uv=False)[0]
        monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 2)
        value, steps, converged = spectral.top_singular_value(s)
        assert (steps, converged) == (2, False)
        assert value <= sigma1 * (1.0 + 1e-13)

    @pytest.mark.filterwarnings("error")
    def test_entries_past_the_square_range(self):
        # 350 knots at radius 3 put 3^399 = 10^190.4 in V: the squares of the
        # unscaled Lanczos vectors overflowed here.
        s = kv(np.concatenate([0.5 * knotgen.unit_roots(50) * np.exp(0.01j),
                               3.0 * knotgen.unit_roots(350)]))
        value, _, converged = spectral.top_singular_value(s)
        sigma1 = spectral.singular_values(structmat.vandermonde(s)).sigma1
        assert converged and math.log10(sigma1) > 190.0
        assert abs(value / sigma1 - 1.0) <= 1e-12

    def test_sigma1_past_the_float_range(self):
        # r^(n-1) = 10^307.4 passes the Vandermonde range check, but
        # sigma_1 = sqrt(n) r^(n-1) = 10^308.55 does not fit a float.
        n = 200
        r = 10.0 ** (307.4 / (n - 1))
        with pytest.raises(RangeOverflow) as err:
            spectral.top_singular_value(kv(r * knotgen.unit_roots(n)))
        assert err.value.where == "sigma_1"
        want = (n - 1) * math.log10(r) + 0.5 * math.log10(n)
        assert abs(err.value.log10_magnitude - want) < 1e-9

    def test_entries_past_the_vandermonde_range_are_refused(self):
        with pytest.raises(RangeOverflow) as err:
            spectral.top_singular_value(kv(2.0 * knotgen.unit_roots(1100)))
        assert err.value.where == "vandermonde"
        assert abs(err.value.log10_magnitude - 1099 * math.log10(2.0)) < 1e-9

    def test_bidiagonal_svd_failure_is_typed(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(spectral.np.linalg, "svd", fail)
        with pytest.raises(ConvergenceFailure):
            spectral.top_singular_value(knotgen.quasi_cyclic(12))


class TestVandermondeOperator:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 129, 400])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.02])
    def test_products_match_the_dense_matrix(self, n, r):
        pts = r * GENERATORS["van-der-corput"](n).as_array()
        V = structmat.vandermonde(kv(pts)).data
        matvec, rmatvec = spectral._vandermonde_operator(pts, 1.0)
        rng = np.random.Generator(np.random.Philox(n))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for got, A in ((matvec(x), V), (rmatvec(x), V.conj().T)):
            # Rounding of a length-n dot product, entry by entry.
            assert got.shape == (n,)
            assert np.all(np.abs(got - A @ x) <= 1e-13 * (np.abs(A) @ np.abs(x)))

    def test_power_of_two_scale_is_exact(self):
        pts = 1.02 * knotgen.van_der_corput(129).as_array()
        x = np.random.Generator(np.random.Philox(1)).standard_normal(129) + 0j
        plain = spectral._vandermonde_operator(pts, 1.0)
        scaled = spectral._vandermonde_operator(pts, 0.125)
        for f, g in zip(plain, scaled):
            assert np.array_equal(g(x), 0.125 * f(x))


class TestOrthogonalize:
    def test_one_conjugated_vector_equals_the_conjugated_basis(self):
        # conj(B) w and conj(B conj(w)) round the same real products.
        rng = np.random.Generator(np.random.Philox(16))
        a = rng.standard_normal((1536, 16)) + 1j * rng.standard_normal((1536, 16))
        basis = np.linalg.qr(a)[0].T.copy()
        w = rng.standard_normal(1536) + 1j * rng.standard_normal(1536)
        ref = w
        for _ in range(2):
            ref = ref - (basis.conj() @ ref) @ basis
        got = spectral._orthogonalize(w, basis)
        assert np.array_equal(got, ref)
        assert np.max(np.abs(basis.conj() @ got)) <= 1e-12 * np.linalg.norm(w)


class TestPolyFromRoots:
    def test_roots_of_unity(self):
        c = spectral.poly_from_roots(knotgen.roots_of_unity(8))
        assert abs(c[0] + 1.0) < 1e-13
        assert abs(c[8] - 1.0) < 1e-13
        assert np.max(np.abs(c[1:8])) < 1e-13

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_roots_of_unity_give_z_power_minus_one(self, n):
        # In knot order the error was 8.7e-2 at n = 64 and 3.4e253 at 1024.
        c = spectral.poly_from_roots(knotgen.roots_of_unity(n))
        ref = np.zeros(n + 1, dtype=complex)
        ref[0], ref[n] = -1.0, 1.0
        assert np.max(np.abs(c - ref)) <= 4e-16 * n

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 64, 256])
    @pytest.mark.parametrize("gen", list(GENERATORS)[:5])
    def test_any_knot_order_gives_the_product(self, gen, n):
        # Multiplied out in a shuffled knot order, n = 256 missed the product
        # by up to 2.7e-6 in log10 at these points.
        rng = np.random.Generator(np.random.Philox(n))
        pts = GENERATORS[gen](n).as_array()[rng.permutation(n)]
        c = spectral.poly_from_roots(kv(pts))
        x = 1.25 * np.exp(2j * np.pi * (np.arange(4) + 0.125) / 4)
        got = np.log10(np.abs(np.polynomial.polynomial.polyval(x, c)))
        assert np.max(np.abs(got - log_products(x, pts)[0])) <= 1e-12

    def test_two_knots(self):
        c = spectral.poly_from_roots(kv([0, 1]))
        assert np.allclose(c, [0, -1, 1], atol=1e-15)

    def test_evaluation_consistency(self):
        rng = np.random.Generator(np.random.Philox(22))
        pts = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        knots = kv(pts)
        c = spectral.poly_from_roots(knots)
        for _ in range(20):
            x = complex(rng.standard_normal(), rng.standard_normal())
            val = complex(np.polyval(c[::-1], x))
            ref = float(log_products(x, pts)[0][0])
            if abs(val) > 1e-12:
                assert abs(math.log10(abs(val)) - ref) < 1e-10 * max(1.0, abs(ref))


class TestMaxAbsOnCircle:
    def test_roots_of_unity(self):
        # max over the circle of |f^8 - 1| is 2, at the antipodal points.
        f_star, log_max = spectral.max_abs_on_circle(knotgen.roots_of_unity(8))
        assert abs(log_max - math.log10(2.0)) < 1e-9

    def test_single_knot(self):
        f_star, log_max = spectral.max_abs_on_circle(kv([0.5]))
        assert abs(10 ** log_max - 1.5) < 1e-9
        assert abs(f_star + 1.0) < 1e-5  # farthest circle point from 0.5

    def test_quasi_cyclic_beats_witness(self):
        q = 16
        s = knotgen.quasi_cyclic(3 * q)
        witness = -1j * np.exp(2j * np.pi / (4 * q))
        ref = float(log_products(witness, s.as_array())[0][0])
        _, log_max = spectral.max_abs_on_circle(s)
        assert log_max >= ref - 1e-12
        assert log_max >= math.log10(2 * 2 ** (q / 2))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            spectral.max_abs_on_circle(kv([0.5]), grid=4)


def full_circle_scan(knots, grid=0):
    """The circle maximum as it was found before the FFT screen: every grid point exact."""
    pts = knots.as_array()
    n = len(pts)
    if grid <= 0:
        grid = max(1024, 16 * n)
    roots = knotgen.unit_roots(grid)
    mags = log_magnitudes(roots, pts)
    best = int(np.argmax(mags))

    def g(theta):
        return float(log_magnitudes(np.exp(1j * theta), pts)[0])

    span = 2.0 * np.pi / grid
    theta0 = 2.0 * np.pi * (best / grid)
    a, b = theta0 - span, theta0 + span
    x1 = b - spectral._GOLDEN * (b - a)
    x2 = a + spectral._GOLDEN * (b - a)
    g1, g2 = g(x1), g(x2)
    while b - a > 1e-12:
        if g1 < g2:
            a, x1, g1 = x1, x2, g2
            x2 = a + spectral._GOLDEN * (b - a)
            g2 = g(x2)
        else:
            b, x2, g2 = x2, x1, g1
            x1 = b - spectral._GOLDEN * (b - a)
            g1 = g(x1)
    theta_best = 0.5 * (a + b)
    g_best = g(theta_best)
    if (g_best, theta_best) > (float(mags[best]), theta0):
        return complex(np.exp(1j * theta_best)), g_best
    return complex(roots[best]), float(mags[best])


def _seeded(kind, n):
    rng = np.random.Generator(np.random.Philox(n))
    turn = np.exp(2j * np.pi * rng.random(n))
    if kind == "circle":
        return kv(turn)
    if kind == "annulus":
        return kv(rng.uniform(0.5, 2.0, n) * turn)
    if kind == "small-disc":
        return kv(1e-3 * np.sqrt(rng.random(n)) * turn)
    # jittered: each root of unity moved by up to a quarter grid step
    return kv(np.exp(2j * np.pi * (np.arange(n) + 0.25 * rng.uniform(-1, 1, n)) / n))


SCAN_CORPUS = {
    "quasi-cyclic": knotgen.quasi_cyclic,
    "van-der-corput": knotgen.van_der_corput,
    "dft": knotgen.roots_of_unity,
    "scaled-cluster": lambda n: knotgen.scaled_cluster(n, max(1, n // 8), 0.5),
    "outlier-0": lambda n: knotgen.single_outlier(n, 0.0),
    "outlier-1e14": lambda n: knotgen.single_outlier(n, 1e14),
    **{kind: (lambda n, kind=kind: _seeded(kind, n))
       for kind in ("circle", "annulus", "small-disc", "jittered")},
}


def _bits(f_star, log_max):
    return np.array([f_star]).tobytes() + np.array([log_max]).tobytes()


class TestScreenedCircleScan:
    # single_outlier and scaled_cluster need n >= 2.
    @pytest.mark.parametrize("name, n", [
        (name, n) for name in SCAN_CORPUS for n in (1, 2, 3, 7, 24, 48, 192, 768)
        if n > 1 or name in ("quasi-cyclic", "van-der-corput", "dft", "circle",
                             "annulus", "small-disc", "jittered")])
    def test_same_bits_as_the_full_scan(self, name, n):
        knots = SCAN_CORPUS[name](n)
        for grid in (8, 64, 0):
            got = spectral.max_abs_on_circle(knots, grid)
            assert _bits(*got) == _bits(*full_circle_scan(knots, grid)), grid

    @pytest.mark.parametrize("n, grid", [(4, 8), (5, 64), (48, 0)])
    def test_knots_on_the_scan_grid(self, n, grid):
        # Scan values of -inf at the grid points that are knots.
        g = grid or max(1024, 16 * n)
        knots = kv(knotgen.unit_roots(g)[::g // n][:n])
        got = spectral.max_abs_on_circle(knots, grid)
        assert _bits(*got) == _bits(*full_circle_scan(knots, grid))

    @pytest.mark.parametrize("n", [3, 24, 192])
    def test_knots_on_the_samples(self, n):
        # Samples of 0 at the n knots among the 2n + 2 roots of 1.
        knots = kv(knotgen.unit_roots(2 * n + 2)[:n])
        for grid in (8, 64, 0):
            got = spectral.max_abs_on_circle(knots, grid)
            assert _bits(*got) == _bits(*full_circle_scan(knots, grid))

    @pytest.mark.parametrize("name, n", [
        (name, n) for name in ("quasi-cyclic", "van-der-corput") for n in (24, 192, 768)])
    def test_screen_without_margin_still_finds_the_maximum(self, name, n, monkeypatch):
        # With no margin the screen keeps its own maximum alone.  That point
        # attains the grid maximum up to rounding, but among symmetric near
        # ties it need not be the first: the margin is what makes the bits
        # equal to the full scan's.
        knots = SCAN_CORPUS[name](n)
        grid_max = float(np.max(log_magnitudes(knotgen.unit_roots(max(1024, 16 * n)),
                                               knots.as_array())))
        monkeypatch.setattr(spectral, "CIRCLE_SCREEN_TOL", 0.0)
        _, log_max = spectral.max_abs_on_circle(knots)
        assert log_max >= grid_max - 1e-12


class TestGenpSolve:
    def test_simple_system(self):
        A = structmat.DenseMatrix(np.array([[1, 0], [1, 1]], dtype=complex))
        x, min_pivot = spectral.genp_solve(A, np.array([1.0, 2.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)
        assert min_pivot == 1.0

    def test_zero_pivot(self):
        A = structmat.DenseMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(ZeroPivot) as err:
            spectral.genp_solve(A, np.array([1.0, 1.0]))
        assert err.value.step == 0

    def test_dft_residual_scale(self):
        # With no pivoting the 64-point Fourier system loses ~13 digits:
        # relative residuals land near 5e-3.
        A = structmat.dft(64)
        rng = np.random.Generator(np.random.Philox(23))
        rs = []
        for _ in range(20):
            b = rng.standard_normal(64)
            x, _ = spectral.genp_solve(A, b.astype(complex))
            rs.append(np.linalg.norm(A.data @ x - b) / np.linalg.norm(b))
        mean = float(np.mean(rs))
        assert 5.31e-4 < mean < 5.31e-2


def _column_loop_min_pivot(a):
    """Unblocked GENP reference: one rank-1 update per column."""
    U = np.array(a, dtype=np.complex128)
    n = U.shape[0]
    min_pivot = math.inf
    for k in range(n):
        piv = U[k, k]
        min_pivot = min(min_pivot, abs(piv))
        mult = U[k + 1:, k] / piv
        U[k + 1:, k:] -= np.outer(mult, U[k, k:])
    return min_pivot


def _dominant(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + 4.0 * n * np.eye(n)


def _substitution_loop(T, B, lower, unit):
    """Triangular solve one entry at a time: the reference for `_substitute`."""
    n = T.shape[0]
    X = np.array(B, dtype=np.complex128)
    cols = X.reshape(n, -1)  # a view: 1-D B is one column
    for i in (range(n) if lower else range(n - 1, -1, -1)):
        for c in range(cols.shape[1]):
            acc = cols[i, c]
            for j in (range(i) if lower else range(i + 1, n)):
                acc -= T[i, j] * cols[j, c]
            cols[i, c] = acc if unit else acc / T[i, i]
    return X


class TestSubstitute:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("rhs", [None, 3])
    def test_matches_dense_solve_and_entry_loop(self, n, lower, unit, rhs):
        rng = np.random.Generator(np.random.Philox(n))
        bshape = (n,) if rhs is None else (n, rhs)
        T = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
        T[np.diag_indices(n)] = 2.0 + rng.uniform(0.0, 1.0, n)
        B = rng.standard_normal(bshape) + 1j * rng.standard_normal(bshape)
        # The dense triangle: off-diagonal entries of 1/n and a diagonal in
        # [2, 3] keep kappa(T) near 1.  `_substitute` gets the full square,
        # so it must read only its triangle (and no diagonal when unit).
        dense = np.tril(T, -1) if lower else np.triu(T, 1)
        dense += np.eye(n) if unit else np.diag(np.diag(T))
        got = B.copy()
        spectral._substitute(T, got, lower, unit)
        scale = np.abs(got).max()
        # Forward error of either solve: a few n eps kappa(T) |x|.
        for ref in (np.linalg.solve(dense, B), _substitution_loop(T, B, lower, unit)):
            assert np.abs(got - ref).max() <= 4.0 * n * np.finfo(float).eps * scale


class TestGenpBlockedFactor:
    B = spectral.GENP_BLOCK

    @pytest.mark.parametrize("n,step", [(2 * B + 10, B + 3),
                                        (2 * B + 10, 2 * B + 7),
                                        (B + 1, B)])
    def test_zero_pivot_step_past_first_block(self, n, step):
        # Row `step` vanishes through column `step`: every multiplier taken
        # from it is 0, so its pivot stays exactly 0 under any update order.
        a = _dominant(n, 31)
        a[step, :step + 1] = 0.0
        with pytest.raises(ZeroPivot) as err:
            spectral.genp_solve(structmat.DenseMatrix(a), np.ones(n))
        assert (err.value.step, err.value.magnitude) == (step, 0.0)

    # 5 B + 7: the first trailing update spans two panels, the last 7 columns wide.
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200, 5 * B + 7])
    def test_packed_factor_rebuilds_matrix(self, n):
        a = _dominant(n, n)
        LU, min_pivot = spectral._genp_factor(np.array(a))
        L = np.tril(LU, -1) + np.eye(n)
        U = np.triu(LU)
        err = np.linalg.norm(L @ U - a, 2)
        assert err <= 10.0 * n * np.finfo(float).eps * np.linalg.norm(a, 2)
        assert min_pivot == min(abs(p) for p in np.diag(LU))

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 31, 32, 64])
    def test_min_pivot_matches_column_loop(self, n):
        _, min_pivot = spectral.genp_solve(structmat.dft(n), np.ones(n))
        assert min_pivot == _column_loop_min_pivot(structmat.dft(n).data)
        assert spectral.genp_residual_experiment(n, 3, 5).min_pivot == min_pivot

    def test_min_pivot_is_a_python_float(self):
        _, min_pivot = spectral.genp_solve(structmat.dft(16), np.ones(16))
        assert type(min_pivot) is float
        assert type(spectral.genp_residual_experiment(16, 3, 1).min_pivot) is float

    def test_solve_leaves_inputs_unchanged(self):
        a = _dominant(150, 4)
        A = structmat.DenseMatrix(a)
        b = np.arange(150.0) + 2j
        data, rhs = A.data.copy(), b.copy()
        spectral.genp_solve(A, b)
        assert np.array_equal(A.data, data) and np.array_equal(b, rhs)

    def test_solve_memory_one_copy(self):
        # One n x n complex copy to factor (16 MiB at n = 1024) plus the
        # O(GENP_BLOCK n) panels; the input is allocated before tracing.
        A, b = structmat.dft(1024), np.ones(1024, dtype=complex)
        tracemalloc.start()
        try:
            spectral.genp_solve(A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * 16 * 2**20

    def test_solution_matches_dense_solver(self):
        a = _dominant(150, 9)
        b = np.arange(150.0) + 1j
        x, _ = spectral.genp_solve(structmat.DenseMatrix(a), b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=0.0)

    def test_factor_overflow_raises(self):
        # A tiny but nonzero pivot makes the multiplier 1e309 overflow.
        A = structmat.DenseMatrix(np.array([[1e-299, 1e10], [1e10, 1.0]],
                                           dtype=complex))
        with pytest.raises(RangeOverflow):
            spectral.genp_solve(A, np.ones(2))

    def test_solution_overflow_raises(self):
        # The factor is finite (multiplier 1e200, U22 = -1e200), but the
        # forward solve meets 1e200 * 1e300.
        A = structmat.DenseMatrix(np.array([[1e-200, 1], [1, 0]], dtype=complex))
        with pytest.raises(RangeOverflow) as err:
            spectral.genp_solve(A, [1e300, 0])
        assert err.value.where == "GENP solve"

    def test_nonfinite_rhs_rejected(self):
        with pytest.raises(ValueError):
            spectral.genp_solve(structmat.dft(4), np.array([1.0, np.nan, 0, 0]))


class TestGenpExperiment:
    def test_reproducible(self):
        a = spectral.genp_residual_experiment(16, 20, 7)
        b = spectral.genp_residual_experiment(16, 20, 7)
        assert (a.mean_rn, a.std_rn) == (b.mean_rn, b.std_rn)
        c = spectral.genp_residual_experiment(16, 20, 8)
        assert c.mean_rn != a.mean_rn

    def test_single_trial(self):
        stats = spectral.genp_residual_experiment(2, 1, 1)
        assert math.isfinite(stats.mean_rn)
        assert stats.std_rn == 0.0

    def test_diagnostics(self):
        for n in (16, 100):
            stats = spectral.genp_residual_experiment(n, 4, 3)
            a = structmat.dft(n).data
            LU, min_pivot = spectral._genp_factor(np.array(a))
            assert stats.min_pivot == min_pivot
            assert stats.growth == np.abs(np.triu(LU)).max() / np.abs(a).max()
            assert stats.growth >= 1.0

    def test_memory_one_matrix(self):
        # The factored DFT matrix (16 MiB at n = 1024), then A rebuilt in its
        # place for the residual; never both, nor a full-size temporary.
        tracemalloc.start()
        try:
            spectral.genp_residual_experiment(1024, 100, 12345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    @pytest.mark.parametrize("n, trials", [(16, 1), (100, 1), (16, 4), (100, 3)])
    def test_trial_t_reads_row_t_of_one_stream(self, n, trials):
        # Trial t solves with normals t*n .. (t+1)*n - 1 of Philox(seed), all
        # trials as the columns of one right-hand side.
        seed = 11
        normals = np.random.Generator(np.random.Philox(seed)).standard_normal(trials * n)
        B = np.ascontiguousarray(normals.reshape(trials, n).T)
        A = structmat.dft(n)
        X, _ = spectral.genp_solve(A, B)
        rns = np.linalg.norm(A.data @ X - B, axis=0) / np.linalg.norm(B, axis=0)
        stats = spectral.genp_residual_experiment(n, trials, seed)
        assert stats.mean_rn == pytest.approx(float(rns.mean()), rel=1e-12, abs=0)

    def test_reference_scales(self):
        m16 = spectral.genp_residual_experiment(16, 100, 12345).mean_rn
        assert 8.88e-15 < m16 < 8.88e-13
        m128 = spectral.genp_residual_experiment(128, 100, 12345).mean_rn
        assert 0.5 < m128 < 50.0


class TestSpectralFacts:
    def test_smallest_sigma_bounded_by_column_removal(self):
        # Zeroing the least-norm column is a rank-lowering perturbation, so
        # its norm caps the smallest singular value.
        rng = np.random.Generator(np.random.Philox(24))
        for _ in range(20):
            M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            sigma = np.linalg.svd(M, compute_uv=False)
            col_norms = np.linalg.norm(M, axis=0)
            assert sigma[-1] <= col_norms.min() + 1e-12

    def test_interlacing_under_row_appends(self):
        rng = np.random.Generator(np.random.Philox(25))
        for _ in range(100):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            extra = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            B = np.vstack([A, extra])
            sa = np.linalg.svd(A, compute_uv=False)
            sb = np.linalg.svd(B, compute_uv=False)
            for j in range(n):
                if j + k < len(sb):
                    assert sa[j] >= sb[j + k] - 1e-10

    def test_svd_orthogonality_residual(self):
        rng = np.random.Generator(np.random.Philox(26))
        for n in (4, 16, 64):
            M = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            U, s, Vh = np.linalg.svd(M)
            assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-12 * n
            assert np.max(np.abs(Vh @ Vh.conj().T - np.eye(n))) <= 1e-12 * n
