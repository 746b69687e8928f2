import math

import numpy as np
import pytest

from vandcond import cauchyinv, knotgen, spectral, structmat
from vandcond.errors import RangeOverflow, ZeroPivot


def kv(points):
    return knotgen.make_knot_vector(points)


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
            ref = cauchyinv.log_root_product(knots, x)
            if abs(val) > 1e-12:
                assert abs(math.log10(abs(val)) - ref.log10mag) < 1e-10 * max(
                    1.0, abs(ref.log10mag))


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
        ref = cauchyinv.log_root_product(s, complex(witness))
        _, log_max = spectral.max_abs_on_circle(s)
        assert log_max >= ref.log10mag - 1e-12
        assert log_max >= math.log10(2 * 2 ** (q / 2))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            spectral.max_abs_on_circle(kv([0.5]), grid=4)


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

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
    def test_packed_factor_rebuilds_matrix(self, n):
        a = _dominant(n, n)
        LU, min_pivot = spectral._genp_factor(a)
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
            LU, min_pivot = spectral._genp_factor(a)
            assert stats.min_pivot == min_pivot
            assert stats.growth == np.abs(np.triu(LU)).max() / np.abs(a).max()
            assert stats.growth >= 1.0

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
