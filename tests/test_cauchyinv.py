import cmath
import math

import numpy as np
import pytest

from vandcond import cauchyinv, knotgen, structmat
from vandcond.cauchyinv import InverseVariant, LogComplex
from vandcond.errors import RangeOverflow

PAPER = InverseVariant.PAPER
CORRECTED = InverseVariant.CORRECTED


def kv(points):
    return knotgen.make_knot_vector(points)


def random_annulus_knots(rng, count, r_lo=0.5, r_hi=2.0, gap=0.05):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-r_hi, r_hi), rng.uniform(-r_hi, r_hi))
        if r_lo <= abs(z) <= r_hi and all(abs(z - w) >= gap for w in pts):
            pts.append(z)
    return pts


class TestLogComplex:
    def test_roundtrip_random(self):
        rng = np.random.Generator(np.random.Philox(1))
        for _ in range(200):
            z = complex(rng.standard_normal(), rng.standard_normal())
            if z == 0:
                continue
            x = LogComplex.from_complex(z)
            assert abs(x.to_complex() - z) <= 1e-14 * abs(z)
            assert abs(abs(x.to_complex()) - 10 ** x.log10mag) <= 1e-14 * abs(z)

    def test_zero(self):
        x = LogComplex.from_complex(0)
        assert x.is_zero()
        assert x.to_complex() == 0

    def test_multiplication_adds_components(self):
        a = LogComplex.from_complex(3 + 4j)
        b = LogComplex.from_complex(-2 + 1j)
        prod = a * b
        assert abs(prod.to_complex() - (3 + 4j) * (-2 + 1j)) < 1e-13

    def test_phase_normalized(self):
        a = LogComplex(0.0, 3.0)
        sq = a * a  # raw phase 6.0 must wrap into (-pi, pi]
        assert -math.pi < sq.phase <= math.pi
        assert abs(sq.phase - (6.0 - 2 * math.pi)) < 1e-15

    def test_huge_product_no_overflow(self):
        x = LogComplex.one()
        for _ in range(500):
            x = x * LogComplex.from_complex(1e5)
        assert abs(x.log10mag - 2500.0) < 1e-9
        with pytest.raises(RangeOverflow):
            x.to_complex()

    def test_division_and_negation(self):
        a = LogComplex.from_complex(2 + 2j)
        b = LogComplex.from_complex(1 - 1j)
        assert abs((a / b).to_complex() - (2 + 2j) / (1 - 1j)) < 1e-14
        assert abs((-a).to_complex() + (2 + 2j)) < 1e-14

    def test_integer_powers(self):
        a = LogComplex.from_complex(1 + 1j)
        assert abs((a ** 4).to_complex() - (1 + 1j) ** 4) < 1e-13
        assert abs((a ** 0).to_complex() - 1.0) < 1e-15
        assert abs((a ** -2).to_complex() - (1 + 1j) ** -2) < 1e-14
        with pytest.raises(ZeroDivisionError):
            LogComplex.from_complex(1) / LogComplex.from_complex(0)


class TestLogRootProduct:
    def test_roots_of_unity_at_zero(self):
        x = cauchyinv.log_root_product(knotgen.roots_of_unity(7), 0.0)
        assert abs(x.log10mag) < 1e-12  # |0^7 - 1| = 1

    def test_roots_of_unity_at_two(self):
        x = cauchyinv.log_root_product(knotgen.roots_of_unity(4), 2.0)
        assert abs(x.to_complex() - 15.0) < 1e-12  # 2^4 - 1

    def test_exact_zero_at_knot(self):
        x = cauchyinv.log_root_product(kv([1, 2, 3]), 2.0)
        assert x.is_zero()

    def test_quasi_cyclic_witness(self):
        # At the stationary probe point the magnitude reaches 2^(q/2 + 1).
        q = 16
        s = knotgen.quasi_cyclic(3 * q)
        probe = -1j * cmath.exp(2j * cmath.pi / (4 * q))
        x = cauchyinv.log_root_product(s, probe)
        direct = np.prod(probe - s.as_array())
        assert abs(x.log10mag - math.log10(abs(direct))) < 1e-10
        assert 10 ** x.log10mag >= 2 ** (q / 2 + 1) - 1e-9


class TestCauchyDet:
    def test_one_by_one(self):
        d = cauchyinv.cauchy_det(kv([2]), kv([0]))
        assert abs(d.to_complex() - 0.5) < 1e-15

    def test_two_by_two_direct(self):
        # Direct 2x2 determinant oracle: 1/4 - 1/3 = -1/12.
        d = cauchyinv.cauchy_det(kv([2, 3]), kv([0, 1]))
        assert abs(d.to_complex() - (-1 / 12)) < 1e-14

    def test_matches_lu_determinant(self):
        rng = np.random.Generator(np.random.Philox(2))
        s = kv(random_annulus_knots(rng, 6))
        t = kv(random_annulus_knots(rng, 6, gap=0.07))
        d = cauchyinv.cauchy_det(s, t)
        lu = np.linalg.det(structmat.cauchy(s, t).data)
        assert abs(d.log10mag - math.log10(abs(lu))) < 1e-10
        assert abs(cmath.exp(1j * d.phase) - lu / abs(lu)) < 1e-9

    def test_larger_sizes_against_lu(self):
        # Interleaved jittered circle knots keep kappa(C) near 1, so the LU
        # determinant oracle itself holds full double precision.
        rng = np.random.Generator(np.random.Philox(3))
        for n in (8, 16, 32):
            js = np.arange(n)
            s = kv(np.exp(2j * np.pi * (js + 0.2 + 0.2 * rng.uniform(size=n)) / n))
            t = kv(np.exp(2j * np.pi * (js + 0.7 + 0.2 * rng.uniform(size=n)) / n))
            d = cauchyinv.cauchy_det(s, t)
            lu = np.linalg.det(structmat.cauchy(s, t).data)
            assert abs(d.log10mag - math.log10(abs(lu))) < 1e-9 * max(1, abs(d.log10mag))


class TestInverseEntries:
    def test_one_by_one_both_variants(self):
        s, t = kv([2]), kv([0.5j])
        for variant in (PAPER, CORRECTED):
            e = cauchyinv.cauchy_inverse_entry(s, t, 0, 0, variant)
            assert abs(10 ** e.log10mag - abs(2 - 0.5j)) < 1e-12
        e = cauchyinv.cauchy_inverse_entry(s, t, 0, 0, CORRECTED)
        assert abs(e.to_complex() - (2 - 0.5j)) < 1e-12

    def test_corrected_matches_adjugate_two_by_two(self):
        s, t = kv([1, -1]), kv([1j, -1j])
        C = structmat.cauchy(s, t).data
        adj = np.linalg.inv(C)
        for i in range(2):
            for j in range(2):
                e = cauchyinv.cauchy_inverse_entry(s, t, i, j, CORRECTED)
                assert abs(e.to_complex() - adj[i, j]) < 1e-12
        assert abs(cauchyinv.cauchy_inverse_entry(s, t, 0, 0, CORRECTED)
                   .to_complex() - (0.5 - 0.5j)) < 1e-12

    def test_variants_disagree_by_derivative_factors(self):
        s, t = kv([1, -1]), kv([1j, -1j])
        paper10 = cauchyinv.cauchy_inverse_entry(s, t, 1, 0, PAPER)
        corr10 = cauchyinv.cauchy_inverse_entry(s, t, 1, 0, CORRECTED)
        assert abs(10 ** paper10.log10mag - 2 * math.sqrt(2)) < 1e-12
        assert abs(10 ** corr10.log10mag - 1 / math.sqrt(2)) < 1e-12

    def test_magnitude_identity_random(self):
        # |paper(i,j)| = |corrected(j,i)| * |s'(s_i)| * |t'(t_j)| exactly.
        rng = np.random.Generator(np.random.Philox(4))
        for n in (2, 3, 5):
            sp = np.array(random_annulus_knots(rng, n))
            tp = np.array(random_annulus_knots(rng, n, gap=0.09))
            s, t = kv(sp), kv(tp)
            for i in range(n):
                for j in range(n):
                    p = cauchyinv.cauchy_inverse_entry(s, t, i, j, PAPER)
                    c = cauchyinv.cauchy_inverse_entry(s, t, j, i, CORRECTED)
                    sprime = np.prod(sp[i] - np.delete(sp, i))
                    tprime = np.prod(tp[j] - np.delete(tp, j))
                    lhs = p.log10mag
                    rhs = (c.log10mag + math.log10(abs(sprime))
                           + math.log10(abs(tprime)))
                    assert abs(lhs - rhs) < 1e-10

    def test_corner_entry_consistency(self):
        # At (n-1, 0) the compact form is s(t_0) t(s_{n-1}) / (t_0 - s_{n-1}).
        rng = np.random.Generator(np.random.Philox(8))
        n = 5
        sp = np.array(random_annulus_knots(rng, n))
        tp = np.array(random_annulus_knots(rng, n, gap=0.09))
        s, t = kv(sp), kv(tp)
        e = cauchyinv.cauchy_inverse_entry(s, t, n - 1, 0, PAPER)
        direct = (np.prod(tp[0] - sp) * np.prod(sp[n - 1] - tp)
                  / (tp[0] - sp[n - 1]))
        assert abs(e.log10mag - math.log10(abs(direct))) < 1e-12


class TestCauchyInverse:
    def test_one_by_one(self):
        inv = cauchyinv.cauchy_inverse(kv([2]), kv([0]), CORRECTED)
        assert abs(inv.data[0, 0] - 2.0) < 1e-14

    def test_random_residuals(self):
        rng = np.random.Generator(np.random.Philox(9))
        for _ in range(20):
            n = int(rng.integers(2, 13))
            s = kv(random_annulus_knots(rng, n))
            t = kv(random_annulus_knots(rng, n))
            C = structmat.cauchy(s, t).data
            inv = cauchyinv.cauchy_inverse(s, t, CORRECTED).data
            assert np.max(np.abs(C @ inv - np.eye(n))) <= 1e-8

    def test_matches_pivoted_solve(self):
        rng = np.random.Generator(np.random.Philox(10))
        s = kv(random_annulus_knots(rng, 6))
        t = kv(random_annulus_knots(rng, 6))
        C = structmat.cauchy(s, t).data
        inv = cauchyinv.cauchy_inverse(s, t, CORRECTED).data
        solved = np.linalg.solve(C, np.eye(6))
        assert np.max(np.abs(inv - solved)) <= 1e-8

    def test_paper_variant_materializes(self):
        s, t = kv([1, -1]), kv([1j, -1j])
        inv = cauchyinv.cauchy_inverse(s, t, PAPER).data
        assert abs(abs(inv[1, 0]) - 2 * math.sqrt(2)) < 1e-12

    def test_range_overflow(self):
        n = 150
        sp = 1000.0 * knotgen.roots_of_unity(n).as_array()
        tp = 2000.0 * knotgen.roots_of_unity(n).as_array() * np.exp(0.19j)
        with pytest.raises(RangeOverflow):
            cauchyinv.cauchy_inverse(kv(list(sp)), kv(list(tp)), PAPER)


class TestCvInverseEntry:
    def test_one_by_one(self):
        s = kv([2.0])
        for variant in (PAPER, CORRECTED):
            e = cauchyinv.cv_inverse_entry(s, 1.0, 0, 0, variant)
            assert abs(10 ** e.log10mag - 1.0) < 1e-12  # |s0 - f| = 1

    def test_agrees_with_general_path(self):
        rng = np.random.Generator(np.random.Philox(11))
        n = 6
        s = kv(random_annulus_knots(rng, n, r_lo=1.2, r_hi=2.0))
        f = np.exp(0.41j)
        grid = kv(list(f * knotgen.roots_of_unity(n).as_array()))
        for variant in (PAPER, CORRECTED):
            for i in range(n):
                for j in range(n):
                    a = cauchyinv.cv_inverse_entry(s, f, i, j, variant)
                    b = cauchyinv.cauchy_inverse_entry(s, grid, i, j, variant)
                    assert abs(a.log10mag - b.log10mag) < 1e-12

    def test_dft_knots_entries_small(self):
        # On the root grid every corrected entry obeys 2*2/(gap*n*n) and the
        # full matrix matches direct numerical inversion.
        n = 8
        s = knotgen.roots_of_unity(n)
        f = np.exp(0.23j)
        C = structmat.cv_matrix(s, f).data
        inv = cauchyinv.cv_inverse(s, f, CORRECTED).data
        assert np.max(np.abs(inv - np.linalg.inv(C))) < 1e-11
        gap = np.min(np.abs(s.as_array()[:, None]
                            - structmat.cv_knots(n, f)[None, :]))
        assert np.max(np.abs(inv)) <= 4.0 / (gap * n * n) + 1e-12


class TestLogEntryTables:
    def test_tables_match_scalar_entries(self):
        rng = np.random.Generator(np.random.Philox(14))
        s = kv(random_annulus_knots(rng, 4))
        t = kv(random_annulus_knots(rng, 4, gap=0.09))
        for variant in (PAPER, CORRECTED):
            mag, ph = cauchyinv.cauchy_inverse_log_entries(s, t, variant)
            for i in range(4):
                for j in range(4):
                    e = cauchyinv.cauchy_inverse_entry(s, t, i, j, variant)
                    assert abs(mag[i, j] - e.log10mag) < 1e-12
                    assert abs(ph[i, j] - e.phase) < 1e-12

    def test_phases_wrapped(self):
        s = knotgen.van_der_corput(16)
        mag, ph = cauchyinv.cv_inverse_log_entries(s, np.exp(0.3j), CORRECTED)
        assert np.all(ph > -np.pi) and np.all(ph <= np.pi)

    def test_tables_match_materialized_inverse(self):
        s = knotgen.van_der_corput(6)
        f = np.exp(0.3j)
        mag, ph = cauchyinv.cv_inverse_log_entries(s, f, CORRECTED)
        data = cauchyinv.cv_inverse(s, f, CORRECTED).data
        assert np.max(np.abs(10.0 ** mag * np.exp(1j * ph) - data)) < 1e-12


    def test_cv_tables_with_f_power_beyond_complex_range(self):
        # |f|**n = 2**1100 overflows a Python complex; the tables must match
        # the general Cauchy path on the explicit grid.
        n = 1100
        s = knotgen.van_der_corput(n)
        f = 2.0 * np.exp(0.3j)
        grid = kv(list(structmat.cv_knots(n, f)))
        for variant in (PAPER, CORRECTED):
            mag, ph = cauchyinv.cv_inverse_log_entries(s, f, variant)
            ref_mag, ref_ph = cauchyinv.cauchy_inverse_log_entries(s, grid, variant)
            assert np.max(np.abs(mag - ref_mag)) < 1e-9
            dph = np.angle(np.exp(1j * (ph - ref_ph)))
            assert np.max(np.abs(dph)) < 1e-9


class TestVandermondeInverses:
    def test_via_cv_trivial(self):
        inv = cauchyinv.vandermonde_inverse_via_cv(kv([2.0]), np.exp(0.3j),
                                                   CORRECTED)
        assert abs(inv.data[0, 0] - 1.0) < 1e-12

    def test_via_cv_residual(self):
        s = knotgen.van_der_corput(16)
        f = cmath.exp(0.3j)
        V = structmat.vandermonde(s).data
        inv = cauchyinv.vandermonde_inverse_via_cv(s, f, CORRECTED).data
        assert np.max(np.abs(V @ inv - np.eye(16))) <= 1e-7

    def test_routes_agree(self):
        s = knotgen.van_der_corput(8)
        a = cauchyinv.vandermonde_inverse_via_cv(s, cmath.exp(0.3j), CORRECTED)
        b = cauchyinv.vandermonde_inverse_lagrange(s)
        assert np.max(np.abs(a.data - b.data)) <= 1e-7

    def test_via_cv_paper_variant_misses_identity(self):
        # Regression probe: the compact-form variant plumbs through the same
        # route but does not invert the matrix.
        s = knotgen.van_der_corput(8)
        V = structmat.vandermonde(s).data
        inv = cauchyinv.vandermonde_inverse_via_cv(s, cmath.exp(0.3j), PAPER).data
        assert np.max(np.abs(V @ inv - np.eye(8))) > 1.0

    def test_factorization_on_random_circle_knots(self):
        rng = np.random.Generator(np.random.Philox(12))
        for n in (4, 8, 16, 32):
            angles = np.sort(rng.uniform(0, 2 * np.pi, n))
            if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 1e-3:
                angles = 2 * np.pi * (np.arange(n) + 0.13) / n
            s = kv(list(np.exp(1j * angles)))
            f = cmath.exp(1.234j)
            V = structmat.vandermonde(s).data
            inv = cauchyinv.vandermonde_inverse_via_cv(s, f, CORRECTED).data
            assert np.max(np.abs(V @ inv - np.eye(n))) <= 1e-7

    def test_lagrange_two_knots(self):
        inv = cauchyinv.vandermonde_inverse_lagrange(kv([0, 1]))
        assert np.allclose(inv.data, [[1, 0], [-1, 1]], atol=1e-14)

    def test_lagrange_trivial(self):
        inv = cauchyinv.vandermonde_inverse_lagrange(kv([3.7]))
        assert abs(inv.data[0, 0] - 1.0) < 1e-15

    def test_lagrange_residual(self):
        s = knotgen.van_der_corput(16)
        V = structmat.vandermonde(s).data
        inv = cauchyinv.vandermonde_inverse_lagrange(s).data
        assert np.max(np.abs(V @ inv - np.eye(16))) <= 1e-7

    def test_norm_dominates_max_entry(self):
        inv = cauchyinv.vandermonde_inverse_lagrange(knotgen.van_der_corput(8))
        norm2 = np.linalg.svd(inv.data, compute_uv=False)[0]
        assert norm2 >= np.max(np.abs(inv.data)) - 1e-12
