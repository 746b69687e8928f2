import cmath
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from vandcond import bounds, cauchyinv, knotgen, logdomain, structmat
from vandcond.cauchyinv import InverseVariant, LogComplex
from vandcond.errors import KnotCollision, RangeOverflow
from vandcond.logdomain import (log_products, pow_diff_logs,
                                self_derivative_logs, wrap_phase)

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


def reference_inverse_logs(sp, tp, variant, cv_f=None):
    """The table-sum construction: one n x n table of t_i - s_j whose row
    sums give s(t_i) and whose column sums plus n pi give t(s_j)."""
    n = len(sp)
    d = tp[:, None] - sp[None, :]
    mag, ph = np.log10(np.abs(d)), np.angle(d)
    rows = mag.sum(axis=1), ph.sum(axis=1)
    if cv_f is None:
        cols = mag.sum(axis=0), ph.sum(axis=0) + math.pi * n
    else:
        cols = pow_diff_logs(sp, cv_f, n)
    if variant is CORRECTED:
        if cv_f is None:
            tder = self_derivative_logs(tp)
        else:
            tder = (math.log10(n) + (n - 1) * np.log10(np.abs(tp)),
                    (n - 1) * np.angle(tp))
        sder = self_derivative_logs(sp)
        rows = rows[0] - tder[0], rows[1] - tder[1]
        cols = cols[0] - sder[0], cols[1] - sder[1]
    else:
        rows = rows[0], rows[1] + math.pi * n
    mag = -mag + rows[0][:, None] + cols[0][None, :]
    ph = wrap_phase(-ph + rows[1][:, None] + cols[1][None, :])
    return (mag, ph) if variant is CORRECTED else (mag.T, ph.T)


def reference_cauchy_det(sp, tp):
    """log10|det C| and phase from the i < j pairs of np.triu_indices."""
    mag, ph = (-float(np.sum(x)) for x in log_products(sp, tp))
    iu, ju = np.triu_indices(len(sp), k=1)
    for d in (sp[ju] - sp[iu], tp[iu] - tp[ju]):
        mag += float(np.sum(np.log10(np.abs(d))))
        ph += float(np.sum(np.angle(d)))
    return mag, wrap_phase(ph)


def reference_via_cv_dense(s, f, variant):
    """V^{-1} with Omega^H applied as a dense n x n product."""
    sp = s.as_array()
    n = len(sp)
    cinv = cauchyinv.cv_inverse(s, f, variant).data
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    omega_h = np.conj(np.power.outer(omega, np.arange(n)))
    left = (f ** (n - 1 - np.arange(n)))[:, None] * omega_h * np.conj(omega)[None, :]
    mag, ph = pow_diff_logs(sp, f, n)
    return (left @ cinv) * (10.0 ** (-mag) * np.exp(-1j * ph))[None, :]


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    def test_blocked_pairs_match_triu_reference(self, n):
        s = knotgen.van_der_corput(n)
        t = kv(list(2.0 * structmat.cv_knots(n, cmath.exp(0.3j))))
        d = cauchyinv.cauchy_det(s, t)
        mag, ph = reference_cauchy_det(s.as_array(), t.as_array())
        # The raw phase is a sum of about n**2 / 2 angles before wrapping.
        assert abs(d.log10mag - mag) <= 3e-14 * max(1.0, abs(mag))
        assert abs(cmath.phase(cmath.exp(1j * (d.phase - ph)))) <= 3e-14 * n * n

    def test_pair_products_use_blocked_memory(self):
        # np.triu_indices over the i < j pairs traced 72 MB at this size.
        n = 1536
        s = knotgen.van_der_corput(n)
        t = kv(list(structmat.cv_knots(n, cmath.exp(0.5j))))
        assert traced_peak(lambda: cauchyinv.cauchy_det(s, t)) <= 16 * 2 ** 20


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


class TestDegenerateF:
    """f = 0 collapses the CV column grid to one point, a non-finite f leaves
    no grid at all; every CV path refuses both before any arithmetic."""

    @pytest.mark.parametrize("call", [
        lambda s, f, v: structmat.cv_matrix(s, f),
        lambda s, f, v: cauchyinv.cv_inverse(s, f, v),
        lambda s, f, v: cauchyinv.cv_inverse_entry(s, f, 1, 2, v),
        lambda s, f, v: cauchyinv.cv_inverse_log_entries(s, f, v),
        lambda s, f, v: cauchyinv.vandermonde_inverse_via_cv(s, f, v),
    ], ids=["cv_matrix", "cv_inverse", "cv_inverse_entry",
            "cv_inverse_log_entries", "vandermonde_inverse_via_cv"])
    @pytest.mark.parametrize("f, message", [(0, "f must be nonzero"),
                                            (math.nan, "f must be finite"),
                                            (complex(0, math.inf), "f must be finite")])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_refused_without_warning(self, call, variant, f, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call(knotgen.roots_of_unity(4), f, variant)


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


class TestFactorForm:
    """Entries from `inverse_blocks` against the table-sum construction."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_cv_tables_equal_table_sums(self, n, variant):
        s = knotgen.van_der_corput(n)
        f = cmath.exp(0.3j)
        mag, ph = cauchyinv.cv_inverse_log_entries(s, f, variant)
        ref_mag, ref_ph = reference_inverse_logs(
            s.as_array(), structmat.cv_knots(n, f), variant, f)
        assert np.array_equal(mag, ref_mag) and np.array_equal(ph, ref_ph)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_cauchy_tables_match_table_sums(self, n, variant):
        # t(s_j) now comes from its own product, not from column sums plus
        # n pi, so the last bits of the sums move.
        s = knotgen.van_der_corput(n)
        for t in (2.0 * structmat.cv_knots(n, cmath.exp(0.3j)),
                  0.5 * cmath.exp(0.05j) * s.as_array()):
            mag, ph = cauchyinv.cauchy_inverse_log_entries(s, kv(list(t)), variant)
            ref_mag, ref_ph = reference_inverse_logs(s.as_array(), t, variant)
            scale = max(1.0, float(np.max(np.abs(ref_mag))))
            assert np.max(np.abs(mag - ref_mag)) <= 3e-14 * scale
            dph = np.angle(np.exp(1j * (ph - ref_ph)))
            assert np.max(np.abs(dph)) <= 3e-14 * n * math.pi

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_blocks_stay_within_chunk(self, monkeypatch, n, variant):
        monkeypatch.setattr(logdomain, "CHUNK", 7)
        s = knotgen.van_der_corput(n)
        f = cmath.exp(0.3j)
        mag, ph = cauchyinv.cv_inverse_log_entries(s, f, variant)
        if variant is PAPER:
            mag, ph = mag.T, ph.T
        for phase in (True, False):
            row = 0
            for lo, block_mag, block_ph in cauchyinv.inverse_blocks(
                    s.as_array(), structmat.cv_knots(n, f), variant, f,
                    phase=phase):
                # At most CHUNK entries, or one row where a row is longer.
                assert lo == row and 0 < block_mag.size <= max(logdomain.CHUNK, n)
                assert np.array_equal(block_mag, mag[lo:lo + len(block_mag)])
                if phase:  # the tables wrap what the walk leaves raw
                    assert np.array_equal(wrap_phase(block_ph),
                                          ph[lo:lo + len(block_ph)])
                else:
                    assert block_ph is None
                row += len(block_mag)
            assert row == n


class TestOneWalk:
    """Passes over an n x n difference table per call, counted at `diff_blocks`.

    The entries, the collision check and the row products s(t_i) share one
    walk; what is left are the O(n) factor sums formed before it.
    """

    N = 64

    @pytest.fixture
    def walks(self, monkeypatch):
        sizes = []
        real = logdomain.diff_blocks

        def counting(xs, knots):
            sizes.append(len(xs) * len(knots))
            return real(xs, knots)

        for module in (logdomain, cauchyinv, bounds):
            monkeypatch.setattr(module, "diff_blocks", counting)
        return sizes

    @pytest.mark.parametrize("call, variant, expected", [
        ("bound_cv", PAPER, 1),
        ("bound_cv", CORRECTED, 2),
        ("cv_inverse_log_entries", CORRECTED, 2),
        ("cv_inverse_entry", CORRECTED, 2),
        ("cauchy_inverse_log_entries", CORRECTED, 4),
        ("cauchy_inverse_entry", CORRECTED, 4),
    ])
    def test_walks_per_call(self, walks, call, variant, expected):
        n = self.N
        s = knotgen.van_der_corput(n)
        f = cmath.exp(0.3j)
        t = kv(list(0.5 * cmath.exp(0.05j) * s.as_array()))
        walks.clear()  # the knot checks above walk too
        run = {"bound_cv": lambda: bounds.bound_cv(s, f, variant),
               "cv_inverse_log_entries":
                   lambda: cauchyinv.cv_inverse_log_entries(s, f, variant),
               "cv_inverse_entry": lambda: cauchyinv.cv_inverse_entry(s, f, 3, 5, variant),
               "cauchy_inverse_log_entries":
                   lambda: cauchyinv.cauchy_inverse_log_entries(s, t, variant),
               "cauchy_inverse_entry":
                   lambda: cauchyinv.cauchy_inverse_entry(s, t, 3, 5, variant)}
        run[call]()
        assert walks.count(n * n) == expected


class TestSingleEntry:
    """`*_inverse_entry` forms one cell from the O(n) factors, no table."""

    @staticmethod
    def cells(n):
        rng = np.random.default_rng(n)
        if n <= 7:
            return [(i, j) for i in range(n) for j in range(n)]
        picks = rng.integers(0, n, size=(16, 2)).tolist()
        return [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)] + picks

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_entries_equal_table_cells(self, n, variant):
        s = knotgen.van_der_corput(n)
        f = cmath.exp(0.3j)
        t = kv(list(0.5 * cmath.exp(0.05j) * s.as_array()))
        cv_mag, cv_ph = cauchyinv.cv_inverse_log_entries(s, f, variant)
        c_mag, c_ph = cauchyinv.cauchy_inverse_log_entries(s, t, variant)
        for i, j in self.cells(n):
            assert (cauchyinv.cv_inverse_entry(s, f, i, j, variant)
                    == LogComplex(cv_mag[i, j], cv_ph[i, j]))
            assert (cauchyinv.cauchy_inverse_entry(s, t, i, j, variant)
                    == LogComplex(c_mag[i, j], c_ph[i, j]))

    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_indexing_matches_the_tables(self, variant):
        n = 7
        s = knotgen.van_der_corput(n)
        f = cmath.exp(0.3j)
        mag, ph = cauchyinv.cv_inverse_log_entries(s, f, variant)
        for i, j in ((-1, 0), (2, -3), (-7, -7), (-1, -1)):
            assert (cauchyinv.cv_inverse_entry(s, f, i, j, variant)
                    == LogComplex(mag[i, j], ph[i, j]))
        t = kv(list(0.5 * s.as_array()))
        for i, j in ((7, 0), (0, 7), (-8, 0), (0, -8)):
            with pytest.raises(IndexError):
                mag[i, j]
            with pytest.raises(IndexError):
                cauchyinv.cv_inverse_entry(s, f, i, j, variant)
            with pytest.raises(IndexError):
                cauchyinv.cauchy_inverse_entry(s, t, i, j, variant)

    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_collision_in_a_later_row_raises(self, monkeypatch, variant):
        # Row 0 holds the requested cell and is clean; s_23 sits on grid
        # point 23, which only a walk past the cell's own row block reaches.
        monkeypatch.setattr(logdomain, "CHUNK", 7)
        n, f = 30, cmath.exp(0.3j)
        grid = structmat.cv_knots(n, f)
        pts = list(0.5 * knotgen.van_der_corput(n).as_array())
        pts[23] = complex(grid[23])
        s, t = kv(pts), kv(list(grid))
        for entry in (lambda: cauchyinv.cv_inverse_entry(s, f, 0, 0, variant),
                      lambda: cauchyinv.cauchy_inverse_entry(s, t, 0, 0, variant)):
            with pytest.raises(KnotCollision) as info:
                entry()
            assert (info.value.i, info.value.j, info.value.gap) == (23, 23, 0.0)

    def test_entry_memory_is_linear(self):
        # Two n x n float tables would be 36 MiB at n = 1536.
        n = 1536
        s = knotgen.van_der_corput(n)
        f = cmath.exp(0.3j)
        t = kv(list(0.5 * s.as_array()))
        for variant in (PAPER, CORRECTED):
            assert traced_peak(lambda: cauchyinv.cv_inverse_entry(
                s, f, 3, 5, variant)) <= 16 * 2 ** 20
            assert traced_peak(lambda: cauchyinv.cauchy_inverse_entry(
                s, t, n - 1, 0, variant)) <= 16 * 2 ** 20


class TestVandermondeInverses:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_via_cv_fft_matches_dense_product(self, n, variant):
        s = knotgen.van_der_corput(n)
        f = cmath.exp(0.3j)
        got = cauchyinv.vandermonde_inverse_via_cv(s, f, variant).data
        ref = reference_via_cv_dense(s, f, variant)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_via_cv_outlier_far_outside_the_circle(self):
        # V holds entries of 10^299 and s_i^n - f^n reaches 10^312; the route
        # used to refuse that diagonal, though no entry of V^-1 exceeds 1/12.
        n = 24
        s = knotgen.single_outlier(n, 1e13)
        with mpmath.workdps(320):
            V = mpmath.matrix([[mpmath.mpc(z) ** j for j in range(n)]
                               for z in s.as_array()])
            ref = np.array((V ** -1).tolist(), dtype=complex)
        got = cauchyinv.vandermonde_inverse_via_cv(s, cmath.exp(0.3j), CORRECTED).data
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_via_cv_refuses_f_off_the_circle(self, variant):
        # At f = 2 the transform cancels 2^(n-1-k): entries up to 456 came
        # out where the DFT knots' V^-1 has 1/64.
        with pytest.raises(ValueError, match="unit circle"):
            cauchyinv.vandermonde_inverse_via_cv(knotgen.roots_of_unity(64), 2.0,
                                                 variant)

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

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("gen", [knotgen.roots_of_unity, knotgen.quasi_cyclic,
                                     knotgen.van_der_corput])
    def test_lagrange_residual_on_the_circle(self, gen, n):
        # Multiplied out in knot order, roots_of_unity(256) gave 2.7e48 and
        # quasi_cyclic(256) 1.6e16; all of these knot sets have kappa near 1.
        s = gen(n)
        V = structmat.vandermonde(s).data
        inv = cauchyinv.vandermonde_inverse_lagrange(s).data
        assert np.max(np.abs(V @ inv - np.eye(n))) <= 1e-10

    def test_lagrange_outlier_far_outside_the_circle(self):
        # |s'(s_i)| reaches 10^322 at the outlier, past the float range, while
        # no entry of V^-1 exceeds 1/12: the divisor used to come out inf.
        n = 24
        s = knotgen.single_outlier(n, 1e14)
        with mpmath.workdps(340):
            V = mpmath.matrix([[mpmath.mpc(z) ** j for j in range(n)]
                               for z in s.as_array()])
            ref = np.array((V ** -1).tolist(), dtype=complex)
        got = cauchyinv.vandermonde_inverse_lagrange(s).data
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

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
