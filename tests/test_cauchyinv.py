import cmath
import importlib.util
import math
import pathlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from vandcond import bounds, cauchyinv, knotgen, logdomain, structmat
from vandcond.cauchyinv import InverseVariant
from vandcond.errors import KnotCollision, RangeOverflow
from vandcond.logdomain import (log_products, pow_diff_logs,
                                self_derivative_logs, wrap_phase)

PAPER = InverseVariant.PAPER
CORRECTED = InverseVariant.CORRECTED


def kv(points):
    return knotgen.KnotVector(points)


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


class TestCauchyDet:
    def test_one_by_one(self):
        mag, ph = cauchyinv.cauchy_det(kv([2]), kv([0]))
        assert abs(10 ** mag * cmath.exp(1j * ph) - 0.5) < 1e-15

    def test_two_by_two_direct(self):
        # Direct 2x2 determinant oracle: 1/4 - 1/3 = -1/12.
        mag, ph = cauchyinv.cauchy_det(kv([2, 3]), kv([0, 1]))
        assert abs(10 ** mag * cmath.exp(1j * ph) - (-1 / 12)) < 1e-14

    def test_matches_lu_determinant(self):
        rng = np.random.Generator(np.random.Philox(2))
        s = kv(random_annulus_knots(rng, 6))
        t = kv(random_annulus_knots(rng, 6, gap=0.07))
        mag, ph = cauchyinv.cauchy_det(s, t)
        lu = np.linalg.det(structmat.cauchy(s, t).data)
        assert abs(mag - math.log10(abs(lu))) < 1e-10
        assert abs(cmath.exp(1j * ph) - lu / abs(lu)) < 1e-9

    def test_larger_sizes_against_lu(self):
        # Interleaved jittered circle knots keep kappa(C) near 1, so the LU
        # determinant oracle itself holds full double precision.
        rng = np.random.Generator(np.random.Philox(3))
        for n in (8, 16, 32):
            js = np.arange(n)
            s = kv(np.exp(2j * np.pi * (js + 0.2 + 0.2 * rng.uniform(size=n)) / n))
            t = kv(np.exp(2j * np.pi * (js + 0.7 + 0.2 * rng.uniform(size=n)) / n))
            mag, _ = cauchyinv.cauchy_det(s, t)
            lu = np.linalg.det(structmat.cauchy(s, t).data)
            assert abs(mag - math.log10(abs(lu))) < 1e-9 * max(1, abs(mag))


    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    def test_blocked_pairs_match_triu_reference(self, n):
        s = knotgen.van_der_corput(n)
        t = kv(list(2.0 * structmat.cv_knots(n, cmath.exp(0.3j))))
        d_mag, d_ph = cauchyinv.cauchy_det(s, t)
        mag, ph = reference_cauchy_det(s.as_array(), t.as_array())
        # The raw phase is a sum of about n**2 / 2 angles before wrapping.
        assert abs(d_mag - mag) <= 3e-14 * max(1.0, abs(mag))
        assert abs(cmath.phase(cmath.exp(1j * (d_ph - ph)))) <= 3e-14 * n * n

    def test_pair_products_use_blocked_memory(self):
        # np.triu_indices over the i < j pairs traced 72 MB at this size.
        n = 1536
        s = knotgen.van_der_corput(n)
        t = kv(list(structmat.cv_knots(n, cmath.exp(0.5j))))
        assert traced_peak(lambda: cauchyinv.cauchy_det(s, t)) <= 4 * 2 ** 20


class TestInverseEntries:
    def test_one_by_one_both_variants(self):
        s, t = kv([2]), kv([0.5j])
        for variant in (PAPER, CORRECTED):
            mag, _ = cauchyinv.cauchy_inverse_log_entries(s, t, variant)
            assert abs(10 ** mag[0, 0] - abs(2 - 0.5j)) < 1e-12
        inv = cauchyinv.cauchy_inverse(s, t, CORRECTED).data
        assert abs(inv[0, 0] - (2 - 0.5j)) < 1e-12

    def test_corrected_matches_adjugate_two_by_two(self):
        s, t = kv([1, -1]), kv([1j, -1j])
        C = structmat.cauchy(s, t).data
        adj = np.linalg.inv(C)
        inv = cauchyinv.cauchy_inverse(s, t, CORRECTED).data
        for i in range(2):
            for j in range(2):
                assert abs(inv[i, j] - adj[i, j]) < 1e-12
        assert abs(inv[0, 0] - (0.5 - 0.5j)) < 1e-12

    def test_variants_disagree_by_derivative_factors(self):
        s, t = kv([1, -1]), kv([1j, -1j])
        paper, _ = cauchyinv.cauchy_inverse_log_entries(s, t, PAPER)
        corr, _ = cauchyinv.cauchy_inverse_log_entries(s, t, CORRECTED)
        assert abs(10 ** paper[1, 0] - 2 * math.sqrt(2)) < 1e-12
        assert abs(10 ** corr[1, 0] - 1 / math.sqrt(2)) < 1e-12

    def test_magnitude_identity_random(self):
        # |paper(i,j)| = |corrected(j,i)| * |s'(s_i)| * |t'(t_j)| exactly.
        rng = np.random.Generator(np.random.Philox(4))
        for n in (2, 3, 5):
            sp = np.array(random_annulus_knots(rng, n))
            tp = np.array(random_annulus_knots(rng, n, gap=0.09))
            s, t = kv(sp), kv(tp)
            paper, _ = cauchyinv.cauchy_inverse_log_entries(s, t, PAPER)
            corr, _ = cauchyinv.cauchy_inverse_log_entries(s, t, CORRECTED)
            for i in range(n):
                for j in range(n):
                    sprime = np.prod(sp[i] - np.delete(sp, i))
                    tprime = np.prod(tp[j] - np.delete(tp, j))
                    lhs = paper[i, j]
                    rhs = (corr[j, i] + math.log10(abs(sprime))
                           + math.log10(abs(tprime)))
                    assert abs(lhs - rhs) < 1e-10

    def test_corner_entry_consistency(self):
        # At (n-1, 0) the compact form is s(t_0) t(s_{n-1}) / (t_0 - s_{n-1}).
        rng = np.random.Generator(np.random.Philox(8))
        n = 5
        sp = np.array(random_annulus_knots(rng, n))
        tp = np.array(random_annulus_knots(rng, n, gap=0.09))
        s, t = kv(sp), kv(tp)
        mag, _ = cauchyinv.cauchy_inverse_log_entries(s, t, PAPER)
        direct = (np.prod(tp[0] - sp) * np.prod(sp[n - 1] - tp)
                  / (tp[0] - sp[n - 1]))
        assert abs(mag[n - 1, 0] - math.log10(abs(direct))) < 1e-12


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
            mag, _ = cauchyinv.cv_inverse_log_entries(s, 1.0, variant)
            assert abs(10 ** mag[0, 0] - 1.0) < 1e-12  # |s0 - f| = 1

    def test_agrees_with_general_path(self):
        rng = np.random.Generator(np.random.Philox(11))
        n = 6
        s = kv(random_annulus_knots(rng, n, r_lo=1.2, r_hi=2.0))
        f = np.exp(0.41j)
        grid = kv(list(f * knotgen.roots_of_unity(n).as_array()))
        for variant in (PAPER, CORRECTED):
            a, _ = cauchyinv.cv_inverse_log_entries(s, f, variant)
            b, _ = cauchyinv.cauchy_inverse_log_entries(s, grid, variant)
            for i in range(n):
                for j in range(n):
                    assert abs(a[i, j] - b[i, j]) < 1e-12

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
        lambda s, f, v: cauchyinv.cv_inverse_log_entries(s, f, v),
        lambda s, f, v: cauchyinv.vandermonde_inverse_via_cv(s, f, v),
    ], ids=["cv_matrix", "cv_inverse", "cv_inverse_log_entries",
            "vandermonde_inverse_via_cv"])
    @pytest.mark.parametrize("f, message", [(0, "f must be nonzero"),
                                            (math.nan, "f must be finite"),
                                            (complex(0, math.inf), "f must be finite")])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_refused_without_warning(self, call, variant, f, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call(knotgen.roots_of_unity(4), f, variant)


def mp_inverse_entry(sp, tp, variant, i, j):
    """Entry (i, j) of the variant's closed form, as products in mpmath."""
    S, T = [mpmath.mpc(x) for x in sp], [mpmath.mpc(y) for y in tp]

    def s_of(x):
        return mpmath.fprod(x - y for y in S)

    def t_of(x):
        return mpmath.fprod(x - y for y in T)

    if variant is PAPER:
        return (-1) ** len(S) * s_of(T[j]) * t_of(S[i]) / (T[j] - S[i])
    sder = mpmath.fprod(S[j] - y for k, y in enumerate(S) if k != j)
    tder = mpmath.fprod(T[i] - y for k, y in enumerate(T) if k != i)
    return s_of(T[i]) * t_of(S[j]) / ((T[i] - S[j]) * sder * tder)


@pytest.mark.filterwarnings("error")
class TestPastTheFloatRange:
    """Finite knots of opposite signs near 1.8e308 differ by more than the
    float range; each walk takes such a difference again from its halves."""

    S = [1.7e308, -1.7e308]
    F = complex(1e308, 1e308)

    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    @pytest.mark.parametrize("route", ["cv", "cauchy"])
    def test_inverse_log_entries_match_mpmath(self, route, variant):
        # t_i - s_j reaches 2.7e308 in its real part.
        tp = structmat.cv_knots(2, self.F)
        if route == "cv":
            mag, ph = cauchyinv.cv_inverse_log_entries(kv(self.S), self.F, variant)
        else:
            mag, ph = cauchyinv.cauchy_inverse_log_entries(kv(self.S), kv(tp), variant)
        for i in range(2):
            for j in range(2):
                want = mp_inverse_entry(self.S, tp, variant, i, j)
                log_want = float(mpmath.log10(abs(want)))
                assert abs(mag[i, j] - log_want) <= 1e-12 * abs(log_want)
                assert abs(wrap_phase(ph[i, j] - float(mpmath.arg(want)))) < 1e-12

    @pytest.mark.parametrize("s, t", [(S, [0.5, 1.0]), ([0.5, 1.0], S),
                                      ([1.7e308, 2.0, -1.7e308], [0.5, 1e308j, 1.0])])
    def test_cauchy_det_matches_mpmath(self, s, t):
        # s_j - s_i past the range sits left of the diagonal, t_i - t_j right.
        mag, ph = cauchyinv.cauchy_det(kv(s), kv(t))
        S, T = [mpmath.mpc(x) for x in s], [mpmath.mpc(y) for y in t]
        n = len(S)
        want = (mpmath.fprod((S[j] - S[i]) * (T[i] - T[j])
                             for i in range(n) for j in range(i + 1, n))
                / mpmath.fprod(x - y for x in S for y in T))
        log_want = float(mpmath.log10(abs(want)))
        assert abs(mag - log_want) <= 1e-12 * abs(log_want)
        assert abs(wrap_phase(ph - float(mpmath.arg(want)))) < 1e-12


class TestLogEntryTables:
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

    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_collision_in_a_later_row_raises(self, monkeypatch, variant):
        # The first row blocks are clean; s_23 sits on grid point 23, which
        # only a block past them reaches, and the walk checks block by block.
        monkeypatch.setattr(logdomain, "CHUNK", 7)
        n, f = 30, cmath.exp(0.3j)
        grid = structmat.cv_knots(n, f)
        pts = list(0.5 * knotgen.van_der_corput(n).as_array())
        pts[23] = complex(grid[23])
        s, t = kv(pts), kv(list(grid))
        for tables in (lambda: cauchyinv.cv_inverse_log_entries(s, f, variant),
                       lambda: cauchyinv.cauchy_inverse_log_entries(s, t, variant)):
            with pytest.raises(KnotCollision) as info:
                tables()
            assert (info.value.i, info.value.j, info.value.gap) == (23, 23, 0.0)

    @staticmethod
    def check_dense_equals_cells(dense, mag, ph):
        # Same walk: the dense entry is 10**mag at the raw phase, which the
        # table wraps, so the phases agree to the rounding of a sum of n angles.
        eps = np.finfo(float).eps
        n = len(mag)
        assert np.max(np.abs(np.abs(dense) / 10.0 ** mag - 1)) <= 4 * eps
        dph = np.angle(dense * np.exp(-1j * ph))
        assert np.max(np.abs(dph)) <= 4 * eps * max(1.0, n * math.pi)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_cv_dense_equals_table_cells(self, n, variant):
        s = knotgen.van_der_corput(n)
        f = cmath.exp(0.3j)
        self.check_dense_equals_cells(cauchyinv.cv_inverse(s, f, variant).data,
                                      *cauchyinv.cv_inverse_log_entries(s, f, variant))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_cauchy_dense_equals_table_cells(self, n, variant):
        s = knotgen.van_der_corput(n)
        t = kv(list(0.5 * cmath.exp(0.05j) * s.as_array()))
        self.check_dense_equals_cells(
            cauchyinv.cauchy_inverse(s, t, variant).data,
            *cauchyinv.cauchy_inverse_log_entries(s, t, variant))


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
        row = 0
        for lo, block_mag, block_ph in cauchyinv.inverse_blocks(
                s.as_array(), structmat.cv_knots(n, f), variant, f):
            # At most CHUNK entries, or one row where a row is longer.
            assert lo == row and 0 < block_mag.size <= max(logdomain.CHUNK, n)
            assert np.array_equal(block_mag, mag[lo:lo + len(block_mag)])
            # the tables wrap what the walk leaves raw
            assert np.array_equal(wrap_phase(block_ph), ph[lo:lo + len(block_ph)])
            row += len(block_mag)
        assert row == n
        # The bound's column peaks cross the same small blocks.
        rep = bounds.bound_cv(s, f, variant)
        assert rep.params["log10_inv_norm_entry"] == float(np.max(mag))


class TestOneWalk:
    """Passes over an n x n difference table per call, counted at `diff_blocks`.

    The entries and the row products s(t_i) share one walk; the collision
    check before it is the sorted screen, which walks nothing when it clears
    the knots, and what is left are the O(n) factor sums.
    """

    N = 64

    @pytest.fixture
    def walks(self, monkeypatch):
        """Every walk as ("self" or "cross", rows, columns)."""
        seen = []
        real = logdomain.diff_blocks

        def counting(xs, knots):
            seen.append(("self" if xs is knots else "cross", len(xs), len(knots)))
            return real(xs, knots)

        for module in (logdomain, cauchyinv, bounds, structmat):
            monkeypatch.setattr(module, "diff_blocks", counting)
        return seen

    @pytest.mark.parametrize("call, variant, expected", [
        ("bound_cv", PAPER, 1),
        ("bound_cv", CORRECTED, 2),
        ("cv_inverse_log_entries", PAPER, 1),
        ("cv_inverse_log_entries", CORRECTED, 2),
        ("cauchy_inverse_log_entries", PAPER, 2),
        ("cauchy_inverse_log_entries", CORRECTED, 4),
        ("cv_inverse", CORRECTED, 2),
        ("cauchy_inverse", CORRECTED, 4),
        ("vandermonde_inverse_via_cv", CORRECTED, 2),
        ("cauchy_det", None, 2),
        ("cauchy", None, 1),
        ("cv_matrix", None, 1),
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
               "cauchy_inverse_log_entries":
                   lambda: cauchyinv.cauchy_inverse_log_entries(s, t, variant),
               "cv_inverse": lambda: cauchyinv.cv_inverse(s, f, variant),
               "cauchy_inverse": lambda: cauchyinv.cauchy_inverse(s, t, variant),
               "vandermonde_inverse_via_cv":
                   lambda: cauchyinv.vandermonde_inverse_via_cv(s, f, variant),
               "cauchy_det": lambda: cauchyinv.cauchy_det(s, t),
               "cauchy": lambda: structmat.cauchy(s, t),
               "cv_matrix": lambda: structmat.cv_matrix(s, f)}
        run[call]()
        assert [rows * cols for _, rows, cols in walks].count(n * n) == expected

    @pytest.mark.parametrize("call", ["cv_inverse_log_entries", "cv_column_peaks",
                                      "cauchy_det", "cv_matrix", "cauchy"])
    def test_a_collision_stops_before_any_walk_but_the_scan(self, walks, call):
        # The grid of f = 1 is the DFT knots: the screen meets gaps of 0, so
        # `closest_pair` scans once and names the pair; no other walk runs.
        n = self.N
        s = knotgen.roots_of_unity(n)
        t = kv(list(structmat.cv_knots(n, 1.0)))
        walks.clear()
        run = {"cv_inverse_log_entries":
                   lambda: cauchyinv.cv_inverse_log_entries(s, 1.0, PAPER),
               "cv_column_peaks":
                   lambda: cauchyinv.cv_column_peaks(s.as_array(), t.as_array()),
               "cauchy_det": lambda: cauchyinv.cauchy_det(s, t),
               "cv_matrix": lambda: structmat.cv_matrix(s, 1.0),
               "cauchy": lambda: structmat.cauchy(s, t)}
        with pytest.raises(KnotCollision) as err:
            run[call]()
        assert (err.value.i, err.value.j, err.value.gap) == (0, 0, 0.0)
        assert walks == [("cross", n, n)]

    @pytest.mark.parametrize("order", [(PAPER, CORRECTED), (CORRECTED, PAPER)],
                             ids=["paper-first", "corrected-first"])
    def test_both_cv_lines_share_the_cross_walk(self, walks, order):
        # Each line alone walks t - s, and the corrected one also s - s; back
        # to back on one (s, f), the first line walks t - s for both.
        n = self.N
        s, f = knotgen.van_der_corput(n), cmath.exp(0.3j)
        walks.clear()
        first, second = (bounds.bound_cv(s, f, v) for v in order)
        assert [k for k in walks if k[1:] == (n, n)] == [("cross", n, n), ("self", n, n)]
        assert first.params["f"] == second.params["f"]

    def test_paper_line_walks_no_self_differences(self, walks):
        n = self.N
        s, f = knotgen.van_der_corput(n), cmath.exp(0.3j)
        walks.clear()
        bounds.bound_cv(s, f, PAPER)
        assert walks == [("cross", n, n)]

    def test_coeff_norm_after_circle_value_walks_nothing(self, walks):
        n = self.N
        s = knotgen.van_der_corput(n)
        walks.clear()
        bounds.bound_circle_value(s)
        # The scan's even samples (the n + 1 roots of 1) and its odd ones.
        assert [k for k in walks if k[1:] == (n + 1, n)] == [("cross", n + 1, n)] * 2
        walks.clear()
        bounds.bound_coeff_norm(s)
        assert walks == []

    def test_circle_value_after_coeff_norm_walks_the_odd_samples(self, walks):
        n = self.N
        s = knotgen.van_der_corput(n)
        walks.clear()
        bounds.bound_coeff_norm(s)
        assert walks == [("cross", n + 1, n)]
        walks.clear()
        bounds.bound_circle_value(s)
        assert [k for k in walks if k[1:] == (n + 1, n)] == [("cross", n + 1, n)]


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


class TestVariantArgument:
    """A variant is an InverseVariant or its value string, decided once in
    the engine; anything else is refused, never read as the paper form."""

    S, F = knotgen.quasi_cyclic(6), cmath.exp(0.3j)
    T = kv([2.0, 2.0j, -2.0, -2.0j, 3.0, 3.0j])
    #: Each public route into the engine, with its second argument.
    CALLS = {"cauchy_inverse": (cauchyinv.cauchy_inverse, T),
             "cauchy_log_entries": (cauchyinv.cauchy_inverse_log_entries, T),
             "cv_inverse": (cauchyinv.cv_inverse, F),
             "cv_log_entries": (cauchyinv.cv_inverse_log_entries, F),
             "via_cv": (cauchyinv.vandermonde_inverse_via_cv, F)}

    def run(self, call, variant):
        fn, second = self.CALLS[call]
        out = fn(self.S, second, variant)
        return out.data if isinstance(out, structmat.DenseMatrix) else out

    @pytest.mark.parametrize("variant", list(InverseVariant))
    @pytest.mark.parametrize("call", list(CALLS))
    def test_value_string_is_the_member(self, call, variant):
        np.testing.assert_array_equal(self.run(call, variant.value), self.run(call, variant))

    @pytest.mark.parametrize("variant", ["bogus", "Corrected", "CORRECTED", None, 1])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_anything_else_is_refused(self, call, variant):
        with pytest.raises(ValueError, match="is not a valid InverseVariant"):
            self.run(call, variant)


class TestPublicSurface:
    """Every inverse entry is read from the tables of one walk."""

    def test_package_exports(self):
        import vandcond
        assert set(vandcond.__all__) == {
            "__version__",
            "KnotVector", "roots_of_unity", "quasi_cyclic", "van_der_corput",
            "single_outlier", "dft_plus_outlier", "scaled_cluster",
            "read_knots", "write_knots",
            "DenseMatrix", "vandermonde", "dft", "cauchy", "cv_matrix",
            "leading_block",
            "InverseVariant", "cauchy_det", "cauchy_inverse",
            "cv_inverse", "vandermonde_inverse_via_cv",
            "vandermonde_inverse_lagrange",
            "SpectrumSummary", "GenpStats", "singular_values",
            "top_singular_value", "poly_from_roots", "max_abs_on_circle",
            "genp_solve", "genp_residual_experiment",
            "BoundReport", "SeparationCertificate", "bound_easy",
            "bound_cluster", "bound_refined_norm", "bound_cv",
            "bound_circle_value", "bound_coeff_norm", "bound_quasi_cyclic",
            "bound_dft_block", "is_separated", "sigma_bound_separated",
            "arc_certificate", "bound_arc", "best_arc_search", "evaluators",
            "ExperimentTable", "run_table", "emit", "table_from_json",
        }

    def test_no_single_cell_readers(self):
        import vandcond
        for name in ("cauchy_inverse_entry", "cv_inverse_entry", "_inverse_cell",
                     "log_root_product", "cross_logs"):  # logdomain.log_blocks walks
            assert not hasattr(cauchyinv, name)
        # A knot product is a (log10 magnitude, phase) pair, never a scalar class.
        for module in (vandcond, logdomain, cauchyinv):
            assert not hasattr(module, "LogComplex")

    def test_bench_trace_targets_resolve(self):
        path = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module, name in tracing.EXTRA_TARGETS:
            assert callable(getattr(importlib.import_module(f"vandcond.{module}"),
                                    name))
