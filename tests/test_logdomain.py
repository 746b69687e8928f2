import ast
import cmath
import math
import pathlib
import pickle
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from vandcond import bounds, cauchyinv, knotgen, logdomain, spectral, structmat
from vandcond.errors import DuplicateKnot, KnotCollision
from vandcond.logdomain import (DISTINCT_TOL, check_disjoint, check_distinct, log_magnitudes,
                                log_products, pow_diff_logs, self_derivative_logs, wrap_phase)

EPS = float(np.finfo(np.float64).eps)
PACKAGE = pathlib.Path(logdomain.__file__).parent


def pow_diff_logs_loop(z, f, n):
    """Reference: the per-knot scalar loop the vectorized kernel replaced."""
    z = np.asarray(z, dtype=np.complex128)
    mag = np.empty(len(z))
    ph = np.empty(len(z))
    fl = np.log10(abs(f)) if f != 0 else -math.inf
    for idx, zi in enumerate(z):
        zl = np.log10(abs(zi)) if zi != 0 else -math.inf
        if n * max(zl, fl) <= 150.0:
            w = zi ** n - complex(f) ** n
            if w == 0:
                mag[idx], ph[idx] = -math.inf, 0.0
            else:
                mag[idx], ph[idx] = math.log10(abs(w)), math.atan2(w.imag, w.real)
        elif zl >= fl:
            rest = 1.0 - (complex(f) / zi) ** n
            mag[idx] = n * zl + math.log10(abs(rest))
            ph[idx] = n * math.atan2(zi.imag, zi.real) + math.atan2(rest.imag, rest.real)
        else:
            rest = (zi / complex(f)) ** n - 1.0
            mag[idx] = n * fl + math.log10(abs(rest))
            ph[idx] = n * math.atan2(f.imag, f.real) + math.atan2(rest.imag, rest.real)
    return mag, ph


def wrap_phase_scalar(p):
    """Reference: the scalar wrap built on the exact IEEE remainder."""
    r = math.remainder(p, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


class TestLogRootProduct:
    """`log_products` at one point x: prod_i (x - s_i) in the log domain."""

    def test_roots_of_unity_at_zero(self):
        mag, _ = log_products(0.0, knotgen.roots_of_unity(7).as_array())
        assert abs(mag[0]) < 1e-12  # |0^7 - 1| = 1

    def test_roots_of_unity_at_two(self):
        mag, ph = log_products(2.0, knotgen.roots_of_unity(4).as_array())
        assert abs(10 ** mag[0] * cmath.exp(1j * ph[0]) - 15.0) < 1e-12  # 2^4 - 1

    def test_exact_zero_at_knot(self):
        mag, _ = log_products(2.0, np.array([1, 2, 3], dtype=complex))
        assert mag[0] == -math.inf

    def test_quasi_cyclic_witness(self):
        # At the stationary probe point the magnitude reaches 2^(q/2 + 1).
        q = 16
        s = knotgen.quasi_cyclic(3 * q)
        probe = -1j * cmath.exp(2j * cmath.pi / (4 * q))
        mag, _ = log_products(probe, s.as_array())
        direct = np.prod(probe - s.as_array())
        assert abs(mag[0] - math.log10(abs(direct))) < 1e-10
        assert 10 ** mag[0] >= 2 ** (q / 2 + 1) - 1e-9


class TestPowDiffLogs:
    def check_against_loop(self, z, f, n):
        mag, ph = pow_diff_logs(z, f, n)
        ref_mag, ref_ph = pow_diff_logs_loop(z, f, n)
        zeros = ref_mag == -math.inf
        assert np.array_equal(mag == -math.inf, zeros)
        # Both sides round z**n and f**n (about n eps relative each); the
        # difference loses the digits its cancellation removes.
        with np.errstate(divide="ignore"):
            scale = n * np.maximum(np.log10(np.abs(z)), math.log10(abs(f)))
        tol = 64 * n * EPS * (1.0 + 10.0 ** np.clip(scale - ref_mag, 0, 300))
        tol = np.maximum(tol, 64 * EPS * np.abs(ref_mag))
        ok = ~zeros
        assert np.all(np.abs(mag[ok] - ref_mag[ok]) <= tol[ok])
        assert np.all(np.abs(wrap_phase(ph[ok] - ref_ph[ok])) <= tol[ok])
        assert np.all(ph[zeros] == 0.0)

    def test_direct_branch(self):
        rng = np.random.default_rng(5)
        z = np.exp(2j * np.pi * rng.random(64)) * rng.uniform(0.5, 1.0, 64)
        self.check_against_loop(z, cmath.exp(0.3j), 96)

    def test_large_z_branch(self):
        # |z|**n beyond 1e150: factored through z**n.
        rng = np.random.default_rng(6)
        z = np.exp(2j * np.pi * rng.random(32)) * rng.uniform(1.5, 3.0, 32)
        self.check_against_loop(z, cmath.exp(0.3j), 1536)

    def test_dominant_f_branch(self):
        # |f|**n beyond 1e150 and larger than every |z|**n, z = 0 included.
        z = np.array([0.0, 0.5, 0.25j, 1.0, -1.2 + 0.1j])
        self.check_against_loop(z, 1.5 * cmath.exp(0.3j), 1536)

    def test_f_power_beyond_complex_range(self):
        # |f|**n near 1e462 overflows a Python complex; no branch may form it.
        z = np.array([0.0, 0.5, 1.0, 1.9j, 3.0 - 1.0j])
        self.check_against_loop(z, 2.0 * cmath.exp(0.3j), 1536)
        mag, _ = pow_diff_logs(np.array([1.0]), 1.6, 1536)
        assert abs(mag[0] - 1536 * math.log10(1.6)) < 1e-9

    def test_mixed_branches_in_one_call(self):
        z = np.array([0.0, cmath.exp(0.1j), 2.0, 0.5j, 3.0 - 1.0j])
        f = 1.3 * cmath.exp(-0.7j)
        for n in (1, 7, 192, 768):
            self.check_against_loop(z, f, n)

    def test_zero_knot_direct(self):
        mag, ph = pow_diff_logs(np.array([0.0]), cmath.exp(0.3j), 8)
        assert abs(mag[0]) <= 4 * EPS  # |0 - f^8| = 1
        assert abs(wrap_phase_scalar(ph[0] - (8 * 0.3 + math.pi))) <= 64 * EPS

    @pytest.mark.parametrize("n", [1, 4, 192])
    def test_modulus_near_the_float_limit(self, n):
        # numpy's complex division by these overflowed ("overflow encountered
        # in divide") in both factored branches.  The loop reference divides
        # numpy scalars the same way, so mpmath is the oracle here.
        big = complex(1e308, 1e308)
        for z, f in (([0.0, 0.5j, cmath.exp(0.3j), 1e300], big),
                     ([big, -big.conjugate()], cmath.exp(0.3j))):
            mag, ph = pow_diff_logs(np.array(z), f, n)
            with mpmath.workdps(40):
                w = [mpmath.mpc(zi) ** n - mpmath.mpc(f) ** n for zi in z]
                ref_mag = [float(mpmath.log10(abs(wi))) for wi in w]
                ref_ph = [float(mpmath.arg(wi)) for wi in w]
            assert np.allclose(mag, ref_mag, rtol=1e-14, atol=0)
            assert np.all(np.abs(wrap_phase(ph - np.array(ref_ph))) <= 64 * n * EPS)

    def test_exact_hit_is_minus_inf(self):
        f = cmath.exp(0.3j)
        mag, ph = pow_diff_logs(np.array([f, 2.0]), f, 16)
        assert mag[0] == -math.inf and ph[0] == 0.0
        assert np.isfinite(mag[1])
        self.check_against_loop(np.array([f, 1.0, 0.0]), f, 16)


class TestWrapPhase:
    POINTS = (math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 0.0, -0.0, 6.0,
              -6.0, 2 * math.pi, -2 * math.pi, 1e3, -1e3, 4.5e4, math.nextafter(
                  math.pi, 10.0), math.nextafter(-math.pi, -10.0))

    def test_plus_minus_pi(self):
        out = wrap_phase(np.array([math.pi, -math.pi]))
        assert np.array_equal(out, [math.pi, math.pi])

    def test_arrays_match_scalars_and_wrap_in_place(self):
        p = np.array(self.POINTS).reshape(3, 5)
        expect = np.vectorize(wrap_phase_scalar)(p)
        q = p.copy()
        assert wrap_phase(q) is q
        assert np.array_equal(q, expect)
        assert np.all((-math.pi < q) & (q <= math.pi))
        t = p.copy().T
        assert wrap_phase(t) is t
        assert np.array_equal(t, expect.T)


def check_distinct_reference(points):
    """The n x n distinctness table the blocked scan replaced: (i, j, gap) or None.

    Taken one row at a time, so that 4097 knots need no 268 MB table; the
    first smallest gap in row-major order wins, as in the table's argmin.
    A difference past the float range is a gap of inf.
    """
    points = np.asarray(points, dtype=np.complex128)
    best = (math.inf, 0, 0)
    with np.errstate(over="ignore"):
        for i in range(len(points)):
            row = np.abs(points[i] - points)
            row[i] = np.inf
            j = int(row.argmin())
            if row[j] < best[0]:
                best = (float(row[j]), i, j)
    gap, i, j = best
    return None if gap > DISTINCT_TOL else (i, j, gap)


def distinctness_agrees(points):
    """(i, j, gap) of the DuplicateKnot raised, or None; must equal the reference.

    `check_distinct` runs `screen_distinct`, then `closest_pair` when the
    screen meets a gap within 2 DISTINCT_TOL; KnotVector must raise the
    same DuplicateKnot, or none.
    """
    want = check_distinct_reference(points)
    got = []
    for check in (lambda: check_distinct(np.asarray(points, dtype=np.complex128)),
                  lambda: knotgen.KnotVector(points)):
        try:
            check()
            got.append(None)
        except DuplicateKnot as err:
            got.append((err.i, err.j, err.gap))
    assert got == [want, want]
    return want


class TestBlockedKernels:
    @pytest.fixture
    def tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(logdomain, "CHUNK", 7)

    def points(self, n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def test_log_products_blocks_agree(self, tiny_blocks):
        xs, knots = self.points(11, 1), self.points(5, 2)
        mag, ph = log_products(xs, knots)
        d = xs[:, None] - knots[None, :]
        assert np.allclose(mag, np.sum(np.log10(np.abs(d)), axis=1), rtol=0, atol=1e-13)
        assert np.allclose(ph, np.sum(np.angle(d), axis=1), rtol=0, atol=1e-13)

    def test_log_magnitudes_are_the_product_magnitudes(self, tiny_blocks):
        xs, knots = self.points(11, 1), self.points(5, 2)
        xs[3] = knots[4]  # an exact hit gives -inf in both
        mag = log_magnitudes(xs, knots)
        assert mag[3] == -math.inf
        assert np.array_equal(mag, log_products(xs, knots)[0])
        assert np.array_equal(log_magnitudes(xs[2], knots), mag[2:3])

    def test_self_derivative_blocks_agree(self, tiny_blocks):
        p = self.points(9, 3)
        mag, ph = self_derivative_logs(p)
        for j in range(9):
            direct = np.prod(np.delete(p[j] - p, j))
            assert abs(mag[j] - math.log10(abs(direct))) < 1e-13
            assert abs(wrap_phase_scalar(ph[j] - cmath.phase(direct))) < 1e-13

    @pytest.mark.filterwarnings("error")
    def test_differences_past_the_float_range(self, tiny_blocks):
        # Finite points of opposite signs near 1.8e308 differ by more than
        # the float range, in a real part, an imaginary part or a modulus.
        p = np.array([1.7e308, -1.7e308, 1.5e308j, -1.2e308 + 1.2e308j,
                      -1.2e308 - 1.2e308j, 0.5 - 2j, 3.0, 1e-300])
        mp = [mpmath.mpc(z.real, z.imag) for z in p]
        mag, ph = self_derivative_logs(p)
        for j in range(len(p)):
            prod = mpmath.fprod(mp[j] - mp[k] for k in range(len(p)) if k != j)
            want = float(mpmath.log10(abs(prod)))  # up to 1542: a relative tolerance
            assert abs(mag[j] - want) <= 1e-14 * max(1.0, abs(want))
            assert abs(wrap_phase_scalar(ph[j] - float(mpmath.arg(prod)))) < 1e-13
        mag2, ph2 = log_products(p[:3], p[3:])
        assert np.array_equal(log_magnitudes(p[:3], p[3:]), mag2)
        for j in range(3):
            prod = mpmath.fprod(mp[j] - mp[k] for k in range(3, len(p)))
            want = float(mpmath.log10(abs(prod)))
            assert abs(mag2[j] - want) <= 1e-14 * max(1.0, abs(want))
            assert abs(wrap_phase_scalar(ph2[j] - float(mpmath.arg(prod)))) < 1e-13

    def test_check_disjoint_reports_closest_pair(self, tiny_blocks):
        sp, tp = self.points(10, 4), self.points(6, 5)
        tp[2] = sp[7] + 1e-15
        with pytest.raises(KnotCollision) as info:
            check_disjoint(sp, tp)
        assert (info.value.i, info.value.j) == (7, 2)

    def test_check_disjoint_tie_goes_to_first_row(self, tiny_blocks):
        sp, tp = self.points(10, 4), self.points(6, 5)
        tp[2], tp[0] = sp[7], sp[8]
        with pytest.raises(KnotCollision) as info:
            check_disjoint(sp, tp)
        assert (info.value.i, info.value.j, info.value.gap) == (7, 2, 0.0)

    def test_distinctness_exact_duplicates(self, tiny_blocks):
        p = self.points(23, 1)
        p[17], p[20] = p[4], p[9]
        assert distinctness_agrees(p) == (4, 17, 0.0)

    def test_distinctness_near_duplicates(self, tiny_blocks):
        p = self.points(30, 2)
        p[25] = p[3] + 3e-14
        p[11] = p[28] - 2e-14j
        assert distinctness_agrees(p)[:2] == (11, 28)
        # The same points scaled so that DISTINCT_TOL stands where each
        # tolerance stood against them.
        for tol in (1e-15, 2.5e-14, 0.05, 0.5):
            distinctness_agrees(p * (DISTINCT_TOL / tol))

    def test_distinctness_tied_pairs_in_different_blocks(self, tiny_blocks):
        # Two gaps of exactly DISTINCT_TOL: the real parts 0 and DISTINCT_TOL
        # differ by it exactly, at any imaginary part.
        p = np.array([7, 3, 0, 0, 10, 10, 20, 40]) * 1j
        p[[3, 5]] += DISTINCT_TOL
        assert distinctness_agrees(p) == (2, 3, DISTINCT_TOL)

    def test_distinctness_raises_at_gap_equal_to_tol(self, tiny_blocks):
        assert distinctness_agrees([0, DISTINCT_TOL]) == (0, 1, DISTINCT_TOL)
        assert distinctness_agrees([0, DISTINCT_TOL * (0.5 / 0.4999)]) is None

    def test_distinctness_one_and_two_knots(self, tiny_blocks):
        assert distinctness_agrees([2j]) is None
        assert distinctness_agrees([1, 1 + 1e-16]) == (0, 1, 0.0)
        assert distinctness_agrees([1, -1]) is None


class TestLogWalk:
    """`log_blocks` is the one log walk: row sums first, and the halved
    retake only in a block where a row sums past the float range."""

    @pytest.fixture
    def tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(logdomain, "CHUNK", 7)

    @staticmethod
    def assert_matches(got, factors):
        for mag, ph, row in zip(*got, factors):
            prod = mpmath.fprod(row)
            want = float(mpmath.log10(abs(prod)))
            assert abs(mag - want) <= 1e-14 * max(1.0, abs(want))
            assert abs(wrap_phase_scalar(ph - float(mpmath.arg(prod)))) < 1e-13

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s, t", [
        ([1.7e308, -1.7e308], [0.5, 1.0]),
        ([0.5, 1.0], [1.7e308, -1.7e308]),
        ([1.7e308, 2.0, -1.7e308], [0.5, 1e308j, 1.0]),
        ([3.0, 1.2e308 + 1.2e308j, -1.2e308 - 1.2e308j], [-5e307, 1e308j, 2.0])])
    def test_self_and_cross_logs_past_the_float_range(self, tiny_blocks, s, t):
        # The self differences of s and of t, and the cross ones both ways;
        # with two rows of three per block, a huge row may sit in the second.
        S, T = [mpmath.mpc(z) for z in s], [mpmath.mpc(z) for z in t]
        sp, tp = np.array(s, dtype=complex), np.array(t, dtype=complex)
        for xs, P in ((sp, S), (tp, T)):
            self.assert_matches(self_derivative_logs(xs),
                                [[x - y for k, y in enumerate(P) if k != j]
                                 for j, x in enumerate(P)])
        for xs, knots, P, Q in ((sp, tp, S, T), (tp, sp, T, S)):
            self.assert_matches(log_products(xs, knots), [[x - y for y in Q] for x in P])

    @pytest.mark.filterwarnings("error")
    def test_an_exact_hit_beside_a_difference_past_the_range(self):
        # 1.7e308's row holds log10 0 = -inf and log10|3.4e308| = inf, so its
        # first sum is nan; the retake gives -inf, and no warning escapes.
        got = log_magnitudes([1.7e308, 2.0], [-1.7e308, 1.7e308, 0.5])
        assert got[0] == -math.inf
        assert got[1] == pytest.approx(2 * math.log10(1.7e308) + math.log10(1.5),
                                       rel=1e-15, abs=0)

    def test_the_retake_runs_only_where_a_row_meets_the_range(self, tiny_blocks, monkeypatch):
        taken = []
        real = logdomain.retake_halved

        def recording(d, redo, xs, knots):
            i, j = real(d, redo, xs, knots)
            taken.append((xs.tolist(), list(zip(i.tolist(), j.tolist()))))
            return i, j

        monkeypatch.setattr(logdomain, "retake_halved", recording)
        xs = np.array([0.5, 2.0, 1.7e308, 3.0, 1j], dtype=complex)
        knots = np.array([-1.7e308, 0.25, 2j], dtype=complex)
        log_products(xs[[0, 1, 3, 4]], knots)
        assert taken == []
        blocks = [(lo, d.copy(), rows.copy())
                  for lo, d, _, rows in logdomain.log_blocks(xs, knots)]
        # Only 1.7e308 - (-1.7e308), the second block's first row, is taken
        # again; every other row keeps the bits of its plain sum.
        assert taken == [([1.7e308, 3.0], [(0, 0)])]
        assert [lo for lo, _, _ in blocks] == [0, 2, 4]
        assert blocks[1][1][0, 0] == 1.7e308
        for lo, _, rows in blocks:
            for k, row in enumerate(rows):
                if lo + k != 2:
                    assert row == np.sum(np.log10(np.abs(xs[lo + k] - knots)))
        want = float(mpmath.log10(abs(mpmath.fprod(mpmath.mpf(1.7e308) - mpmath.mpc(k)
                                                   for k in knots))))
        assert abs(blocks[1][2][0] - want) <= 1e-14 * abs(want)

    def test_memory_is_one_block(self):
        # One block is 384 KB; the 1536 x 1536 table would be 38 MB.
        n = 1536
        s = knotgen.van_der_corput(n).as_array()
        t = structmat.cv_knots(n, cmath.exp(0.5j))
        tracemalloc.start()
        try:
            log_products(s, t)
            self_derivative_logs(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


class TestDistinctnessScreen:
    """`check_distinct` screens pairs by sorted real parts; `closest_pair`
    decides whenever the screen meets a gap within 2 DISTINCT_TOL.  The
    screen runs at DISTINCT_TOL only, so other widths are tried here by
    building the points at that scale."""

    def points(self, n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = logdomain.closest_pair

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return walk(*args, **kwargs)

        monkeypatch.setattr(logdomain, "closest_pair", counted)
        return calls

    @pytest.mark.parametrize("sign", [1, -1])
    def test_gaps_a_hair_either_side_of_tol(self, sign, walks):
        p = self.points(40, 3)
        p[7], p[31] = 0.0, DISTINCT_TOL * (1 + sign * 1e-12)
        assert (distinctness_agrees(p) is None) == (sign > 0)
        q = 8 * DISTINCT_TOL * np.arange(40) + 0j  # further apart than the window
        q[31] = q[7] + DISTINCT_TOL * (1 + sign * 1e-12)
        assert (distinctness_agrees(q) is None) == (sign > 0)
        # At the window's edge, 2 DISTINCT_TOL, the screen clears the pair
        # just outside and leaves the one just inside to the walk.
        q[31] = q[7] + 2 * DISTINCT_TOL * (1 + sign * 1e-12)
        walks.clear()
        assert distinctness_agrees(q) is None
        assert walks == ([] if sign > 0 else [40, 40])

    def test_near_duplicate_after_4096_knots(self):
        s = knotgen.van_der_corput(4096).as_array()
        p = np.append(s, s[17] + 5e-14)
        i, j, gap = distinctness_agrees(p)
        assert (i, j) == (17, 4096) and gap < 1e-13

    def test_conjugate_pairs_share_real_parts(self):
        rng = np.random.default_rng(5)
        z = np.exp(1j * rng.uniform(0.01, math.pi - 0.01, 500))
        p = np.concatenate((z, z.conj()))
        assert distinctness_agrees(p) is None
        p[900] = p[400] - 4e-14j
        assert distinctness_agrees(p)[:2] == (400, 900)

    def test_vertical_line_goes_to_the_walk(self, walks):
        p = 0.25 + 1e-3j * np.arange(300)
        assert distinctness_agrees(p) is None
        assert walks == [300, 300]  # check_distinct's, then KnotVector's
        p[200] = p[100] + 1e-14j
        assert distinctness_agrees(p) == (100, 200, abs(complex(p[100] - p[200])))

    @pytest.mark.parametrize("tol", [0.5, 1.0])
    def test_wide_tolerances(self, tol):
        # Standard normal points against tol, scaled so DISTINCT_TOL stands in.
        scale = DISTINCT_TOL / tol
        for seed in range(4):
            distinctness_agrees(scale * self.points(60, seed))
        distinctness_agrees(scale * 4.0 * self.points(60, 9))

    def test_real_parts_near_the_float_limit(self):
        top = 1.7e308
        p = np.array([top, -top, top - 2.0 ** 971, 0.5, top + 1e300j])
        assert distinctness_agrees(p) is None
        p = np.append(p, top + 5e-14j)
        assert distinctness_agrees(p)[:2] == (0, 5)

    def test_no_walk_for_4096_distinct_knots(self, walks):
        knotgen.van_der_corput(4096)
        assert walks == []

    def test_memory_of_4096_knots(self):
        tracemalloc.start()
        try:
            knotgen.van_der_corput(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured 0.38 MiB: the knots and O(n) index arrays.
        assert peak <= 2 ** 20


def disjoint_reference(sp, tp):
    """(i, j, gap) of the first smallest |s_i - t_j| in row-major order, or
    None when it exceeds DISTINCT_TOL: one row at a time, no screen."""
    best = (math.inf, 0, 0)
    with np.errstate(over="ignore"):
        for i, x in enumerate(np.asarray(sp, dtype=np.complex128)):
            row = np.abs(x - np.asarray(tp, dtype=np.complex128))
            j = int(row.argmin())
            if row[j] < best[0]:
                best = (float(row[j]), i, j)
    gap, i, j = best
    return None if gap > logdomain.DISTINCT_TOL else (i, j, gap)


def disjointness_agrees(sp, tp):
    """(i, j, gap) of the KnotCollision raised, or None; must equal the reference.

    The sorted screen must leave the answer to the walk.
    """
    sp, tp = np.asarray(sp, dtype=np.complex128), np.asarray(tp, dtype=np.complex128)
    assert not logdomain.screen_distinct(np.concatenate((sp, tp)))
    want = disjoint_reference(sp, tp)
    try:
        check_disjoint(sp, tp)
        got = None
    except KnotCollision as err:
        got = err.i, err.j, err.gap
    assert got == want
    return got


class TestCheckDisjoint:
    """`check_disjoint` screens the union of both knot sets; wherever the
    screen cannot clear it, the walk decides as a brute-force scan would."""

    @pytest.fixture(params=[7, logdomain.CHUNK], ids=["tiny-blocks", "chunk"])
    def blocks(self, request, monkeypatch):
        monkeypatch.setattr(logdomain, "CHUNK", request.param)

    def points(self, n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def test_screen_clears_distinct_sets_without_a_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the screen should have cleared these knots")

        monkeypatch.setattr(logdomain, "closest_pair", walk)
        s = knotgen.van_der_corput(512).as_array()
        check_disjoint(s, structmat.cv_knots(512, cmath.exp(0.3j)))

    def test_many_equal_real_parts(self, blocks):
        # One vertical line: every knot has dozens of window partners.
        sp = 0.25 + 1e-3j * np.arange(40)
        tp = 0.25 + 1e-3j * (np.arange(30) + 0.5)
        assert disjointness_agrees(sp, tp) is None
        tp[7] = sp[20] + 3e-14j
        assert disjointness_agrees(sp, tp)[:2] == (20, 7)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("direction", [1, 1j, -1j])
    def test_gaps_a_hair_either_side_of_tol(self, blocks, sign, direction):
        sp, tp = self.points(30, 3), self.points(20, 4)
        sp[11] = 0.0
        tp[3] = direction * logdomain.DISTINCT_TOL * (1 + sign * 1e-12)
        got = disjointness_agrees(sp, tp)
        assert (got is None) == (sign > 0)
        if got:
            assert got[:2] == (11, 3)

    def test_knots_near_the_float_limit(self, blocks):
        # Differences of 3.4e308 leave the float range: a gap of inf, no warning.
        top = 1.7e308
        sp = np.array([top, -top, 0.5, top + 1e300j])
        tp = np.array([0.5 + 1.5e-13, -top + 1e300j, top * 1j, -top])
        assert disjointness_agrees(sp, tp) == (1, 3, 0.0)
        tp[3] = -top + 5e-14j
        assert disjointness_agrees(sp, tp)[:2] == (1, 3)
        tp[3] = 1.0
        assert disjointness_agrees(sp, tp) is None

    def test_exact_ties_name_the_first_pair_in_row_major_order(self, blocks):
        # Equal gaps in one row, and again in a later row and block.
        sp, tp = self.points(12, 5), self.points(9, 6)
        h = 2.0 ** -46  # every gap below is exactly h
        sp[7], sp[10] = 0.0, 0.5
        tp[0], tp[1], tp[6], tp[8] = h, -h, 1j * h, 0.5 + h
        assert disjointness_agrees(sp, tp) == (7, 0, h)

    def test_random_lattices(self, blocks):
        # Knots on a 4 x 4 lattice, the column knots nudged by steps of
        # 0.5 DISTINCT_TOL: repeated row knots keep the screen out, and the
        # draws mix hits, near misses and ties.
        rng = np.random.default_rng(11)
        tol = logdomain.DISTINCT_TOL
        outcomes = []
        for _ in range(60):
            sp = rng.integers(0, 4, 25) + 1j * rng.integers(0, 4, 25)
            tp = rng.integers(0, 4, 10) + 1j * rng.integers(0, 4, 10)
            tp = tp + 0.5 * tol * (rng.integers(0, 8, 10) + 1j * rng.integers(-7, 8, 10))
            outcomes.append(disjointness_agrees(sp.astype(complex), tp.astype(complex)))
        assert 10 <= outcomes.count(None) <= 50


class TestBlockSizeInvariance:
    """No row's sum, minimum or count crosses a block, so `CHUNK` is free
    to be sized for speed: every walk gives the same bits at any size."""

    SIZES = (7, logdomain.CHUNK, 1 << 18)
    GENERATORS = {"quasi-cyclic": knotgen.quasi_cyclic,
                  "van-der-corput": knotgen.van_der_corput,
                  "scaled-cluster": lambda n: knotgen.scaled_cluster(n, max(1, n // 8), 0.5)}

    @staticmethod
    def outcome(fn):
        try:
            return pickle.dumps(fn())
        except Exception as err:  # the same refusal at every size counts too
            return type(err).__name__, str(err)

    def walks(self, s):
        sp = s.as_array()
        n, f = len(sp), cmath.exp(0.3j)
        t = knotgen.KnotVector(structmat.cv_knots(n, f))
        paper, corrected = cauchyinv.InverseVariant.PAPER, cauchyinv.InverseVariant.CORRECTED
        return {
            "log_magnitudes": lambda: log_magnitudes(knotgen.unit_roots(2 * n + 1), sp),
            "self_derivative_logs": lambda: self_derivative_logs(sp),
            "self_derivative_mags": lambda: self_derivative_logs(sp, phase=False),
            "closest_pair": lambda: logdomain.closest_pair(sp, t.as_array()),
            "closest_pair_self": lambda: logdomain.closest_pair(sp, sp, skip_self=True),
            "bound_cv_paper": lambda: bounds.bound_cv(s, f, paper),
            "bound_cv_corrected": lambda: bounds.bound_cv(s, f, corrected),
            "max_abs_on_circle": lambda: spectral.max_abs_on_circle(s),
            "best_arc_search": lambda: bounds.best_arc_search(s, f),
            "cv_inverse_paper": lambda: cauchyinv.cv_inverse_log_entries(s, f, paper),
            "cv_inverse_corrected": lambda: cauchyinv.cv_inverse_log_entries(s, f, corrected),
            "cauchy_inverse_paper": lambda: cauchyinv.cauchy_inverse_log_entries(s, t, paper),
            "cauchy_inverse_corrected":
                lambda: cauchyinv.cauchy_inverse_log_entries(s, t, corrected),
            "cauchy": lambda: structmat.cauchy(s, t).data,
        }

    # n = 769 leaves a ragged last block; a cluster needs n >= 2.
    @pytest.mark.parametrize("gen, n", [(gen, n) for gen in GENERATORS
                                        for n in (1, 2, 7, 192, 769)
                                        if gen != "scaled-cluster" or n > 1])
    def test_same_bits_at_every_block_size(self, monkeypatch, gen, n):
        make = self.GENERATORS[gen]
        runs = []
        for size in self.SIZES:
            monkeypatch.setattr(logdomain, "CHUNK", size)
            s = make(n)
            runs.append({name: self.outcome(fn) for name, fn in self.walks(s).items()})
        assert runs[0] == runs[1] == runs[2]


class TestOneCollisionThreshold:
    """Knot distinctness and row/column collisions share one constant."""

    def test_only_logdomain_holds_the_constant(self):
        assert logdomain.DISTINCT_TOL == 1e-13
        assert not hasattr(knotgen, "DISTINCT_TOL")
        for path in PACKAGE.glob("*.py"):
            if path.name != "logdomain.py":
                assert "DISTINCT_TOL" not in path.read_text(encoding="utf-8"), path.name

    @pytest.mark.parametrize("gap, collides", [(0.0, True), (5e-14, True),
                                               (1e-13, True), (2e-13, False)])
    def test_every_check_splits_at_the_same_gap(self, gap, collides):
        s = knotgen.KnotVector([0, 1])
        t = knotgen.KnotVector([gap, 5])
        # The CV grid of n = 2, f = 1 is [1, -1]; the first knot sits gap past 1.
        near_grid = knotgen.KnotVector([1 + gap, 0.5j])
        checks = [lambda: knotgen.KnotVector([0, gap]),
                  lambda: check_disjoint(s.as_array(), t.as_array()),
                  lambda: structmat.cv_matrix(near_grid, 1.0),
                  lambda: cauchyinv.cauchy_inverse_log_entries(
                      s, t, cauchyinv.InverseVariant.CORRECTED)]
        for check, error in zip(checks, [DuplicateKnot] + [KnotCollision] * 3):
            if collides:
                with pytest.raises(error):
                    check()
            else:
                check()


def _package_import_violations(path: pathlib.Path):
    """Imports of a sibling's underscore name, or package imports in functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    nested.add(id(inner))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            own = node.level > 0 or (node.module or "").startswith("vandcond")
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
            own = any(n == "vandcond" or n.startswith("vandcond.") for n in names)
        else:
            continue
        if not own:
            continue
        if id(node) in nested:
            found.append(f"{path.name}:{node.lineno} imports inside a function")
        if isinstance(node, ast.ImportFrom):
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    found.append(f"{path.name}:{node.lineno} imports private {name}")
    return found


def test_no_private_or_function_local_package_imports():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    problems = [p for f in files for p in _package_import_violations(f)]
    assert problems == []


def test_import_checker_flags_both_patterns(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .cauchyinv import _log_products\n"
                   "from . import __version__\n"
                   "def f():\n    from .spectral import poly_from_roots\n")
    found = _package_import_violations(bad)
    assert found == ["bad.py:1 imports private _log_products",
                     "bad.py:4 imports inside a function"]


#: A shared result is an lru_cache, not a module global rebound by hand; `errors`
#: states every argument rule, finiteness included, and no other module a copy.
MODULE_STATE = re.compile(r"^\s*global ")
ARGUMENT_RULES = re.compile(r"must be a finite number|ArgumentTypeError|f must be finite|"
                            r"tol must be|knots must be finite|entries must be finite")


def _matching_lines(path: pathlib.Path, pattern):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [f"{path.name}:{i}" for i, line in enumerate(lines, 1) if pattern.search(line)]


@pytest.mark.parametrize("pattern, exempt, planted", [
    (MODULE_STATE, "", "global CACHE"),
    (ARGUMENT_RULES, "errors.py", "raise ValueError('tol must be > 0')")],
    ids=["no-module-state", "argument-rules-only-in-errors"])
def test_source_rule(pattern, exempt, planted, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(f"def f(tol):\n    {planted}\n")
    assert _matching_lines(bad, pattern) == ["bad.py:2"]
    files = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != exempt]
    assert len(files) >= 9 and [hit for f in files for hit in _matching_lines(f, pattern)] == []
