import cmath
import math
import re
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from vandcond import bounds, cauchyinv, knotgen, spectral, structmat
from vandcond.bounds import SeparationCertificate
from vandcond.cauchyinv import InverseVariant
from vandcond.errors import (NoPositiveBound, NotEnoughSmallKnots, UnitRadius,
                             VacuousCertificate, VandcondError)

PAPER = InverseVariant.PAPER
CORRECTED = InverseVariant.CORRECTED


def kv(points):
    return knotgen.KnotVector(points)


def measured_log10_kappa(knots):
    return spectral.singular_values(structmat.vandermonde(knots)).log10kappa


def svd_log10_inv_norm(s, f):
    """-log10 sigma_min of the CV matrix: the SVD oracle for log10 ||Cinv||."""
    sv = np.linalg.svd(structmat.cv_matrix(s, f).data, compute_uv=False)
    return -math.log10(float(sv[-1]))


class TestBoundEasy:
    def test_outlier_64(self):
        rep = bounds.bound_easy(knotgen.single_outlier(64, 1.140625))
        assert abs(10 ** rep.log10value - 497.636) < 0.01

    def test_outlier_256_huge(self):
        rep = bounds.bound_easy(knotgen.single_outlier(256, 10.0))
        # 10^255 / 16 = 6.25e253, exactly representable in the log domain.
        assert abs(rep.log10value - (255.0 - math.log10(16.0))) < 1e-12

    def test_unit_disc_clamps_to_one(self):
        rep = bounds.bound_easy(knotgen.roots_of_unity(8))
        assert rep.log10value == 0.0

    def test_single_zero_knot(self):
        rep = bounds.bound_easy(kv([0.0]))
        assert rep.log10value == 0.0


class TestBoundCluster:
    def test_literal_direct_formula(self):
        knots = knotgen.scaled_cluster(64, 8, 0.5)
        rep = bounds.bound_cluster(knots, 8, 2.0, "literal")
        expect = 2 ** 7 / (math.sqrt(8) * 8)
        assert abs(10 ** rep.log10value - expect) < 1e-9
        assert abs(10 ** rep.log10value - 5.66) < 0.01

    def test_computed_norm_reproduces_reference(self):
        knots = knotgen.scaled_cluster(64, 8, 0.5)
        rep = bounds.bound_cluster(knots, 8, 2.0, "computed-norm")
        # Independent oracle: spectral norm from SVD plugged into the formula.
        norm = np.linalg.svd(structmat.vandermonde(knots).data,
                             compute_uv=False)[0]
        expect = norm * 2 ** 7 / (math.sqrt(8) * 2.0)
        assert abs(10 ** rep.log10value - expect) < 1e-6 * expect
        assert abs(10 ** rep.log10value - 2.44e2) / 2.44e2 < 0.15

    @pytest.mark.parametrize("n, method", [(bounds.SVD_MAX_N, "svd"),
                                           (bounds.SVD_MAX_N + 1, "lanczos")])
    def test_computed_norm_either_side_of_the_svd_crossover(self, n, method):
        knots = knotgen.scaled_cluster(n, n // 8, 0.5)
        rep = bounds.bound_cluster(knots, n // 8, 2.0, "computed-norm")
        norm = np.linalg.svd(structmat.vandermonde(knots).data, compute_uv=False)[0]
        assert rep.params["norm_method"] == method
        assert (rep.params["lanczos_steps"] > 0) == (method == "lanczos")
        assert abs(rep.params["log10_norm"] - math.log10(norm)) <= 1e-12
        expect = math.log10(norm) + (n // 8 - 1) * math.log10(2.0) - (
            0.5 * math.log10(n // 8) + math.log10(2.0))
        assert abs(rep.log10value - expect) <= 1e-12

    # V alone is 16 n^2 bytes: 16.8 MB at n = 1024, 37.7 MB at n = 1536,
    # 268 MB at n = 4096.  With the step cap at 2 Lanczos stops unconverged
    # and its Ritz value is the norm all the same.
    @pytest.mark.parametrize("n, budget, cap", [(1536, 10e6, None), (4096, 32e6, None),
                                                (1024, 4 * 2 ** 20, 2)],
                             ids=["1536-10", "4096-32", "1024-capped"])
    def test_computed_norm_never_holds_v(self, n, budget, cap, monkeypatch):
        def no_svd(*args):
            raise AssertionError("the SVD ran above SVD_MAX_N")

        knots = knotgen.scaled_cluster(n, n // 8, 0.5)
        monkeypatch.setattr(bounds, "singular_values", no_svd)
        if cap is not None:
            monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", cap)
        tracemalloc.start()
        try:
            rep = bounds.bound_cluster(knots, n // 8, 2.0, "computed-norm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.params["norm_method"] == "lanczos"
        assert peak <= budget
        if cap is not None:
            assert rep.params["lanczos_steps"] == cap
            monkeypatch.undo()
            sigma1, _, converged = spectral.top_singular_value(knots)
            assert converged
            assert rep.params["log10_norm"] <= math.log10(sigma1)

    @pytest.mark.parametrize("mode", ["literal", "computed-norm"])
    def test_value_is_the_formula_applied_to_its_norm(self, mode):
        rep = bounds.bound_cluster(knotgen.scaled_cluster(64, 8, 0.5), 8, 2.0, mode)
        assert rep.log10value == bounds.cluster_log10(rep.params["log10_norm"], 8, 2.0, mode)

    def test_formula_refuses_an_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown norm_mode 'spectral'"):
            bounds.cluster_log10(1.0, 8, 2.0, "spectral")

    def test_degenerate_k1(self):
        knots = knotgen.scaled_cluster(4, 1, 0.5)
        rep = bounds.bound_cluster(knots, 1, 2.0, "literal")
        assert abs(10 ** rep.log10value - 0.5) < 1e-12  # 1 / max{1, 2}

    def test_not_enough_small_knots(self):
        with pytest.raises(NotEnoughSmallKnots):
            bounds.bound_cluster(knotgen.roots_of_unity(8), 2, 2.0)

    @pytest.mark.parametrize("mode", ["literal", "computed-norm"])
    @pytest.mark.parametrize("nu", [math.inf, math.nan, 1.0, 0.5])
    def test_refuses_nu_not_finite_above_1(self, nu, mode):
        # A knot at 0 gives nu = 1/0 = inf, and then nu/(nu - 1) is nan.
        with pytest.raises(ValueError, match="nu must be a finite number above 1"):
            bounds.bound_cluster(knotgen.single_outlier(8, 0), 1, nu, mode)


class TestBoundRefinedNorm:
    def test_exact_geometric_sum(self):
        rep = bounds.bound_refined_norm(knotgen.single_outlier(8, 2.0))
        assert abs(10 ** rep.log10value - 255.0 / math.sqrt(8)) < 1e-9

    def test_small_case_arithmetic(self):
        rep = bounds.bound_refined_norm(kv([10.0, 0.1, 0.2, 0.3]))
        assert abs(10 ** rep.log10value - (10 ** 4 - 1) / (9 * 2)) < 1e-9

    def test_refines_easy_bound(self):
        knots = knotgen.single_outlier(64, 1.140625)
        refined = bounds.bound_refined_norm(knots)
        easy = bounds.bound_easy(knots)
        assert refined.params["log10_kappa_bound"] >= easy.log10value

    def test_unit_radius(self):
        with pytest.raises(UnitRadius):
            bounds.bound_refined_norm(knotgen.roots_of_unity(8))


class TestBoundCv:
    def test_corrected_consistent_with_unit_kappa(self):
        s, f = knotgen.roots_of_unity(8), cmath.exp(0.1j)
        rep = bounds.bound_cv(s, f, CORRECTED)
        assert rep.log10value <= 1e-9
        # SVD oracle of the CV inverse agrees about the sign.
        svd_value = (0.5 * math.log10(8) + svd_log10_inv_norm(s, f)
                     - rep.params["log10_max_pow_diff"])
        assert svd_value <= 1e-9

    def test_paper_variant_exceeds_unit_kappa(self):
        # Discrepancy probe: on uniform knots the compact-form bound exceeds
        # the measured condition number 1.
        rep = bounds.bound_cv(knotgen.roots_of_unity(8), cmath.exp(0.1j), PAPER)
        kappa = measured_log10_kappa(knotgen.roots_of_unity(8))
        assert rep.log10value > kappa + 0.5

    def test_quasi_cyclic_witness_value(self):
        q = 16
        s = knotgen.quasi_cyclic(3 * q)
        f = -1j * cmath.exp(2j * cmath.pi / (4 * q))
        rep = bounds.bound_cv(s, f, PAPER)
        assert rep.log10value >= math.log10(1773.6)

    def test_collision_nudges(self):
        rep = bounds.bound_cv(knotgen.roots_of_unity(8), 1.0, CORRECTED)
        assert rep.params["nudged"]
        assert math.isfinite(rep.log10value)

    @pytest.mark.parametrize("s", [knotgen.roots_of_unity(8), knotgen.roots_of_unity(64),
                                   knotgen.quasi_cyclic(192)], ids=["rou8", "rou64", "qc192"])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_collision_nudge_clears_grid(self, s, variant):
        # f = 1 puts grid points on knots; the one nudge must carry the grid
        # beyond DISTINCT_TOL of every knot at any n.
        rep = bounds.bound_cv(s, 1.0, variant)
        assert rep.params["nudged"]
        assert math.isfinite(rep.log10value)
        assert math.isfinite(rep.params["log10_inv_norm_entry"])

    @pytest.mark.parametrize("n", [1, 7, 300])
    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_blocked_max_equals_table_max(self, n, variant):
        s, f = knotgen.van_der_corput(n), cmath.exp(0.3j)
        mag, _ = cauchyinv.cv_inverse_log_entries(s, f, variant)
        rep = bounds.bound_cv(s, f, variant)
        assert rep.params["log10_inv_norm_entry"] == float(np.max(mag))

    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_no_n_by_n_table(self, variant):
        # The two n x n log tables traced 44 MB at this size.
        s = knotgen.quasi_cyclic(1536)
        tracemalloc.start()
        try:
            bounds.bound_cv(s, cmath.exp(0.5j), variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    @pytest.mark.parametrize("n, nudged, calls", [(384, False, 1), (768, False, 1),
                                                   (384, True, 2), (768, True, 2)])
    def test_grid_built_once_per_evaluation(self, monkeypatch, n, nudged, calls):
        # One grid for the inverse, plus one for the failed first try when
        # nudged.
        if nudged:
            # With f = 1 the grid is the knots themselves: the first try
            # collides at gap 0.
            s, f = knotgen.roots_of_unity(n), 1.0
        else:
            s, f = knotgen.quasi_cyclic(n), cmath.exp(0.3j)
        made = []

        def counting(m, f):
            made.append(m)
            return structmat.cv_knots(m, f)

        monkeypatch.setattr(bounds, "cv_knots", counting)
        rep = bounds.bound_cv(s, f, CORRECTED)
        assert rep.params["nudged"] is nudged
        assert made == [n] * calls

    def test_entry_bound_below_svd_norm(self):
        s, f = knotgen.quasi_cyclic(24), cmath.exp(0.3j)
        rep = bounds.bound_cv(s, f, CORRECTED)
        assert rep.params["log10_inv_norm_entry"] <= (
            svd_log10_inv_norm(s, f) + 1e-9)

    @pytest.mark.parametrize("n", [8, 24, 48])
    @pytest.mark.parametrize("gen", [
        knotgen.roots_of_unity, knotgen.quasi_cyclic, knotgen.van_der_corput,
        lambda n: knotgen.single_outlier(n, 1.5 * cmath.exp(0.4j)),
        lambda n: knotgen.dft_plus_outlier(n, 0.3 + 0.2j),
        lambda n: knotgen.scaled_cluster(n, n // 8, 0.5)],
        ids=["dft", "quasi-cyclic", "van-der-corput", "single-outlier",
             "dft-plus-outlier", "scaled-cluster"])
    def test_entry_bound_below_svd_oracle(self, gen, n):
        # The largest corrected entry never exceeds the 2-norm of the
        # inverse, wherever the SVD can still be trusted to measure it.
        s = gen(n)
        rep = bounds.bound_cv(s, cmath.exp(0.3j), CORRECTED)
        C = structmat.cv_matrix(s, rep.params["f"])
        sv = spectral.singular_values(C)
        if not sv.trustworthy:
            pytest.skip("SVD of C is not trustworthy")
        assert rep.params["log10_inv_norm_entry"] <= (
            -math.log10(sv.sigma_min) + 1e-9)

    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_same_params_at_every_n(self, variant):
        f = cmath.exp(0.3j)
        keys = [set(bounds.bound_cv(knotgen.quasi_cyclic(n), f, variant).params)
                for n in (512, 513)]
        assert keys[0] == keys[1]

    def test_requires_unit_modulus_f(self):
        with pytest.raises(ValueError):
            bounds.bound_cv(knotgen.roots_of_unity(8), 2.0, PAPER)

    @pytest.mark.parametrize("variant", [PAPER, CORRECTED])
    def test_variant_value_string_is_the_member(self, variant):
        s, f = knotgen.quasi_cyclic(12), cmath.exp(0.3j)
        assert repr(bounds.bound_cv(s, f, variant.value)) == repr(bounds.bound_cv(s, f, variant))

    @pytest.mark.parametrize("variant", ["bogus", "Paper", None])
    def test_unknown_variant_refused(self, variant):
        with pytest.raises(ValueError, match="is not a valid InverseVariant"):
            bounds.bound_cv(knotgen.quasi_cyclic(12), cmath.exp(0.3j), variant)


class TestMemoScope:
    """The cv-inverse lines share one walk per (knot vector, f), circle-value
    and coeff-norm one per knot vector; no report depends on which ran first."""

    # single_outlier and scaled_cluster need n >= 2.
    CASES = [(gen, n) for gen in ("quasi-cyclic", "van-der-corput", "scaled-cluster",
                                  "single-outlier")
             for n in (1, 7, 192, 769) if n > 1 or gen in ("quasi-cyclic", "van-der-corput")]

    @staticmethod
    def make(gen, n):
        return {"quasi-cyclic": knotgen.quasi_cyclic,
                "van-der-corput": knotgen.van_der_corput,
                "scaled-cluster": lambda n: knotgen.scaled_cluster(n, max(1, n // 8), 0.5),
                "single-outlier": lambda n: knotgen.single_outlier(n, 1.5 * cmath.exp(0.4j)),
                }[gen](n)

    @staticmethod
    def cold():
        bounds._cv_peaks.cache_clear()
        spectral.root_logs.cache_clear()

    @staticmethod
    def lines(s, f):
        return {"paper": lambda: bounds.bound_cv(s, f, PAPER),
                "corrected": lambda: bounds.bound_cv(s, f, CORRECTED),
                "circle": lambda: bounds.bound_circle_value(s),
                "coeff": lambda: bounds.bound_coeff_norm(s)}

    @pytest.mark.parametrize("gen, n", CASES)
    def test_same_reports_in_any_order_and_cold(self, gen, n):
        s, f = self.make(gen, n), cmath.exp(0.3j)
        lines = self.lines(s, f)
        runs = []
        for order in (list(lines), list(lines)[::-1]):
            self.cold()
            runs.append({name: repr(lines[name]()) for name in order})
        cold = {}
        for name, line in lines.items():
            self.cold()
            cold[name] = repr(line())
        assert runs[0] == runs[1] == cold

    def test_equal_knots_or_another_f_recompute(self, monkeypatch):
        peaks, roots = [], []
        real_peaks, real_roots = bounds.cv_column_peaks, spectral.log_magnitudes
        monkeypatch.setattr(bounds, "cv_column_peaks",
                            lambda sp, tp: peaks.append(tp[0]) or real_peaks(sp, tp))
        monkeypatch.setattr(spectral, "log_magnitudes",
                            lambda xs, knots: roots.append(len(xs)) or real_roots(xs, knots))
        s = knotgen.van_der_corput(7)
        twin = knotgen.KnotVector(s.as_array(), s.label)
        f, g = cmath.exp(0.3j), cmath.exp(0.4j)
        reps = [bounds.bound_cv(s, f, PAPER), bounds.bound_cv(s, f, CORRECTED),
                bounds.bound_cv(twin, f, PAPER), bounds.bound_cv(twin, g, PAPER)]
        assert peaks == [f, f, g]
        assert repr(reps[0]) == repr(reps[2]) != repr(reps[3])
        bounds.bound_coeff_norm(s)
        bounds.bound_coeff_norm(s)
        bounds.bound_coeff_norm(twin)
        assert roots == [8, 8]

    def test_signed_zero_of_f_is_its_own_key(self):
        s = kv([0.5, 0.5j, -0.5])
        plus, minus = complex(1.0, 0.0), complex(1.0, -0.0)
        warm = [repr(bounds.bound_cv(s, f, PAPER)) for f in (plus, minus)]
        self.cold()
        assert warm[1] == repr(bounds.bound_cv(s, minus, PAPER)) != warm[0]

    def test_nudged_lines_agree(self):
        # f = 1 puts the grid on the knots: both lines take the one nudge.
        s = knotgen.roots_of_unity(64)
        paper, corrected = (bounds.bound_cv(s, 1.0, v) for v in (PAPER, CORRECTED))
        assert paper.params["nudged"] is corrected.params["nudged"] is True
        assert paper.params["f"] == corrected.params["f"] != 1.0

    def test_one_entry_each(self):
        for cached in (bounds._cv_peaks, spectral.root_logs):
            assert cached.cache_parameters() == {"maxsize": 1, "typed": False}

    def test_refusal_is_not_memoised(self):
        s, f = knotgen.roots_of_unity(8), cmath.exp(0.3j)
        self.cold()
        warm = repr(bounds.bound_cv(s, f, PAPER))
        for _ in range(2):
            with pytest.raises(ValueError):
                bounds.bound_cv(s, 2.0, PAPER)
        # The entry of the last accepted call is still held: this is a hit.
        assert repr(bounds.bound_cv(s, f, PAPER)) == warm
        assert bounds._cv_peaks.cache_info().hits == 1

    def test_threads_share_the_caches(self):
        """Threads alternating the four lines on two knot sets evict each
        other's entries at every call; every report matches the serial one."""
        sets = [knotgen.quasi_cyclic(48), knotgen.van_der_corput(40)]
        f = cmath.exp(0.3j)
        lines = [self.lines(s, f) for s in sets]
        serial = [{name: repr(line()) for name, line in by.items()} for by in lines]
        bad, rounds = [], 60

        def work(first):
            try:
                for r in range(rounds):
                    i = (first + r) % 2
                    for name, line in lines[i].items():
                        if repr(line()) != serial[i][name]:
                            bad.append((i, name))
            except Exception as exc:  # surfaced by the assert below
                bad.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t % 2,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_pairs_hold_no_n_by_n_table(self):
        # Both cv lines and both circle lines on one knot set, in one window.
        s, f = knotgen.quasi_cyclic(1536), cmath.exp(0.5j)
        tracemalloc.start()
        try:
            for line in self.lines(s, f).values():
                line()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


class TestBoundCircleValue:
    def test_quasi_cyclic_48(self):
        rep = bounds.bound_circle_value(knotgen.quasi_cyclic(48))
        assert rep.log10value >= math.log10(1773.6)
        assert rep.applicable
        # No sampled half-norm rides along: each cost an O(n^2) log walk.
        assert set(rep.params) == {"n", "f_star", "log10_circle_max", "s_plus"}

    def test_uniform_knot_probe(self):
        # log10 2 from the circle maximum cancels the divisor 2, leaving
        # 0.5 log10 8 > 0 even though kappa = 1: inherited overshoot, flagged
        # through the variant tag.
        rep = bounds.bound_circle_value(knotgen.roots_of_unity(8))
        assert abs(rep.log10value - 0.5 * math.log10(8)) < 1e-9
        assert rep.variant == "paper"

    def test_single_zero_knot(self):
        rep = bounds.bound_circle_value(kv([0.0]))
        assert abs(rep.log10value - (0.0 + 0.0 - math.log10(2))) < 1e-9

    def test_gate_recorded(self):
        rep = bounds.bound_circle_value(knotgen.single_outlier(8, 2.0))
        assert not rep.applicable
        assert "unit disc" in rep.reason


class TestBoundCoeffNorm:
    def test_roots_of_unity(self):
        rep = bounds.bound_coeff_norm(knotgen.roots_of_unity(8))
        assert abs(10 ** rep.log10value - 0.5 * math.sqrt(2) * 3.0) < 1e-9

    def test_two_knots(self):
        rep = bounds.bound_coeff_norm(kv([0, 1]))
        assert abs(10 ** rep.log10value
                   - 0.5 * math.sqrt(2) * math.sqrt(3)) < 1e-9

    def test_parseval_relation(self):
        # Sampling the polynomial on the (n+1)-point root grid is a scaled
        # unitary map of the coefficients, so the coefficient bound never
        # exceeds the circle bound by more than the sqrt((n+1)/n) grid factor.
        knots = knotgen.quasi_cyclic(24)
        coeff = bounds.bound_coeff_norm(knots)
        circ = bounds.bound_circle_value(knots)
        slack = 0.5 * (math.log10(25) - math.log10(24))
        assert coeff.log10value <= circ.log10value + slack + 1e-12

    @pytest.mark.parametrize("knots", [
        knotgen.scaled_cluster(192, 24, 0.5),
        knotgen.single_outlier(192, 1.5 * cmath.exp(0.7j)),
        knotgen.quasi_cyclic(192)], ids=lambda k: k.label)
    def test_matches_extended_precision_coefficients(self, knots):
        with mpmath.workdps(60):
            coeff = [mpmath.mpc(1)]
            for z in knots:
                z = mpmath.mpc(z.real, z.imag)
                coeff = ([-z * coeff[0]]
                         + [coeff[k - 1] - z * coeff[k] for k in range(1, len(coeff))]
                         + [coeff[-1]])
            ref = float(mpmath.log10(mpmath.norm(coeff)))
        rep = bounds.bound_coeff_norm(knots)
        assert abs(rep.params["log10_coeff_norm"] - ref) < 1e-12

    @pytest.mark.parametrize("knots", [
        knotgen.quasi_cyclic(768), knotgen.quasi_cyclic(1536),
        knotgen.scaled_cluster(192, 24, 0.5), knotgen.scaled_cluster(768, 96, 0.5),
        knotgen.single_outlier(768, 1.5 * cmath.exp(2.1j))],
        ids=lambda k: f"{k.label}-{len(k)}")
    def test_finite_with_no_warning(self, knots, recwarn):
        # Inputs whose expanded coefficients overflowed or lost every digit.
        rep = bounds.bound_coeff_norm(knots)
        assert math.isfinite(rep.log10value)
        assert len(recwarn) == 0

    def test_no_degree_cap(self):
        rep = bounds.bound_coeff_norm(knotgen.van_der_corput(4097))
        assert math.isfinite(rep.log10value) and rep.applicable


class TestBoundQuasiCyclic:
    def test_base_value(self):
        rep = bounds.bound_quasi_cyclic(16, "base")
        assert abs(10 ** rep.log10value - 1024 * math.sqrt(3)) < 0.1

    def test_coarse_value(self):
        rep = bounds.bound_quasi_cyclic(16, "coarse")
        assert abs(10 ** rep.log10value - 15417) <= 1.0

    def test_refined_value(self):
        rep = bounds.bound_quasi_cyclic(16, "refined")
        assert abs(10 ** rep.log10value - 27598) <= 1.0

    @pytest.mark.parametrize("q,ref", [(4, 1.03e1), (8, 1.06e2),
                                       (16, 1.13e4), (32, 1.27e8)])
    def test_integral_reference_column(self, q, ref):
        rep = bounds.bound_quasi_cyclic(q, "integral")
        assert abs(10 ** rep.log10value - ref) / ref < 0.01

    def test_integral_matches_closed_form(self):
        for q in (4, 16, 32):
            rep = bounds.bound_quasi_cyclic(q, "integral")
            closed = float(q * 2 * mpmath.catalan / mpmath.pi / mpmath.log(10))
            assert abs(rep.log10value - closed) <= 1e-9 * abs(closed)

    @pytest.mark.parametrize("q", [16, 32])
    def test_monotone_staging(self, q):
        vals = [bounds.bound_quasi_cyclic(q, m).log10value
                for m in ("base", "coarse", "refined", "product")]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("mode", ["base", "product"])
    def test_bad_shape(self, mode):
        with pytest.raises(ValueError, match=re.escape(
                f"mode {mode!r} requires q to be a power of two (q=12)")) as err:
            bounds.bound_quasi_cyclic(12, mode)
        assert not isinstance(err.value, VandcondError)

    def test_coarse_flagged_off_staging(self):
        rep = bounds.bound_quasi_cyclic(16, "coarse")
        assert rep.params["staging_exact"] is False
        rep = bounds.bound_quasi_cyclic(24, "coarse")
        assert rep.params["staging_exact"] is True


class TestBoundDftBlock:
    def test_base_as_stated(self):
        rep = bounds.bound_dft_block(8, "base")
        assert abs(10 ** rep.log10value - 2 * math.sqrt(8)) < 1e-9
        assert set(rep.params) == {"n", "q", "mode"}

    def test_integral_value(self):
        rep = bounds.bound_dft_block(32, "integral")
        assert abs(10 ** rep.log10value - 1.13e4) / 1.13e4 < 0.01

    def test_degenerate_two(self):
        rep = bounds.bound_dft_block(2, "base")
        assert abs(rep.log10value) < 1e-12  # 2^(-1/2) sqrt(2) = 1

    def test_odd_size(self):
        with pytest.raises(ValueError, match=r"^n must be even and >= 2, got 7$") as err:
            bounds.bound_dft_block(7, "base")
        assert not isinstance(err.value, VandcondError)


class TestCountArguments:
    """A count is an int or numpy integer: a bool, float or string is an
    invalid argument (ValueError), not truncated, used or a TypeError."""

    CALLS = {
        "q": lambda q: bounds.bound_quasi_cyclic(q, "coarse"),
        "q-pow2": lambda q: bounds.bound_quasi_cyclic(q, "base"),
        "n": lambda n: bounds.bound_dft_block(n, "base"),
        "k": lambda k: bounds.bound_cluster(knotgen.scaled_cluster(16, 4, 0.5), k, 2.0),
        "grid": lambda grid: bounds.bound_circle_value(knotgen.quasi_cyclic(12), grid),
        "j_lo": lambda j: bounds.arc_certificate(knotgen.quasi_cyclic(48),
                                                 cmath.exp(0.3j), j, 41, 1.2),
    }

    @pytest.mark.parametrize("call, value", [
        ("q", 4.5), ("q-pow2", 4.0), ("n", 8.0), ("k", 2.5), ("grid", 64.0),
        ("j_lo", 30.0), ("q", True), ("n", "8"), ("k", True), ("grid", True),
        ("j_lo", True)])
    def test_refused(self, call, value):
        name = call.split("-")[0]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, "
                                             rf"got {re.escape(repr(value))}$") as err:
            self.CALLS[call](value)
        assert not isinstance(err.value, VandcondError)

    @pytest.mark.parametrize("call, value", [("q", 12), ("q-pow2", 4), ("n", 8),
                                             ("k", 2), ("grid", 64), ("j_lo", 30)])
    def test_numpy_integers_accepted(self, call, value):
        assert self.CALLS[call](np.int64(value)) == self.CALLS[call](value)


class TestSeparation:
    def test_arc_partition_is_separated(self):
        s = knotgen.quasi_cyclic(48)
        f = cmath.exp(0.3j)
        cert = bounds.arc_certificate(s, f, 30, 41, 1.2)
        t = f * np.exp(2j * np.pi * np.arange(48) / 48)
        arc = t[cert.j_lo:cert.j_hi + 1]
        outside = [z for z in s if abs(z - cert.c) >= cert.eta * cert.r
                   - bounds.BOUNDARY_TOL]
        if outside:
            # (eta, c)-separated: max |t - c| <= min |s - c| / eta.
            dt = np.abs(arc - cert.c)
            ds = np.abs(np.array(outside) - cert.c)
            assert dt.max() <= ds.min() / cert.eta

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta_is_invalid_argument(self, eta):
        # nan passed `eta <= 1.0`: a certificate with rho_bar = 6 in place
        # of an argument error.
        s, f = knotgen.quasi_cyclic(48), cmath.exp(0.3j)
        message = r"^eta must be a finite number above 1, got (nan|inf)$"
        with pytest.raises(ValueError, match=message) as err:
            bounds.arc_certificate(s, f, 30, 41, eta)
        assert not isinstance(err.value, VandcondError)
        with pytest.raises(ValueError, match=message) as err:
            bounds.best_arc_search(s, 1.0, (1.2, eta))
        assert not isinstance(err.value, VandcondError)


class TestArcCertificate:
    def test_uniform_knots_cap_rho_bar(self):
        s = knotgen.roots_of_unity(16)
        f = cmath.exp(0.3j)
        for j_lo in range(16):
            for l in range(2, 9):
                j_hi = j_lo + l - 1
                if j_hi >= 16:
                    continue
                cert = bounds.arc_certificate(s, f, j_lo, j_hi, 1.1)
                assert cert.rho_bar <= 2
                assert cert.m_minus + cert.m_plus == 16
                assert cert.rho_bar == cert.l - cert.m_minus

    def test_quasi_cyclic_lower_semicircle(self):
        # The lower semicircle carries only the base grid, so a quarter arc
        # there (t angles near -pi/2) outnumbers the knots inside its
        # inflated disc.
        s = knotgen.quasi_cyclic(48)
        f = cmath.exp(0.3j)
        cert = bounds.arc_certificate(s, f, 29, 39, 1.2)
        t = f * np.exp(2j * np.pi * np.arange(48) / 48)
        assert all(np.angle(t[29:40]) < -0.5)  # arc sits in the lower half
        assert cert.rho_bar > 0

    def test_single_point_arc_degenerate(self):
        s = knotgen.roots_of_unity(8)
        cert = bounds.arc_certificate(s, cmath.exp(0.3j), 2, 2, 1.5)
        assert cert.r == 0.0
        rep = bounds.bound_arc(s, cert)
        assert not rep.applicable
        assert rep.log10value == -math.inf

    def test_arc_too_long(self):
        with pytest.raises(ValueError, match=r"^arc of 5 knots exceeds n/2 = 4$") as err:
            bounds.arc_certificate(knotgen.roots_of_unity(8), 1.0, 0, 4, 1.2)
        assert not isinstance(err.value, VandcondError)

    def test_geometry_fields(self):
        s = knotgen.roots_of_unity(8)
        f = cmath.exp(0.3j)
        cert = bounds.arc_certificate(s, f, 1, 3, 1.3)
        t = f * np.exp(2j * np.pi * np.arange(8) / 8)
        assert abs(cert.c - 0.5 * (t[1] + t[3])) < 1e-15
        assert abs(cert.r - abs(cert.c - t[1])) < 1e-15


class TestBoundArc:
    def test_vacuous_certificate(self):
        cert = SeparationCertificate(0, 3, 4, 0j, 0.5, 1.2, 4, 4, 0)
        with pytest.raises(VacuousCertificate):
            bounds.bound_arc(knotgen.roots_of_unity(8), cert)

    def test_inverse_norm_part_below_the_svd(self):
        # Knots on the upper semicircle, arc on the lower: the inflated disc
        # is empty, the certificate is sharp, and the bound on ||Cinv||, the
        # value less 0.5 log10(n) - log10(2), stays below the SVD-computed
        # inverse norm.
        rng = np.random.Generator(np.random.Philox(32))
        angles = np.sort(rng.uniform(0.2, math.pi - 0.2, 8))
        s = kv(list(np.exp(1j * angles)))
        f = 1.0
        cert = bounds.arc_certificate(s, f, 5, 6, 1.2)
        assert cert.rho_bar == 2
        rep = bounds.bound_arc(s, cert)
        C = structmat.cv_matrix(s, f)
        sigma = np.linalg.svd(C.data, compute_uv=False)
        inv_part = rep.log10value - 0.5 * math.log10(8) + math.log10(2)
        assert inv_part <= -math.log10(sigma[-1]) + 1e-9

    def test_value_is_the_closed_form_of_the_certificate(self):
        s = knotgen.quasi_cyclic(48)
        cert = bounds.arc_certificate(s, cmath.exp(0.3j), 30, 41, 1.2)
        rep = bounds.bound_arc(s, cert)
        closed = (cert.eta ** cert.rho_bar * (cert.eta - 1.0) * cert.r
                  * math.sqrt(48) / 2.0)
        assert cert.rho_bar > 0 and rep.applicable
        assert abs(rep.log10value - math.log10(closed)) < 1e-12

    def test_unit_disc_gate(self):
        s = knotgen.single_outlier(16, 2.0)
        cert = bounds.arc_certificate(s, cmath.exp(0.3j), 0, 5, 1.2)
        if cert.rho_bar > 0:
            rep = bounds.bound_arc(s, cert)
            assert not rep.applicable


def reference_arc_search(s, f, eta_grid=(1.1, 1.2, 1.5), exhaustive=False):
    """The per-arc loop best_arc_search replaced, kept as its reference."""
    n = len(s)
    eta_grid = tuple(float(e) for e in eta_grid)
    stride = 1 if exhaustive else max(1, n // 64)
    pts = s.as_array()
    t = structmat.cv_knots(n, f)
    half_log_n = 0.5 * math.log10(n)
    best = None  # (value, l, j_lo, eta, cert)
    for j_lo in range(0, n, stride):
        for l in range(2, int(n / 2.0) + 1, stride):
            j_hi = j_lo + l - 1
            if j_hi >= n:
                break
            c = 0.5 * (t[j_lo] + t[j_hi])
            r = float(abs(c - t[j_lo]))
            if r <= 0.0:
                continue
            d = np.abs(pts - c)
            for eta in eta_grid:
                m_minus = int(np.sum(d < eta * r - bounds.BOUNDARY_TOL))
                rho_bar = l - m_minus
                if rho_bar <= 0:
                    continue
                value = (rho_bar * math.log10(eta)
                         + math.log10((eta - 1.0) * r) + half_log_n - math.log10(2.0))
                key = (value, -l, -j_lo, -eta)
                if best is None or key > (best[0], -best[1], -best[2], -best[3]):
                    cert = SeparationCertificate(j_lo, j_hi, l, complex(c), r,
                                                 eta, m_minus, n - m_minus,
                                                 rho_bar)
                    best = (value, l, j_lo, eta, cert)
    if best is None or best[0] <= 0.0:
        raise NoPositiveBound("no arc certificate yields a bound above 1")
    return best[4], bounds.bound_arc(s, best[4])


def arc_corpus():
    """(knots, exhaustive) over every generator plus knots that leave arcs empty."""
    rng = np.random.default_rng(7)
    gens = (knotgen.roots_of_unity, knotgen.quasi_cyclic, knotgen.van_der_corput,
            lambda n: knotgen.single_outlier(n, 1.5 * cmath.exp(0.4j)),
            lambda n: knotgen.dft_plus_outlier(n, 0.3 + 0.2j),
            lambda n: knotgen.scaled_cluster(n, max(1, n // 8), 0.5),
            # Half-circle knots: every lower arc is empty, values nearly tie.
            lambda n: kv(np.exp(1j * np.pi * (np.arange(n) + 0.5) / n)),
            lambda n: kv(rng.uniform(0.2, 1.0, n)
                         * np.exp(1j * rng.uniform(0.0, 1.5 * np.pi, n))))
    for n in (2, 3, 5, 8, 12, 17, 24, 31, 39, 48, 400):
        for gen in gens:
            yield gen(n), n == 31
    # The bounds-sweep sets past n = 400: stride 12 and 24, 64 starts.
    for n in (768, 1536):
        for knots in sweep_knots(n):
            yield knots, False


def sweep_knots(n):
    """The four knot sets the bounds sweep builds at n."""
    return (knotgen.quasi_cyclic(n), knotgen.van_der_corput(n),
            knotgen.scaled_cluster(n, n // 8, 0.5),
            knotgen.single_outlier(n, 1.5 * cmath.exp(0.4j)))


def strided_arcs(n, f):
    """(stride, [(j_lo, j_hi, c, r), ...]): the arcs best_arc_search scans."""
    stride = max(1, n // 64)
    t = structmat.cv_knots(n, f)
    return stride, [(j_lo, j_hi) + bounds._chord(t, j_lo, j_hi) for j_lo in range(0, n, stride)
                    for j_hi in range(j_lo + 1, min(n, j_lo + n // 2), stride)]


@pytest.mark.filterwarnings("error")
class TestRotationCounts:
    """m_minus by rotation equals `_count_inside` on every strided arc and eta."""

    ETAS = (1.1, 1.2, 1.5)

    def agrees(self, s, f, eta_grid=ETAS):
        n = len(s)
        stride, arcs = strided_arcs(n, f)
        pts = s.as_array()
        want = bounds._count_inside(np.array([a[2] for a in arcs]),
                                    np.array([a[3] for a in arcs]), pts, eta_grid)
        j_lo, j_hi, got = bounds._arc_counts(structmat.cv_knots(n, f), pts, f, stride, eta_grid)
        assert list(zip(j_lo.tolist(), j_hi.tolist())) == [a[:2] for a in arcs]
        assert got.shape == (len(arcs), len(eta_grid))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [192, 768, 1536])
    def test_sweep_knot_sets(self, n):
        for s in sweep_knots(n):
            for f in (cmath.exp(0.3j), cmath.exp(2.1j)):
                self.agrees(s, f)

    @pytest.mark.parametrize("n", [2, 3, 5, 31, 127, 128, 400, 769])
    def test_small_and_ragged_lattices(self, n):
        # 400 and 769 leave a last gap shorter than the stride.
        for s in (knotgen.van_der_corput(n), knotgen.roots_of_unity(n),
                  knotgen.single_outlier(n, 0)):
            for f in (1.0, cmath.exp(0.3j), -1j):
                self.agrees(s, f)

    @pytest.mark.parametrize("eta", ETAS)
    def test_knots_on_the_inflated_boundary(self, eta):
        n, f = 400, cmath.exp(0.3j)
        stride, arcs = strided_arcs(n, f)
        rng = np.random.default_rng(11)
        pts = list(0.3 * knotgen.unit_roots(n - 100))
        for a in rng.choice(len(arcs), 100, replace=False):
            _, _, c, r = arcs[a]
            lim = eta * r - bounds.BOUNDARY_TOL
            pts.append(c + lim * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        s = kv(pts)
        self.agrees(s, f)
        # Each such knot puts an interval end on a start, so the band opens arcs.
        _, opened = bounds._rotation_counts(s.as_array(), f, n, stride, self.ETAS)
        assert opened.any()

    @pytest.mark.parametrize("n", [31, 128, 400])
    def test_knot_tangent_to_an_inflated_disc(self, n):
        # On the circle |z| = |c| + R, on the ray through c: it touches the
        # disc of the arc from 3 strides, of step 1 + stride, from outside.
        stride = max(1, n // 64)
        a = math.pi * (1 + stride) / n
        for eta in self.ETAS:
            rim = math.cos(a) + eta * math.sin(a) - bounds.BOUNDARY_TOL
            touch = rim * cmath.exp(1j * (2.0 * math.pi * 3 * stride / n + a))
            self.agrees(kv(np.append(0.1 * knotgen.unit_roots(n - 1), touch)), 1.0)

    @pytest.mark.parametrize("n", [5, 31, 400])
    def test_extreme_moduli(self, n):
        base = knotgen.unit_roots(n)[:n - 3]
        for extra in ([1.7e308, -1.7e308, 1e-320], [1.7e308, -1.7e308, 0.0],
                      [1e154, -1e-154, 1e300j]):
            for f in (1.0, cmath.exp(0.3j), -1j):
                self.agrees(kv(np.append(base, extra)), f)

    def test_inflation_past_every_scale(self):
        s = knotgen.quasi_cyclic(400)
        self.agrees(s, cmath.exp(0.3j), (1.0000001, 3.0, 1e10, 1e300))

    @pytest.mark.parametrize("gen", [knotgen.quasi_cyclic, knotgen.van_der_corput])
    def test_few_arcs_left_to_count_inside(self, gen, monkeypatch):
        rows = []
        count_inside = bounds._count_inside

        def spy(centers, *args):
            rows.append(len(centers))
            return count_inside(centers, *args)

        monkeypatch.setattr(bounds, "_count_inside", spy)
        try:
            bounds.best_arc_search(gen(1536), cmath.exp(0.3j))
        except NoPositiveBound:
            pass
        # Counting each arc by brute force gave it all 1552 arcs, plus the
        # certificate's row.  Measured here: no arc, and that one row.
        assert sum(rows) <= 1552 // 100 + 1

    @pytest.mark.parametrize("n", [1536, 4096])
    def test_memory_stays_in_blocks(self, n):
        s = knotgen.quasi_cyclic(n)
        tracemalloc.start()
        try:
            try:
                bounds.best_arc_search(s, cmath.exp(0.3j))
            except NoPositiveBound:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured 1.9 and 2.1 MiB.  One whole d-by-n float table is 1 MiB
        # at n = 4096, and a block holds about a dozen such arrays.
        assert peak <= 3 * 2 ** 20


class TestBestArcSearch:
    def test_matches_reference_loop(self):
        cases = 0
        for knots, exhaustive in arc_corpus():
            for f in (1.0, cmath.exp(0.3j), -1j):
                # The reference scans every arc at n = 31, where the stride
                # of best_arc_search is 1 as well.
                try:
                    want = reference_arc_search(knots, f, exhaustive=exhaustive)
                except NoPositiveBound:
                    with pytest.raises(NoPositiveBound):
                        bounds.best_arc_search(knots, f)
                    continue
                assert bounds.best_arc_search(knots, f) == want
                cases += 1
        assert cases > 40

    def test_uniform_knots_no_positive_bound(self):
        with pytest.raises(NoPositiveBound):
            bounds.best_arc_search(knotgen.roots_of_unity(64), cmath.exp(0.3j))

    def test_tiny_n(self):
        with pytest.raises(NoPositiveBound):
            bounds.best_arc_search(knotgen.roots_of_unity(2), cmath.exp(0.3j))

    def test_quasi_cyclic_positive_and_dominated(self):
        s = knotgen.quasi_cyclic(96)
        cert, rep = bounds.best_arc_search(s, cmath.exp(0.3j))
        assert rep.log10value > 0.0
        assert rep.log10value <= measured_log10_kappa(s)
        assert cert.rho_bar > 0

    def test_deterministic(self):
        s = knotgen.quasi_cyclic(96)
        a = bounds.best_arc_search(s, cmath.exp(0.3j))
        b = bounds.best_arc_search(s, cmath.exp(0.3j))
        assert a[0] == b[0]
        assert a[1].log10value == b[1].log10value

    def test_rotation_invariance(self):
        s = knotgen.quasi_cyclic(96)
        f = cmath.exp(0.3j)
        phase = cmath.exp(0.7j)
        rotated = kv([phase * z for z in s])
        cert_a, rep_a = bounds.best_arc_search(s, f)
        cert_b, rep_b = bounds.best_arc_search(rotated, phase * f)
        assert (cert_a.j_lo, cert_a.j_hi, cert_a.eta,
                cert_a.rho_bar) == (cert_b.j_lo, cert_b.j_hi, cert_b.eta,
                                    cert_b.rho_bar)
        assert abs(rep_a.log10value - rep_b.log10value) < 1e-9


class TestCheckedCvGrid:
    """Arc bounds use the CV grid of cv_knots and hold only for |f| = 1."""

    OFF_CIRCLE = (0.5, 2.0, 0.5 * cmath.exp(0.3j), 0.0)
    NON_FINITE = (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(1.7e308, 1.7e308))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f", OFF_CIRCLE)
    def test_off_circle_f_refused(self, f):
        # Uniform knots have kappa = 1; a bound above 1 here would be false.
        s = knotgen.roots_of_unity(192)
        with pytest.raises(ValueError, match="unit circle"):
            bounds.arc_certificate(s, f, 0, 5, 1.2)
        with pytest.raises(ValueError, match="unit circle"):
            bounds.best_arc_search(s, f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f", NON_FINITE)
    def test_non_finite_f_refused(self, f):
        # as_complex refuses an f of infinite or NaN modulus before the circle test.
        s = knotgen.roots_of_unity(192)
        with pytest.raises(ValueError, match="^f must be finite$"):
            bounds.arc_certificate(s, f, 0, 5, 1.2)
        with pytest.raises(ValueError, match="^f must be finite$"):
            bounds.best_arc_search(s, f)

    @pytest.mark.parametrize("n", [12, 48, 192, 1536])
    @pytest.mark.parametrize("f", [1.0, cmath.exp(0.3j), -1j])
    def test_chord_on_cv_knots(self, n, f):
        s = knotgen.quasi_cyclic(n)
        t = structmat.cv_knots(n, f)
        rng = np.random.default_rng(n)
        # quasi_cyclic(12) has no arc bound above 1 to search for.
        certs = [bounds.best_arc_search(s, f)[0]] if n > 12 else []
        for _ in range(15):
            j_lo = int(rng.integers(0, n - 1))
            l = int(rng.integers(2, min(n // 2, n - j_lo) + 1))
            certs.append(bounds.arc_certificate(s, f, j_lo, j_lo + l - 1, 1.2))
        for cert in certs:
            assert cert.c == 0.5 * (t[cert.j_lo] + t[cert.j_hi])


class TestEvaluators:
    """`bounds.evaluators` is the listing `vandcond bounds` prints."""

    F = cmath.exp(0.3j)
    HEAD = [("easy", "easy"), ("refined-norm", "refined-norm")]
    CLUSTER = [("cluster-literal", "cluster"), ("cluster-computed-norm", "cluster")]
    MIDDLE = [("cv-inverse-paper", "cv-inverse"), ("cv-inverse-corrected", "cv-inverse"),
              ("circle-value", "circle-value"), ("coeff-norm", "coeff-norm")]
    QC = [(f"quasi-cyclic-{m}", f"quasi-cyclic-{m}")
          for m in ("base", "coarse", "refined", "product", "integral")]
    ARC = [("arc", "arc-vandermonde")]

    @pytest.mark.parametrize("make, lines", [
        (lambda: knotgen.quasi_cyclic(48), HEAD + MIDDLE + QC + ARC),
        (lambda: knotgen.quasi_cyclic(47), HEAD + MIDDLE + ARC),
        (lambda: knotgen.scaled_cluster(96, 12, 0.5), HEAD + CLUSTER + MIDDLE + ARC),
        (lambda: knotgen.single_outlier(8, 0), HEAD + CLUSTER + MIDDLE + ARC),
        # Inside the circle means |s| < 1 - structmat.UNIT_F_TOL = 1 - 1e-12.
        (lambda: knotgen.single_outlier(16, (1 - 1e-10) * cmath.exp(-math.pi / 8 * 1j)),
         HEAD + CLUSTER + MIDDLE + ARC),
        (lambda: knotgen.single_outlier(16, (1 - 1e-13) * cmath.exp(-math.pi / 8 * 1j)),
         HEAD + MIDDLE + ARC),
        # The staging lines follow the generator label, not the points.
        (lambda: kv(knotgen.quasi_cyclic(48).as_array()), HEAD + MIDDLE + ARC)],
        ids=["quasi-cyclic-48", "quasi-cyclic-47", "scaled-cluster-96", "outlier-at-0",
             "inside-by-1e-10", "on-circle-by-1e-13", "custom-48"])
    def test_labels_and_ids(self, make, lines):
        listing = bounds.evaluators(make(), self.F)
        assert [(label, bound_id) for label, bound_id, _ in listing] == lines

    @pytest.mark.parametrize("f, message", [(2.0, "unit circle"), (0.0, "unit circle"),
                                            (math.nan, "^f must be finite$")])
    def test_f_off_the_circle_refused(self, f, message):
        with pytest.raises(ValueError, match=message):
            bounds.evaluators(knotgen.quasi_cyclic(48), f)

    def test_building_runs_no_evaluator(self, monkeypatch):
        def boom(*args):
            raise AssertionError("an evaluator ran")

        monkeypatch.setattr(bounds, "bound_cv", boom)
        listing = bounds.evaluators(knotgen.quasi_cyclic(48), self.F)
        # Only VandcondError and ValueError become refusals; this propagates.
        with pytest.raises(AssertionError, match="an evaluator ran"):
            {label: thunk for label, _, thunk in listing}["cv-inverse-paper"]()

    @pytest.mark.parametrize("make, label, reason", [
        (lambda: knotgen.single_outlier(8, 0), "cluster-computed-norm",
         "ValueError: nu must be a finite number above 1, got inf"),
        (lambda: knotgen.quasi_cyclic(36), "quasi-cyclic-base",
         "ValueError: mode 'base' requires q to be a power of two (q=12)"),
        (lambda: knotgen.roots_of_unity(8), "refined-norm",
         "UnitRadius: largest knot modulus is 1; geometric sum degenerates"),
        (lambda: knotgen.roots_of_unity(8), "arc",
         "NoPositiveBound: no arc certificate yields a bound above 1; "
         "knots are evenly spaced or n is too small")],
        ids=["cluster-nu-inf", "qc-base-q12", "refined-unit-radius", "arc-no-bound"])
    def test_thunk_returns_its_refusal(self, make, label, reason):
        listing = {lab: (bound_id, thunk)
                   for lab, bound_id, thunk in bounds.evaluators(make(), self.F)}
        bound_id, thunk = listing[label]
        assert thunk() == bounds.BoundReport(bound_id, -math.inf, None, {},
                                             applicable=False, reason=reason)

    @pytest.mark.parametrize("argv", [
        "--gen quasi-cyclic --n 48", "--gen quasi-cyclic --n 36",
        "--gen quasi-cyclic --n 47", "--gen van-der-corput --n 192",
        "--gen scaled-cluster --n 96 --k 12 --rho 0.5",
        "--gen single-outlier --n 8 --s-last 0,0",
        "--gen single-outlier --n 40 --s-last 1.5,0.2", "--gen dft --n 64",
        "--gen file --file subnormal.txt", "--gen file --file huge.txt",
        "--gen quasi-cyclic --n 12 --f 2"])
    def test_cli_prints_the_listing(self, argv, tmp_path, monkeypatch, capsys):
        from vandcond import cli
        (tmp_path / "subnormal.txt").write_text("1e-320,0\n1,0\n-1,0\n")
        (tmp_path / "huge.txt").write_text("1.7e308,0\n-1.7e308,0\n")
        monkeypatch.chdir(tmp_path)
        argv = ["bounds", *argv.split()]
        parser = cli.build_parser()
        args = parser.parse_args(argv)
        try:
            listing = bounds.evaluators(cli._resolve_knots(args, parser), args.f)
        except ValueError:
            listing = []
        expected = [cli._report_line(thunk()) + "\n" for _, _, thunk in listing]
        code = cli.main(argv)
        assert code == (0 if listing else 2)
        assert capsys.readouterr().out == "".join(expected)


class TestEmpiricalDominance:
    """Measured condition numbers dominate all conservative bounds."""

    def test_outlier_configs(self):
        for s_val in (1.140625, 1.5625, 3.25, 10.0):
            knots = knotgen.single_outlier(64, s_val)
            kappa = measured_log10_kappa(knots)
            assert kappa >= bounds.bound_easy(knots).log10value - 1e-9
            cv = bounds.bound_cv(knots, cmath.exp(0.17j), CORRECTED)
            assert kappa >= cv.log10value - 1e-9

    def test_cluster_configs(self):
        for k in (8, 16, 32):
            for rho in (0.75, 0.5):
                knots = knotgen.scaled_cluster(64, k, rho)
                kappa = measured_log10_kappa(knots)
                for mode in ("literal", "computed-norm"):
                    rep = bounds.bound_cluster(knots, k, 1.0 / rho, mode)
                    assert kappa >= rep.log10value - 1e-9

    def test_quasi_cyclic_corrected_cv(self):
        for q in (4, 8, 16):
            knots = knotgen.quasi_cyclic(3 * q)
            kappa = measured_log10_kappa(knots)
            rep = bounds.bound_cv(knots, cmath.exp(0.17j), CORRECTED)
            assert kappa >= rep.log10value - 1e-9

    def test_arc_bound_dominated(self):
        s = knotgen.quasi_cyclic(96)
        _, rep = bounds.best_arc_search(s, cmath.exp(0.3j))
        assert measured_log10_kappa(s) >= rep.log10value

    def test_every_conservative_report_below_the_svd(self):
        # Every applicable report that is not a paper variant, from the
        # listing `vandcond bounds` prints, against the SVD kappa wherever
        # that is trusted; refined-norm is compared through its kappa bound.
        gens = [knotgen.roots_of_unity, knotgen.quasi_cyclic, knotgen.van_der_corput,
                lambda n: knotgen.single_outlier(n, 1.5),
                lambda n: knotgen.single_outlier(n, 0.5),
                lambda n: knotgen.scaled_cluster(n, max(1, n // 8), 0.75),
                lambda n: knotgen.scaled_cluster(n, max(1, n // 8), 0.5)]
        checked, violations = 0, []
        for gen in gens:
            for n in (8, 16, 48, 96, 192):
                s = gen(n)
                sv = spectral.singular_values(structmat.vandermonde(s))
                if not sv.trustworthy:
                    continue
                # The whole listing at one f; at a second f only the lines that use f.
                thunks = [thunk for _, _, thunk in bounds.evaluators(s, cmath.exp(0.3j))]
                thunks += [thunk for label, _, thunk in bounds.evaluators(s, cmath.exp(0.5j))
                           if label in ("cv-inverse-paper", "cv-inverse-corrected", "arc")]
                for thunk in thunks:
                    rep = thunk()
                    if not rep.applicable or rep.variant == PAPER.value:
                        continue
                    checked += 1
                    value = rep.params.get("log10_kappa_bound", rep.log10value)
                    if value > sv.log10kappa + 1e-9 * max(1.0, abs(sv.log10kappa)):
                        violations.append((s.label, n, rep.bound_id, rep.params.get("norm"),
                                           value, sv.log10kappa))
        assert violations == []
        assert checked == 128
