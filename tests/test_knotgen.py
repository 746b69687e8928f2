import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from vandcond import cli, knotgen, structmat
from vandcond.errors import DuplicateKnot, VandcondError

# Frozen fraction sequences, checked term by term against the reference
# display of the first 16 values.
QUASI_CYCLIC_16 = [0, 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8,
                   1/16, 3/16, 5/16, 7/16, 9/16, 11/16, 13/16, 15/16]
VAN_DER_CORPUT_16 = [0, 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, 7/8,
                     1/16, 9/16, 5/16, 13/16, 3/16, 11/16, 7/16, 15/16]


def angles_of(kv):
    return np.angle(kv.as_array())


class TestExplicitPoints:
    def test_singleton(self):
        kv = knotgen.KnotVector([1])
        assert len(kv) == 1
        assert kv[0] == 1

    def test_duplicate_below_tolerance(self):
        with pytest.raises(DuplicateKnot) as err:
            knotgen.KnotVector([1, 1 + 1e-16], tol=1e-13)
        assert {err.value.i, err.value.j} == {0, 1}

    def test_distinct_reals(self):
        kv = knotgen.KnotVector([0, 1, -1])
        assert len(kv) == 3
        assert kv.label == "custom"

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
    def test_nan_or_negative_tol_is_invalid_argument(self, tol):
        # Both once accepted the duplicate knot below.
        with pytest.raises(ValueError, match=r"^tol must be >= 0, got ") as err:
            knotgen.KnotVector([1, 1, 2], tol=tol)
        assert not isinstance(err.value, VandcondError)

    def test_zero_and_infinite_tol(self):
        # A gap of 0 collides at any tol >= 0; at tol = 0 nothing else does.
        for tol in (0.0, math.inf):
            with pytest.raises(DuplicateKnot):
                knotgen.KnotVector([1, 1, 2], tol=tol)
        assert len(knotgen.KnotVector([1, 1 + 1e-15, 2], tol=0.0)) == 3
        assert len(knotgen.KnotVector([2j], tol=math.inf)) == 1

    def test_empty_raises(self):
        # An argument error (exit 2), not a numeric failure.
        with pytest.raises(ValueError,
                           match=r"^knot vector must contain at least one knot$") as err:
            knotgen.KnotVector([])
        assert not isinstance(err.value, VandcondError)


class TestKnotArray:
    def test_read_only_array_without_copies(self):
        kv = knotgen.quasi_cyclic(12)
        assert isinstance(kv.knots, np.ndarray)
        assert kv.knots.dtype == np.complex128
        assert not kv.knots.flags.writeable
        assert kv.as_array() is kv.knots
        with pytest.raises(ValueError):
            kv.knots[0] = 5

    def test_later_writes_to_caller_data_do_not_reach(self):
        pts = [1, 2j, -3]
        arr = np.array(pts, dtype=complex)
        from_list, from_array = knotgen.KnotVector(pts), knotgen.KnotVector(arr)
        pts[0] = 7
        arr[0] = 7
        assert from_list[0] == 1 and from_array[0] == 1

    @pytest.mark.parametrize("points, error", [
        ([1, 1, 2], DuplicateKnot), ([1, 2, complex("nan")], ValueError),
        ([1, 1, complex("nan")], ValueError), ([], ValueError)])
    def test_direct_construction_checks(self, points, error):
        with pytest.raises(error):
            knotgen.KnotVector(points)

    def test_direct_construction_copies_and_freezes(self):
        arr = np.array([1, 2j, -3], dtype=complex)
        kv = knotgen.KnotVector(arr, "direct")
        arr[0] = 7
        assert kv[0] == 1 and kv.label == "direct"
        assert not kv.knots.flags.writeable
        with pytest.raises(DuplicateKnot):
            knotgen.KnotVector([0, 1e-3], tol=1e-2)

    def test_scan_memory_is_blocked(self):
        # The n x n table of the old check peaked at 384 MB here.
        tracemalloc.start()
        try:
            knotgen.van_der_corput(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


class TestNonFiniteKnots:
    @pytest.mark.parametrize("points", [[1, complex("nan")], [complex("nan")] * 2,
                                        [1, complex("inf")], [complex(0, float("-inf"))]])
    def test_explicit_points(self, points):
        with pytest.raises(ValueError, match="finite"):
            knotgen.KnotVector(points)

    @pytest.mark.parametrize("points", [[1, complex(1.5e308, 1.5e308)],
                                        [complex(-1.7e308, 1.7e308)]])
    def test_modulus_overflow(self, points, recwarn):
        # Finite parts, but |s| = inf.
        with pytest.raises(ValueError, match="knots must be finite"):
            knotgen.KnotVector(points)
        with pytest.raises(ValueError, match="knots must be finite"):
            knotgen.single_outlier(8, points[-1])
        assert len(recwarn) == 0

    @pytest.mark.filterwarnings("error")
    def test_gap_past_the_float_range(self, tmp_path, capsys):
        # 1.7e308 - (-1.7e308) overflows to a gap of inf: accepted, no warning.
        points = [1.7e308, -1.7e308]
        assert knotgen.KnotVector(points).as_array().tolist() == points
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("1.7e308,0\n-1.7e308,0\n")
        assert cli.main(["gen-knots", "--gen", "file", "--file", str(src),
                         "--out", str(dst)]) == 0
        assert capsys.readouterr().err == ""
        assert knotgen.read_knots(dst).as_array().tolist() == points

    @pytest.mark.parametrize("line", ["nan,0", "inf,0", "0,-inf"])
    def test_read_knots(self, tmp_path, line):
        path = tmp_path / "knots.txt"
        path.write_text(f"1,0\n{line}\n")
        with pytest.raises(ValueError, match="finite"):
            knotgen.read_knots(path)

    @pytest.mark.parametrize("line", ["nan,0", "inf,0"])
    def test_cli_exits_2_without_warning(self, tmp_path, capsys, recwarn, line):
        path = tmp_path / "knots.txt"
        path.write_text(f"1,0\n{line}\n")
        assert cli.main(["bounds", "--gen", "file", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err
        assert len(recwarn) == 0

    def test_cli_refuses_an_overflowing_modulus(self, capsys, recwarn):
        # Every bound used to be listed, four of them applicable with no value.
        assert cli.main(["bounds", "--gen", "single-outlier", "--n", "8",
                         "--s-last", "1.5e308,1.5e308"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: knots must be finite\n")
        assert len(recwarn) == 0


class TestRootsOfUnity:
    def test_n1(self):
        assert knotgen.roots_of_unity(1).knots == (1 + 0j,)

    def test_n4(self):
        kv = knotgen.roots_of_unity(4)
        expect = [1, 1j, -1, -1j]
        assert np.allclose(kv.as_array(), expect, atol=1e-15)

    def test_eighth_root(self):
        kv = knotgen.roots_of_unity(8)
        expect = (math.sqrt(2) / 2) * (1 + 1j)
        assert abs(kv[1] - expect) < 1e-15

    def test_label(self):
        assert knotgen.roots_of_unity(5).label == "dft"


class TestQuasiCyclic:
    def test_fraction_list(self):
        assert knotgen.quasi_cyclic_fractions(16) == QUASI_CYCLIC_16

    def test_f9(self):
        assert knotgen.quasi_cyclic_fractions(10)[9] == 3 / 16

    def test_n1(self):
        assert knotgen.quasi_cyclic(1).knots == (1 + 0j,)

    def test_knots_match_fractions(self):
        kv = knotgen.quasi_cyclic(8)
        expect = [cmath.exp(2j * cmath.pi * f) for f in QUASI_CYCLIC_16[:8]]
        assert np.allclose(kv.as_array(), expect, atol=1e-15)


class TestVanDerCorput:
    def test_fraction_list(self):
        fr = [knotgen.radical_inverse(i) for i in range(16)]
        assert fr == VAN_DER_CORPUT_16

    def test_f9(self):
        assert knotgen.radical_inverse(9) == 9 / 16

    def test_f0(self):
        assert knotgen.radical_inverse(0) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 300, 4096, 5000])
    def test_array_form_equals_the_per_knot_loop(self, n):
        def one(i):
            f, scale = 0.0, 0.5
            while i:
                if i & 1:
                    f += scale
                i >>= 1
                scale *= 0.5
            return f

        ref = np.exp(2j * np.pi * np.array([one(i) for i in range(n)]))
        assert knotgen.van_der_corput(n).as_array().tobytes() == ref.tobytes()

    def test_prefix_property(self):
        full = knotgen.van_der_corput(64)
        for m in (1, 5, 16, 33, 64):
            assert tuple(full.knots[:m]) == tuple(knotgen.van_der_corput(m).knots)


class TestSingleOutlier:
    def test_two_knots(self):
        kv = knotgen.single_outlier(2, 2)
        assert np.allclose(kv.as_array(), [1, 2])

    def test_collision_with_retained_root(self):
        with pytest.raises(DuplicateKnot):
            knotgen.single_outlier(4, 1j)  # 1j is omega_4^1, retained

    def test_last_root_recovers_dft_set(self):
        w3 = cmath.exp(2j * cmath.pi * 3 / 4)
        kv = knotgen.single_outlier(4, w3)
        got = np.sort_complex(kv.as_array())
        want = np.sort_complex(knotgen.roots_of_unity(4).as_array())
        assert np.allclose(got, want, atol=1e-15)

    def test_table_configuration(self):
        kv = knotgen.single_outlier(64, 1.140625)
        assert len(kv) == 64
        assert kv[63] == 1.140625
        assert kv.label == "single-outlier"


class TestDftPlusOutlier:
    def test_length_is_n_plus_one(self):
        kv = knotgen.dft_plus_outlier(8, 1.25)
        assert len(kv) == 9
        assert kv[8] == 1.25
        got = np.sort_complex(kv.as_array()[:8])
        want = np.sort_complex(knotgen.roots_of_unity(8).as_array())
        assert np.allclose(got, want, atol=1e-15)


class TestScaledCluster:
    def test_small_direct(self):
        kv = knotgen.scaled_cluster(4, 1, 0.5)
        w3 = cmath.exp(2j * cmath.pi / 3)
        assert np.allclose(kv.as_array(), [1, w3, w3 ** 2, 0.5], atol=1e-15)

    def test_three_knots(self):
        kv = knotgen.scaled_cluster(3, 1, 0.75)
        assert np.allclose(kv.as_array(), [1, -1, 0.75], atol=1e-15)

    def test_total_count(self):
        kv = knotgen.scaled_cluster(64, 8, 0.5)
        assert len(kv) == 64
        moduli = np.abs(kv.as_array())
        assert np.sum(np.isclose(moduli, 0.5)) == 8
        assert np.sum(np.isclose(moduli, 1.0)) == 56

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            knotgen.scaled_cluster(4, 4, 0.5)
        with pytest.raises(ValueError):
            knotgen.scaled_cluster(4, 1, 1.5)


class TestInvariants:
    @pytest.mark.parametrize("kv_factory", [
        lambda: knotgen.roots_of_unity(1024),
        lambda: knotgen.quasi_cyclic(1000),
        lambda: knotgen.van_der_corput(1024),
        lambda: knotgen.single_outlier(512, 1.5),
        lambda: knotgen.scaled_cluster(512, 32, 0.5),
        lambda: knotgen.dft_plus_outlier(256, 1.25),
    ])
    def test_distinctness_at_scale(self, kv_factory):
        kv = kv_factory()  # construction itself runs the distinctness check
        assert len(kv) >= 256

    @pytest.mark.parametrize("k", range(1, 11))
    def test_power_of_two_sets_agree(self, k):
        n = 2 ** k
        want = np.sort(angles_of(knotgen.roots_of_unity(n)))
        for gen in (knotgen.quasi_cyclic, knotgen.van_der_corput):
            got = np.sort(angles_of(gen(n)))
            assert np.allclose(got, want, atol=1e-13)

    def test_unit_modulus(self):
        for kv in (knotgen.roots_of_unity(300), knotgen.quasi_cyclic(300),
                   knotgen.van_der_corput(300)):
            assert np.max(np.abs(np.abs(kv.as_array()) - 1.0)) <= 1e-14
        kv = knotgen.single_outlier(64, 2.5)
        assert np.max(np.abs(np.abs(kv.as_array()[:-1]) - 1.0)) <= 1e-14


def reference_roots(n):
    """The per-element cmath comprehension the generators used to inline."""
    return [cmath.exp(2j * cmath.pi * (i / n)) for i in range(n)]


class TestKnotBytes:
    """Knot arrays are bit-for-bit the per-element cmath values."""

    GENERATORS = {
        "dft": (knotgen.roots_of_unity, reference_roots),
        "quasi-cyclic": (knotgen.quasi_cyclic, lambda n: [
            cmath.exp(2j * cmath.pi * f) for f in knotgen.quasi_cyclic_fractions(n)]),
        "van-der-corput": (knotgen.van_der_corput, lambda n: [
            cmath.exp(2j * cmath.pi * knotgen.radical_inverse(i)) for i in range(n)]),
        "single-outlier": (lambda n: knotgen.single_outlier(n, 1.5 * cmath.exp(0.4j)),
                           lambda n: reference_roots(n)[:n - 1] + [1.5 * cmath.exp(0.4j)]),
        "dft-plus-outlier": (lambda n: knotgen.dft_plus_outlier(n, 0.3 + 0.2j),
                             lambda n: reference_roots(n) + [0.3 + 0.2j]),
        "scaled-cluster": (lambda n: knotgen.scaled_cluster(n, max(1, n // 3), 0.3),
                           lambda n: reference_roots(n - max(1, n // 3))
                           + [0.3 * z for z in reference_roots(max(1, n // 3))]),
    }

    # single_outlier and scaled_cluster need n >= 2.
    @pytest.mark.parametrize("name, n", [
        (name, n) for name in GENERATORS for n in (1, 2, 3, 7, 64, 1000, 1536, 4096)
        if n > 1 or name not in ("single-outlier", "scaled-cluster")])
    def test_generator(self, name, n):
        gen, ref = self.GENERATORS[name]
        want = np.array(ref(n), dtype=np.complex128)
        assert gen(n).as_array().tobytes() == want.tobytes()

    # 24576 = 16 * 1536 is the circle-scan grid of max_abs_on_circle at n = 1536.
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 24576])
    @pytest.mark.parametrize("f", [1.0, cmath.exp(0.3j), 2.0, -1j])
    def test_cv_grid(self, n, f):
        want = complex(f) * np.array(reference_roots(n), dtype=np.complex128)
        assert structmat.cv_knots(n, f).tobytes() == want.tobytes()

    @pytest.mark.parametrize("f", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                   complex(1.7e308, 1.7e308)])
    def test_cv_grid_needs_finite_modulus(self, f):
        with pytest.raises(ValueError, match="f must be finite"):
            structmat.cv_knots(4, f)


class TestKnotFiles:
    def test_roundtrip(self, tmp_path):
        kv = knotgen.quasi_cyclic(48)
        path = tmp_path / "knots.txt"
        knotgen.write_knots(kv, path)
        back = knotgen.read_knots(path)
        assert tuple(back.knots) == tuple(kv.knots)
        assert back.label == "file"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "knots.txt"
        path.write_text("# header\n\n0.5,0\n# mid comment\n-0.25,1\n")
        kv = knotgen.read_knots(path)
        assert tuple(kv.knots) == (0.5 + 0j, -0.25 + 1j)

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "knots.txt"
        path.write_text("1,0\nnot-a-knot\n")
        with pytest.raises(ValueError, match="2"):
            knotgen.read_knots(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "knots.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: no knots found")) as err:
            knotgen.read_knots(path)
        assert not isinstance(err.value, VandcondError)


def assert_file_roundtrip_bit_exact(kv, path):
    knotgen.write_knots(kv, path)
    back = knotgen.read_knots(path)
    # uint64 views tell -0.0 from 0.0 and every subnormal apart.
    assert back.as_array().view(np.uint64).tolist() == kv.as_array().view(np.uint64).tolist()


#: Signed zeros, subnormals and parts near the float limit, pairwise distinct
#: and free of overflow in their differences.
EDGE_KNOTS = [complex(0.0, -0.0), complex(-0.0, 1.0), complex(1.0, -0.0),
              complex(-2.0, 0.0), complex(5e-324, -3.0),
              complex(-2.2250738585072009e-308, 3.0),
              complex(4.0, 2.2250738585072014e-308), complex(-4.0, -5e-324),
              complex(1.7976931348623157e308, 0.0), complex(1e308, 5.0),
              complex(0.0, 1.5e308), complex(7.0, 1.2345678901234567e307)]


def philox_knots(seed, n, arbitrary):
    """n knots: one part on a grid of step 4 (so the knots are distinct), the
    other any finite double of one sign (so no difference overflows)."""
    rng = np.random.Generator(np.random.Philox(seed))
    wild = rng.integers(0, 2 ** 63, size=n, dtype=np.uint64).view(np.float64)
    wild = np.where(np.isfinite(wild), wild, 1.0)
    grid = 4.0 * (np.arange(n) - n // 2)
    if arbitrary == "imag":
        return grid + 1j * wild
    return -wild + 1j * grid


class TestKnotFileRoundTrip:
    """read_knots(write_knots(kv)) gives back every bit of every knot."""

    @pytest.mark.parametrize("name, n", [
        (name, n) for name in TestKnotBytes.GENERATORS for n in (1, 2, 7, 64, 1000)
        if n > 1 or name not in ("single-outlier", "scaled-cluster")])
    def test_every_generator(self, name, n, tmp_path):
        gen, _ = TestKnotBytes.GENERATORS[name]
        assert_file_roundtrip_bit_exact(gen(n), tmp_path / "k.txt")

    def test_edge_values(self, tmp_path):
        assert_file_roundtrip_bit_exact(knotgen.KnotVector(EDGE_KNOTS), tmp_path / "k.txt")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("arbitrary", ["real", "imag"])
    def test_philox_points(self, seed, arbitrary, tmp_path):
        kv = knotgen.KnotVector(philox_knots(seed, 512, arbitrary))
        assert_file_roundtrip_bit_exact(kv, tmp_path / "k.txt")
