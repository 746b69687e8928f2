import io
import types

import mpmath
import numpy as np
import pytest

from vandcond import knotgen, logdomain, structmat
from vandcond.errors import KnotCollision, RangeOverflow, VandcondError


def kv(points):
    return knotgen.KnotVector(points)


class TestVandermonde:
    def test_two_by_two(self):
        V = structmat.vandermonde(kv([0, 1]))
        assert np.array_equal(V.data, np.array([[1, 0], [1, 1]], dtype=complex))

    def test_roots_of_unity_two(self):
        V = structmat.vandermonde(knotgen.roots_of_unity(2))
        assert np.allclose(V.data, [[1, 1], [1, -1]], atol=1e-15)

    def test_scaled_unitary(self):
        # (1/sqrt(n)) V on the n-th roots of 1 is unitary: all sigma = sqrt(n).
        V = structmat.vandermonde(knotgen.roots_of_unity(16))
        sigma = np.linalg.svd(V.data, compute_uv=False)
        assert np.allclose(sigma, 4.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 128, 130])
    def test_bits_of_a_column_by_column_fill(self, n):
        # The build goes by bands of rows of the transpose; the products,
        # their order and the C layout must match the plain column recurrence.
        s = knotgen.scaled_cluster(n, max(1, n // 8), 0.5)
        ref = np.ones((n, n), dtype=complex)
        for j in range(1, n):
            ref[:, j] = ref[:, j - 1] * s.as_array()
        V = structmat.vandermonde(s).data
        assert V.flags.c_contiguous
        assert V.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n, lo, hi", [(2, 0, 1), (65, 64, 65), (130, 3, 67), (200, 72, 200)])
    def test_power_bands_of_a_slice_give_its_rows(self, n, lo, hi):
        # The GENP residual builds rows lo..hi of A from the bands of those
        # knots alone; they must be the bits of the whole matrix's rows.
        pts = knotgen.scaled_cluster(n, max(1, n // 8), 0.5).as_array()
        rows = np.empty((hi - lo, n), dtype=complex)
        starts = []
        for j, band in structmat.power_bands(pts[lo:hi], n):
            assert band.shape == (min(64, n - j), hi - lo)
            rows[:, j:j + len(band)] = band.T
            starts.append(j)
        assert starts == list(range(0, n, 64))
        assert rows.tobytes() == structmat.vandermonde_array(pts)[lo:hi].tobytes()

    def test_overflow(self):
        pts = 1e5 * knotgen.roots_of_unity(80).as_array()
        with pytest.raises(RangeOverflow):
            structmat.vandermonde(knotgen.KnotVector(list(pts)))

    @pytest.mark.parametrize("n", [2, 80, 1024])
    @pytest.mark.parametrize("offset", [0.0, 0.37], ids=["on-grid", "off-grid"])
    def test_largest_radius_that_passes_builds_finite(self, n, offset):
        # The precheck caps every |s_i**j| at 10**OVERFLOW_LOG10, which leaves
        # the complex products room below the float range.
        unit = np.exp(2j * np.pi * (np.arange(n) + offset) / n)
        r = 10.0 ** (structmat.OVERFLOW_LOG10 / (n - 1))
        while (n - 1) * np.log10(np.max(np.abs(r * unit))) > structmat.OVERFLOW_LOG10:
            r = np.nextafter(r, 0.0)
        V = structmat.vandermonde(kv(r * unit)).data
        assert np.all(np.isfinite(V))
        assert abs(np.log10(np.max(np.abs(V))) - structmat.OVERFLOW_LOG10) < 1e-9

    def test_immutable(self):
        V = structmat.vandermonde(kv([0, 1]))
        with pytest.raises(ValueError):
            V.data[0, 0] = 5.0

    def test_caller_array_stays_writeable(self):
        a = np.eye(3, dtype=complex)
        M = structmat.DenseMatrix(a)
        assert a.flags.writeable
        assert not M.data.flags.writeable
        a[0, 1] = 2.0

    def test_later_writes_to_caller_array_do_not_reach_matrix(self):
        a = np.eye(3, dtype=complex)
        M = structmat.DenseMatrix(a)
        a[0, 0] = np.inf
        assert M.data[0, 0] == 1.0
        # A read-only view of writeable memory is copied as well.
        b = np.eye(3, dtype=complex)
        view = b.view()
        view.flags.writeable = False
        M = structmat.DenseMatrix(view)
        b[1, 1] = 7.0
        assert M.data[1, 1] == 1.0

    def test_read_only_input_is_copied(self):
        # The owner of an array may turn writeable back on, so read-only
        # input is no promise that the memory stays put.
        a = np.eye(3, dtype=complex)
        a.flags.writeable = False
        M = structmat.DenseMatrix(a)
        a.flags.writeable = True
        a[0, 0] = np.inf
        assert M.data[0, 0] == 1.0

    def test_handover_without_copy(self):
        a = np.eye(3, dtype=complex)
        M = structmat.DenseMatrix(a, copy=False)
        assert M.data is a and not a.flags.writeable
        with pytest.raises(ValueError):
            structmat.DenseMatrix(np.full((1, 1), np.nan, dtype=complex), copy=False)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            structmat.DenseMatrix(np.array([[np.inf, 0], [0, 1]], dtype=complex))


class TestDft:
    def test_two(self):
        assert np.allclose(structmat.dft(2).data, [[1, 1], [1, -1]], atol=1e-15)

    def test_times_conjugate_transpose(self):
        Om = structmat.dft(4).data
        assert np.allclose(Om @ Om.conj().T, 4 * np.eye(4), atol=1e-12)

    def test_spectral_norm(self):
        Om = structmat.dft(16).data
        assert abs(np.linalg.svd(Om, compute_uv=False)[0] - 4.0) < 1e-12

    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_inverse_is_scaled_conjugate(self, n):
        Om = structmat.dft(n).data
        assert np.max(np.abs(Om @ Om.conj().T - n * np.eye(n))) <= 1e-12 * n


class TestCauchy:
    def test_one_by_one(self):
        C = structmat.cauchy(kv([2]), kv([0]))
        assert C.data[0, 0] == 0.5

    @pytest.mark.parametrize("cols", [4, 3])
    def test_filled_in_blocks_with_the_check(self, monkeypatch, cols):
        # CHUNK = 7 gives blocks of one row for 4 columns, of two for 3.
        monkeypatch.setattr(logdomain, "CHUNK", 7)
        rng = np.random.Generator(np.random.Philox(8))
        sp = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        tp = rng.standard_normal(4) + 1j * rng.standard_normal(4) + 5
        C = structmat.cauchy(kv(sp), kv(tp[:cols]))
        assert np.array_equal(C.data, 1.0 / (sp[:, None] - tp[None, :cols]))
        tp[3] = sp[6]  # an exact hit in a later block raises, no warning
        with pytest.raises(KnotCollision) as info:
            structmat.cauchy(kv(sp), kv(tp))
        assert (info.value.i, info.value.j) == (6, 3)

    def test_two_by_two_against_determinant(self):
        C = structmat.cauchy(kv([2, 3]), kv([0, 1]))
        assert np.allclose(C.data, [[0.5, 1.0], [1 / 3, 0.5]], atol=1e-15)
        assert abs(np.linalg.det(C.data) - (-1 / 12)) < 1e-15

    def test_scaling_invariance(self):
        s, t = kv([2, 3, 5]), kv([0, 1, -1])
        a = 2.0
        C = structmat.cauchy(s, t)
        Ca = structmat.cauchy(kv([a * z for z in s]), kv([a * z for z in t]))
        assert np.allclose(a * Ca.data, C.data, atol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.Generator(np.random.Philox(5))
        s = kv(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        t = kv(rng.standard_normal(5) + 5 + 1j * rng.standard_normal(5))
        a = complex(rng.standard_normal(), rng.standard_normal())
        C = structmat.cauchy(s, t)
        Cs = structmat.cauchy(kv([z + a for z in s]), kv([z + a for z in t]))
        assert np.max(np.abs(Cs.data - C.data)) < 1e-12

    def test_every_submatrix_is_cauchy(self):
        s, t = kv([2, 3, 5, 7]), kv([0, 1, -1, -2])
        C = structmat.cauchy(s, t)
        rows, cols = [0, 2, 3], [1, 3]
        sub = C.data[np.ix_(rows, cols)]
        direct = structmat.cauchy(kv([s[i] for i in rows]),
                                  kv([t[j] for j in cols]))
        assert np.array_equal(sub, direct.data)

    def test_rectangular(self):
        C = structmat.cauchy(kv([2, 3, 5]), kv([0, 1]))
        assert (C.rows, C.cols) == (3, 2)

    def test_collision(self):
        with pytest.raises(KnotCollision):
            structmat.cauchy(kv([1, 2]), kv([2 + 1e-15, 5]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s, t", [
        ([1.7e308], [-1.7e308]),                  # the difference overflows
        ([1e308 + 1e308j], [-1e308 - 1e308j]),    # so does x/2 - k/2's divisor
        ([1e308 + 1e308j], [0.0]),                # only numpy's divisor does
        ([1.2e308 + 1.2e308j, 3.0], [-5e307, 1e308j, 2.0]),
        ([3.0, 1.2e308 + 1.2e308j], [-5e307, 1e308j, 2.0])])
    def test_entries_near_the_float_range_match_mpmath(self, monkeypatch, s, t):
        # One row of three knots per block: the last case's huge row is the
        # second block's, so its retake must read the block's own rows of s.
        monkeypatch.setattr(logdomain, "CHUNK", 3)
        C = structmat.cauchy(kv(s), kv(t)).data
        for i, x in enumerate(s):
            for j, k in enumerate(t):
                want = 1 / (mpmath.mpc(x) - mpmath.mpc(k))
                assert abs(mpmath.mpc(C[i, j]) - want) <= 1e-12 * abs(want)


class TestCvMatrix:
    def test_one_by_one(self):
        C = structmat.cv_matrix(kv([2]), 1.0)
        assert C.data[0, 0] == 1.0

    def test_matches_general_cauchy(self):
        rng = np.random.Generator(np.random.Philox(6))
        pts = 2 * rng.standard_normal(6) + 2j * rng.standard_normal(6) + 3
        s = kv(pts)
        f = np.exp(0.37j)
        grid = knotgen.KnotVector(list(f * knotgen.roots_of_unity(6).as_array()))
        assert np.allclose(structmat.cv_matrix(s, f).data,
                           structmat.cauchy(s, grid).data, atol=1e-14)

    def test_hand_evaluated_two_by_two(self):
        C = structmat.cv_matrix(knotgen.roots_of_unity(2), 1j)
        expect = 0.5 * np.array([[1 + 1j, 1 - 1j], [-1 + 1j, -1 - 1j]])
        assert np.allclose(C.data, expect, atol=1e-15)

    def test_collision_reported(self):
        with pytest.raises(KnotCollision):
            structmat.cv_matrix(knotgen.roots_of_unity(4), 1.0)


class TestLeadingBlock:
    def test_half_dft_condition(self):
        B = structmat.leading_block(structmat.dft(8), 4)
        sigma = np.linalg.svd(B.data, compute_uv=False)
        kappa = sigma[0] / sigma[-1]
        assert abs(kappa - 15.3) / 15.3 < 0.02

    def test_identity_case(self):
        M = structmat.dft(4)
        assert np.array_equal(structmat.leading_block(M, 4).data, M.data)

    def test_one_by_one(self):
        assert structmat.leading_block(structmat.dft(4), 1).data[0, 0] == 1

    def test_too_large(self):
        with pytest.raises(ValueError,
                           match=r"^q=5 is outside 1\.\.4 for the 4x4 matrix$") as err:
            structmat.leading_block(structmat.dft(4), 5)
        assert not isinstance(err.value, VandcondError)

    @pytest.mark.parametrize("q", [0, 5])
    def test_error_names_valid_range(self, q):
        with pytest.raises(ValueError, match=r"1\.\.4") as err:
            structmat.leading_block(structmat.dft(4), q)
        assert not isinstance(err.value, VandcondError)


class TestDumpFormat:
    def test_roundtrip(self):
        M = structmat.cv_matrix(knotgen.van_der_corput(5), np.exp(0.3j))
        buf = io.StringIO()
        structmat.dump_matrix(M, buf)
        buf.seek(0)
        header = buf.readline().split()
        assert header == ["5", "5"]
        assert np.array_equal(loaded(buf.getvalue()), M.data)


def reference_dump(M) -> str:
    """The per-entry writer the row-at-a-time `dump_matrix` replaced."""
    fh = io.StringIO()
    fh.write(f"{M.rows} {M.cols}\n")
    for z in M.data.ravel(order="C"):
        fh.write(f"{z.real:.17g},{z.imag:.17g}\n")
    return fh.getvalue()


def loaded(text: str) -> np.ndarray:
    """The entries of a `dump_matrix` text, read back with numpy."""
    rows, cols = map(int, text.split("\n", 1)[0].split())
    pairs = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return pairs.view(np.complex128).reshape(rows, cols)


def dumped(M) -> str:
    fh = io.StringIO()
    structmat.dump_matrix(M, fh)
    return fh.getvalue()


#: Values whose printed form is easy to get wrong: signed zeros, the float
#: extremes and a number that needs all 17 digits.
AWKWARD = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
           0.1, -1.0 / 3.0, 1e16, 123456789.0]


def complex_from(pool, shape, seed):
    """Entries whose real and imaginary parts are drawn from `pool` as is."""
    rng = np.random.default_rng(seed)
    data = np.empty(shape, dtype=complex)
    data.real, data.imag = rng.choice(pool, size=shape), rng.choice(pool, size=shape)
    data.flat[0] = complex(pool[0], pool[0])
    return data


class TestDumpBytes:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (5, 5)])
    def test_bytes_match_per_entry_writer(self, shape):
        M = structmat.DenseMatrix(complex_from(AWKWARD, shape, sum(shape)))
        text = dumped(M)
        assert text == reference_dump(M)
        back = structmat.DenseMatrix(loaded(text))
        assert back.data.shape == shape
        assert np.array_equal(back.data, M.data)
        assert dumped(back) == text  # signed zeros survive the round trip

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (4, 4)])
    def test_non_finite_values_format_alike(self, shape):
        # DenseMatrix refuses these; a bare stand-in checks the formatting.
        data = complex_from([np.inf, -np.inf, np.nan, -0.0, 2.5], shape, 7)
        M = types.SimpleNamespace(rows=shape[0], cols=shape[1], data=data)
        assert dumped(M) == reference_dump(M)

    def test_generated_matrices(self):
        for M in (structmat.dft(16),
                  structmat.cv_matrix(knotgen.van_der_corput(9), np.exp(0.3j)),
                  structmat.leading_block(structmat.vandermonde(
                      knotgen.single_outlier(12, 1.5j)), 5)):
            text = dumped(M)
            assert text == reference_dump(M)
            assert np.array_equal(loaded(text), M.data)
