import ast
import cmath
import math
import pathlib

import mpmath
import numpy as np
import pytest

from vandcond import knotgen, logdomain
from vandcond.errors import DuplicateKnot, KnotCollision
from vandcond.logdomain import (check_disjoint, log_magnitudes, log_products,
                                pow_diff_logs, self_derivative_logs, wrap_phase)

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
        assert abs(wrap_phase(ph[0] - (8 * 0.3 + math.pi))) <= 64 * EPS

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

    def test_scalars_match_remainder(self):
        for p in self.POINTS:
            r = wrap_phase(p)
            assert isinstance(r, float)
            assert -math.pi < r <= math.pi
            assert r == wrap_phase_scalar(p)

    def test_plus_minus_pi(self):
        assert wrap_phase(math.pi) == math.pi
        assert wrap_phase(-math.pi) == math.pi
        out = wrap_phase(np.array([math.pi, -math.pi]))
        assert np.array_equal(out, [math.pi, math.pi])

    def test_arrays_match_scalars_and_wrap_in_place(self):
        p = np.array(self.POINTS).reshape(3, 5)
        expect = np.vectorize(wrap_phase_scalar)(p)
        assert np.array_equal(wrap_phase(p), expect)
        q = p.copy()
        assert wrap_phase(q, out=q) is q
        assert np.array_equal(q, expect)
        t = p.copy().T
        wrap_phase(t, out=t)
        assert np.array_equal(t, expect.T)


def check_distinct_reference(points, tol):
    """The n x n distinctness table the blocked scan replaced: (i, j, gap) or None."""
    points = np.asarray(points, dtype=np.complex128)
    if len(points) < 2:
        return None
    diff = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(diff, np.inf)
    gap = float(diff.min())
    if gap > tol:
        return None
    i, j = np.unravel_index(int(diff.argmin()), diff.shape)
    return int(i), int(j), gap


def distinctness_agrees(points, tol):
    """(i, j, gap) of the DuplicateKnot raised, or None; must equal the reference."""
    want = check_distinct_reference(points, tol)
    try:
        knotgen.make_knot_vector(points, tol)
        got = None
    except DuplicateKnot as err:
        got = err.i, err.j, err.gap
    assert got == want
    return got


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
            assert abs(wrap_phase(ph[j] - cmath.phase(direct))) < 1e-13

    def test_check_disjoint_reports_closest_pair(self, tiny_blocks):
        sp, tp = self.points(10, 4), self.points(6, 5)
        tp[2] = sp[7] + 1e-15
        with pytest.raises(KnotCollision) as info:
            check_disjoint(sp, tp, 1e-13)
        assert (info.value.i, info.value.j) == (7, 2)
        check_disjoint(sp, tp, 1e-16)  # the same pair is outside a tighter tol

    def test_check_disjoint_fills_reciprocals(self, tiny_blocks):
        sp, tp = self.points(10, 4), self.points(6, 5)
        out = np.empty((10, 6), dtype=complex)
        check_disjoint(sp, tp, 1e-13, out=out)
        assert np.array_equal(out, 1.0 / (sp[:, None] - tp[None, :]))

    def test_check_disjoint_tie_goes_to_first_row(self, tiny_blocks):
        sp, tp = self.points(10, 4), self.points(6, 5)
        tp[2], tp[0] = sp[7], sp[8]
        with pytest.raises(KnotCollision) as info:
            check_disjoint(sp, tp, 1e-13)
        assert (info.value.i, info.value.j, info.value.gap) == (7, 2, 0.0)

    def test_distinctness_exact_duplicates(self, tiny_blocks):
        p = self.points(23, 1)
        p[17], p[20] = p[4], p[9]
        assert distinctness_agrees(p, 1e-13) == (4, 17, 0.0)

    def test_distinctness_near_duplicates(self, tiny_blocks):
        p = self.points(30, 2)
        p[25] = p[3] + 3e-14
        p[11] = p[28] - 2e-14j
        assert distinctness_agrees(p, 1e-13)[:2] == (11, 28)
        for tol in (1e-15, 2.5e-14, 0.05, 0.5):
            distinctness_agrees(p, tol)

    def test_distinctness_tied_pairs_in_different_blocks(self, tiny_blocks):
        p = np.array([0, 3, 10, 11, 20, 21, 30, 40], dtype=complex)
        assert distinctness_agrees(p, 1.0) == (2, 3, 1.0)

    def test_distinctness_raises_at_gap_equal_to_tol(self, tiny_blocks):
        assert distinctness_agrees([0, 0.5], 0.5) == (0, 1, 0.5)
        assert distinctness_agrees([0, 0.5], 0.4999) is None

    def test_distinctness_one_and_two_knots(self, tiny_blocks):
        assert distinctness_agrees([2j], 1e-13) is None
        assert distinctness_agrees([1, 1 + 1e-16], 1e-13) == (0, 1, 0.0)
        assert distinctness_agrees([1, -1], 1e-13) is None


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
