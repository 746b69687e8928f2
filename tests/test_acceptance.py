"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (visible with `pytest -s` or in
the captured output); a failing criterion fails its test.
"""

import cmath
import math
import time

import numpy as np
import pytest

from vandcond import bounds, cauchyinv, knotgen, spectral, structmat
from vandcond.cauchyinv import InverseVariant
from vandcond.errors import NoPositiveBound
from vandcond.tables import format_sci, run_table

PAPER = InverseVariant.PAPER
CORRECTED = InverseVariant.CORRECTED


def kv(points):
    return knotgen.KnotVector(points)


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def table1():
    return run_table("T1")


@pytest.fixture(scope="module")
def table2():
    return run_table("T2")


@pytest.fixture(scope="module")
def table3():
    return run_table("T3")


@pytest.fixture(scope="module")
def table4():
    return run_table("T4")


def test_criterion_01_closed_form_inversion_oracle():
    """200 random Cauchy systems: max |C Cinv - I| <= 1e-8, under 10 s."""
    rng = np.random.Generator(np.random.Philox(42))
    start = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        pts = []
        while len(pts) < 2 * n:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if 0.5 <= abs(z) <= 2.0 and all(abs(z - w) >= 0.05 for w in pts):
                pts.append(z)
        s, t = kv(pts[:n]), kv(pts[n:])
        C = structmat.cauchy(s, t).data
        inv = cauchyinv.cauchy_inverse(s, t, CORRECTED).data
        worst = max(worst, float(np.max(np.abs(C @ inv - np.eye(n)))))
    elapsed = time.time() - start
    assert worst <= 1e-8, f"worst residual {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed("criterion 01 (closed-form inversion oracle)")


def test_criterion_02_cv_factorization_paths():
    """CV-route inverse residual <= 1e-7 and agreement with Lagrange."""
    f = cmath.exp(0.3j)
    for n in (4, 8, 16, 32):
        s = knotgen.van_der_corput(n)
        V = structmat.vandermonde(s).data
        via_cv = cauchyinv.vandermonde_inverse_via_cv(s, f, CORRECTED).data
        lagrange = cauchyinv.vandermonde_inverse_lagrange(s).data
        assert np.max(np.abs(V @ via_cv - np.eye(n))) <= 1e-7
        assert np.max(np.abs(via_cv - lagrange)) <= 1e-7
    _passed("criterion 02 (factorized inverse paths)")


def test_criterion_03_dft_conditioning():
    """kappa of the Fourier matrix is 1 and its norm is sqrt(n)."""
    for n in (2, 4, 8, 16, 64):
        summary = spectral.singular_values(structmat.dft(n))
        assert abs(summary.kappa - 1.0) <= 1e-12
        assert abs(summary.sigma1 - math.sqrt(n)) <= 1e-12 * math.sqrt(n)
    _passed("criterion 03 (DFT conditioning)")


def test_criterion_04_dft_block_kappa_column(table4):
    """Half-size DFT block condition numbers match the reference column."""
    refs = {8: (1.53e1, 0.02), 16: (1.06e3, 0.02), 32: (8.18e6, 0.02),
            64: (8.44e14, 0.10)}
    for row in table4.rows:
        ref, tol = refs[row["n"]]
        assert abs(row["kappa"] - ref) / ref <= tol, (row["n"], row["kappa"])
    flagged = next(r for r in table4.rows if r["n"] == 64)
    assert flagged["kappa_trustworthy"] is False
    _passed("criterion 04 (DFT block kappa column)")


def test_criterion_05_quasi_cyclic_kappa_column(table3):
    """Quasi-cyclic condition numbers match the reference column."""
    refs = {12: (2.16e1, 0.02), 24: (1.50e3, 0.02), 48: (1.16e7, 0.05),
            96: (9.86e14, 0.15)}
    for row in table3.rows:
        ref, tol = refs[row["n"]]
        assert abs(row["kappa"] - ref) / ref <= tol, (row["n"], row["kappa"])
    flagged = next(r for r in table3.rows if r["n"] == 96)
    assert flagged["kappa_trustworthy"] is False
    _passed("criterion 05 (quasi-cyclic kappa column)")


T1_BOUND_STRINGS = {
    (64, 1.140625): "4.98E+02", (64, 1.5625): "2.03E+11",
    (64, 3.25): "2.22E+31", (64, 10.0): "1.25E+62",
    (128, 1.140625): "1.60E+06", (128, 1.5625): "3.64E+23",
    (128, 3.25): "9.03E+63", (128, 10.0): "8.84E+125",
    (256, 1.140625): "2.33E+13", (256, 1.5625): "1.66E+48",
    (256, 3.25): "2.12E+129", (256, 10.0): "6.25E+253",
}

T1_KAPPA_REFS = {(64, 1.140625): 3.36e3, (128, 1.140625): 1.08e7,
                 (256, 1.140625): 1.57e14}


def test_criterion_06_single_outlier_table(table1):
    """Outlier table: kappa rows within 5%, bound column to 3 digits,
    and kappa >= bound on every row (eps-limited rows included)."""
    for row in table1.rows:
        key = (row["n"], row["s_last"])
        assert format_sci(row["easy_bound_log10"]) == T1_BOUND_STRINGS[key]
        if key in T1_KAPPA_REFS:
            ref = T1_KAPPA_REFS[key]
            assert abs(row["kappa"] - ref) / ref <= 0.05, (key, row["kappa"])
        assert row["kappa_log10"] >= row["easy_bound_log10"], key
    _passed("criterion 06 (single outlier table)")


T2_REFS = {  # (n, k): (kappa_34, kmin_34, kappa_12, kmin_12)
    (64, 8): (4.04e1, 7.14e0, 6.90e2, 2.44e2),
    (64, 16): (2.71e2, 4.78e1, 1.19e5, 4.19e4),
    (64, 32): (1.71e4, 3.02e3, 4.91e9, 1.74e9),
    (128, 8): (5.85e1, 1.03e1, 1.00e3, 3.53e2),
    (128, 16): (4.03e2, 7.13e1, 1.77e5, 6.24e4),
    (128, 32): (2.70e4, 4.77e3, 7.77e9, 2.75e9),
    (256, 8): (8.38e1, 1.48e1, 1.43e3, 5.06e2),
    (256, 16): (5.85e2, 1.03e2, 2.56e5, 9.05e4),
    (256, 32): (4.02e4, 7.11e3, 1.16e10, 4.09e9),
}


def test_criterion_07_scaled_cluster_table(table2):
    """Cluster table: all 18 kappa cells within 5%, reconstructed bound
    column within 15%."""
    for row in table2.rows:
        k34, m34, k12, m12 = T2_REFS[(row["n"], row["k"])]
        assert abs(row["kappa_rho34"] - k34) / k34 <= 0.05
        assert abs(row["kappa_rho12"] - k12) / k12 <= 0.05
        assert abs(row["kappa_minus_rho34"] - m34) / m34 <= 0.15
        assert abs(row["kappa_minus_rho12"] - m12) / m12 <= 0.15
    _passed("criterion 07 (scaled cluster table)")


def test_criterion_08_staged_bound_spot_checks():
    """Exact-arithmetic spot checks of the staged quasi-cyclic bounds."""
    base = 10 ** bounds.bound_quasi_cyclic(16, "base").log10value
    assert abs(base - 1024 * math.sqrt(3)) <= 0.1
    coarse = 10 ** bounds.bound_quasi_cyclic(16, "coarse").log10value
    assert abs(coarse - 15417) <= 1.0
    refined = 10 ** bounds.bound_quasi_cyclic(16, "refined").log10value
    assert abs(refined - 27598) <= 1.0
    for q, ref in ((4, 1.03e1), (8, 1.06e2), (16, 1.13e4), (32, 1.27e8)):
        got = 10 ** bounds.bound_quasi_cyclic(q, "integral").log10value
        assert abs(got - ref) / ref <= 0.01
    _passed("criterion 08 (staged bound spot checks)")


def test_criterion_09_genp_experiment():
    """No-pivot residual means within one order of magnitude, increasing,
    under 60 s through n = 256."""
    refs = {16: 8.88e-14, 32: 8.01e-10, 64: 5.31e-3, 128: 5.00e0}
    start = time.time()
    means = {}
    for n in (16, 32, 64, 128, 256):
        means[n] = spectral.genp_residual_experiment(n, 100, 12345).mean_rn
    elapsed = time.time() - start
    for n, ref in refs.items():
        assert ref / 10.0 <= means[n] <= ref * 10.0, (n, means[n])
    ordered = [means[n] for n in (16, 32, 64, 128, 256)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed("criterion 09 (no-pivot residual experiment)")


def test_criterion_10_separation_and_interlacing():
    """Separated-cluster sigma decay and append interlacing, 100 cases each."""
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(100):
        m = int(rng.integers(1, 9))
        l = int(rng.integers(1, 9))
        eta = float(rng.uniform(1.01, 1.05))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r = float(rng.uniform(0.2, 2.0))
        t = c + rng.uniform(0, 0.2 * r, l) * np.exp(
            2j * np.pi * rng.uniform(0, 1, l))
        srad = rng.uniform(1.05 * eta * r, 4 * eta * r, m)
        s = c + srad * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        S, T = kv(list(s)), kv(list(t))
        delta = float(np.min(np.abs(S.as_array() - c)))
        sv = np.linalg.svd(structmat.cauchy(S, T).data, compute_uv=False)
        for rho in (1, 2, 3):
            if rho <= min(m, l):
                cap = 1.0 / ((eta - 1.0) * eta ** (rho - 1) * delta)
                assert sv[rho - 1] <= cap, (m, l, eta, rho)
    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = np.vstack([A, rng.standard_normal((k, n))
                       + 1j * rng.standard_normal((k, n))])
        sa = np.linalg.svd(A, compute_uv=False)
        sb = np.linalg.svd(B, compute_uv=False)
        for j in range(n):
            if j + k < len(sb):
                assert sa[j] >= sb[j + k] - 1e-10
    _passed("criterion 10 (separation and interlacing suites)")


def test_criterion_11_arc_search_behavior():
    """Uniform knots yield no bound above 1; the quasi-cyclic family yields
    a positive bound dominated by the measured kappa."""
    with pytest.raises(NoPositiveBound):
        bounds.best_arc_search(knotgen.roots_of_unity(64), cmath.exp(0.3j))
    s = knotgen.quasi_cyclic(96)
    cert, rep = bounds.best_arc_search(s, cmath.exp(0.3j))
    assert rep.log10value > 0.0
    measured = spectral.singular_values(structmat.vandermonde(s)).log10kappa
    assert rep.log10value <= measured
    _passed("criterion 11 (arc search behavior)")


def test_criterion_12_discrepancy_probes():
    """Documented inconsistencies asserted as regression facts."""
    uniform = knotgen.roots_of_unity(8)
    measured = spectral.singular_values(structmat.vandermonde(uniform)).log10kappa
    assert abs(measured) < 1e-12  # kappa = 1
    circle = bounds.bound_circle_value(uniform)
    assert circle.log10value > measured  # compact-form bound overshoots
    cv_paper = bounds.bound_cv(uniform, cmath.exp(0.1j), PAPER)
    assert cv_paper.log10value > measured
    cv_corr = bounds.bound_cv(uniform, cmath.exp(0.1j), CORRECTED)
    assert cv_corr.log10value <= measured + 1e-9
    easy = bounds.bound_easy(uniform)
    assert easy.log10value <= measured + 1e-12
    with pytest.raises(NoPositiveBound):
        bounds.best_arc_search(uniform, cmath.exp(0.1j))

    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(20):
        pts = []
        while len(pts) < 4:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if 0.5 <= abs(z) <= 2.0 and all(abs(z - w) >= 0.05 for w in pts):
                pts.append(z)
        sp, tp = np.array(pts[:2]), np.array(pts[2:])
        s, t = kv(list(sp)), kv(list(tp))
        for i in range(2):
            for j in range(2):
                paper = cauchyinv.cauchy_inverse_log_entries(s, t, PAPER)[0][i, j]
                corr = cauchyinv.cauchy_inverse_log_entries(s, t, CORRECTED)[0][j, i]
                sprime = sp[i] - sp[1 - i]
                tprime = tp[j] - tp[1 - j]
                gap = paper - (corr
                               + math.log10(abs(sprime))
                               + math.log10(abs(tprime)))
                assert abs(gap) <= 1e-10
    _passed("criterion 12 (discrepancy probes)")
