"""A 50-digit condition-number oracle for the bound listing and the SVD.

kappa(V) of every cell comes from `mpmath.svd_c` at 50 significant digits
on the Vandermonde matrix of the knots as stored (complex128), so the
oracle carries no rounding of its own at these sizes.  Against it:

- every applicable report of `bounds.evaluators` that is not a paper
  variant is a lower bound, refined-norm through its kappa form;
- every `spectral.singular_values` kappa flagged trustworthy agrees with
  the oracle to within a few units of n eps kappa, the backward error of
  the float SVD measured against sigma_min;
- every corrected inverse route, of V or of the CV matrix C of (s, F),
  agrees with a 50-digit inverse to a relative Frobenius error of a few
  units of n eps kappa: kappa(V) from the oracle, and for C the Frobenius
  kappa ||C||_F ||C^-1||_F of the 50-digit inverse, an upper bound on
  kappa_2 that needs no second SVD.

The 50-digit inverses are Gauss-Jordan eliminations in `decimal`
arithmetic at 50 significant digits: `mpmath`'s own inverse gives the same
digits but takes about nine times as long on these cells.
"""

import cmath
import decimal
import math

import mpmath
import numpy as np
import pytest

from vandcond import bounds, cauchyinv, knotgen, spectral, structmat
from vandcond.cauchyinv import InverseVariant

GENERATORS = {
    "roots-of-unity": knotgen.roots_of_unity,
    "quasi-cyclic": knotgen.quasi_cyclic,
    "van-der-corput": knotgen.van_der_corput,
    "single-outlier-1.5": lambda n: knotgen.single_outlier(n, 1.5),
    "single-outlier-0.5": lambda n: knotgen.single_outlier(n, 0.5),
    "scaled-cluster-0.75": lambda n: knotgen.scaled_cluster(n, max(1, n // 8), 0.75),
    "scaled-cluster-0.5": lambda n: knotgen.scaled_cluster(n, max(1, n // 8), 0.5),
}
SIZES = (1, 2, 3, 4, 6, 8, 12, 16, 24)
F = cmath.exp(0.3j)
EPS = np.finfo(np.float64).eps


def _cells():
    """(label, n, knots) for every size a generator accepts."""
    for label, gen in GENERATORS.items():
        for n in SIZES:
            try:
                yield label, n, gen(n)
            except ValueError:  # single_outlier and scaled_cluster need n >= 2
                continue


def _log10_kappa_50(s) -> float:
    """log10 sigma_max / sigma_min of V(s) from a 50-digit complex SVD."""
    with mpmath.workdps(50):
        pts = [mpmath.mpc(complex(z)) for z in s.as_array()]
        V = mpmath.matrix([[z ** j for j in range(len(pts))] for z in pts])
        sv = mpmath.svd_c(V, compute_uv=False)
        return float(mpmath.log10(max(sv) / min(sv)))


@pytest.fixture(scope="module")
def oracle():
    """(label, n, knots, oracle log10 kappa) per cell, computed once."""
    return [(label, n, s, _log10_kappa_50(s)) for label, n, s in _cells()]


def test_every_cell_is_measured(oracle):
    # 7 generators x 9 sizes, less n = 1 for the four that need n >= 2.
    assert len(oracle) == 59


def test_every_conservative_report_below_the_oracle(oracle):
    checked, violations = 0, []
    for label, n, s, kappa in oracle:
        for _, _, thunk in bounds.evaluators(s, F):
            rep = thunk()
            if not rep.applicable or rep.variant == InverseVariant.PAPER.value:
                continue
            checked += 1
            value = rep.params.get("log10_kappa_bound", rep.log10value)
            if value > kappa + 1e-9:
                violations.append((label, n, rep.bound_id, value, kappa))
    assert violations == []
    assert checked == 175


def test_trusted_svd_kappa_matches_the_oracle(oracle):
    trusted = 0
    for label, n, s, kappa in oracle:
        sv = spectral.singular_values(structmat.vandermonde(s))
        if not sv.trustworthy:
            continue
        trusted += 1
        # A relative error of 4 n eps kappa in sigma_min, in decades.
        tol = math.log10(1.0 + 4 * n * EPS * 10 ** kappa)
        assert abs(sv.log10kappa - kappa) <= tol, (label, n, sv.log10kappa, kappa)
    assert trusted == len(oracle)


ONE, ZERO = decimal.Decimal(1), decimal.Decimal(0)


def _inverse_50(re, im):
    """Inverse of re + i im, two n x n object arrays of Decimals, by Gauss-Jordan
    elimination in place with partial pivoting, in the current decimal context."""
    re, im = re.copy(), im.copy()
    swaps = []
    for k in range(len(re)):
        p = k + int(np.argmax(re[k:, k] ** 2 + im[k:, k] ** 2))
        swaps.append(p)
        re[[k, p]], im[[k, p]] = re[[p, k]], im[[p, k]]
        den = re[k, k] ** 2 + im[k, k] ** 2
        pr, pi = re[k, k] / den, -im[k, k] / den  # 1 / pivot
        re[k, k], im[k, k] = ONE, ZERO
        re[k], im[k] = re[k] * pr - im[k] * pi, re[k] * pi + im[k] * pr
        mr, mi = re[:, k].copy(), im[:, k].copy()
        mr[k] = mi[k] = re[:, k] = im[:, k] = ZERO
        re[k, k], im[k, k] = pr, pi
        re -= np.outer(mr, re[k]) - np.outer(mi, im[k])
        im -= np.outer(mr, im[k]) + np.outer(mi, re[k])
    for k, p in reversed(list(enumerate(swaps))):  # undo the row swaps on columns
        re[:, [k, p]], im[:, [k, p]] = re[:, [p, k]], im[:, [p, k]]
    return re.astype(float) + 1j * im.astype(float)


def _decimals(z):
    """Real and imaginary parts of a complex array as exact Decimal arrays."""
    z = np.asarray(z, dtype=np.complex128)
    exact = np.vectorize(decimal.Decimal, otypes=[object])
    return exact(z.real), exact(z.imag)


@pytest.fixture(scope="module")
def inverses(oracle):
    """(label, n, knots, {"V": (V^-1, kappa), "C": (C^-1, kappa_F)}) per cell.

    V and C = 1 / (s_i - t_j), t = `cv_knots(n, F)`, are formed from the
    knots and grid as stored, and both are inverted, at 50 digits.
    """
    out = []
    with decimal.localcontext(decimal.Context(prec=50)):
        for label, n, s, kappa in oracle:
            zr, zi = _decimals(s.as_array())
            vr, vi = np.empty((2, n, n), dtype=object)
            vr[:, 0], vi[:, 0] = ONE, ZERO
            for j in range(1, n):
                vr[:, j] = vr[:, j - 1] * zr - vi[:, j - 1] * zi
                vi[:, j] = vr[:, j - 1] * zi + vi[:, j - 1] * zr
            tr, ti = _decimals(structmat.cv_knots(n, F))
            dr, di = zr[:, None] - tr[None, :], zi[:, None] - ti[None, :]
            den = dr ** 2 + di ** 2
            c_inv = _inverse_50(dr / den, -di / den)
            c_norm = math.sqrt(float(np.sum(1 / den)))
            out.append((label, n, s, {
                "V": (_inverse_50(vr, vi), 10 ** kappa),
                "C": (c_inv, c_norm * np.linalg.norm(c_inv))}))
    return out


CORRECTED = InverseVariant.CORRECTED

#: Corrected inverse routes: (the matrix inverted, the call on a cell's knots).
ROUTES = {
    "lagrange": ("V", cauchyinv.vandermonde_inverse_lagrange),
    "vandermonde-via-cv": ("V", lambda s: cauchyinv.vandermonde_inverse_via_cv(s, F, CORRECTED)),
    "cv-inverse": ("C", lambda s: cauchyinv.cv_inverse(s, F, CORRECTED)),
    "cauchy-inverse": ("C", lambda s: cauchyinv.cauchy_inverse(
        s, knotgen.KnotVector(structmat.cv_knots(len(s), F)), CORRECTED)),
}


@pytest.mark.parametrize("route", ROUTES)
def test_inverse_matches_the_50_digit_inverse(inverses, route):
    matrix, invert = ROUTES[route]
    violations = []
    for label, n, s, refs in inverses:
        ref, kappa = refs[matrix]
        err = np.linalg.norm(invert(s).data - ref) / np.linalg.norm(ref)
        if err > 4 * n * EPS * kappa:
            violations.append((label, n, err, kappa))
    assert violations == []


#: `cauchyinv._inverse_logs`' error budget: 4n terms per entry, each costing
#: at most 4u in magnitude and 4u in phase, so 16 n eps relative.
ENTRY_BUDGET = 16


@pytest.mark.parametrize("route", ["cv-inverse", "cauchy-inverse"])
def test_every_entry_within_the_budget(inverses, route):
    # Entry by entry and at any kappa, against the inverse of C as stored.
    # The column term formed as s_j^n - f^n cancelled on the scaled clusters
    # and reached 123 n eps at n = 24.
    _, invert = ROUTES[route]
    violations = []
    for label, n, s, refs in inverses:
        ref = refs["C"][0]
        err = np.max(np.abs(invert(s).data - ref) / np.abs(ref))
        if err > ENTRY_BUDGET * n * EPS:
            violations.append((label, n, err / (n * EPS)))
    assert violations == []
