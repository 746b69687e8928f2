"""A 50-digit condition-number oracle for the bound listing and the SVD.

kappa(V) of every cell comes from `mpmath.svd_c` at 50 significant digits
on the Vandermonde matrix of the knots as stored (complex128), so the
oracle carries no rounding of its own at these sizes.  Against it:

- every applicable report of `bounds.evaluators` that is not a paper
  variant is a lower bound, refined-norm through its kappa form;
- every `spectral.singular_values` kappa flagged trustworthy agrees with
  the oracle to within a few units of n eps kappa, the backward error of
  the float SVD measured against sigma_min.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from vandcond import bounds, knotgen, spectral, structmat
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
