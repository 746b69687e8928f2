"""Contracts that hold across the public surface (`vandcond.__all__`).

The count rule: every count a public callable takes is an int or numpy
integer at or above its floor.  A bool, float or string, or a value below
the floor, is an invalid argument: ValueError, naming the count, before any
numeric work (`errors.as_int`).

The real and complex rules: every real parameter is a real number (not a
bool, string, complex number or array) strictly inside its interval, so
never nan (`errors.as_real`); every complex parameter is a number, not a
bool, string or array (`errors.as_complex`).  Refusals are ValueErrors
that name the argument.
"""

import cmath
import inspect
import math
import re

import numpy as np
import pytest

import vandcond as vc
from vandcond import structmat
from vandcond.errors import VandcondError

#: Parameter names that are counts wherever they appear in a public signature.
COUNT_NAMES = {"n", "k", "q", "rho", "grid", "trials", "seed", "j_lo", "j_hi"}

#: Parameters with a count's name that are not counts.
NOT_COUNTS = {("scaled_cluster", "rho")}  # a radius in (0, 1)


def _arc(j_lo, j_hi):
    return vc.arc_certificate(vc.quasi_cyclic(48), cmath.exp(0.3j), j_lo, j_hi, 1.2)


#: (callable, count) -> (the name its message gives, the call with that count
#: set to x and every other argument valid, the floor `as_int` checks or None).
COUNTS = {
    ("roots_of_unity", "n"): ("n", vc.roots_of_unity, 1),
    ("quasi_cyclic", "n"): ("n", vc.quasi_cyclic, 1),
    ("van_der_corput", "n"): ("n", vc.van_der_corput, 1),
    ("single_outlier", "n"): ("n", lambda x: vc.single_outlier(x, 2.0), 2),
    ("dft_plus_outlier", "n"): ("n", lambda x: vc.dft_plus_outlier(x, 3.0), 1),
    ("scaled_cluster", "n"): ("n", lambda x: vc.scaled_cluster(x, 2, 0.5), 2),
    ("scaled_cluster", "k"): ("k", lambda x: vc.scaled_cluster(8, x, 0.5), 1),
    ("dft", "n"): ("n", vc.dft, 1),
    # The floor sits in the 1..min(rows, cols) range message.
    ("leading_block", "q"): ("q", lambda x: vc.leading_block(vc.dft(8), x), None),
    ("genp_residual_experiment", "n"):
        ("n", lambda x: vc.genp_residual_experiment(x, 2, 0), 2),
    ("genp_residual_experiment", "trials"):
        ("trials", lambda x: vc.genp_residual_experiment(16, x, 0), 1),
    ("genp_residual_experiment", "seed"):
        ("seed", lambda x: vc.genp_residual_experiment(16, 2, x), 0),
    # grid = 0 selects the default grid; 1..7 is refused after the floor.
    ("max_abs_on_circle", "grid"):
        ("grid", lambda x: vc.max_abs_on_circle(vc.quasi_cyclic(12), x), 0),
    ("bound_circle_value", "grid"):
        ("grid", lambda x: vc.bound_circle_value(vc.quasi_cyclic(12), x), 0),
    ("bound_cluster", "k"):
        ("k", lambda x: vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), x, 2.0), 1),
    ("bound_quasi_cyclic", "q"): ("q", lambda x: vc.bound_quasi_cyclic(x, "coarse"), 1),
    # The floor sits in the "even and >= 2" message.
    ("bound_dft_block", "n"): ("n", lambda x: vc.bound_dft_block(x, "base"), None),
    ("sigma_bound_separated", "rho"):
        ("rho", lambda x: vc.sigma_bound_separated(vc.KnotVector([2]), vc.KnotVector([0]),
                                                   2.0, 0.0, x), 1),
    # The floor sits in the "0 <= j_lo <= j_hi < n" message.
    ("arc_certificate", "j_lo"): ("j_lo", lambda x: _arc(x, 41), None),
    ("arc_certificate", "j_hi"): ("j_hi", lambda x: _arc(30, x), None),
    ("run_table", "seed"):
        ("seed", lambda x: vc.run_table("T4", {"sizes": [8], "seed": x}), 0),
    ("run_table", "trials"):
        ("trials", lambda x: vc.run_table("T5", {"sizes": [16], "trials": x}), 1),
    ("run_table", "sizes"): ("sizes entry", lambda x: vc.run_table("T4", {"sizes": [x]}), None),
}


def test_every_public_count_is_listed():
    listed = set(COUNTS) | NOT_COUNTS
    for name in vc.__all__:
        obj = getattr(vc, name)
        if inspect.isfunction(obj):
            for param in inspect.signature(obj).parameters:
                if param in COUNT_NAMES:
                    assert (name, param) in listed, (name, param)


@pytest.mark.parametrize("value", [4.5, 8.0, True, "8"], ids=repr)
@pytest.mark.parametrize("where", list(COUNTS), ids=lambda w: ".".join(w))
def test_non_integer_is_refused(where, value):
    name, call, _ = COUNTS[where]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, "
                                         rf"got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("where", [w for w, (_, _, low) in COUNTS.items() if low is not None],
                         ids=lambda w: ".".join(w))
def test_below_floor_is_refused(where):
    name, call, low = COUNTS[where]
    with pytest.raises(ValueError, match=rf"^{name} must be >= {low}, got {low - 1}$"):
        call(low - 1)


F = cmath.exp(0.3j)
Q48 = vc.quasi_cyclic(48)


def _kv(*points):
    return vc.KnotVector(list(points))


#: (callable, parameter) -> (the name its message gives, the call with that
#: parameter set to x and every other argument valid, the open interval of a
#: real or None for a complex number).
REALS = {
    ("scaled_cluster", "rho"): ("rho", lambda x: vc.scaled_cluster(16, 4, x), (0.0, 1.0)),
    ("bound_cluster", "nu"):
        ("nu", lambda x: vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), 4, x), (1.0, math.inf)),
    ("is_separated", "eta"): ("eta", lambda x: vc.is_separated(_kv(2), _kv(0), x, 0.0),
                              (1.0, math.inf)),
    ("sigma_bound_separated", "eta"):
        ("eta", lambda x: vc.sigma_bound_separated(_kv(2), _kv(0), x, 0.0, 1), (1.0, math.inf)),
    ("arc_certificate", "eta"): ("eta", lambda x: vc.arc_certificate(Q48, F, 30, 41, x),
                                 (1.0, math.inf)),
    # Each entry of the grid is an eta.
    ("best_arc_search", "eta_grid"):
        ("eta", lambda x: vc.best_arc_search(Q48, F, (1.2, x)), (1.0, math.inf)),
    ("single_outlier", "s_last"): ("s_last", lambda x: vc.single_outlier(8, x), None),
    ("dft_plus_outlier", "s_extra"): ("s_extra", lambda x: vc.dft_plus_outlier(8, x), None),
    ("cv_matrix", "f"): ("f", lambda x: vc.cv_matrix(vc.quasi_cyclic(6), x), None),
    ("cv_inverse", "f"): ("f", lambda x: vc.cv_inverse(vc.quasi_cyclic(6), x, "corrected"), None),
    ("vandermonde_inverse_via_cv", "f"):
        ("f", lambda x: vc.vandermonde_inverse_via_cv(vc.quasi_cyclic(6), x, "corrected"), None),
    ("bound_cv", "f"): ("f", lambda x: vc.bound_cv(vc.quasi_cyclic(12), x, "paper"), None),
    ("is_separated", "c"): ("c", lambda x: vc.is_separated(_kv(2), _kv(0), 2.0, x), None),
    ("sigma_bound_separated", "c"):
        ("c", lambda x: vc.sigma_bound_separated(_kv(2), _kv(0), 2.0, x, 1), None),
    ("arc_certificate", "f"): ("f", lambda x: vc.arc_certificate(Q48, x, 30, 41, 1.2), None),
    ("best_arc_search", "f"): ("f", lambda x: vc.best_arc_search(Q48, x), None),
    ("evaluators", "f"): ("f", lambda x: vc.evaluators(vc.quasi_cyclic(12), x), None),
}

#: Calls that raised TypeError or AttributeError, or ran on a parsed string,
#: before every argument went through `errors`; each is now a ValueError
#: whose message names the argument.
DEFECTS = [
    ("nu", lambda: vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), 4, "2")),
    ("nu", lambda: vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), 4, 2 + 0j)),
    ("rho", lambda: vc.scaled_cluster(16, 4, "0.5")),
    ("rho", lambda: vc.scaled_cluster(16, 4, 0.5j)),
    ("eta", lambda: vc.arc_certificate(Q48, F, 0, 3, "1.5")),
    ("eta", lambda: vc.is_separated(Q48, Q48, "2", 0)),
    ("eta", lambda: vc.best_arc_search(Q48, F, (1.5j,))),
    ("eta_grid", lambda: vc.best_arc_search(Q48, F, 1.5)),
    ("eta", lambda: vc.best_arc_search(Q48, F, ("1.5",))),
    ("eta_grid", lambda: vc.best_arc_search(Q48, F, "2")),
    ("s_last", lambda: vc.single_outlier(8, "2")),
    ("s_extra", lambda: vc.dft_plus_outlier(8, "2")),
    ("f", lambda: structmat.cv_knots(4, "1")),
    ("f", lambda: structmat.check_unit_circle("1")),
    ("f", lambda: vc.evaluators(Q48, "1j")),
    ("f", lambda: vc.bound_cv(vc.quasi_cyclic(12), "1j", "paper")),
    ("c", lambda: vc.is_separated(Q48, Q48, 2.0, "0")),
    ("table", lambda: vc.run_table(1)),
    ("tol", lambda: vc.KnotVector([1, 2], tol="1")),
    ("tol", lambda: vc.KnotVector([1, 2], tol=True)),
]


def test_every_public_real_and_complex_is_listed():
    found = {(name, param.name) for name in vc.__all__
             if inspect.isfunction(obj := getattr(vc, name))
             for param in inspect.signature(obj).parameters.values()
             if param.annotation in ("float", "complex") or param.name == "eta_grid"}
    assert found == set(REALS)


def _span(interval) -> str:
    low, high = interval
    return f"above {low:g}" if high == math.inf else rf"in \({low:g}, {high:g}\)"


@pytest.mark.parametrize("value", ["1.5", True, np.array(1.5), 1.5j, math.nan, math.inf,
                                   -math.inf], ids=repr)
@pytest.mark.parametrize("where", [w for w, entry in REALS.items() if entry[2]],
                         ids=lambda w: ".".join(w))
def test_non_real_or_non_finite_is_refused(where, value):
    name, call, interval = REALS[where]
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number {_span(interval)}, "
                                         rf"got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("where", [w for w, entry in REALS.items() if entry[2]],
                         ids=lambda w: ".".join(w))
def test_both_ends_are_refused(where):
    name, call, interval = REALS[where]
    for end in interval:
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number "
                                             rf"{_span(interval)}, got {end!r}$"):
            call(end)


@pytest.mark.parametrize("value", ["1.5", "1j", b"1", True, np.array(1.5)], ids=repr)
@pytest.mark.parametrize("where", [w for w, entry in REALS.items() if not entry[2]],
                         ids=lambda w: ".".join(w))
def test_non_number_is_refused(where, value):
    name, call, _ = REALS[where]
    with pytest.raises(ValueError, match=rf"^{name} must be a complex number, "
                                         rf"got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("name, call", DEFECTS, ids=[f"{i}-{n}" for i, (n, _) in
                                                     enumerate(DEFECTS)])
def test_former_escape_is_refused(name, call):
    with pytest.raises(ValueError, match=rf"\b{name}\b") as err:
        call()
    assert not isinstance(err.value, VandcondError)


def test_numpy_scalars_pass_as_python_numbers():
    rep = vc.bound_cluster(vc.scaled_cluster(16, 4, np.float64(0.5)), 4, np.float64(2.0))
    assert type(rep.params["nu"]) is float
    assert rep == vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), 4, 2.0)
    cert = vc.arc_certificate(Q48, np.complex128(F), 30, 41, np.float64(1.2))
    assert type(cert.eta) is float
    assert cert == vc.arc_certificate(Q48, F, 30, 41, 1.2)
