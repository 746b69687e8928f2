"""Contracts that hold across the public surface (`vandcond.__all__`).

The count rule: every count a public callable takes is an int or numpy
integer at or above its floor.  A bool, float or string, or a value below
the floor, is an invalid argument: ValueError, naming the count, before any
numeric work (`errors.as_int`).

The real and complex rules: every real parameter is a real number (not a
bool, string, complex number or array) strictly inside its interval and
the float range, so never nan (`errors.as_real`); every complex parameter
is a number, not a bool, string or array, of finite modulus
(`errors.as_complex`).  Refusals are ValueErrors that name the argument.

The array rule: every array parameter is a non-empty array or nested
sequence of numbers with the dimensions it takes, every entry of finite
modulus; a str, bytes, bool, other non-number, ragged nesting, scalar, dict,
set or generator is refused with a ValueError naming it (`errors.as_array`).
No public callable takes a tolerance: `logdomain.DISTINCT_TOL` is the one
collision threshold.
"""

import cmath
import inspect
import math
import re
from fractions import Fraction

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


#: (callable, parameter) -> (the name its message gives, the call with that
#: parameter set to x and every other argument valid, the open interval of a
#: real or None for a complex number).
REALS = {
    ("scaled_cluster", "rho"): ("rho", lambda x: vc.scaled_cluster(16, 4, x), (0.0, 1.0)),
    ("bound_cluster", "nu"):
        ("nu", lambda x: vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), 4, x), (1.0, math.inf)),
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
    ("arc_certificate", "f"): ("f", lambda x: vc.arc_certificate(Q48, x, 30, 41, 1.2), None),
    ("best_arc_search", "f"): ("f", lambda x: vc.best_arc_search(Q48, x), None),
    ("evaluators", "f"): ("f", lambda x: vc.evaluators(vc.quasi_cyclic(12), x), None),
}

#: Calls that raised TypeError, AttributeError, OverflowError or
#: ZeroDivisionError, ran on a parsed string, or returned a value for a
#: non-finite argument, before every argument went through `errors`; each is
#: now a ValueError whose message names the argument.
DEFECTS = [
    pytest.param("nu", lambda: vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), 4, "2"),
                 id="bound_cluster-nu-str"),
    pytest.param("nu", lambda: vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), 4, 2 + 0j),
                 id="bound_cluster-nu-complex"),
    pytest.param("rho", lambda: vc.scaled_cluster(16, 4, "0.5"), id="scaled_cluster-rho-str"),
    pytest.param("rho", lambda: vc.scaled_cluster(16, 4, 0.5j), id="scaled_cluster-rho-complex"),
    pytest.param("eta", lambda: vc.arc_certificate(Q48, F, 0, 3, "1.5"),
                 id="arc_certificate-eta-str"),
    pytest.param("eta", lambda: vc.best_arc_search(Q48, F, (1.5j,)),
                 id="best_arc_search-eta-complex"),
    pytest.param("eta_grid", lambda: vc.best_arc_search(Q48, F, 1.5),
                 id="best_arc_search-eta_grid-float"),
    pytest.param("eta", lambda: vc.best_arc_search(Q48, F, ("1.5",)),
                 id="best_arc_search-eta-str"),
    pytest.param("eta_grid", lambda: vc.best_arc_search(Q48, F, "2"),
                 id="best_arc_search-eta_grid-str"),
    pytest.param("s_last", lambda: vc.single_outlier(8, "2"), id="single_outlier-s_last-str"),
    pytest.param("s_extra", lambda: vc.dft_plus_outlier(8, "2"),
                 id="dft_plus_outlier-s_extra-str"),
    pytest.param("f", lambda: structmat.cv_knots(4, "1"), id="cv_knots-f-str"),
    pytest.param("f", lambda: structmat.check_unit_circle("1"), id="check_unit_circle-f-str"),
    pytest.param("f", lambda: vc.evaluators(Q48, "1j"), id="evaluators-f-str"),
    pytest.param("f", lambda: vc.bound_cv(vc.quasi_cyclic(12), "1j", "paper"),
                 id="bound_cv-f-str"),
    pytest.param("table", lambda: vc.run_table(1), id="run_table-table-int"),
    pytest.param("nu", lambda: vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), 4, 10 ** 400),
                 id="bound_cluster-nu-huge-int"),
    pytest.param("s_last", lambda: vc.single_outlier(8, 10 ** 400),
                 id="single_outlier-s_last-huge-int"),
    # Inside the interval, but their floats are its ends.
    pytest.param("nu", lambda: vc.bound_cluster(vc.scaled_cluster(16, 4, 0.5), 4,
                                                1 + Fraction(1, 10 ** 30)),
                 id="bound_cluster-nu-fraction-at-end"),
    pytest.param("rho", lambda: vc.scaled_cluster(16, 4, Fraction(1, 10 ** 400)),
                 id="scaled_cluster-rho-fraction-at-end"),
    # `emit` raised KeyError on a table id that no table has; `run_table` refused it.
    pytest.param("table", lambda: vc.emit(vc.ExperimentTable("T9", ["n"], [{"n": 1}], {}), "csv"),
                 id="emit-table-unregistered"),
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


def _id(value) -> str:
    return "10**400" if isinstance(value, int) and value == 10 ** 400 else repr(value)


@pytest.mark.parametrize("value", ["1.5", True, np.array(1.5), 1.5j, math.nan, math.inf,
                                   -math.inf, 10 ** 400], ids=_id)
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.inf),
                                   complex(1.7e308, 1.7e308), 10 ** 400], ids=_id)
@pytest.mark.parametrize("where", [w for w, entry in REALS.items() if not entry[2]],
                         ids=lambda w: ".".join(w))
def test_non_finite_complex_is_refused(where, value):
    name, call, _ = REALS[where]
    with pytest.raises(ValueError, match=rf"^{name} must be finite$"):
        call(value)


@pytest.mark.parametrize("name, call", DEFECTS)
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
    cert = vc.arc_certificate(Q48, F, np.int64(30), np.int64(41), 1.2)
    assert [type(x) for x in (cert.j_lo, cert.j_hi, cert.l)] == [int] * 3
    params = vc.bound_arc(Q48, cert).params
    assert [type(params[k]) for k in ("j_lo", "j_hi", "l")] == [int] * 3
    params = vc.bound_dft_block(np.int64(8), "base").params
    assert (type(params["n"]), type(params["q"])) == (int, int)


def test_no_public_callable_takes_a_tolerance():
    for name in vc.__all__:
        obj = getattr(vc, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert "tol" not in inspect.signature(obj).parameters, name


#: (callable, parameter) -> (the name its message gives, the call with that
#: array set to x and every other argument valid, the dimension counts it takes).
ARRAYS = {
    ("KnotVector", "knots"): ("knots", vc.KnotVector, (1,)),
    ("DenseMatrix", "data"): ("DenseMatrix entries", vc.DenseMatrix, (2,)),
    ("genp_solve", "b"): ("right-hand side entries", lambda x: vc.genp_solve(vc.dft(2), x), (1, 2)),
}

#: Parameters annotated as arrays that are not arguments a caller supplies.
NOT_ARRAYS = {("SpectrumSummary", "sigma")}  # a result record of singular_values


def test_every_public_array_is_listed():
    found = {(name, param.name) for name in vc.__all__
             if inspect.isfunction(obj := getattr(vc, name)) or inspect.isclass(obj)
             for param in inspect.signature(obj).parameters.values()
             if param.annotation == "np.ndarray"}
    assert found == set(ARRAYS) | NOT_ARRAYS


def _lift(row, ndim):
    """One row of entries as an array argument of `ndim` axes."""
    if isinstance(row, np.ndarray):
        return row.reshape((1,) * (ndim - 1) + row.shape)
    for _ in range(ndim - 1):
        row = [row]
    return row


#: Rows with one entry that is no number, lifted to every dimension count taken.
NON_NUMBER_ROWS = [["1", 2], ["1+2j", 3], [True, 2], [np.True_, 2], [None, 2], [[1], 2],
                   np.array(["1", 2], dtype=object), np.array([True, False]),
                   np.array(["1", "2"]), []]

#: Rows with one entry of infinite or nan modulus, lifted the same way.
NON_FINITE_ROWS = [[10 ** 400, 1], [math.nan, 1], [math.inf, 1], [complex(1.5e308, 1.5e308), 1],
                   np.array([1.0, math.inf]), np.array([1.5e308 + 1.5e308j, 1])]

#: Values that are no array of numbers, whatever the dimension count.
NON_ARRAYS = [3, 2.5, "12", Fraction(1, 3), {1: 2}, {1, 2}, None, b"\x01\x02",
              np.array(3.0), np.empty((0, 2))]


def _probes():
    """(the call, a value it refuses, the message that names the array)."""
    for where, (name, call, ndims) in ARRAYS.items():
        tag = ".".join(where)
        for ndim in ndims:
            for i, row in enumerate(NON_NUMBER_ROWS):
                yield pytest.param(call, _lift(row, ndim), rf"^{name} must be ",
                                   id=f"{tag}-{ndim}d-row{i}")
            for i, row in enumerate(NON_FINITE_ROWS):
                yield pytest.param(call, _lift(row, ndim), rf"^{name} must be finite$",
                                   id=f"{tag}-{ndim}d-nonfinite{i}")
        others = [_lift([1.0, 2.0], d) for d in (1, 2, 3) if d not in ndims]
        others += [[[1, 2], [3]], [np.zeros((2, 2)), np.zeros((2, 3))], *NON_ARRAYS,
                   (x for x in [1, 2])]
        for i, value in enumerate(others):
            yield pytest.param(call, value, rf"^{name} must be ", id=f"{tag}-value{i}")


@pytest.mark.parametrize("call, value, message", _probes())
def test_non_array_or_non_finite_is_refused(call, value, message):
    with pytest.raises(ValueError, match=message) as err:
        call(value)
    assert not isinstance(err.value, VandcondError)


@pytest.mark.parametrize("where", list(ARRAYS), ids=lambda w: ".".join(w))
def test_arrays_of_any_numeric_dtype_are_accepted(where):
    _, call, ndims = ARRAYS[where]
    ref = call(_lift([1.0, 2.0], ndims[0]))
    for row in ([1, 2], [1.0, 2.0 + 0j], [Fraction(1), np.float32(2)], np.arange(1, 3),
                np.array([1, 2], dtype=object), np.array([1.0, 2.0], dtype=np.float32)):
        assert repr(call(_lift(row, ndims[0]))) == repr(ref)
