"""Contracts that hold across the public surface (`vandcond.__all__`).

The count rule: every count a public callable takes is an int or numpy
integer at or above its floor.  A bool, float or string, or a value below
the floor, is an invalid argument: ValueError, naming the count, before any
numeric work (`errors.as_int`).
"""

import cmath
import inspect
import re

import pytest

import vandcond as vc

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
