"""Tests for the benchmark's own logic.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from vandcond import bounds, knotgen  # noqa: E402
from vandcond.errors import NoPositiveBound, UnitRadius  # noqa: E402


def _report(value, applicable=True):
    return bounds.BoundReport("easy", value, None, {}, applicable=applicable)


def _warning(category):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.warn("overflow encountered in dot", category)
    return caught


# -- failure / refusal classifier ---------------------------------------------

@pytest.mark.parametrize("kwargs, verdict", [
    ({}, harness.OK),
    ({"report": _report(3.0)}, harness.OK),
    ({"report": _report(math.inf, applicable=False)}, harness.OK),
    ({"report": _report(math.inf)}, harness.FAILED),
    ({"report": _report(math.nan)}, harness.FAILED),
    ({"exc": UnitRadius("r = 1")}, harness.REFUSED),
    ({"exc": NoPositiveBound("none")}, harness.REFUSED),
    ({"exc": ValueError("bad")}, harness.FAILED),
    ({"exc": ZeroDivisionError()}, harness.FAILED),
    ({"warns": _warning(RuntimeWarning)}, harness.FAILED),
    ({"warns": _warning(RuntimeWarning), "exc": UnitRadius("r = 1")}, harness.FAILED),
    ({"warns": _warning(DeprecationWarning)}, harness.OK),
    ({"returncode": 0}, harness.OK),
    ({"returncode": 3}, harness.FAILED),
    ({"returncode": 0, "stderr": "x.py:1: RuntimeWarning: overflow\n"}, harness.FAILED),
])
def test_classify(kwargs, verdict):
    assert harness.classify(**kwargs)[0] == verdict


def test_run_op_records_numpy_warning_and_keeps_running():
    op = harness.run_op(0, "overflow", lambda: np.float64(1e308) * 10.0)
    assert op.verdict == harness.FAILED and "RuntimeWarning" in op.reason
    op = harness.run_op(0, "refusal", lambda: bounds.bound_refined_norm(knotgen.roots_of_unity(8)))
    assert op.verdict == harness.REFUSED and isinstance(op.result, UnitRadius)


# -- tail percentile ------------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    for n in (11, 50, 100, 234, 1000):
        samples = list(range(n, 0, -1))
        value, pct, count = harness.tail(samples)
        assert count == n
        assert sum(s > value for s in samples) == harness.TAIL_BEYOND
        assert pct == pytest.approx(100.0 * (n - 10) / n)
    assert harness.tail(list(range(100)))[:2] == (89, 90.0)


def test_tail_falls_back_to_median_when_too_few_samples():
    assert harness.tail([5.0, 1.0, 3.0]) == (3.0, 50.0, 3)


def test_pass_count_depends_only_on_requested_seconds():
    assert harness.pass_count(20, 3.6) == 6
    assert harness.pass_count(20, 10.0) == 2
    assert harness.pass_count(1, 10.0) == 2


# -- spans ------------------------------------------------------------------------

def _span(sid, name, start, end, parent=None, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, **attrs}


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [_span(0, "bench.pass", 0.0, 10.0),
             _span(1, "bounds.bound_cv", 1.0, 3.0, 0),
             _span(2, "bounds.bound_easy", 2.0, 5.0, 0),
             _span(3, "cauchyinv.cv_inverse_log_entries", 1.5, 2.5, 1),
             _span(4, "bounds.bound_arc", 8.0, 12.0, 0)]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert tracing.attributed_frac(spans) == pytest.approx(0.6)


def test_busy_counts_nested_spans_of_one_category_once():
    spans = [_span(0, "cauchyinv.vandermonde_inverse_via_cv", 0.0, 4.0),
             _span(1, "cauchyinv.cv_inverse", 1.0, 3.0, 0),
             _span(2, "structmat.cv_knots", 1.2, 1.4, 1),
             _span(3, "knotgen.roots_of_unity", 1.25, 1.35, 2)]
    assert tracing.busy(spans, "cauchyinv") == pytest.approx(4.0)
    assert tracing.busy(spans, "structmat") == pytest.approx(0.2)
    assert tracing.busy(spans, "knotgen") == pytest.approx(0.1)


def test_layer_metrics_count_bounds_outcomes():
    spans = [_span(0, "bench.pass", 0.0, 10.0, op=None),
             _span(1, "bounds.bound_easy", 0.0, 1.0, 0, op=0, outcome="useful"),
             _span(2, "bounds.bound_refined_norm", 1.0, 2.0, 0, op=1, outcome="refused"),
             _span(3, "bounds.bound_coeff_norm", 2.0, 3.0, 0, op=2, outcome="failed"),
             _span(4, "bounds.bound_cv", 3.0, 4.0, 0, op=3, outcome="useful"),
             _span(5, "spectral.genp_residual_experiment", 4.0, 6.0, 0, op=4,
                   outcome="ok", flops=4e9)]
    m = tracing.layer_metrics(spans, failed_ops={3})
    assert (m["bounds.calls"], m["bounds.refused"], m["bounds.failed"]) == (4, 1, 2)
    assert m["bounds.applicable_frac"] == pytest.approx(0.25)
    assert m["bounds.cv.busy_s"] == pytest.approx(1.0)
    assert m["spectral.genp.gflop_s"] == pytest.approx(2.0)


def test_instrument_wraps_imported_names_and_restores_them():
    from vandcond import spectral
    original = bounds.singular_values
    tracer = tracing.Tracer()
    kv = knotgen.scaled_cluster(24, 4, 0.5)
    with tracing.instrument(tracer):
        assert bounds.singular_values is not original
        bounds.bound_cluster(kv, 4, 2.0, "computed-norm")
    assert bounds.singular_values is original is spectral.singular_values
    names = {s["id"]: s["name"] for s in tracer.spans}
    parents = {s["name"]: names.get(s["parent"]) for s in tracer.spans}
    assert parents["spectral.singular_values"] == "bounds.bound_cluster"
    assert parents["structmat.vandermonde"] == "bounds.bound_cluster"
    assert all(s["end"] >= s["start"] for s in tracer.spans)


# -- seeds --------------------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_default_seed_is_12345_and_other_seeds_change_inputs(name):
    assert run.parse_args(["--workload", name]).seed == 12345
    assert workloads.inputs(name) == workloads.inputs(name, 12345)
    assert workloads.inputs(name, 7) != workloads.inputs(name, 12345)
    assert workloads.inputs(name, 7) == workloads.inputs(name, 7)


# -- references ---------------------------------------------------------------------

@pytest.mark.parametrize("gen", workloads.SWEEP_GENERATORS)
def test_expected_knots_match_the_generators(gen):
    s_last = workloads.inputs("bounds-sweep")["s_last"]
    kv = workloads.BoundsSweep(12345)._generate(gen, 48)
    assert checks.check_knots(gen, 48, s_last, kv) == ""


def test_check_report_accepts_the_package_and_flags_a_wrong_value():
    inp = workloads.inputs("bounds-sweep")
    kv = knotgen.quasi_cyclic(48)
    for label, _, thunk in workloads.evaluators(kv, inp["f"], "quasi-cyclic"):
        try:
            rep = thunk()
        except (UnitRadius, NoPositiveBound):
            continue
        assert checks.check_report(label, kv, inp["f"], rep) == "", label
        rep.log10value += 1e-3
        assert checks.check_report(label, kv, inp["f"], rep) != "", label


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
