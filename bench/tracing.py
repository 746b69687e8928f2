"""In-memory spans for the traced benchmark run, and the layer metrics
derived from them.

A span records a name, start and end (perf_counter seconds), the id of the
span it ran inside and the pass and op that caused it.  Spans stay in
memory and are written once, when the run ends.  An untraced run never
imports this module: functions are wrapped only inside `instrument`, and
the wrappers are removed when it exits.

Span names are ``<module>.<function>`` for the package's public functions,
``cli.<command>`` for CLI children and ``bench.pass`` for one pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import statistics
import sys
import time
import tracemalloc

#: Layers whose spans can record their peak traced allocation.  tracemalloc
#: sees numpy buffers; it runs only inside these spans to bound its cost.
ALLOC_LAYERS = ("knotgen", "cauchyinv")

#: Public functions reached across modules but not exported by the package.
EXTRA_TARGETS = (("structmat", "cv_knots"), ("structmat", "dump_matrix"),
                 ("cauchyinv", "cv_inverse_log_entries"),
                 ("cauchyinv", "cauchy_inverse_log_entries"))

_SPECTRAL_KIND = {"singular_values": "svd", "norms": "svd",
                  "genp_residual_experiment": "genp", "genp_solve": "genp",
                  "max_abs_on_circle": "circle", "poly_from_roots": "poly"}
_BOUNDS_KIND = {"bound_cv": "cv", "bound_circle_value": "circle",
                "bound_cluster": "cluster", "bound_coeff_norm": "coeff",
                "best_arc_search": "arc", "bound_arc": "arc",
                "arc_certificate": "arc"}


class Tracer:
    """Collects spans; `tags` (pass, op) are copied into each new span.

    With `track_alloc`, spans of ALLOC_LAYERS also record their peak traced
    allocation.  tracemalloc slows Python-heavy code several times over, so
    allocation passes are kept apart from the passes whose times count.
    """

    def __init__(self, track_alloc: bool = False):
        self.spans = []
        self.tags = {}
        self.track_alloc = track_alloc
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               **self.tags, **attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        alloc = (self.track_alloc and name.split(".")[0] in ALLOC_LAYERS
                 and not tracemalloc.is_tracing())
        if alloc:
            tracemalloc.start()
        try:
            yield rec
        finally:
            if alloc:
                rec["alloc_peak_b"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans, parent: int, **tags) -> None:
        """Append spans recorded by another process under span `parent`."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec, **tags)
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + base
            rec["id"] += base
            self.spans.append(rec)


def _genp_flops(n: int, trials: int) -> float:
    """Computed real flop count of one GENP residual experiment.

    Complex LU without pivoting takes 8/3 (n^3 - n) real flops; each trial
    adds two triangular solves and one residual product, 16 n^2.
    """
    return 8.0 / 3.0 * (n ** 3 - n) + 16.0 * trials * n * n


def _call_attrs(name: str, sig, args, kwargs) -> dict:
    if name == "tables.run_table":
        return {"table": str(args[0]).upper()}
    if name == "spectral.genp_residual_experiment":
        bound = sig.bind(*args, **kwargs).arguments
        return {"flops": _genp_flops(int(bound["n"]), int(bound["trials"]))}
    return {}


def _result_attrs(out) -> dict:
    if isinstance(out, tuple) and len(out) == 2:  # best_arc_search
        out = out[1]
    if hasattr(out, "applicable") and hasattr(out, "log10value"):
        finite = math.isfinite(out.log10value)
        outcome = ("useful" if out.applicable and finite
                   else "failed" if out.applicable else "inapplicable")
        return {"outcome": outcome}
    if hasattr(out, "rows") and hasattr(out, "table_id"):
        return {"outcome": "ok",
                "error_cells": sum(1 for row in out.rows if row.get("error"))}
    return {"outcome": "ok"}


def _wrap(tracer: Tracer, name: str, fn, refusal):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, **_call_attrs(name, sig, args, kwargs)) as rec:
            try:
                out = fn(*args, **kwargs)
            except refusal:
                rec["outcome"] = "refused"
                raise
            except Exception:
                rec["outcome"] = "error"
                raise
            rec.update(_result_attrs(out))
            return out
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's public functions in spans while the block runs.

    Every loaded vandcond module that holds one of these functions under an
    imported name gets the wrapper too, so calls from one module into
    another show up as child spans.
    """
    import importlib

    import vandcond
    from vandcond.errors import VandcondError

    targets = {}
    for public in vandcond.__all__:
        obj = getattr(vandcond, public)
        if inspect.isfunction(obj):
            targets[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
    for mod_name, attr in EXTRA_TARGETS:
        obj = getattr(importlib.import_module(f"vandcond.{mod_name}"), attr)
        targets[obj] = f"{mod_name}.{attr}"
    wrappers = {fn: _wrap(tracer, name, fn, VandcondError)
                for fn, name in targets.items()}
    patched = []
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "vandcond" or key.startswith("vandcond.")]
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
                patched.append((mod, attr, val))
    try:
        yield
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)


# -- metrics from spans -----------------------------------------------------

def category(span: dict) -> str:
    """The metric family a span counts toward, e.g. ``spectral.svd``."""
    layer, _, func = span["name"].partition(".")
    if layer == "spectral":
        return "spectral." + _SPECTRAL_KIND.get(func, "other")
    if layer == "bounds":
        return "bounds." + _BOUNDS_KIND.get(func, "other")
    if layer == "tables":
        if func == "run_table":
            return "tables." + span.get("table", "other")
        return "tables." + ("emit" if func == "emit" else "other")
    return layer


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
            if c["end"] > s["start"] and c["start"] < s["end"])
        out[s["id"]] = duration(s) - covered
    return out


def outermost(spans, predicate):
    """Spans matching `predicate` with no matching ancestor."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if not predicate(s):
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and not predicate(parent):
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


def busy(spans, cat: str) -> float:
    """Seconds spent inside spans of one category, nested repeats counted once."""
    return sum(duration(s) for s in outermost(spans, lambda s: category(s) == cat))


BUSY_CATEGORIES = ("spectral.genp", "spectral.svd", "spectral.circle",
                   "spectral.poly", "cauchyinv", "knotgen", "structmat",
                   "bounds.cv", "bounds.circle", "bounds.cluster",
                   "bounds.coeff", "bounds.arc", "bounds.other",
                   "tables.T1", "tables.T2", "tables.T3", "tables.T4",
                   "tables.T5", "tables.emit")


def _alloc_peak_mb(spans, layer: str) -> float:
    peaks = [s.get("alloc_peak_b", 0) for s in spans
             if s["name"].split(".")[0] == layer]
    return max(peaks, default=0) / 2.0 ** 20


def layer_metrics(spans, failed_ops=frozenset()) -> dict:
    """Per-layer metrics of the spans of one pass.

    `failed_ops` holds the op ids the benchmark judged failed; a bounds call
    that is the whole of such an op counts as failed even when the layer
    itself returned normally (a warning or a wrong value).
    """
    out = {f"{cat}.busy_s": busy(spans, cat) for cat in BUSY_CATEGORIES}
    genp = outermost(spans, lambda s: category(s) == "spectral.genp")
    genp_busy = sum(duration(s) for s in genp)
    out["spectral.genp.gflop_s"] = (
        sum(s.get("flops", 0.0) for s in genp) / genp_busy / 1e9 if genp_busy else 0.0)
    out["spectral.svd.calls"] = len([s for s in spans if category(s) == "spectral.svd"])
    out["knotgen.calls"] = len(outermost(spans, lambda s: category(s) == "knotgen"))
    out["knotgen.alloc_peak_mb"] = _alloc_peak_mb(spans, "knotgen")
    out["cauchyinv.alloc_peak_mb"] = _alloc_peak_mb(spans, "cauchyinv")
    by_id = {s["id"]: s for s in spans}
    calls = outermost(spans, lambda s: s["name"].startswith("bounds."))
    refused = failed = useful = 0
    for s in calls:
        parent = by_id.get(s["parent"])
        whole_op = parent is None or parent["name"] == "bench.pass"
        outcome = s.get("outcome")
        if outcome in ("error", "failed") or (whole_op and s.get("op") in failed_ops):
            failed += 1
        elif outcome == "refused":
            refused += 1
        elif outcome == "useful":
            useful += 1
    out["bounds.calls"] = len(calls)
    out["bounds.refused"] = refused
    out["bounds.failed"] = failed
    out["bounds.applicable_frac"] = useful / len(calls) if calls else 0.0
    out["tables.error_cells"] = sum(s.get("error_cells", 0) for s in spans
                                    if s["name"] == "tables.run_table")
    return out


def attributed_frac(spans) -> float:
    """Share of the pass spans' time covered by layer spans below them."""
    passes = [s for s in spans if s["name"] == "bench.pass"]
    total = sum(duration(s) for s in passes)
    if not total:
        return 0.0
    selfs = self_times(spans)
    return 1.0 - sum(selfs[s["id"]] for s in passes) / total


ALLOC_METRICS = ("knotgen.alloc_peak_mb", "cauchyinv.alloc_peak_mb")


def combine_passes(timed, alloc) -> dict:
    """Medians over the timed passes; allocation peaks from the alloc passes."""
    out = {k: statistics.median(p[k] for p in timed) for k in timed[0]}
    for k in ALLOC_METRICS:
        out[k] = max(p[k] for p in alloc)
    return out
