"""vandcond benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload {paper-tables,bounds-sweep,cli-session}
                         [--seed N] [--seconds S] [--trace 0|1]

It imports the package from ``src/`` beside this directory, sets up (import
plus warm-up), runs whole passes of the workload, checks every output
against a reference, and prints each metric by name with its unit, the
environment, the failing ops and the correctness verdict.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  A copy of the full result, and with ``--trace 1`` the
spans, is written under ``.bench_out/``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Set-up runs once in this process and this many more times in fresh
#: interpreters; setup_s is the median.
SETUP_PROBES = 2

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("ok_frac", "fraction"))

PER_LAYER = (
    ("spectral.genp.busy_s", "s"), ("spectral.genp.gflop_s", "GFLOP/s"),
    ("spectral.svd.busy_s", "s"), ("spectral.svd.calls", "count"),
    ("spectral.circle.busy_s", "s"), ("spectral.poly.busy_s", "s"),
    ("cauchyinv.busy_s", "s"), ("cauchyinv.alloc_peak_mb", "MB"),
    ("knotgen.busy_s", "s"), ("knotgen.calls", "count"),
    ("knotgen.alloc_peak_mb", "MB"), ("structmat.busy_s", "s"),
    ("bounds.cv.busy_s", "s"), ("bounds.circle.busy_s", "s"),
    ("bounds.cluster.busy_s", "s"), ("bounds.coeff.busy_s", "s"),
    ("bounds.arc.busy_s", "s"), ("bounds.other.busy_s", "s"),
    ("bounds.calls", "count"), ("bounds.refused", "count"),
    ("bounds.failed", "count"), ("bounds.applicable_frac", "fraction"),
    ("tables.T1.busy_s", "s"), ("tables.T2.busy_s", "s"),
    ("tables.T3.busy_s", "s"), ("tables.T4.busy_s", "s"),
    ("tables.T5.busy_s", "s"), ("tables.emit.busy_s", "s"),
    ("tables.error_cells", "count"),
    ("cli.import_s", "s"), ("cli.gen-knots.wall_s", "s"),
    ("cli.cond.wall_s", "s"), ("cli.bounds.wall_s", "s"),
    ("cli.invert.wall_s", "s"), ("cli.table.wall_s", "s"),
    ("cli.build.wall_s", "s"), ("cli.genp.wall_s", "s"),
    ("cli.stdout_mb", "MB"), ("cli.stderr_lines", "count"),
    ("trace.overhead_frac", "fraction"), ("trace.attributed_frac", "fraction"),
)

NOTES = {
    "setup_s": "median of in-process and fresh-interpreter set-ups",
    "pass_s": "median wall time of one pass",
    "op_p50_ms": "median over ops",
    "peak_rss_mb": "ru_maxrss; max over children for cli-session",
    "ok_frac": "ops not failed over attempted",
    "spectral.genp.gflop_s": "computed flop count over busy time",
    "trace.overhead_frac": "traced pass_s over untraced, minus 1",
    "trace.attributed_frac": "pass time covered by layer spans",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, wl, setup_samples):
    """Run the passes; returns (metrics, ops, details)."""
    passes = harness.pass_count(args.seconds, wl.nominal_pass_s)
    plain = passes
    if args.trace:  # untraced, traced and allocation passes, in that order
        passes = max(passes, 3)
        plain = max(1, (passes - 1) // 2)
    ops, times = [], []
    for p in range(plain):
        t0 = time.perf_counter()
        pass_ops = wl.run_pass(p)
        times.append(time.perf_counter() - t0)
        wl.after_pass(pass_ops)
        ops.extend(pass_ops)
    if wl.in_process:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss = max(op.extra["rss_mb"] for op in ops)

    spans, traced_times = [], []
    if args.trace:
        import tracing
        tracer = wl.tracer = tracing.Tracer()
        spans = tracer.spans
        # Every traced pass but the last times the layers; the last one
        # records allocation peaks instead.
        for p in range(plain, passes):
            tracer.track_alloc = p == passes - 1
            tracer.tags = {"pass": p}
            with tracing.instrument(tracer), tracer.span("bench.pass") as rec:
                pass_ops = wl.run_pass(p)
            if not tracer.track_alloc:
                traced_times.append(rec["end"] - rec["start"])
            wl.after_pass(pass_ops)
            ops.extend(pass_ops)
        wl.tracer = None
    wl.finish(ops)

    failed = sum(op.verdict == harness.FAILED for op in ops)
    op_ms = [op.seconds * 1e3 for op in ops if op.pass_no < plain]
    tail_ms, tail_pct, tail_n = harness.tail(op_ms)
    details = {"passes": passes, "untraced_passes": plain, "pass_times_s": times,
               "traced_pass_times_s": traced_times, "setup_samples_s": setup_samples,
               "op_tail_percentile": tail_pct, "op_samples": tail_n}
    if not args.trace:
        metrics = {"setup_s": statistics.median(setup_samples),
                   "pass_s": statistics.median(times),
                   "op_p50_ms": statistics.median(op_ms),
                   "op_tail_ms": tail_ms, "peak_rss_mb": peak_rss,
                   "ok_frac": 1.0 - failed / len(ops)}
        return metrics, ops, details

    import tracing
    per_pass = {}
    for p in range(plain, passes):
        pass_ops = [op for op in ops if op.pass_no == p]
        failed_ids = {i for i, op in enumerate(pass_ops) if op.verdict == harness.FAILED}
        per_pass[p] = tracing.layer_metrics([s for s in spans if s["pass"] == p], failed_ids)
        per_pass[p].update(wl.layer_extras(pass_ops))
    layer = tracing.combine_passes([per_pass[p] for p in range(plain, passes - 1)],
                                   [per_pass[passes - 1]])
    layer["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(times) - 1.0
    timed_spans = [s for s in spans if s["pass"] < passes - 1]
    layer["trace.attributed_frac"] = tracing.attributed_frac(timed_spans)
    metrics = {name: layer.get(name, 0.0) for name, _ in PER_LAYER}
    details["spans"] = spans
    details["self_time_top"] = _top_self_times(timed_spans)
    return metrics, ops, details


def _top_self_times(spans, limit=12):
    import tracing
    names = {s["id"]: s["name"] for s in spans}
    totals = {}
    for span_id, secs in tracing.self_times(spans).items():
        totals[names[span_id]] = totals.get(names[span_id], 0.0) + secs
    return sorted(totals.items(), key=lambda kv: -kv[1])[:limit]


def failing_ops(workload, ops):
    """One entry per failing op name: passes failed, reason, known defect."""
    seen = {}
    for op in ops:
        if op.verdict == harness.FAILED:
            entry = seen.setdefault(op.name, {"op": op.name, "failed_passes": 0,
                                              "reason": op.reason})
            entry["failed_passes"] += 1
            entry["known_defect"] = (workload, op.name) in workloads.KNOWN_DEFECTS
    return list(seen.values())


def report(args, env, metrics, units, details, failures, problems, correct, attempted):
    print(f"vandcond benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print("environment: " + json.dumps(env))
    for name, unit in units:
        note = NOTES.get(name, "")
        if name == "op_tail_ms":
            note = (f"p{details['op_tail_percentile']:.1f} of {details['op_samples']} ops, "
                    f"{harness.TAIL_BEYOND} beyond it")
        print(f"  {name:<26} {metrics[name]:>14.6g} {unit:<9} {note}")
    for name, secs in details.get("self_time_top", ()):
        print(f"  self time, all timed traced passes: {name:<36} {secs:10.4f} s")
    failed = sum(f["failed_passes"] for f in failures)
    print(f"ops: {attempted} attempted, {failed} failed, fail_frac {failed / attempted:.6g}")
    for f in failures:
        tag = "known defect" if f["known_defect"] else "NEW FAILURE"
        print(f"  FAILED [{tag}] {args.workload} | {f['op']} | "
              f"{f['failed_passes']} of {details['passes']} passes | {f['reason']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("verdict: " + ("correct" if correct else "INCORRECT"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vandcond", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    harness.setup()
    setup_samples = [time.perf_counter() - T0]
    import vandcond
    if os.path.dirname(os.path.abspath(vandcond.__file__)) != os.path.join(SRC, "vandcond"):
        print(f"error: vandcond imported from {vandcond.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_samples += [harness.probe_setup(BENCH_DIR, SRC) for _ in range(SETUP_PROBES)]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = workloads.make(args.workload, args.seed, workdir, BENCH_DIR, SRC)
        metrics, ops, details = measure(args, wl, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = harness.environment(ROOT, args.seed, args.seconds, details["passes"])
    failures = failing_ops(args.workload, ops)
    correct = not wl.problems and all(f["known_defect"] for f in failures)
    failed = sum(op.verdict == harness.FAILED for op in ops)
    units = PER_LAYER if args.trace else END_TO_END
    report(args, env, metrics, units, details, failures, wl.problems, correct, len(ops))

    spans = details.pop("spans", None)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "metrics": metrics, "units": dict(units),
                   "details": details, "failing_ops": failures,
                   "check_failures": wl.problems, "correct": correct}, fh, indent=1)
    if spans is not None:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
