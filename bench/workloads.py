"""The three benchmark workloads and their correctness checks.

paper-tables  warm, in process: T1-T5 at their default grids, one grid size
              per `run_table` call, then every table emitted as csv,
              markdown and json.  The paper's time to solution; GENP
              dominates, bound evaluators barely run.
bounds-sweep  warm, in process: four knot generators (on, inside and
              outside the unit circle) at n = 192, 768, 1536, each knot set
              through the evaluator list of `vandcond bounds`; an op is one
              evaluator call.  No GENP.
cli-session   cold: a fixed script of `python -m vandcond.cli` children run
              one at a time, as a shell user would.  Every child pays the
              package import and the OpenBLAS thread start.

A workload derives every input from the seed (`inputs`); the package sees
only the generated inputs.  `run_pass` is the timed part.  `after_pass` and
`finish` check outputs against references and never run inside a timing.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import json
import math
import os
import random
import statistics
import sys

from harness import (DEFAULT_SEED, FAILED, OK, Op, child_env, classify, guarded,
                     run_child, run_op)

WORKLOAD_NAMES = ("paper-tables", "bounds-sweep", "cli-session")

#: Radius of the single outlier knot; its angle comes from the seed.
OUTLIER_RADIUS = 1.5

#: Ops that fail at the baseline because of one recorded defect:
#: `bound_coeff_norm` forms the monomial coefficients by a recurrence whose
#: rounding error overflows or swamps the true norm (ROADMAP item 4).  They
#: count as failures; they do not make the run incorrect.  Any other
#: failing op does.
KNOWN_DEFECTS = {
    ("bounds-sweep", "coeff-norm quasi-cyclic n=1536"): "+inf, applicable, RuntimeWarning",
    ("bounds-sweep", "coeff-norm scaled-cluster n=768"): "+inf, applicable, RuntimeWarning",
    ("bounds-sweep", "coeff-norm single-outlier n=768"): "RuntimeWarning",
    ("bounds-sweep", "coeff-norm quasi-cyclic n=768"): "35 decades above Parseval",
    ("bounds-sweep", "coeff-norm scaled-cluster n=192"): "25 decades above Parseval",
    ("cli-session", "bounds scaled-cluster n=768"): "RuntimeWarning on stderr",
}


def inputs(workload: str, seed: int = DEFAULT_SEED) -> dict:
    """Every input a workload derives from its seed."""
    rng = random.Random(seed)
    if workload == "paper-tables":
        return {"t5_seed": seed}
    if workload == "bounds-sweep":
        return {"f": cmath.exp(2j * math.pi * rng.random()),
                "s_last": OUTLIER_RADIUS * cmath.exp(2j * math.pi * rng.random())}
    if workload == "cli-session":
        f = cmath.exp(2j * math.pi * rng.random())
        return {"f_arg": f"{f.real!r},{f.imag!r}", "genp_seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


class Workload:
    """Common bookkeeping: op ids for spans and the list of failed checks."""

    name = ""
    nominal_pass_s = 1.0
    in_process = True

    def __init__(self):
        self.problems = []  # failed checks that belong to no single op
        self.tracer = None

    def _tag(self, ops) -> None:
        if self.tracer is not None:
            self.tracer.tags["op"] = len(ops)

    def _op(self, ops, pass_no, name, thunk, **extra) -> Op:
        self._tag(ops)
        op = run_op(pass_no, name, thunk)
        op.extra.update(extra)
        ops.append(op)
        return op

    def after_pass(self, ops) -> None:
        pass

    def finish(self, ops) -> None:
        pass

    def layer_extras(self, ops) -> dict:
        return {}


# -- paper-tables -------------------------------------------------------------

TRIALS = 100
FORMATS = ("csv", "markdown", "json")

# Reference cells and tolerances of the acceptance suite (the paper's
# tables).  Kappa cells flagged untrustworthy are checked for the flag only.
T1_BOUND_STRINGS = {
    (64, 1.140625): "4.98E+02", (64, 1.5625): "2.03E+11",
    (64, 3.25): "2.22E+31", (64, 10.0): "1.25E+62",
    (128, 1.140625): "1.60E+06", (128, 1.5625): "3.64E+23",
    (128, 3.25): "9.03E+63", (128, 10.0): "8.84E+125",
    (256, 1.140625): "2.33E+13", (256, 1.5625): "1.66E+48",
    (256, 3.25): "2.12E+129", (256, 10.0): "6.25E+253",
}
T1_KAPPA = {(64, 1.140625): 3.36e3, (128, 1.140625): 1.08e7, (256, 1.140625): 1.57e14}
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
T3_KAPPA = {12: (2.16e1, 0.02), 24: (1.50e3, 0.02), 48: (1.16e7, 0.05)}
T3_PRIME = {4: 1.03e1, 8: 1.06e2, 16: 1.13e4, 32: 1.27e8}
T4_KAPPA = {8: (1.53e1, 0.02), 16: (1.06e3, 0.02), 32: (8.18e6, 0.02)}
UNTRUSTED = {("T3", 96), ("T4", 64)}
# Criterion-09 band: means within 10x through n=128, increasing through 256.
T5_MEANS = {16: 8.88e-14, 32: 8.01e-10, 64: 5.31e-3, 128: 5.00e0}
T5_MONOTONE_THROUGH = 256


def _rel(got, ref, tol) -> bool:
    return abs(got - ref) <= tol * abs(ref)


def check_table_row(tid: str, row: dict) -> str:
    """Reference cells of one row; '' when every checked cell agrees."""
    if row.get("error"):
        return f"error cell: {row['error']}"
    n = row["n"]
    trusted = (tid, n) not in UNTRUSTED
    if not trusted and row["kappa_trustworthy"] is not False:
        return "kappa not flagged untrustworthy"
    if tid == "T1":
        key = (n, row["s_last"])
        from vandcond.tables import format_sci
        if format_sci(row["easy_bound_log10"]) != T1_BOUND_STRINGS[key]:
            return f"easy bound {format_sci(row['easy_bound_log10'])} != {T1_BOUND_STRINGS[key]}"
        if key in T1_KAPPA and not _rel(row["kappa"], T1_KAPPA[key], 0.05):
            return f"kappa {row['kappa']:.4g} vs {T1_KAPPA[key]:.4g}"
        if row["kappa_log10"] < row["easy_bound_log10"]:
            return "kappa below the easy bound"
    elif tid == "T2":
        k34, m34, k12, m12 = T2_REFS[(n, row["k"])]
        for col, ref, tol in (("kappa_rho34", k34, 0.05), ("kappa_rho12", k12, 0.05),
                              ("kappa_minus_rho34", m34, 0.15),
                              ("kappa_minus_rho12", m12, 0.15)):
            if not _rel(row[col], ref, tol):
                return f"{col} {row[col]:.4g} vs {ref:.4g}"
    elif tid == "T3":
        ref, tol = T3_KAPPA.get(n, (None, None))
        if trusted and not _rel(row["kappa"], ref, tol):
            return f"kappa {row['kappa']:.4g} vs {ref:.4g}"
        q = row["q"]
        if not _rel(row["kappa_prime"], T3_PRIME[q], 0.01):
            return f"kappa_prime {row['kappa_prime']:.4g} vs {T3_PRIME[q]:.4g}"
        if q == 16 and abs(row["kappa_refined"] - 27598) > 1.0:
            return f"kappa_refined {row['kappa_refined']:.6g} vs 27598"
    elif tid == "T4" and trusted:
        ref, tol = T4_KAPPA[n]
        if not _rel(row["kappa"], ref, tol):
            return f"kappa {row['kappa']:.4g} vs {ref:.4g}"
    elif tid == "T5" and n in T5_MEANS:
        ref = T5_MEANS[n]
        if not ref / 10.0 <= row["mean"] <= ref * 10.0:
            return f"mean {row['mean']:.3g} outside [{ref / 10:.3g}, {ref * 10:.3g}]"
    return ""


def _csv_body(text: str) -> list:
    return [line for line in text.splitlines() if not line.startswith("# timestamp=")]


def _json_body(text: str) -> dict:
    obj = json.loads(text)
    obj["metadata"].pop("timestamp", None)
    return obj


class PaperTables(Workload):
    name = "paper-tables"
    nominal_pass_s = 3.6

    def __init__(self, seed):
        super().__init__()
        from vandcond import tables
        self.seed = inputs(self.name, seed)["t5_seed"]
        self.grid = (("T1", tables.T1_SIZES), ("T2", tables.T2_SIZES),
                     ("T3", tables.T3_Q_VALUES), ("T4", tables.T4_SIZES),
                     ("T5", tables.T5_SIZES))
        self.emitted = []  # per pass: {table id: {format: text}}

    def run_pass(self, p):
        from vandcond import tables
        overrides = {"trials": TRIALS, "seed": self.seed}
        ops, merged = [], {}
        for tid, sizes in self.grid:
            parts = []
            for size in sizes:
                op = self._op(ops, p, f"{tid} size={size}",
                              lambda: tables.run_table(tid, dict(overrides, sizes=[size])),
                              table=tid)
                if op.verdict == OK:
                    parts.append(op.result)
            if len(parts) == len(sizes):
                merged[tid] = tables.ExperimentTable(
                    tid, parts[0].columns, [r for t in parts for r in t.rows],
                    dict(parts[0].metadata))
        self._tag(ops)
        self.emitted.append({tid: {fmt: tables.emit(t, fmt) for fmt in FORMATS}
                             for tid, t in merged.items()})
        return ops

    def finish(self, ops):
        from vandcond import tables
        whole = {tid: tables.run_table(tid, {"trials": TRIALS, "seed": self.seed})
                 for tid, _ in self.grid}
        for op in ops:
            if op.verdict != OK:
                continue
            tid = op.extra["table"]
            size = int(op.name.split("=")[1])
            key = "q" if tid == "T3" else "n"
            ref_rows = [r for r in whole[tid].rows if r[key] == size]
            problem = guarded(self._compare_rows, tid, op.result.rows, ref_rows) or next(
                (p for p in (guarded(check_table_row, tid, r) for r in op.result.rows) if p), "")
            if problem:
                op.fail(problem)
        self._check_t5_monotone(ops)
        for texts in self.emitted:
            self._check_emitted(texts, whole)
        for op in ops:
            op.result = None

    @staticmethod
    def _compare_rows(tid, rows, ref_rows) -> str:
        if len(rows) != len(ref_rows):
            return f"{len(rows)} rows, whole-table run has {len(ref_rows)}"
        for row, ref in zip(rows, ref_rows):
            if tid != "T5":
                if row != ref:
                    return "row differs from the whole-table run"
            elif not ref["mean"] / 10.0 <= row["mean"] <= ref["mean"] * 10.0:
                return f"T5 mean {row['mean']:.3g} vs whole-table {ref['mean']:.3g}"
        return ""

    @staticmethod
    def _check_t5_monotone(ops) -> None:
        by_pass = {}
        for op in ops:
            if op.extra["table"] == "T5" and op.result is not None and op.verdict == OK:
                by_pass.setdefault(op.pass_no, []).append(op)
        for t5 in by_pass.values():
            t5.sort(key=lambda o: o.result.rows[0]["n"])
            for prev, cur in zip(t5, t5[1:]):
                n = cur.result.rows[0]["n"]
                if n <= T5_MONOTONE_THROUGH and cur.result.rows[0]["mean"] <= prev.result.rows[0]["mean"]:
                    cur.fail(f"T5 mean not increasing at n={n}")

    def _check_emitted(self, texts, whole) -> None:
        from vandcond import tables
        for tid, ref in whole.items():
            if tid not in texts:
                continue
            got = texts[tid]
            back = tables.table_from_json(got["json"])
            if back.columns != ref.columns or len(back.rows) != len(ref.rows):
                self.problems.append(f"{tid} json does not round-trip")
            if tid == "T5":
                continue  # cells checked against the criterion-09 band above
            if _csv_body(got["csv"]) != _csv_body(tables.emit(ref, "csv")):
                self.problems.append(f"{tid} csv differs from the whole-table run")
            if got["markdown"] != tables.emit(ref, "markdown"):
                self.problems.append(f"{tid} markdown differs from the whole-table run")
            if _json_body(got["json"]) != _json_body(tables.emit(ref, "json")):
                self.problems.append(f"{tid} json differs from the whole-table run")


# -- bounds-sweep -------------------------------------------------------------

SWEEP_SIZES = (192, 768, 1536)
SWEEP_GENERATORS = ("quasi-cyclic", "van-der-corput", "scaled-cluster", "single-outlier")
ETA_GRID = (1.1, 1.2, 1.5)


def evaluators(kv, f: complex, gen: str):
    """(label, bound id, thunk) for the evaluator list of `vandcond bounds`."""
    import numpy as np

    from vandcond import bounds, cauchyinv

    out = [("easy", bounds.EASY, lambda: bounds.bound_easy(kv)),
           ("refined-norm", bounds.REFINED_NORM, lambda: bounds.bound_refined_norm(kv))]
    moduli = np.abs(kv.as_array())
    small = moduli[moduli < 1.0 - 1e-9]
    if small.size:
        nu, k = 1.0 / float(small.max()), int(small.size)
        for mode in ("literal", "computed-norm"):
            out.append((f"cluster-{mode}", bounds.CLUSTER,
                        lambda m=mode: bounds.bound_cluster(kv, k, nu, m)))
    for v in cauchyinv.InverseVariant:
        out.append((f"cv-inverse-{v.value}", bounds.CV_INVERSE,
                    lambda v=v: bounds.bound_cv(kv, f, v)))
    out.append(("circle-value", bounds.CIRCLE_VALUE, lambda: bounds.bound_circle_value(kv, 0)))
    out.append(("coeff-norm", bounds.COEFF_NORM, lambda: bounds.bound_coeff_norm(kv)))
    n = len(kv)
    if gen == "quasi-cyclic" and n % 3 == 0:
        q = n // 3
        for mode in bounds.QC_MODES:
            if mode in ("base", "product") and q & (q - 1):
                continue
            out.append((f"quasi-cyclic-{mode}", f"quasi-cyclic-{mode}",
                        lambda m=mode: bounds.bound_quasi_cyclic(q, m)))
    out.append(("arc", bounds.ARC_VANDERMONDE,
                lambda: bounds.best_arc_search(kv, f, ETA_GRID)[1]))
    return out


def _signature(result):
    """What must repeat exactly from pass to pass."""
    if isinstance(result, Exception):
        return type(result).__name__
    return (result.bound_id, result.log10value, result.applicable, result.variant)


class BoundsSweep(Workload):
    name = "bounds-sweep"
    nominal_pass_s = 10.0

    def __init__(self, seed):
        super().__init__()
        inp = inputs(self.name, seed)
        self.f, self.s_last = inp["f"], inp["s_last"]
        self.knots = {}  # (generator, n) -> the knot vector of every pass

    def _generate(self, gen, n):
        from vandcond import knotgen
        if gen == "quasi-cyclic":
            return knotgen.quasi_cyclic(n)
        if gen == "van-der-corput":
            return knotgen.van_der_corput(n)
        if gen == "scaled-cluster":
            return knotgen.scaled_cluster(n, n // 8, 0.5)
        return knotgen.single_outlier(n, self.s_last)

    def run_pass(self, p):
        # Knot generation is timed in the pass and checked, but it is not an
        # op: an op is one evaluator call.
        ops = []
        for n in SWEEP_SIZES:
            for gen in SWEEP_GENERATORS:
                self._tag(ops)
                made = run_op(p, f"knotgen {gen} n={n}", lambda: self._generate(gen, n))
                if made.verdict != OK:
                    self.problems.append(f"{made.name}: {made.reason}")
                    continue
                kv = made.result
                self.knots.setdefault((gen, n), []).append(kv)
                for label, _, thunk in evaluators(kv, self.f, gen):
                    self._op(ops, p, f"{label} {gen} n={n}", thunk, label=label, kv=kv)
        return ops

    def finish(self, ops):
        from checks import check_knots, check_report
        for (gen, n), made in self.knots.items():
            problem = guarded(check_knots, gen, n, self.s_last, made[0])
            if problem or any(tuple(kv) != tuple(made[0]) for kv in made[1:]):
                self.problems.append(f"knotgen {gen} n={n}: {problem or 'differs between passes'}")
        self.knots.clear()
        first = {}
        for op in ops:
            ref = first.setdefault(op.name, op)
            if ref is op:
                if op.verdict == FAILED or isinstance(op.result, Exception):
                    continue
                problem = guarded(check_report, op.extra["label"], op.extra["kv"], self.f,
                                  op.result)
                if problem:
                    op.fail(problem)
            elif _signature(op.result) != _signature(ref.result):
                op.fail("result differs from the first pass")
            elif ref.verdict == FAILED and op.verdict != FAILED:
                op.fail(ref.reason)
        for op in ops:
            op.result = None
            op.extra.pop("kv", None)


# -- cli-session --------------------------------------------------------------

CLI_COMMANDS = ("gen-knots", "cond", "bounds", "invert", "table", "build", "genp")


def _script(inp):
    """(label, command line, files it writes) of every child, in order."""
    f = f"--f={inp['f_arg']}"
    return (
        ("gen-knots van-der-corput n=4096",
         ["gen-knots", "--gen", "van-der-corput", "--n", "4096", "--out", "K"], ("K",)),
        ("gen-knots file", ["gen-knots", "--gen", "file", "--file", "K", "--out", "K2"],
         ("K", "K2")),
        ("cond quasi-cyclic n=48", ["cond", "--gen", "quasi-cyclic", "--n", "48"], ()),
        ("cond van-der-corput n=768", ["cond", "--gen", "van-der-corput", "--n", "768"], ()),
        ("bounds quasi-cyclic n=768", ["bounds", "--gen", "quasi-cyclic", "--n", "768", f], ()),
        ("bounds scaled-cluster n=768", ["bounds", "--gen", "scaled-cluster", "--n", "768",
                                         "--k", "96", "--rho", "0.5", f], ()),
        ("invert cv n=384",
         ["invert", "--gen", "quasi-cyclic", "--n", "384", "--method", "cv", f], ()),
        ("invert cauchy log-domain n=384", ["invert", "--gen", "quasi-cyclic", "--n", "384",
                                            "--method", "cauchy", "--log-domain", f], ()),
        ("table 3", ["table", "--id", "3"], ()),
        ("table 4 json", ["table", "--id", "4", "--format", "json"], ()),
        ("build dft n=256", ["build", "--gen", "dft", "--n", "256", "--dump", "D"], ("D",)),
        ("genp n=256", ["genp", "--n", "256", "--seed", str(inp["genp_seed"])], ()),
    )


def _first_difference(got: bytes, ref: bytes) -> str:
    if got == ref:
        return ""
    a, b = got.splitlines(), ref.splitlines()
    for i, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return f"line {i} differs: {x[:60]!r} vs {y[:60]!r}"
    return f"{len(a)} lines, reference has {len(b)}"


class CliSession(Workload):
    name = "cli-session"
    nominal_pass_s = 11.0
    in_process = False

    def __init__(self, seed, workdir, bench_dir, src_dir):
        super().__init__()
        self.inp = inputs(self.name, seed)
        self.workdir = workdir
        self.bench_dir = bench_dir
        self.env = child_env(src_dir)
        self.traced_env = child_env(src_dir, bench_dir)
        self.script = _script(self.inp)
        self._refs = {}
        self._digests = {}

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def run_pass(self, p):
        ops = []
        for idx, (label, args, _) in enumerate(self.script):
            self._tag(ops)
            out, err = self._path(f"out{idx}"), self._path(f"err{idx}")
            command = args[0]
            import_s = None
            if self.tracer is None:
                argv = [sys.executable, "-m", "vandcond.cli", *args]
                seconds, rc, rss = run_child(argv, self.workdir, self.env, out, err)
            else:
                spans_path = self._path(f"spans{idx}.json")
                argv = [sys.executable, os.path.join(self.bench_dir, "cli_child.py"),
                        spans_path, str(int(self.tracer.track_alloc)), *args]
                with self.tracer.span(f"cli.{command}") as rec:
                    seconds, rc, rss = run_child(argv, self.workdir, self.traced_env, out, err)
                import_s = self._adopt(spans_path, rec)
            with open(err, encoding="utf-8", errors="replace") as fh:
                stderr = fh.read()
            verdict, reason = classify(returncode=rc, stderr=stderr)
            ops.append(Op(p, label, seconds, verdict, reason, extra={
                "command": command, "idx": idx, "rss_mb": rss,
                "stdout_b": os.path.getsize(out),
                "stderr_lines": len(stderr.splitlines()), "import_s": import_s}))
        return ops

    def _adopt(self, spans_path, rec):
        """Merge a traced child's spans under its cli span; its import time."""
        if not os.path.exists(spans_path):
            return None
        with open(spans_path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(spans_path)
        self.tracer.adopt(child["spans"], rec["id"], **self.tracer.tags)
        return child["import_s"]

    # Checks run between passes, on the outputs the pass left behind.
    def after_pass(self, ops):
        for op in ops:
            if op.verdict != OK:
                continue
            idx = op.extra["idx"]
            try:
                outputs = {name: self._read(name)
                           for name in (f"out{idx}", *self.script[idx][2])}
            except OSError as exc:
                op.fail(f"missing output: {exc}")
                continue
            digest = hashlib.sha256(b"".join(outputs.values())).hexdigest()
            if self._digests.get(idx) == digest:
                continue  # identical to an output already verified
            problem = guarded(self._check, idx, outputs)
            if problem:
                op.fail(problem)
            else:
                self._digests[idx] = digest

    def _read(self, name) -> bytes:
        with open(self._path(name), "rb") as fh:
            return fh.read()

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def _check(self, idx, outputs) -> str:
        label = self.script[idx][0]
        stdout = outputs[f"out{idx}"]
        if label.startswith("gen-knots"):
            return self._check_knot_file(idx, outputs)
        if label.startswith("cond"):
            return self._check_cond(label, stdout)
        if label.startswith("bounds"):
            return self._check_bounds(label, stdout)
        if label.startswith("invert"):
            return self._check_invert(label, stdout)
        if label.startswith("table"):
            return self._check_table(label, stdout)
        if label.startswith("build"):
            return self._check_build(outputs)
        return self._check_genp(stdout)

    def _knot_file_ref(self, kv) -> bytes:
        from vandcond import knotgen
        path = self._path("ref_knots")
        knotgen.write_knots(kv, path)
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return data

    def _check_knot_file(self, idx, files) -> str:
        from vandcond import knotgen
        if idx == 0:
            ref = self._ref("K", lambda: self._knot_file_ref(knotgen.van_der_corput(4096)))
            return _first_difference(files.get("K", b""), ref)
        ref = self._knot_file_ref(knotgen.read_knots(self._path("K")))
        problem = _first_difference(files.get("K2", b""), ref)
        if problem:
            return problem

        def data(raw):
            return [line for line in raw.splitlines() if not line.startswith(b"#")]
        # The header comment names the generator ("file" after a re-read);
        # every knot line must survive the round trip byte for byte.
        return "" if data(files["K2"]) == data(files["K"]) else "knot lines changed in the round trip"

    def _kv(self, gen, n):
        from vandcond import knotgen
        if gen == "quasi-cyclic":
            return knotgen.quasi_cyclic(n)
        if gen == "van-der-corput":
            return knotgen.van_der_corput(n)
        return knotgen.scaled_cluster(n, 96, 0.5)

    def _f(self, normalise=False):
        from vandcond.cli import parse_complex
        f = parse_complex(self.inp["f_arg"])
        return f / abs(f) if normalise else f

    def _check_cond(self, label, stdout) -> str:
        from vandcond import spectral, structmat
        gen, n = label.split()[1], int(label.split("n=")[1])
        lines = stdout.decode().splitlines()
        if lines[0] != "n,sigma1,sigma_min,kappa,log10kappa,trustworthy":
            return f"header {lines[0]!r}"
        cells = lines[1].split(",")
        ref = spectral.singular_values(structmat.vandermonde(self._kv(gen, n)))
        if int(cells[0]) != n or (cells[5] == "true") != ref.trustworthy:
            return f"n or trust flag differs: {lines[1]!r}"
        for name, got, want in (("sigma1", float(cells[1]), ref.sigma1),
                                ("sigma_min", float(cells[2]), ref.sigma_min)):
            if ref.trustworthy and not _rel(got, want, 1e-9):
                return f"{name} {got!r} vs {want!r}"
        if n == 48 and not _rel(float(cells[3]), T3_KAPPA[48][0], T3_KAPPA[48][1]):
            return f"kappa {cells[3]} vs {T3_KAPPA[48][0]:.4g}"
        return ""

    def _bounds_reference(self, gen, n):
        import warnings

        from vandcond import bounds
        from vandcond.errors import VandcondError
        kv = self._kv(gen, n)
        refs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _, bound_id, thunk in evaluators(kv, self._f(normalise=True), gen):
                try:
                    refs.append(thunk())
                except (VandcondError, ValueError) as exc:
                    refs.append(bounds.BoundReport(bound_id, -math.inf, None, {}, False,
                                                   f"{type(exc).__name__}: {exc}"))
        return refs

    def _check_bounds(self, label, stdout) -> str:
        from checks import close
        gen, n = label.split()[1], int(label.split("n=")[1])
        refs = self._ref(label, lambda: self._bounds_reference(gen, n))
        lines = stdout.decode().splitlines()
        if len(lines) != len(refs):
            return f"{len(lines)} reports, reference has {len(refs)}"
        for line, ref in zip(lines, refs):
            got = json.loads(line)
            want = ref.log10value if math.isfinite(ref.log10value) else None
            if (got["bound_id"], got["applicable"], got["reason"]) != (
                    ref.bound_id, ref.applicable, ref.reason):
                return f"{got['bound_id']}: report differs from the library's"
            if (got["log10value"] is None) != (want is None) or (
                    want is not None and not close(got["log10value"], want)):
                return f"{got['bound_id']}: log10value {got['log10value']} vs {want}"
        return ""

    def _check_invert(self, label, stdout) -> str:
        import numpy as np

        from vandcond import cauchyinv
        kv = self._kv("quasi-cyclic", 384)
        variant = cauchyinv.InverseVariant.CORRECTED
        header, _, body = stdout.partition(b"\n")
        table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
        n = len(kv)
        if table.shape != (n * n, 4):
            return f"table shape {table.shape}"
        rows = np.repeat(np.arange(n), n)
        cols = np.tile(np.arange(n), n)
        if not (np.array_equal(table[:, 0], rows) and np.array_equal(table[:, 1], cols)):
            return "entries out of row-major order"
        if "cauchy" in label:
            if header != b"i,j,log10mag,phase":
                return f"header {header!r}"
            mag, ph = cauchyinv.cv_inverse_log_entries(kv, self._f(), variant)
            dmag = np.abs(table[:, 2] - mag.ravel())
            dph = np.abs(np.angle(np.exp(1j * (table[:, 3] - ph.ravel()))))
            worst = max(float(np.max(dmag / np.maximum(1.0, np.abs(mag.ravel())))),
                        float(np.max(dph)))
        else:
            if header != b"i,j,re,im":
                return f"header {header!r}"
            ref = cauchyinv.vandermonde_inverse_via_cv(kv, self._f(), variant).data.ravel()
            got = table[:, 2] + 1j * table[:, 3]
            worst = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        return "" if worst <= 1e-9 else f"entries differ from the library by {worst:.3e}"

    def _check_table(self, label, stdout) -> str:
        from vandcond import tables
        if label == "table 3":
            ref = self._ref(label, lambda: tables.emit(tables.run_table("T3"), "markdown"))
            return _first_difference(stdout, ref.encode())
        ref = self._ref(label, lambda: tables.emit(tables.run_table("T4"), "json"))
        return "" if _json_body(stdout.decode()) == _json_body(ref) else "T4 json differs"

    def _check_build(self, files) -> str:
        from vandcond import knotgen, structmat

        def dump():
            buf = io.StringIO()
            structmat.dump_matrix(structmat.vandermonde(knotgen.roots_of_unity(256)), buf)
            return buf.getvalue().encode()
        return _first_difference(files.get("D", b""), self._ref("D", dump))

    def _check_genp(self, stdout) -> str:
        from vandcond import spectral
        lines = stdout.decode().splitlines()
        n, trials, seed, mean, std = lines[1].split(",")
        ref = spectral.genp_residual_experiment(256, 100, self.inp["genp_seed"])
        if (int(n), int(trials), int(seed)) != (256, 100, self.inp["genp_seed"]):
            return f"echoed parameters {lines[1]!r}"
        if not (_rel(float(mean), ref.mean_rn, 1e-6) and _rel(float(std), ref.std_rn, 1e-6)):
            return f"mean/std {mean}/{std} vs {ref.mean_rn!r}/{ref.std_rn!r}"
        return ""

    def layer_extras(self, ops) -> dict:
        out = {f"cli.{cmd}.wall_s": sum(op.seconds for op in ops
                                        if op.extra["command"] == cmd)
               for cmd in CLI_COMMANDS}
        out["cli.stdout_mb"] = sum(op.extra["stdout_b"] for op in ops) / 2.0 ** 20
        out["cli.stderr_lines"] = sum(op.extra["stderr_lines"] for op in ops)
        imports = [op.extra["import_s"] for op in ops if op.extra["import_s"] is not None]
        out["cli.import_s"] = statistics.median(imports) if imports else 0.0
        return out


def make(name: str, seed: int, workdir: str, bench_dir: str, src_dir: str) -> Workload:
    if name == "paper-tables":
        return PaperTables(seed)
    if name == "bounds-sweep":
        return BoundsSweep(seed)
    return CliSession(seed, workdir, bench_dir, src_dir)
