"""Benchmark machinery shared by every workload.

Op outcomes, timing statistics, set-up, child processes and the
environment record.  Importing this module imports only the standard
library, so set-up timing can start before numpy and vandcond load.
"""

from __future__ import annotations

import glob
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field

DEFAULT_SEED = 12345

#: The tail percentile is the highest one with at least this many samples
#: beyond it.
TAIL_BEYOND = 10

#: A CLI child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0

OK, REFUSED, FAILED = "ok", "refused", "failed"


@dataclass
class Op:
    """One timed operation: an evaluator call, a table row group or a CLI child."""

    pass_no: int
    name: str
    seconds: float
    verdict: str = OK
    reason: str = ""
    result: object = None
    extra: dict = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        if self.verdict != FAILED:
            self.verdict, self.reason = FAILED, reason


def _is_typed_refusal(exc: BaseException) -> bool:
    from vandcond.errors import VandcondError
    return isinstance(exc, VandcondError)


def classify(exc=None, warns=(), report=None, returncode=None, stderr=""):
    """(verdict, reason) of one op.

    A RuntimeWarning, a non-zero exit, an exception other than a typed
    VandcondError, or an applicable report with a non-finite value is a
    failure.  A typed VandcondError is a refusal: counted, not failed.
    """
    if returncode not in (None, 0):
        return FAILED, f"exit code {returncode}"
    for w in warns:
        if issubclass(w.category, RuntimeWarning):
            return FAILED, f"RuntimeWarning: {w.message}"
    for line in stderr.splitlines():
        if "Warning" in line:
            return FAILED, f"stderr: {line.strip()}"
    if exc is not None:
        if _is_typed_refusal(exc):
            return REFUSED, type(exc).__name__
        return FAILED, f"raised {type(exc).__name__}: {exc}"
    if report is not None and getattr(report, "applicable", False):
        if not math.isfinite(report.log10value):
            return FAILED, f"applicable with log10value={report.log10value}"
    return OK, ""


def guarded(check, *args) -> str:
    """Run a reference check; output the check cannot read is a failure."""
    try:
        return check(*args)
    except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError) as exc:
        return f"output unreadable by its check: {type(exc).__name__}: {exc}"


def run_op(pass_no: int, name: str, thunk) -> Op:
    """Time one in-process call; warnings are recorded, exceptions kept."""
    exc = result = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as err:  # classified below, never re-raised
            exc = err
        seconds = time.perf_counter() - t0
    verdict, reason = classify(exc=exc, warns=caught, report=result)
    return Op(pass_no, name, seconds, verdict, reason,
              exc if exc is not None else result)


def tail(samples):
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank.

    With too few samples for any such percentile, the median is returned
    with percentile 50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return statistics.median(xs), 50.0, n
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    """Whole passes that fill `seconds` at the workload's nominal pass time.

    The count depends only on the requested run length, so two commits
    measured with the same --seconds do the same work and their tail
    percentiles sit at the same rank.
    """
    return max(2, round(seconds / nominal_pass_s))


# -- set-up -----------------------------------------------------------------

def setup() -> None:
    """Import the package and run every layer once on small inputs."""
    import cmath

    from vandcond import bounds, cauchyinv, knotgen, spectral, structmat, tables

    # The first complex SVD with n >= 129 starts OpenBLAS's threads (0.8 to
    # 0.9 s on 2 vCPUs after a few idle seconds); a 64x64 one does not.  No
    # pass may pay for it.
    spectral.singular_values(structmat.vandermonde(knotgen.quasi_cyclic(192)))
    spectral.genp_residual_experiment(16, 2, 0)
    kv = knotgen.quasi_cyclic(24)
    f = cmath.exp(0.3j)
    bounds.bound_cv(kv, f, cauchyinv.InverseVariant.CORRECTED)
    bounds.bound_circle_value(kv)
    bounds.best_arc_search(kv, f)
    tables.emit(tables.run_table("T4", {"sizes": [8]}), "csv")


def probe_setup(bench_dir: str, src_dir: str) -> float:
    """Set-up time of a fresh interpreter, as measured inside it."""
    code = ("import time; t0 = time.perf_counter(); import harness; "
            "harness.setup(); print(time.perf_counter() - t0)")
    env = child_env(src_dir, bench_dir)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


# -- child processes --------------------------------------------------------

def child_env(*path_dirs: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(path_dirs)
    return env


def run_child(argv, cwd, env, stdout_path, stderr_path):
    """Run one child to completion: (seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


# -- environment record -----------------------------------------------------

def _git_commit(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas():
    """(version string, thread count) of the OpenBLAS that numpy loaded."""
    import ctypes

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is None or get_threads is None:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            return get_config().decode(), int(get_threads())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    return f"{blas.get('name')} {blas.get('version')}", threads


def environment(root: str, seed: int, seconds: int, passes: int) -> dict:
    import numpy as np
    import scipy

    blas, threads = _openblas()
    return {"commit": _git_commit(root), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": blas, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "run_seconds": seconds, "passes": passes}
