"""Reproducible experiment tables T1-T5 and their serialization.

Five built-in experiment suites:

T1  condition numbers with a single absolutely large knot,
T2  condition numbers with k absolutely small (scaled) knots,
T3  condition numbers of the quasi-cyclic knot family,
T4  condition numbers of half-size leading blocks of DFT matrices,
T5  relative residuals of Gaussian elimination with no pivoting.

Each real cell is stored twice: as a double (inf once out of range) and as
a full-precision log10 shadow, so values such as 6.25e253 serialize
exactly.  Failed rows keep their grid position and carry an error message
instead of being dropped.
"""

from __future__ import annotations

import datetime
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

from . import __version__
from .bounds import (bound_cluster, bound_dft_block, bound_easy,
                     bound_quasi_cyclic, cluster_log10)
from .errors import VandcondError, as_int, as_sequence
from .knotgen import dft_plus_outlier, quasi_cyclic, scaled_cluster, single_outlier
from .spectral import genp_residual_experiment, singular_values
from .structmat import dft, leading_block, vandermonde

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 100

#: Exact machine values behind the displayed outlier magnitudes
#: 1.14, 1.56, 3.25, 10: the first two are 73/64 and 25/16.
T1_S_VALUES = (1.140625, 1.5625, 3.25, 10.0)
T1_SIZES = (64, 128, 256)
T2_SIZES = (64, 128, 256)
T2_K_VALUES = (8, 16, 32)
T2_RHO_VALUES = (0.75, 0.5)
T3_Q_VALUES = (4, 8, 16, 32)
T4_SIZES = (8, 16, 32, 64)
T5_SIZES = (16, 32, 64, 128, 256, 512, 1024)

_LOG2 = math.log10(2.0)


@dataclass
class ExperimentTable:
    table_id: str
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)


def _set_real(row: dict, name: str, log10v: float) -> None:
    if log10v == -math.inf:
        row[name] = 0.0
    elif log10v > 308.0:
        row[name] = math.inf
    else:
        row[name] = float(10.0 ** log10v)
    row[f"{name}_log10"] = float(log10v)


def _set_kappa(row: dict, name: str, summary) -> None:
    _set_real(row, name, summary.log10kappa)
    row[f"{name}_trustworthy"] = bool(summary.trustworthy)


def _t1_fill(row, n, s_val):
    _set_real(row, "s_last", math.log10(s_val))
    row["s_last"] = float(s_val)  # keep the exact grid value
    # The kappa cell measures the (n+1)-knot set: the full n-point root grid
    # plus the appended outlier.  The bound cell keeps the n-knot formula.
    # The reference values assume exactly this size pairing.
    summary = singular_values(vandermonde(dft_plus_outlier(n, s_val)))
    _set_kappa(row, "kappa", summary)
    _set_real(row, "easy_bound", bound_easy(single_outlier(n, s_val)).log10value)


def _t2_fill(row, n, k):
    for rho, tag in zip(T2_RHO_VALUES, ("rho34", "rho12")):
        knots = scaled_cluster(n, k, rho)
        summary = singular_values(vandermonde(knots))
        _set_kappa(row, f"kappa_{tag}", summary)
        nu = 1.0 / rho
        _set_real(row, f"kappa_minus_{tag}",
                  cluster_log10(math.log10(summary.sigma1), k, nu, "computed-norm"))
        _set_real(row, f"kappa_minus_literal_{tag}",
                  bound_cluster(knots, k, nu, "literal").log10value)


# The printed bound columns of T3 and T4 are the reference tables' own
# forms, not stated bounds, so they live here and not in `bounds`.

def _qc_table_column_log10(q: int) -> float:
    # Discrete two-level staging: sqrt(2) on half the grid points and 2 on
    # the other half, less one half-step: 2^((3q - 2) / 4) * sqrt(3q).
    return (3 * q - 2) / 4.0 * _LOG2 + 0.5 * math.log10(3 * q)


def _dft_table_column_log10(q: int) -> float:
    # 2^(q/2) sqrt(q), the form the reference column prints; the stated
    # bound, `bound_dft_block(n, "base")`, is 2^(n/4 - 1) sqrt(n).
    return (q / 2.0) * _LOG2 + 0.5 * math.log10(q)


def _t3_fill(row, q):
    _set_kappa(row, "kappa", singular_values(vandermonde(quasi_cyclic(3 * q))))
    _set_real(row, "kappa_refined", bound_quasi_cyclic(q, "refined").log10value)
    _set_real(row, "kappa_table", _qc_table_column_log10(q))
    _set_real(row, "kappa_prime", bound_quasi_cyclic(q, "integral").log10value)


def _t4_fill(row, n):
    q = n // 2
    base = bound_dft_block(n, "base")  # refuses an odd n before any cell is set
    _set_kappa(row, "kappa", singular_values(leading_block(dft(n), q)))
    _set_real(row, "kappa_minus", base.log10value)
    _set_real(row, "kappa_minus_table", _dft_table_column_log10(q))
    _set_real(row, "kappa_prime_minus",
              bound_dft_block(n, "integral").log10value)


def _t5_fill(row, n, trials, seed):
    stats = genp_residual_experiment(n, trials, seed)
    _set_real(row, "mean", math.log10(stats.mean_rn)
              if stats.mean_rn > 0 else -math.inf)
    _set_real(row, "std", math.log10(stats.std_rn)
              if stats.std_rn > 0 else -math.inf)
    # Both logs are finite: every pivot exceeds ZERO_PIVOT_TOL, and growth >= 1
    # since U's first row is the DFT matrix's, whose entries all have modulus 1.
    _set_real(row, "min_pivot", math.log10(stats.min_pivot))
    _set_real(row, "growth", math.log10(stats.growth))


#: One entry per table: `kinds`, the (column, cell kind) pair of every
#: expanded column in order; `sizes`, the default grid; and `rows`, which maps
#: (grid point, trials, seed) to the (identity cells, fill) rows of that point.
_Table = namedtuple("_Table", "kinds sizes rows")


def _table(sizes, rows, *columns) -> _Table:
    """Expand the declared columns once: int (plain), real (sci cell plus
    log10 shadow), kappa (real plus a trustworthy flag), then the error cell."""
    kinds = []
    for name, kind in columns:
        kinds.append((name, "int" if kind == "int" else "real"))
        if kind == "kappa":
            kinds.append((f"{name}_trustworthy", "bool"))
        if kind != "int":
            kinds.append((f"{name}_log10", "log10"))
    return _Table(tuple(kinds) + (("error", "str"),), sizes, rows)


_TABLES = {
    "T1": _table(T1_SIZES, lambda n, trials, seed: [
        ({"n": int(n)}, lambda r, v=v: _t1_fill(r, n, v)) for v in T1_S_VALUES],
        ("n", "int"), ("s_last", "real"), ("kappa", "kappa"), ("easy_bound", "real")),
    "T2": _table(T2_SIZES, lambda n, trials, seed: [
        ({"n": int(n), "k": int(k)}, lambda r, k=k: _t2_fill(r, n, k))
        for k in T2_K_VALUES],
        ("n", "int"), ("k", "int"), ("kappa_rho34", "kappa"),
        ("kappa_minus_rho34", "real"), ("kappa_minus_literal_rho34", "real"),
        ("kappa_rho12", "kappa"), ("kappa_minus_rho12", "real"),
        ("kappa_minus_literal_rho12", "real")),
    "T3": _table(T3_Q_VALUES, lambda q, trials, seed: [
        ({"n": 3 * int(q), "q": int(q)}, lambda r: _t3_fill(r, q))],
        ("n", "int"), ("q", "int"), ("kappa", "kappa"), ("kappa_refined", "real"),
        ("kappa_table", "real"), ("kappa_prime", "real")),
    "T4": _table(T4_SIZES, lambda n, trials, seed: [
        ({"n": int(n), "q": int(n) // 2}, lambda r: _t4_fill(r, n))],
        ("n", "int"), ("q", "int"), ("kappa", "kappa"), ("kappa_minus", "real"),
        ("kappa_minus_table", "real"), ("kappa_prime_minus", "real")),
    "T5": _table(T5_SIZES, lambda n, trials, seed: [
        ({"n": int(n)}, lambda r: _t5_fill(r, n, trials, seed))],
        ("n", "int"), ("mean", "real"), ("std", "real"), ("min_pivot", "real"),
        ("growth", "real")),
}


def run_table(table_id: str, overrides: dict | None = None) -> ExperimentTable:
    """Assemble one experiment table; failed rows carry an error cell.

    `overrides` may set `sizes` (the table's n grid, or q grid for T3, as a
    list, tuple or range), `trials` (T5), and `seed`.  Anything else, an
    empty grid, a grid entry, `seed` or `trials` that is not an int or numpy
    integer (a bool, float or string is refused, not truncated), a seed
    below 0 or trials below 1 raises ValueError before any row runs.
    """
    if not isinstance(table_id, str) or table_id.upper() not in _TABLES:
        raise ValueError(f"unknown table {table_id!r}")
    table_id = table_id.upper()
    spec = _TABLES[table_id]
    overrides = dict(overrides or {})
    unknown = set(overrides) - {"sizes", "trials", "seed"}
    if unknown:
        raise ValueError(f"unsupported overrides: {sorted(unknown)}")
    seed = as_int("seed", overrides.get("seed", DEFAULT_SEED), 0)
    trials = as_int("trials", overrides.get("trials", DEFAULT_TRIALS), 1)
    sizes = [as_int("sizes entry", point) for point in
             as_sequence("sizes", overrides.get("sizes", spec.sizes), "integers")]

    rows = []
    for point in sizes:
        for identity, fill in spec.rows(point, trials, seed):
            row = {name: "" if kind == "str" else None for name, kind in spec.kinds}
            row.update(identity)
            try:
                fill(row)
            except (VandcondError, ValueError) as exc:  # the row keeps the table shape
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)

    metadata = {
        "table": table_id,
        "seed": seed,
        "trials": trials,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return ExperimentTable(table_id, [name for name, _ in spec.kinds], rows, metadata)


def format_sci(log10v) -> str:
    """Scientific notation with 3 significant digits, driven by log10.

    Formatting from the log10 shadow keeps cells like 6.25E+253 exact and
    lets out-of-range magnitudes print without ever forming the float.
    """
    if log10v is None:
        return ""
    if math.isnan(log10v):
        return "NAN"
    if log10v == math.inf:
        return "INF"
    if log10v == -math.inf:
        return "0"
    exp = math.floor(log10v)
    mant = 10.0 ** (log10v - exp)
    if round(mant, 2) >= 10.0:
        mant /= 10.0
        exp += 1
    return f"{mant:.2f}E{exp:+03d}"


def _cell_text(row: dict, name: str, kind: str) -> str:
    val = row.get(name)
    if val is None:
        return ""
    if kind == "str":
        return str(val)
    if kind == "int":
        return str(int(val))
    if kind == "bool":
        return "true" if val else "false"
    if kind == "log10":
        return f"{val:.17g}"
    return format_sci(row.get(f"{name}_log10"))


def emit(table: ExperimentTable, fmt: str = "markdown") -> str:
    """Serialize a table as csv, markdown (no `_log10` columns), or json text."""
    if fmt == "json":
        return json.dumps({"table_id": table.table_id, "columns": table.columns,
                           "rows": table.rows, "metadata": table.metadata})
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    kinds = [(name, kind) for name, kind in _TABLES[table.table_id].kinds
             if fmt == "csv" or kind != "log10"]
    names = [name for name, _ in kinds]
    rows = [[_cell_text(row, name, kind) for name, kind in kinds]
            for row in table.rows]
    if fmt == "markdown":
        lines = ["| " + " | ".join(names) + " |", "|" + "---|" * len(names)]
        lines += ["| " + " | ".join(cells) + " |" for cells in rows]
    else:
        lines = [f"# table={table.table_id}"]
        lines += [f"# {key}={table.metadata.get(key)}"
                  for key in ("seed", "trials", "tool_version", "timestamp")]
        lines.append(",".join(names))
        lines += [",".join(c.replace(",", ";") for c in cells) for cells in rows]
    return "\n".join(lines) + "\n"


def table_from_json(text: str) -> ExperimentTable:
    """Inverse of ``emit(table, "json")``."""
    obj = json.loads(text)
    return ExperimentTable(obj["table_id"], obj["columns"], obj["rows"],
                           obj["metadata"])
