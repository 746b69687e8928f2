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
from dataclasses import dataclass, field

from . import __version__
from .bounds import (bound_cluster, bound_dft_block, bound_easy,
                     bound_quasi_cyclic)
from .errors import InvalidOverride, VandcondError
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

#: Column kinds: int (plain), real (sci cell + log10 shadow),
#: kappa (real plus a trustworthy flag column).
_COLUMN_SPECS = {
    "T1": (("n", "int"), ("s_last", "real"), ("kappa", "kappa"),
           ("easy_bound", "real")),
    "T2": (("n", "int"), ("k", "int"),
           ("kappa_rho34", "kappa"), ("kappa_minus_rho34", "real"),
           ("kappa_minus_literal_rho34", "real"),
           ("kappa_rho12", "kappa"), ("kappa_minus_rho12", "real"),
           ("kappa_minus_literal_rho12", "real")),
    "T3": (("n", "int"), ("q", "int"), ("kappa", "kappa"),
           ("kappa_refined", "real"), ("kappa_table", "real"),
           ("kappa_prime", "real")),
    "T4": (("n", "int"), ("q", "int"), ("kappa", "kappa"),
           ("kappa_minus", "real"), ("kappa_minus_table", "real"),
           ("kappa_prime_minus", "real")),
    "T5": (("n", "int"), ("mean", "real"), ("std", "real")),
}


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
        _set_kappa(row, f"kappa_{tag}", singular_values(vandermonde(knots)))
        nu = 1.0 / rho
        _set_real(row, f"kappa_minus_{tag}",
                  bound_cluster(knots, k, nu, "computed-norm").log10value)
        _set_real(row, f"kappa_minus_literal_{tag}",
                  bound_cluster(knots, k, nu, "literal").log10value)


def _qc_table_column_log10(q: int) -> float:
    # Discrete two-level staging: sqrt(2) on half the grid points and 2 on
    # the other half, less one half-step: 2^((3q - 2) / 4) * sqrt(3q).
    return (3 * q - 2) / 4.0 * _LOG2 + 0.5 * math.log10(3 * q)


def _t3_fill(row, q):
    _set_kappa(row, "kappa", singular_values(vandermonde(quasi_cyclic(3 * q))))
    _set_real(row, "kappa_refined", bound_quasi_cyclic(q, "refined").log10value)
    _set_real(row, "kappa_table", _qc_table_column_log10(q))
    _set_real(row, "kappa_prime", bound_quasi_cyclic(q, "integral").log10value)


def _t4_fill(row, n):
    q = n // 2
    base = bound_dft_block(n, "base")
    _set_kappa(row, "kappa", singular_values(leading_block(dft(n), q)))
    _set_real(row, "kappa_minus", base.log10value)
    _set_real(row, "kappa_minus_table", base.params["log10_table_column"])
    _set_real(row, "kappa_prime_minus",
              bound_dft_block(n, "integral").log10value)


def _t5_fill(row, n, trials, seed):
    stats = genp_residual_experiment(n, trials, seed)
    _set_real(row, "mean", math.log10(stats.mean_rn)
              if stats.mean_rn > 0 else -math.inf)
    _set_real(row, "std", math.log10(stats.std_rn)
              if stats.std_rn > 0 else -math.inf)


def _row_plan(table_id, sizes, trials, seed):
    """(identity cells, fill function) per grid point, in declared order."""
    if table_id == "T1":
        return [({"n": int(n)}, lambda r, n=n, v=v: _t1_fill(r, n, v))
                for n in (sizes or T1_SIZES) for v in T1_S_VALUES]
    if table_id == "T2":
        return [({"n": int(n), "k": int(k)},
                 lambda r, n=n, k=k: _t2_fill(r, n, k))
                for n in (sizes or T2_SIZES) for k in T2_K_VALUES]
    if table_id == "T3":
        return [({"n": 3 * int(q), "q": int(q)},
                 lambda r, q=q: _t3_fill(r, q))
                for q in (sizes or T3_Q_VALUES)]
    if table_id == "T4":
        return [({"n": int(n), "q": int(n) // 2},
                 lambda r, n=n: _t4_fill(r, n))
                for n in (sizes or T4_SIZES)]
    return [({"n": int(n)}, lambda r, n=n: _t5_fill(r, n, trials, seed))
            for n in (sizes or T5_SIZES)]


def run_table(table_id: str, overrides: dict | None = None) -> ExperimentTable:
    """Assemble one experiment table; failed rows carry an error cell.

    `overrides` may set `sizes` (the table's n grid, or q grid for T3),
    `trials` (T5), and `seed`.  Anything else raises InvalidOverride.
    """
    table_id = table_id.upper()
    if table_id not in _COLUMN_SPECS:
        raise ValueError(f"unknown table {table_id!r}")
    overrides = dict(overrides or {})
    unknown = set(overrides) - {"sizes", "trials", "seed"}
    if unknown:
        raise InvalidOverride(f"unsupported overrides: {sorted(unknown)}")
    seed = int(overrides.get("seed", DEFAULT_SEED))
    trials = int(overrides.get("trials", DEFAULT_TRIALS))
    sizes = overrides.get("sizes")

    kinds = _column_kinds(table_id)
    rows = []
    for identity, fill in _row_plan(table_id, sizes, trials, seed):
        row = {name: "" if kind == "str" else None for name, kind in kinds}
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
    return ExperimentTable(table_id, [name for name, _ in kinds], rows, metadata)


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


def _column_kinds(table_id: str) -> list:
    """(column, cell kind) for every expanded column of the table, in order."""
    kinds = []
    for name, kind in _COLUMN_SPECS[table_id]:
        kinds.append((name, "int" if kind == "int" else "real"))
        if kind == "kappa":
            kinds.append((f"{name}_trustworthy", "bool"))
        if kind in ("real", "kappa"):
            kinds.append((f"{name}_log10", "log10"))
    kinds.append(("error", "str"))
    return kinds


def emit(table: ExperimentTable, fmt: str = "markdown") -> str:
    """Serialize a table as csv, markdown (no `_log10` columns), or json text."""
    if fmt == "json":
        return json.dumps({"table_id": table.table_id, "columns": table.columns,
                           "rows": table.rows, "metadata": table.metadata})
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    kinds = [(name, kind) for name, kind in _column_kinds(table.table_id)
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
