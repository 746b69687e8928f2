import math
import re

import numpy as np
import pytest

from vandcond import bounds, knotgen, spectral, tables
from vandcond.errors import VandcondError
from vandcond.tables import emit, format_sci, run_table, table_from_json


@pytest.fixture(scope="module")
def t4():
    return run_table("T4")


@pytest.fixture(scope="module")
def t3():
    return run_table("T3")


class TestFormatSci:
    def test_reference_style(self):
        assert format_sci(math.log10(15.3)) == "1.53E+01"

    def test_huge_value(self):
        assert format_sci(255.0 - math.log10(16.0)) == "6.25E+253"

    def test_tiny_value(self):
        assert format_sci(math.log10(8.88e-14)) == "8.88E-14"

    def test_carry_on_rounding(self):
        assert format_sci(math.log10(9.999)) == "1.00E+01"

    def test_non_finite(self):
        assert format_sci(math.inf) == "INF"
        assert format_sci(-math.inf) == "0"
        assert format_sci(None) == ""


class TestRunTable:
    def test_t4_reference_row(self, t4):
        row = next(r for r in t4.rows if r["n"] == 8)
        assert abs(row["kappa"] - 15.3) / 15.3 < 0.02
        assert row["kappa_trustworthy"] is True
        # The printed bound column is 2^(q/2) sqrt(q), not the stated
        # 2^(n/4 - 1) sqrt(n): at n = 8 it prints 8.00.
        assert abs(row["kappa_minus_table"] - 8.0) < 1e-9
        assert format_sci(row["kappa_minus_table_log10"]) == "8.00E+00"

    def test_t3_reference_row(self, t3):
        row = next(r for r in t3.rows if r["n"] == 12)
        assert abs(row["kappa"] - 21.6) / 21.6 < 0.02
        assert abs(row["kappa_prime"] - 10.3) / 10.3 < 0.01

    def test_t3_table_column(self, t3):
        # Two-level staging reconstruction of the printed bound column.
        refs = {4: 19.6, 8: 222.0, 16: 2.01e4, 32: 1.16e8}
        for row in t3.rows:
            ref = refs[row["q"]]
            assert abs(row["kappa_table"] - ref) / ref < 0.005

    def test_determinism(self, t4):
        again = run_table("T4")
        assert again.rows == t4.rows

    def test_t5_smoke(self):
        table = run_table("T5", {"seed": 1, "trials": 1, "sizes": [2]})
        assert len(table.rows) == 1
        assert math.isfinite(table.rows[0]["mean"])
        assert table.rows[0]["error"] == ""

    def test_t5_seed_changes_rows(self):
        a = run_table("T5", {"seed": 1, "trials": 3, "sizes": [8]})
        b = run_table("T5", {"seed": 2, "trials": 3, "sizes": [8]})
        assert a.rows != b.rows

    def test_invalid_override(self):
        with pytest.raises(ValueError,
                           match=r"^unsupported overrides: \['bogus'\]$") as err:
            run_table("T4", {"bogus": 1})
        assert not isinstance(err.value, VandcondError)

    @pytest.mark.parametrize("table_id, overrides, message", [
        ("T5", {"sizes": [16], "trials": 0}, r"^trials must be >= 1, got 0$"),
        ("T1", {"sizes": [64], "trials": -3}, r"^trials must be >= 1, got -3$"),
        ("T5", {"sizes": [16], "seed": -1}, r"^seed must be >= 0, got -1$"),
        ("T5", {"sizes": []}, r"^sizes must not be empty$"),
        ("T3", {"sizes": ()}, r"^sizes must not be empty$")] + [
        # Refused, not truncated by int().
        ("T5", {"sizes": [16], name: value},
         rf"^{name} must be an integer, got {re.escape(repr(value))}$")
        for name in ("trials", "seed") for value in (2.9, 1.7, 0.5, "3", True)] + [
        # A grid entry is refused, not truncated, and a grid must be a sequence.
        ("T1", {"sizes": [64.5]}, r"^sizes entry must be an integer, got 64\.5$"),
        ("T5", {"sizes": [16.5]}, r"^sizes entry must be an integer, got 16\.5$"),
        ("T4", {"sizes": [8.0]}, r"^sizes entry must be an integer, got 8\.0$"),
        ("T4", {"sizes": ["8"]}, r"^sizes entry must be an integer, got '8'$"),
        ("T3", {"sizes": [True]}, r"^sizes entry must be an integer, got True$"),
        ("T1", {"sizes": 64}, r"^sizes must be a sequence of integers, got 64$"),
        ("T1", {"sizes": "64"}, r"^sizes must be a sequence of integers, got '64'$")])
    def test_invalid_whole_table_argument_raises(self, table_id, overrides, message,
                                                 monkeypatch):
        # An argument refusal, not an error row, and raised before any row runs.
        def no_rows(*args):
            raise AssertionError("a row ran")

        monkeypatch.setattr(tables, "_TABLES", {
            tid: spec._replace(rows=no_rows) for tid, spec in tables._TABLES.items()})
        with pytest.raises(ValueError, match=message) as err:
            run_table(table_id, overrides)
        assert not isinstance(err.value, VandcondError)

    def test_numpy_integer_overrides_accepted(self):
        a = run_table("T5", {"sizes": [np.int32(8)], "trials": np.int64(3),
                             "seed": np.uint16(2)})
        b = run_table("T5", {"sizes": [8], "trials": 3, "seed": 2})
        assert a.rows == b.rows
        assert type(a.rows[0]["n"]) is int
        assert (type(a.metadata["trials"]), type(a.metadata["seed"])) == (int, int)

    def test_t5_genp_diagnostics(self):
        row = run_table("T5", {"sizes": [100], "trials": 4, "seed": 3}).rows[0]
        stats = spectral.genp_residual_experiment(100, 4, 3)
        assert row["min_pivot_log10"] == math.log10(stats.min_pivot)
        assert row["growth_log10"] == math.log10(stats.growth)
        assert row["growth"] >= 1.0

    def test_failed_row_keeps_shape(self):
        # The failing row sits in the middle: later rows must survive and
        # the failed row must keep its grid identity cells.
        table = run_table("T4", {"sizes": [8, 7, 16]})  # 7 is odd: bound fails
        assert len(table.rows) == 3
        assert table.rows[0]["error"] == ""
        assert table.rows[1]["error"] == "ValueError: n must be even and >= 2, got 7"
        assert table.rows[1]["kappa"] is None
        assert table.rows[1]["n"] == 7
        assert table.rows[2]["error"] == ""
        assert abs(table.rows[2]["kappa"] - 1.06e3) / 1.06e3 < 0.02
        # serialization must tolerate the blank cells of the failed row
        md = emit(table, "markdown")
        assert "ValueError: n must be even" in md
        csv = emit(table, "csv")
        assert "ValueError: n must be even" in csv

    def test_programming_errors_escape(self, monkeypatch):
        def broken_fill(row, n):
            raise TypeError("bug in a fill function")

        monkeypatch.setattr(tables, "_t4_fill", broken_fill)
        with pytest.raises(TypeError, match="bug in a fill function"):
            run_table("T4", {"sizes": [8]})

    def test_t1_shape_and_flags(self):
        table = run_table("T1", {"sizes": [64]})
        assert len(table.rows) == 4
        small = next(r for r in table.rows if r["s_last"] == 1.140625)
        assert small["kappa_trustworthy"] is True
        huge = next(r for r in table.rows if r["s_last"] == 10.0)
        assert huge["kappa_trustworthy"] is False

    def test_t2_shape(self):
        table = run_table("T2", {"sizes": [64]})
        assert len(table.rows) == 3
        row = next(r for r in table.rows if r["k"] == 8)
        assert abs(row["kappa_rho12"] - 6.90e2) / 6.90e2 < 0.05
        assert abs(row["kappa_minus_rho12"] - 2.44e2) / 2.44e2 < 0.15
        assert abs(row["kappa_minus_literal_rho12"] - 5.66) < 0.01

    def test_t2_builds_and_decomposes_each_matrix_once(self, monkeypatch):
        # The computed-norm cells reuse the kappa cell's SVD; asking
        # bound_cluster for sigma_1 again took 36 builds, 30 SVDs and 6 Lanczos runs.
        calls = {"vandermonde": 0, "singular_values": 0, "top_singular_value": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counted)

        for name in calls:
            count(bounds, name)
        count(tables, "vandermonde")
        count(tables, "singular_values")
        table = run_table("T2")
        assert calls == {"vandermonde": 18, "singular_values": 18, "top_singular_value": 0}
        for row in table.rows:
            for rho, tag in zip(tables.T2_RHO_VALUES, ("rho34", "rho12")):
                ref = bounds.bound_cluster(knotgen.scaled_cluster(row["n"], row["k"], rho),
                                           row["k"], 1.0 / rho, "computed-norm")
                assert abs(row[f"kappa_minus_{tag}_log10"] - ref.log10value) <= 1e-12


class TestColumns:
    # Every expanded column as run_table returns it, in order.
    EXPANDED = {
        "T1": ["n", "s_last", "s_last_log10", "kappa", "kappa_trustworthy",
               "kappa_log10", "easy_bound", "easy_bound_log10", "error"],
        "T2": ["n", "k", "kappa_rho34", "kappa_rho34_trustworthy",
               "kappa_rho34_log10", "kappa_minus_rho34",
               "kappa_minus_rho34_log10", "kappa_minus_literal_rho34",
               "kappa_minus_literal_rho34_log10", "kappa_rho12",
               "kappa_rho12_trustworthy", "kappa_rho12_log10",
               "kappa_minus_rho12", "kappa_minus_rho12_log10",
               "kappa_minus_literal_rho12", "kappa_minus_literal_rho12_log10",
               "error"],
        "T3": ["n", "q", "kappa", "kappa_trustworthy", "kappa_log10",
               "kappa_refined", "kappa_refined_log10", "kappa_table",
               "kappa_table_log10", "kappa_prime", "kappa_prime_log10", "error"],
        "T4": ["n", "q", "kappa", "kappa_trustworthy", "kappa_log10",
               "kappa_minus", "kappa_minus_log10", "kappa_minus_table",
               "kappa_minus_table_log10", "kappa_prime_minus",
               "kappa_prime_minus_log10", "error"],
        "T5": ["n", "mean", "mean_log10", "std", "std_log10", "min_pivot",
               "min_pivot_log10", "growth", "growth_log10", "error"],
    }
    SMALL = {"T1": [64], "T2": [64], "T3": [4], "T4": [8], "T5": [2]}

    @pytest.mark.parametrize("table_id", sorted(EXPANDED))
    def test_expanded_columns(self, table_id):
        table = run_table(table_id, {"sizes": self.SMALL[table_id], "trials": 1})
        assert table.columns == self.EXPANDED[table_id]
        assert all(list(row) == table.columns for row in table.rows)


class TestEmit:
    def test_markdown_header(self, t4):
        text = emit(t4, "markdown")
        header = text.splitlines()[0]
        for name in ("n", "q", "kappa", "kappa_minus", "kappa_prime_minus"):
            assert name in header.split()
        pos = [header.index(c) for c in
               ("n", "q", "kappa", "kappa_minus", "kappa_prime_minus")]
        assert pos == sorted(pos)

    def test_csv_cells(self, t4):
        text = emit(t4, "csv")
        lines = text.splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert "kappa_log10" in header.split(",")
        first = lines[lines.index(header) + 1].split(",")
        cell = dict(zip(header.split(","), first))
        assert cell["n"] == "8"
        assert cell["kappa"] == "1.53E+01"
        assert cell["kappa_trustworthy"] == "true"

    def test_csv_byte_identical_modulo_timestamp(self):
        a = emit(run_table("T3"), "csv")
        b = emit(run_table("T3"), "csv")
        strip = lambda text: "\n".join(l for l in text.splitlines()
                                       if not l.startswith("# timestamp"))
        assert strip(a) == strip(b)

    def test_json_roundtrip(self, t3):
        assert table_from_json(emit(t3, "json")) == t3

    def test_json_roundtrip_with_inf(self):
        table = run_table("T1", {"sizes": [64]})
        assert table_from_json(emit(table, "json")) == table

    @pytest.mark.parametrize("table_id, overrides", [
        ("T1", {"sizes": [16]}), ("T2", {"sizes": [64]}), ("T3", {"sizes": [4, 8]}),
        ("T4", {"sizes": [7, 8]}), ("T5", {"sizes": [8, 16], "trials": 3})])
    def test_json_roundtrip_every_table(self, table_id, overrides):
        table = run_table(table_id, overrides)
        assert table_from_json(emit(table, "json")) == table

    def test_json_roundtrip_error_row_and_inf_cell(self):
        table = run_table("T4", {"sizes": [7, 8]})
        assert table.rows[0]["error"].startswith("ValueError: ")
        # A cell past the double range holds inf beside its log10 shadow.
        tables._set_real(table.rows[1], "kappa_prime_minus", 400.0)
        assert table.rows[1]["kappa_prime_minus"] == math.inf
        assert table_from_json(emit(table, "json")) == table

    def test_csv_error_cell_keeps_columns(self):
        # The odd-n message holds a comma; csv writes ';' in its place so
        # the failed row keeps one cell per header column.
        table = run_table("T4", {"sizes": [7, 8]})
        message = table.rows[0]["error"]
        assert message == "ValueError: n must be even and >= 2, got 7"
        lines = [l for l in emit(table, "csv").splitlines() if not l.startswith("#")]
        header, failed = lines[0].split(","), lines[1].split(",")
        assert len(failed) == len(header) == len(lines[2].split(","))
        assert failed[header.index("error")] == message.replace(",", ";")
        assert failed[header.index("n")] == "7"

    def test_unknown_format(self, t4):
        with pytest.raises(ValueError):
            emit(t4, "yaml")

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    @pytest.mark.parametrize("table_id", ["T9", "t4", ["T4"]], ids=repr)
    def test_unregistered_table_is_refused(self, fmt, table_id):
        # A table id that `run_table` would not return has no column kinds;
        # json needs none and writes the table as it is.
        table = tables.ExperimentTable(table_id, ["n"], [{"n": 1}], {})
        with pytest.raises(ValueError, match=rf"^unknown table {re.escape(repr(table_id))}$"):
            emit(table, fmt)
        assert table_from_json(emit(table, "json")) == table


class TestT1BoundColumnDigits:
    # The bound column must reproduce the frozen reference strings at three
    # significant digits, straight from the log-domain cells.
    REFERENCE = {
        (64, 1.140625): "4.98E+02", (64, 1.5625): "2.03E+11",
        (64, 3.25): "2.22E+31", (64, 10.0): "1.25E+62",
        (128, 1.140625): "1.60E+06", (128, 1.5625): "3.64E+23",
        (128, 3.25): "9.03E+63", (128, 10.0): "8.84E+125",
        (256, 1.140625): "2.33E+13", (256, 1.5625): "1.66E+48",
        (256, 3.25): "2.12E+129", (256, 10.0): "6.25E+253",
    }

    def test_all_twelve(self):
        table = run_table("T1")
        for row in table.rows:
            key = (row["n"], row["s_last"])
            assert format_sci(row["easy_bound_log10"]) == self.REFERENCE[key]
