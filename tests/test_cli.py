import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import vandcond
from vandcond import cauchyinv, cli, knotgen, structmat


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenKnots:
    def test_writes_file(self, tmp_path, capsys):
        path = tmp_path / "k.txt"
        code, out, _ = run(["gen-knots", "--gen", "dft", "--n", "8",
                            "--out", str(path)], capsys)
        assert code == 0
        kv = knotgen.read_knots(path)
        assert len(kv) == 8

    def test_stdout(self, capsys):
        code, out, _ = run(["gen-knots", "--gen", "van-der-corput", "--n", "4"],
                           capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 4

    def test_stdout_bytes_match_knot_file(self, tmp_path, capsys):
        kv = knotgen.quasi_cyclic(24)
        code, out, _ = run(["gen-knots", "--gen", "quasi-cyclic", "--n", "24"], capsys)
        assert code == 0
        assert out == "# quasi-cyclic n=24\n" + "".join(
            f"{z.real:.17g},{z.imag:.17g}\n" for z in kv)
        path = tmp_path / "k.txt"
        knotgen.write_knots(kv, path)
        assert path.read_text(encoding="utf-8") == out

    def test_file_rewrite(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("1,0\n0,1\n")
        dst = tmp_path / "out.txt"
        code, _, _ = run(["gen-knots", "--gen", "file", "--file", str(src),
                          "--out", str(dst)], capsys)
        assert code == 0
        assert tuple(knotgen.read_knots(dst).knots) == (1 + 0j, 1j)


class TestCond:
    def test_dft(self, capsys):
        code, out, _ = run(["cond", "--gen", "dft", "--n", "8"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,sigma1,sigma_min,kappa,log10kappa,trustworthy"
        cells = row.split(",")
        assert cells[0] == "8"
        assert abs(float(cells[3]) - 1.0) < 1e-12
        assert cells[5] == "true"

    def test_block(self, capsys):
        code, out, _ = run(["cond", "--gen", "dft", "--n", "8",
                            "--block", "4"], capsys)
        kappa = float(out.strip().splitlines()[1].split(",")[3])
        assert abs(kappa - 15.3) / 15.3 < 0.02

    @pytest.mark.parametrize("q", ["0", "9"])
    def test_block_out_of_range(self, q, capsys):
        code, out, err = run(["cond", "--gen", "dft", "--n", "8", "--block", q],
                             capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "1..8" in err

    def test_knot_file_source(self, tmp_path, capsys):
        path = tmp_path / "k.txt"
        knotgen.write_knots(knotgen.van_der_corput(8), path)
        code, out, _ = run(["cond", "--knots", str(path)], capsys)
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) < 4.0


def reference_entries(header, a, b) -> str:
    """The per-entry listing the row-at-a-time `_print_entries` replaced."""
    lines = [header + "\n"]
    for i in range(a.shape[0]):
        lines.append("".join(f"{i},{j},{x:.17g},{y:.17g}\n" for j, (x, y)
                             in enumerate(zip(a[i].tolist(), b[i].tolist()))))
    return "".join(lines)


class TestPrintEntries:
    POOL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308,
            0.1, -1.0 / 3.0, 1e16, 123456789.0]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (6, 6), (12, 12)])
    def test_bytes_match_per_entry_writer(self, shape, capsys):
        rng = np.random.default_rng(sum(shape))
        a, b = rng.choice(self.POOL, size=shape), rng.choice(self.POOL, size=shape)
        a[0, 0], b[0, 0] = -0.0, -np.inf
        cli._print_entries("i,j,x,y", a, b)
        assert capsys.readouterr().out == reference_entries("i,j,x,y", a, b)

    def test_transposed_tables(self, capsys):
        # The paper variant hands over transposed views of the tables.
        mag, ph = cauchyinv.cv_inverse_log_entries(
            knotgen.van_der_corput(7), cli.DEFAULT_F, cauchyinv.InverseVariant.PAPER)
        assert not mag.flags.c_contiguous
        cli._print_entries("i,j,log10mag,phase", mag, ph)
        assert capsys.readouterr().out == reference_entries("i,j,log10mag,phase", mag, ph)


class TestColdStart:
    def test_scipy_is_imported_by_genp_only(self):
        # A fresh interpreter: the CLI and a cond call leave scipy unloaded.
        src = os.path.dirname(os.path.dirname(vandcond.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        code = ("import sys, vandcond, vandcond.cli\n"
                "assert vandcond.cli.main(['cond', '--gen', 'quasi-cyclic', '--n', '12']) == 0\n"
                "print('scipy' in sys.modules)\n"
                "vandcond.genp_residual_experiment(16, 2, 1)\n"
                "print('scipy' in sys.modules)\n")
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-2:] == ["False", "True"]

    def test_bounds_above_the_svd_crossover_stays_scipy_free(self):
        # The cluster bound takes its norm from Lanczos here, not from scipy.
        src = os.path.dirname(os.path.dirname(vandcond.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        code = ("import sys, vandcond.cli\n"
                "assert vandcond.cli.main(['bounds', '--gen', 'scaled-cluster', '--n', '768',\n"
                "                          '--k', '96', '--rho', '0.5']) == 0\n"
                "print('scipy' in sys.modules)\n")
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[-1] == "False"
        norms = [json.loads(line)["params"] for line in lines[:-1]
                 if json.loads(line)["params"].get("norm") == "spectral"]
        assert [(p["norm_method"], p["lanczos_steps"] > 0) for p in norms] == [("lanczos", True)]


class TestInvert:
    def test_lagrange_entries(self, capsys):
        code, out, _ = run(["invert", "--gen", "van-der-corput", "--n", "4",
                            "--method", "lagrange"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,re,im"
        inv = np.zeros((4, 4), dtype=complex)
        for line in lines[1:]:
            i, j, re, im = line.split(",")
            inv[int(i), int(j)] = complex(float(re), float(im))
        V = structmat.vandermonde(knotgen.van_der_corput(4)).data
        assert np.max(np.abs(V @ inv - np.eye(4))) < 1e-10

    def test_default_method_inverts_the_dft(self, capsys):
        # The inverse of V(omega^i) is its conjugate transpose over n; in knot
        # order the Lagrange route printed entries near 1e29 to 1e46 here.
        n = 256
        code, out, _ = run(["invert", "--gen", "dft", "--n", str(n)], capsys)
        assert code == 0
        table = np.loadtxt(out.splitlines()[1:], delimiter=",")
        i, j = table[:, 0].astype(int), table[:, 1].astype(int)
        want = np.conj(knotgen.roots_of_unity(n).as_array()[i * j % n]) / n
        assert np.max(np.abs(table[:, 2] + 1j * table[:, 3] - want)) <= 1e-14

    @pytest.mark.filterwarnings("error")
    def test_default_method_inverts_a_far_outlier(self, capsys):
        # log10 |s'(s_i)| is 312 at the outlier; every entry of V^-1 stays below 1.
        code, out, _ = run(["invert", "--gen", "single-outlier", "--n", "40",
                            "--s-last", "1e8,0"], capsys)
        assert code == 0
        table = np.loadtxt(out.splitlines()[1:], delimiter=",")
        assert table.shape == (1600, 4) and np.all(np.isfinite(table))
        assert np.max(np.hypot(table[:, 2], table[:, 3])) < 1

    def test_cauchy_log_domain(self, capsys):
        code, out, _ = run(["invert", "--gen", "van-der-corput", "--n", "3",
                            "--method", "cauchy", "--log-domain"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,log10mag,phase"
        assert len(lines) == 1 + 9
        phases = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(-np.pi < p <= np.pi for p in phases)

    def test_cv_matches_lagrange(self, capsys):
        code, a, _ = run(["invert", "--gen", "van-der-corput", "--n", "4",
                          "--method", "cv", "--variant", "corrected",
                          "--f", "0.955336489125606,0.29552020666133955"],
                         capsys)
        code, b, _ = run(["invert", "--gen", "van-der-corput", "--n", "4",
                          "--method", "lagrange"], capsys)
        pa = {l.split(",")[0:2][0] + "," + l.split(",")[1]:
              complex(float(l.split(",")[2]), float(l.split(",")[3]))
              for l in a.strip().splitlines()[1:]}
        pb = {l.split(",")[0] + "," + l.split(",")[1]:
              complex(float(l.split(",")[2]), float(l.split(",")[3]))
              for l in b.strip().splitlines()[1:]}
        assert all(abs(pa[k] - pb[k]) < 1e-7 for k in pa)

    @pytest.mark.parametrize("method", ["lagrange", "cv", "cauchy"])
    @pytest.mark.parametrize("log_domain", [False, True])
    def test_output_bytes(self, method, log_domain, capsys):
        # The listing is byte for byte what per-entry printing produced.
        kv = knotgen.van_der_corput(6)
        f = cli.DEFAULT_F
        variant = cauchyinv.InverseVariant.CORRECTED
        if method == "lagrange":
            data = cauchyinv.vandermonde_inverse_lagrange(kv).data
        elif method == "cv":
            data = cauchyinv.vandermonde_inverse_via_cv(kv, f, variant).data
        else:
            data = cauchyinv.cv_inverse(kv, f, variant).data
        with np.errstate(divide="ignore"):
            mag, ph = np.log10(np.abs(data)), np.angle(data)
        if method == "cauchy":
            mag, ph = cauchyinv.cv_inverse_log_entries(kv, f, variant)
        if log_domain:
            expect = "i,j,log10mag,phase\n" + "".join(
                f"{i},{j},{mag[i, j]:.17g},{ph[i, j]:.17g}\n"
                for i in range(6) for j in range(6))
        else:
            expect = "i,j,re,im\n" + "".join(
                f"{i},{j},{data[i, j].real:.17g},{data[i, j].imag:.17g}\n"
                for i in range(6) for j in range(6))
        argv = ["invert", "--gen", "van-der-corput", "--n", "6", "--method", method]
        code, out, _ = run(argv + ["--log-domain"] * log_domain, capsys)
        assert code == 0
        assert out == expect

    def test_exact_zero_entry_prints_minus_inf(self, tmp_path, capsys):
        # The Lagrange inverse on knots 1, -1, 0 has exact zero entries.
        path = tmp_path / "k.txt"
        path.write_text("1,0\n-1,0\n0,0\n")
        data = cauchyinv.vandermonde_inverse_lagrange(knotgen.read_knots(path)).data
        with np.errstate(divide="ignore"):
            mag, ph = np.log10(np.abs(data)), np.angle(data)
        assert np.isneginf(mag).any()
        code, out, _ = run(["invert", "--knots", str(path), "--log-domain"], capsys)
        assert code == 0
        assert out == reference_entries("i,j,log10mag,phase", mag, ph)
        assert ",-inf," in out

    def test_collision_numeric_failure(self, capsys):
        code, _, err = run(["invert", "--gen", "dft", "--n", "8",
                            "--method", "cauchy", "--f", "1,0"], capsys)
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("extra", [["--method", "cauchy", "--log-domain"],
                                       ["--method", "cauchy"], ["--method", "cv"]])
    def test_zero_f_is_invalid_argument(self, extra, capsys, recwarn):
        code, out, err = run(["invert", "--gen", "dft", "--n", "4", "--f", "0",
                              *extra], capsys)
        assert (code, out, err) == (2, "", "error: f must be nonzero\n")
        assert len(recwarn) == 0

    def test_cv_route_refuses_f_off_the_circle(self, capsys, recwarn):
        # At f = 2 the route printed entries up to 456 where V^-1 has 1/64.
        code, out, err = run(["invert", "--gen", "dft", "--n", "64",
                              "--method", "cv", "--f", "2"], capsys)
        assert (code, out, err) == (2, "", "error: f must lie on the unit circle\n")
        assert len(recwarn) == 0

    @pytest.mark.parametrize("extra", [["--method", "cauchy", "--log-domain"],
                                       ["--method", "cauchy"], ["--method", "cv"]])
    def test_f_of_overflowing_modulus_is_invalid_argument(self, extra, capsys, recwarn):
        # Each part is finite, but |f| is not: abs(f) raised OverflowError.
        code, out, err = run(["invert", "--gen", "dft", "--n", "4",
                              "--f=1.7e308,1.7e308", *extra], capsys)
        assert (code, out, err) == (2, "", "error: f must be finite\n")
        assert len(recwarn) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra, allowed", [(["--method", "cauchy", "--log-domain"], {0}),
                                                (["--method", "cauchy"], {3}),
                                                (["--method", "cv"], {2})])
    def test_f_of_modulus_near_the_float_limit(self, extra, allowed, capsys):
        # |f| = 1.4e308 is finite; dividing by f used to overflow.  The CV
        # inverse's entries reach 10^1231: the log domain prints them and the
        # complex route refuses them.  The cv route takes f on the unit circle
        # only: at |f| != 1 its transform cancels |f|^(n-1-k) in floating point.
        code, out, err = run(["invert", "--gen", "dft", "--n", "4",
                              "--f=1e308,1e308", *extra], capsys)
        assert code in allowed, err
        if code == 2:
            assert err == "error: f must lie on the unit circle\n"
        elif code:
            assert err.startswith("error: log10 magnitude ") and err.count("\n") == 1
        else:
            table = np.loadtxt(out.splitlines()[1:], delimiter=",")
            assert table.shape == (16, 4) and np.all(np.isfinite(table))


class TestBounds:
    def test_json_lines(self, capsys):
        code, out, _ = run(["bounds", "--gen", "quasi-cyclic", "--n", "48"],
                           capsys)
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        ids = [r["bound_id"] for r in reports]
        for expected in ("easy", "refined-norm", "cv-inverse", "circle-value",
                         "coeff-norm", "quasi-cyclic-base",
                         "quasi-cyclic-integral", "arc-vandermonde"):
            assert expected in ids
        for r in reports:
            assert set(r) == {"bound_id", "log10value", "variant",
                              "applicable", "reason", "params"}
        cv = [r for r in reports if r["bound_id"] == "cv-inverse"]
        assert {r["variant"] for r in cv} == {"paper", "corrected"}

    def test_cluster_auto_detection(self, capsys):
        code, out, _ = run(["bounds", "--gen", "scaled-cluster", "--n", "16",
                            "--k", "4", "--rho", "0.5"], capsys)
        ids = [json.loads(l)["bound_id"] for l in out.strip().splitlines()]
        assert "cluster" in ids

    def test_eta_grid_argument(self, capsys):
        code, out, _ = run(["bounds", "--gen", "dft", "--n", "16",
                            "--eta-grid", "1.05,1.3"], capsys)
        assert code == 0

    def test_degrades_per_report_on_extreme_knots(self, tmp_path, capsys):
        # s(x) = x^700 - 3^700 spans hundreds of decades; every report stays
        # finite, and the coefficient bound carries the unit-disc gate.
        path = tmp_path / "wild.txt"
        pts = 3.0 * knotgen.roots_of_unity(700).as_array()
        knotgen.write_knots(knotgen.make_knot_vector(list(pts)), path)
        code, out, _ = run(["bounds", "--knots", str(path)], capsys)
        assert code == 0
        reports = [json.loads(l) for l in out.strip().splitlines()]
        by_id = {r["bound_id"]: r for r in reports}
        assert by_id["easy"]["applicable"]
        assert by_id["easy"]["log10value"] > 100
        coeff = by_id["coeff-norm"]
        assert math.isfinite(coeff["log10value"])
        assert not coeff["applicable"]
        assert coeff["reason"] == "knots leave the unit disc (s_+ = 3)"

    def test_scaled_cluster_quiet(self, capsys, recwarn):
        # Its expanded coefficients used to overflow with a RuntimeWarning.
        code, out, err = run(["bounds", "--gen", "scaled-cluster", "--n", "768",
                              "--k", "96", "--rho", "0.5"], capsys)
        assert code == 0 and err == "" and len(recwarn) == 0
        by_id = {r["bound_id"]: r for r in map(json.loads, out.splitlines())}
        assert math.isfinite(by_id["coeff-norm"]["log10value"])

    @pytest.mark.parametrize("f", ["nan", "inf,0", "0,-inf", "0", "1.7e308,1.7e308"])
    def test_non_finite_or_zero_f_is_invalid_argument(self, f, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["bounds", "--gen", "quasi-cyclic", "--n", "12", "--f", f])
        out = capsys.readouterr()
        assert (err.value.code, out.out) == (2, "")
        assert "--f must be finite and nonzero" in out.err

    def test_raising_evaluator_keeps_the_listing(self, tmp_path, capsys):
        # The arc search raises on evenly spaced knots; the remaining
        # bounds must still be listed, each line staying valid JSON.
        path = tmp_path / "uniform.txt"
        knotgen.write_knots(knotgen.roots_of_unity(64), path)
        code, out, _ = run(["bounds", "--knots", str(path)], capsys)
        assert code == 0
        reports = [json.loads(l) for l in out.strip().splitlines()]
        by_id = {r["bound_id"]: r for r in reports}
        assert by_id["easy"]["applicable"]
        assert by_id["coeff-norm"]["applicable"]
        arc = by_id["arc-vandermonde"]
        assert not arc["applicable"]
        assert arc["reason"].startswith("NoPositiveBound")


class TestTable:
    def test_markdown_default(self, capsys):
        code, out, _ = run(["table", "--id", "4"], capsys)
        assert code == 0
        assert out.startswith("| n | q | kappa")

    def test_csv_to_file(self, tmp_path, capsys):
        path = tmp_path / "t4.csv"
        code, _, _ = run(["table", "--id", "4", "--out", str(path)], capsys)
        assert code == 0
        text = path.read_text()
        assert text.startswith("# table=T4")
        assert "1.53E+01" in text

    def test_json_format(self, capsys):
        code, out, _ = run(["table", "--id", "3", "--format", "json"], capsys)
        table = json.loads(out)
        assert table["table_id"] == "T3"
        assert len(table["rows"]) == 4


class TestGenp:
    def test_stats_line(self, capsys):
        code, out, _ = run(["genp", "--n", "16", "--trials", "5",
                            "--seed", "1"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,trials,seed,mean_rn,std_rn"
        cells = row.split(",")
        assert cells[:3] == ["16", "5", "1"]
        assert float(cells[3]) < 1e-10


class TestBuild:
    def test_dump_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        code, _, _ = run(["build", "--gen", "dft", "--n", "4",
                          "--dump", str(path)], capsys)
        assert code == 0
        with open(path) as fh:
            M = structmat.load_matrix(fh)
        assert np.allclose(M.data, structmat.dft(4).data)

    def test_stdout_dump(self, capsys):
        code, out, _ = run(["build", "--gen", "dft", "--n", "2"], capsys)
        assert out.splitlines()[0] == "2 2"

    def test_zero_f_is_invalid_argument(self, capsys):
        code, out, err = run(["build", "--gen", "dft", "--n", "4",
                              "--matrix", "cv", "--f", "0"], capsys)
        assert (code, out, err) == (2, "", "error: f must be nonzero\n")

    @pytest.mark.parametrize("q", ["0", "9"])
    def test_block_out_of_range(self, q, capsys):
        code, out, err = run(["build", "--gen", "dft", "--n", "8", "--block", q],
                             capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "1..8" in err


class TestExitCodes:
    def test_invalid_arguments(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["table"])
        assert err.value.code == 2

    def test_unknown_generator(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["cond", "--gen", "nope", "--n", "4"])
        assert err.value.code == 2

    def test_missing_source(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["cond"])
        assert err.value.code == 2

    def test_missing_file_is_invalid_argument(self, capsys):
        code = cli.main(["cond", "--knots", "/nonexistent/knots.txt"])
        assert code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0

    def test_bounds_has_no_grid_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["bounds", "--gen", "quasi-cyclic", "--n", "12", "--grid", "64"])
        assert err.value.code == 2
