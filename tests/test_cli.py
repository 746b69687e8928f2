import io
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import vandcond
from vandcond import cauchyinv, cli, errors, knotgen, structmat, tables
from vandcond.logdomain import wrap_phase


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

    def test_knot_file_source(self, tmp_path, capsys):
        path = tmp_path / "k.txt"
        knotgen.write_knots(knotgen.van_der_corput(8), path)
        code, out, _ = run(["cond", "--gen", "file", "--file", str(path)], capsys)
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


#: The command lines of the bench's cli-session workload, with f = e^{0.3i}
#: in place of its seeded f.
CLI_SESSION = (
    ["gen-knots", "--gen", "van-der-corput", "--n", "4096", "--out", "K"],
    ["gen-knots", "--gen", "file", "--file", "K", "--out", "K2"],
    ["cond", "--gen", "quasi-cyclic", "--n", "48"],
    ["cond", "--gen", "van-der-corput", "--n", "768"],
    ["bounds", "--gen", "quasi-cyclic", "--n", "768", "--f=0.955336489125606,0.29552020666133955"],
    ["bounds", "--gen", "scaled-cluster", "--n", "768", "--k", "96", "--rho", "0.5",
     "--f=0.955336489125606,0.29552020666133955"],
    ["invert", "--gen", "quasi-cyclic", "--n", "384", "--method", "cv",
     "--f=0.955336489125606,0.29552020666133955"],
    ["invert", "--gen", "quasi-cyclic", "--n", "384", "--method", "cauchy", "--log-domain",
     "--f=0.955336489125606,0.29552020666133955"],
    ["table", "--id", "3"],
    ["table", "--id", "4", "--format", "json"],
    ["build", "--gen", "dft", "--n", "256", "--dump", "D"],
    ["genp", "--n", "256", "--seed", "12345"],
)


class TestColdStart:
    def test_runs_with_scipy_unimportable(self, tmp_path):
        # A fresh interpreter in which `import scipy` fails runs the
        # cli-session script, a blocked GENP (n = 130 > GENP_BLOCK) and every
        # table, and ends with no scipy module loaded.
        src = os.path.dirname(os.path.dirname(vandcond.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        code = ("import contextlib, os, sys\n"
                "sys.modules['scipy'] = None\n"
                "import vandcond.cli, vandcond.tables\n"
                f"argvs = {[*CLI_SESSION, ['genp', '--n', '130', '--trials', '3']]!r}\n"
                "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
                "    for argv in argvs:\n"
                "        assert vandcond.cli.main(argv) == 0, argv\n"
                "for tid, size in (('T1', 64), ('T2', 64), ('T3', 4), ('T4', 8), ('T5', 16)):\n"
                "    table = vandcond.tables.run_table(tid, {'sizes': (size,), 'trials': 3})\n"
                "    assert table.rows and not any(r['error'] for r in table.rows), tid\n"
                "print(sys.modules['scipy'], sorted(m for m in sys.modules if m.startswith('scipy.')))\n")
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "None []"

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
        assert table.shape == (n * n, 4)
        i, j = table[:, 0].astype(int), table[:, 1].astype(int)
        want = np.conj(knotgen.roots_of_unity(n).as_array()[i * j % n]) / n
        assert np.max(np.abs(table[:, 2] + 1j * table[:, 3] - want)) <= 1e-14

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra", [[], ["--method", "cv"]], ids=["default", "cv"])
    def test_far_outlier_inverse_stays_below_1(self, extra, capsys):
        # log10 |s'(s_i)| is 312 at the outlier (lagrange, the default), and the
        # cv diagonal s^n - f^n reaches 10^320; every entry of V^-1 stays below 1.
        code, out, _ = run(["invert", "--gen", "single-outlier", "--n", "40",
                            "--s-last", "1e8,0", *extra], capsys)
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
                          "--method", "cv",
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
        code, out, _ = run(["invert", "--gen", "file", "--file", str(path), "--log-domain"],
                             capsys)
        assert code == 0
        assert out == reference_entries("i,j,log10mag,phase", mag, ph)
        assert ",-inf," in out

    @pytest.mark.parametrize("extra", [["--method", "cauchy", "--log-domain"],
                                       ["--method", "cauchy"], ["--method", "cv"]])
    def test_zero_f_is_invalid_argument(self, extra, capsys, recwarn):
        code, out, err = run(["invert", "--gen", "dft", "--n", "4", "--f", "0",
                              *extra], capsys)
        assert (code, out, err) == (2, "", "error: f must be nonzero\n")
        assert len(recwarn) == 0

    @pytest.mark.filterwarnings("error")
    def test_cauchy_log_domain_past_the_float_range(self, tmp_path, capsys):
        # t_i - s_j = 1e308 + 1.7e308 overflowed: inf and nan were printed.
        path = tmp_path / "huge.txt"
        path.write_text("1.7e308,0\n-1.7e308,0\n")
        code, out, err = run(["invert", "--gen", "file", "--file", str(path),
                              "--method", "cauchy", "--log-domain", "--f=1e308,1e308"], capsys)
        assert (code, err) == (0, "")
        with mpmath.workdps(50):
            s = [mpmath.mpf(1.7e308), mpmath.mpf(-1.7e308)]
            t = [mpmath.mpc(z) for z in structmat.cv_knots(2, complex(1e308, 1e308))]
            inv = mpmath.inverse(mpmath.matrix([[1 / (x - y) for y in t] for x in s]))
        lines = out.splitlines()
        assert lines[0] == "i,j,log10mag,phase" and len(lines) == 5
        for line in lines[1:]:
            i, j, mag, ph = line.split(",")
            want = inv[int(i), int(j)]
            log_want = float(mpmath.log10(abs(want)))
            assert abs(float(mag) - log_want) <= 1e-12 * abs(log_want)
            assert abs(wrap_phase(float(ph) - float(mpmath.arg(want)))) < 1e-12

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


#: A knot of subnormal modulus (nu = inf), s_1 - s_2 = 3.4e308, s(x) = x^700 - 3^700,
#: and an exact zero in the Lagrange inverse.
KNOT_FILES = {"subnormal.txt": "1e-320,0\n1,0\n-1,0\n", "huge.txt": "1.7e308,0\n-1.7e308,0\n",
              "wild.txt": "".join(f"{z.real:.17g},{z.imag:.17g}\n"
                                  for z in 3.0 * knotgen.unit_roots(700)),
              "zero.txt": "1,0\n-1,0\n0,0\n"}


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

    def test_degrades_per_report_on_extreme_knots(self, tmp_path, capsys):
        # s(x) = x^700 - 3^700 spans hundreds of decades; every report stays
        # finite, and the coefficient bound carries the unit-disc gate.
        path = tmp_path / "wild.txt"
        pts = 3.0 * knotgen.roots_of_unity(700).as_array()
        knotgen.write_knots(knotgen.KnotVector(list(pts)), path)
        code, out, _ = run(["bounds", "--gen", "file", "--file", str(path)], capsys)
        assert code == 0
        reports = [json.loads(l) for l in out.strip().splitlines()]
        by_id = {r["bound_id"]: r for r in reports}
        assert by_id["easy"]["applicable"]
        assert by_id["easy"]["log10value"] > 100
        coeff = by_id["coeff-norm"]
        assert math.isfinite(coeff["log10value"])
        assert not coeff["applicable"]
        assert coeff["reason"] == "knots leave the unit disc (s_+ = 3)"

    def test_knots_near_the_float_limit_list_no_applicable_null(self, tmp_path, capsys,
                                                                 recwarn):
        # s_1 - s_2 = 3.4e308 overflowed inside the corrected CV inverse,
        # which then printed an applicable line with a null value.
        path = tmp_path / "huge.txt"
        path.write_text("1.7e308,0\n-1.7e308,0\n")
        code, out, err = run(["bounds", "--gen", "file", "--file", str(path)], capsys)
        assert code == 0 and err == "" and len(recwarn) == 0
        reports = [json.loads(l) for l in out.splitlines()]
        assert not [r for r in reports if r["applicable"] and r["log10value"] is None]
        # Largest corrected entry a^2 / 4 against max |s_i^2 - f^2| = a^2.
        cv = {r["variant"]: r for r in reports if r["bound_id"] == "cv-inverse"}
        assert abs(cv["corrected"]["log10value"] - (0.5 - 2.0) * math.log10(2.0)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_knot_at_origin_refuses_only_the_cluster_lines(self, n, capsys, recwarn):
        # The only knot inside the unit disc is 0, so nu = 1/0: the listing
        # goes on, with both cluster lines refused.
        code, out, err = run(["bounds", "--gen", "single-outlier", "--n", str(n),
                              "--s-last", "0,0"], capsys)
        assert code == 0 and err == "" and len(recwarn) == 0
        reports = [json.loads(l) for l in out.splitlines()]
        cluster = [r for r in reports if r["bound_id"] == "cluster"]
        assert len(cluster) == 2
        for r in cluster:
            assert not r["applicable"] and r["log10value"] is None
            assert r["reason"].startswith("ValueError: nu must be a finite number")
        assert [r["bound_id"] for r in reports] == [
            "easy", "refined-norm", "cluster", "cluster", "cv-inverse",
            "cv-inverse", "circle-value", "coeff-norm", "arc-vandermonde"]

    def test_knot_of_subnormal_modulus_refuses_only_the_cluster_lines(
            self, tmp_path, capsys, recwarn):
        # 1 / 1e-320 overflows to nu = inf, as 1 / 0 does: no warning.
        path = tmp_path / "subnormal.txt"
        path.write_text("1e-320,0\n1,0\n-1,0\n")
        code, out, err = run(["bounds", "--gen", "file", "--file", str(path)], capsys)
        assert code == 0 and err == "" and len(recwarn) == 0
        cluster = [r for r in map(json.loads, out.splitlines())
                   if r["bound_id"] == "cluster"]
        assert len(cluster) == 2
        for r in cluster:
            assert not r["applicable"] and r["log10value"] is None
            assert r["reason"].startswith("ValueError: nu must be a finite number")

    def test_scaled_cluster_quiet(self, capsys, recwarn):
        # Its expanded coefficients used to overflow with a RuntimeWarning.
        code, out, err = run(["bounds", "--gen", "scaled-cluster", "--n", "768",
                              "--k", "96", "--rho", "0.5"], capsys)
        assert code == 0 and err == "" and len(recwarn) == 0
        by_id = {r["bound_id"]: r for r in map(json.loads, out.splitlines())}
        assert math.isfinite(by_id["coeff-norm"]["log10value"])

    @pytest.mark.parametrize("f, message", [("nan", "f must be finite"),
                                            ("inf,0", "f must be finite"),
                                            ("0,-inf", "f must be finite"),
                                            ("0", "f must lie on the unit circle"),
                                            ("1.7e308,1.7e308", "f must be finite")])
    def test_non_finite_or_zero_f_is_invalid_argument(self, f, message, capsys, recwarn):
        # The library's own refusal, as for `invert --method cv`: no rescale.
        code, out, err = run(["bounds", "--gen", "quasi-cyclic", "--n", "12",
                              "--f", f], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(recwarn) == 0

    def test_quasi_cyclic_q_not_a_power_of_two_lists_the_refusals(self, capsys):
        # q = 12: base and product are listed as refused, like any other bound.
        code, out, _ = run(["bounds", "--gen", "quasi-cyclic", "--n", "36"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert [r["bound_id"] for r in lines] == [
            "easy", "refined-norm", "cv-inverse", "cv-inverse", "circle-value", "coeff-norm",
            *(f"quasi-cyclic-{m}" for m in ("base", "coarse", "refined", "product", "integral")),
            "arc-vandermonde"]
        reports = {r["bound_id"]: r for r in lines}
        for mode in ("base", "product"):
            r = reports[f"quasi-cyclic-{mode}"]
            assert not r["applicable"] and r["log10value"] is None
            assert r["reason"] == (f"ValueError: mode {mode!r} requires q to be "
                                   "a power of two (q=12)")
        for mode in ("coarse", "refined", "integral"):
            assert reports[f"quasi-cyclic-{mode}"]["applicable"]

    def test_f_on_the_knots_nudges_both_cv_lines_alike(self, capsys):
        # f = 1 puts the CV grid on the DFT knots: both lines share the one nudged walk.
        code, out, _ = run(["bounds", "--gen", "dft", "--n", "64", "--f", "1"], capsys)
        paper, corrected = [r["params"] for r in map(json.loads, out.splitlines())
                            if r["bound_id"] == "cv-inverse"]
        del paper["log10_inv_norm_entry"], corrected["log10_inv_norm_entry"]
        assert code == 0 and paper == corrected and paper["nudged"] is True

    @pytest.mark.parametrize("source", [
        *(f"--gen {gen} --n {n}" for gen in ("dft", "quasi-cyclic", "van-der-corput")
          for n in (1, 2, 3, 48)),
        *(f"--gen single-outlier --n {n} --s-last 0,0" for n in (2, 3, 8, 48, 1536)),
        *(f"--gen scaled-cluster --n {n} --k {max(1, n // 8)} --rho 0.5" for n in (2, 3, 48)),
        "--gen van-der-corput --n 769", *(f"--gen file --file {name}" for name in KNOT_FILES)])
    def test_every_line_is_plain_json(self, source, tmp_path, monkeypatch, capsys):
        # Params hold Python scalars only: json.dumps raises on a numpy count.
        # A line that does not apply names its reason, a line without a value
        # does not apply, and the arc line comes last.
        for name, text in KNOT_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        reports, line_of = [], cli._report_line
        monkeypatch.setattr(cli, "_report_line", lambda rep: reports.append(rep) or line_of(rep))
        code, out, err = run(["bounds", *source.split()], capsys)
        assert (code, err) == (0, "")
        assert {type(v) for r in reports for v in r.params.values()} <= {int, float, complex,
                                                                         str, bool}
        lines = [json.loads(l) for l in out.splitlines()]
        assert len(lines) == len(reports) and lines[-1]["bound_id"] == "arc-vandermonde"
        for r in lines:
            assert r["applicable"] or r["reason"]
            assert r["log10value"] is not None or not r["applicable"]

    def test_raising_evaluator_keeps_the_listing(self, tmp_path, capsys):
        # The arc search raises on evenly spaced knots; the remaining
        # bounds must still be listed, each line staying valid JSON.
        path = tmp_path / "uniform.txt"
        knotgen.write_knots(knotgen.roots_of_unity(64), path)
        code, out, _ = run(["bounds", "--gen", "file", "--file", str(path)], capsys)
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

    @pytest.mark.parametrize("failing, want", [((8, 16, 32, 64), 3), ((16,), 0)])
    def test_exit_3_only_when_every_row_failed(self, failing, want, monkeypatch, capsys):
        fill = tables._t4_fill

        def broken_fill(row, n):
            if n in failing:
                raise errors.VandcondError("no cells")
            fill(row, n)

        monkeypatch.setattr(tables, "_t4_fill", broken_fill)
        code, out, err = run(["table", "--id", "4", "--format", "csv"], capsys)
        assert out.count("VandcondError: no cells") == len(failing)
        assert (code, err) == (want, "error: every row failed\n" if want else "")


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

    def test_past_several_schur_panels(self, capsys):
        # n = 1024 spans four panels of 4 GENP_BLOCK columns: a finite mean, no warning.
        code, out, _ = run(["genp", "--n", "1024", "--trials", "4"], capsys)
        header, row = out.splitlines()
        assert code == 0 and math.isfinite(float(row.split(",")[3]))


class TestBuild:
    def test_dump_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        code, _, _ = run(["build", "--gen", "dft", "--n", "4",
                          "--dump", str(path)], capsys)
        assert code == 0
        with open(path) as fh:
            M = structmat.load_matrix(fh)
        assert np.allclose(M.data, structmat.dft(4).data)

    def test_cv_dump(self, capsys):
        code, out, _ = run(["build", "--gen", "quasi-cyclic", "--n", "48", "--matrix", "cv"],
                           capsys)
        M = structmat.load_matrix(io.StringIO(out))
        C = structmat.cv_matrix(knotgen.quasi_cyclic(48), cli.DEFAULT_F)
        assert code == 0 and np.array_equal(M.data, C.data)

    def test_stdout_dump(self, capsys):
        code, out, _ = run(["build", "--gen", "dft", "--n", "2"], capsys)
        assert out.splitlines()[0] == "2 2"

    def test_zero_f_is_invalid_argument(self, capsys):
        code, out, err = run(["build", "--gen", "dft", "--n", "4",
                              "--matrix", "cv", "--f", "0"], capsys)
        assert (code, out, err) == (2, "", "error: f must be nonzero\n")


#: One row per fault: argv (`{name}` is a knot file), exit code, stderr prefix.
#: Exit 2 is an argument the command does not accept (ValueError, argparse);
#: exit 3 is accepted arguments whose numbers fail (VandcondError).
FAULTS = {
    "cond-block-0": (["cond", "--gen", "dft", "--n", "8", "--block", "0"], 2,
                     "error: q=0 is outside 1..8 for the 8x8 matrix"),
    "cond-block-9": (["cond", "--gen", "dft", "--n", "8", "--block", "9"], 2,
                     "error: q=9 is outside 1..8 for the 8x8 matrix"),
    "build-block-0": (["build", "--gen", "dft", "--n", "8", "--block", "0"], 2,
                      "error: q=0 is outside 1..8 for the 8x8 matrix"),
    "build-block-9": (["build", "--gen", "dft", "--n", "8", "--block", "9"], 2,
                      "error: q=9 is outside 1..8 for the 8x8 matrix"),
    "empty-knot-file": (["cond", "--gen", "file", "--file", "{empty}"], 2,
                        "error: {empty}: no knots found"),
    "bad-knot-line": (["cond", "--gen", "file", "--file", "{bad}"], 2,
                      "error: {bad}:2: bad knot line 'not-a-knot'"),
    "bounds-f-2": (["bounds", "--gen", "dft", "--n", "8", "--f", "2"], 2,
                   "error: f must lie on the unit circle"),
    "bounds-f-nan": (["bounds", "--gen", "dft", "--n", "8", "--f", "nan"], 2,
                     "error: f must be finite"),
    "bounds-f-0": (["bounds", "--gen", "dft", "--n", "8", "--f", "0"], 2,
                   "error: f must lie on the unit circle"),
    # `invert` prints V^-1, the corrected inverse, and has no `--variant`.
    "invert-variant-paper": (["invert", "--gen", "dft", "--n", "4", "--variant", "paper"],
                             2, "usage: vandcond"),
    "invert-variant-corrected": (["invert", "--gen", "dft", "--n", "4", "--variant",
                                  "corrected"], 2, "usage: vandcond"),
    "duplicate-knots": (["cond", "--gen", "file", "--file", "{duplicate}"], 3,
                        "error: knots 0 and 1 coincide within tolerance"),
    "knot-on-f-grid": (["invert", "--gen", "dft", "--n", "8", "--method", "cauchy",
                        "--f", "1,0"], 3,
                       "error: row knot 0 collides with column knot 0 (gap 0.000e+00)\n"),
    "build-knot-on-f-grid": (["build", "--gen", "dft", "--n", "8", "--matrix", "cv", "--f", "1"],
                             3, "error: row knot 0 collides with column knot 0 (gap 0.000e+00)\n"),
    "near-duplicate": (["gen-knots", "--gen", "file", "--file", "{near}"], 3,
                       "error: knots 17 and 4096 coincide within tolerance (gap 4.996e-14)\n"),
    "range-overflow": (["invert", "--gen", "dft", "--n", "4", "--method", "cauchy",
                        "--f=1e308,1e308"], 3, "error: log10 magnitude "),
}


class TestExitCodes:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault(self, fault, tmp_path, capsys, recwarn):
        argv, want_code, prefix = FAULTS[fault]
        s = knotgen.van_der_corput(4096).as_array()
        files = {"empty": "# no knots\n", "bad": "1,0\nnot-a-knot\n",
                 "duplicate": "1,0\n1,0\n",
                 "near": "".join(f"{z.real:.17g},{z.imag:.17g}\n"
                                 for z in np.append(s, s[17] + 5e-14))}
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        try:
            code = cli.main([a.format(**paths) for a in argv])
        except SystemExit as exc:  # argparse
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out) == (want_code, "")
        assert out.err.startswith(prefix.format(**paths)), out.err
        assert out.err.count("\n") == 1 or out.err.startswith("usage: ")
        assert "Traceback" not in out.err and len(recwarn) == 0

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
        code = cli.main(["cond", "--gen", "file", "--file", "/nonexistent/knots.txt"])
        assert code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0

    @pytest.mark.parametrize("argv", [
        ["table", "--id", "5", "--trials", "-1"],
        ["table", "--id", "1", "--trials", "0"],
        ["genp", "--n", "4", "--trials", "0"]])
    def test_trials_below_1_is_invalid_argument(self, argv, capsys):
        # Refused by the library's count rule before any row runs.
        code = cli.main(argv)
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == f"error: trials must be >= 1, got {argv[-1]}\n"

    @pytest.mark.parametrize("argv", [
        ["table", "--id", "5", "--seed", "-1"],
        ["genp", "--n", "4", "--seed", "-1"]])
    def test_negative_seed_is_invalid_argument(self, argv, capsys):
        # Refused by the library's count rule before any row runs.
        code = cli.main(argv)
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["cond", "--knots", "{path}"],
        ["bounds", "--gen", "dft", "--n", "8", "--eta-grid", "1.1"],
        ["build", "--gen", "dft", "--n", "4", "--matrix", "dft"],
        ["bounds", "--gen", "quasi-cyclic", "--n", "12", "--grid", "64"]],
        ids=["knots", "eta-grid", "matrix-dft", "grid"])
    def test_no_second_spelling(self, argv, tmp_path, capsys):
        # `--gen file --file`, the fixed arc-search grid (twice) and
        # `--gen dft` already say what each of these would.
        path = tmp_path / "k.txt"
        knotgen.write_knots(knotgen.van_der_corput(8), path)
        with pytest.raises(SystemExit) as err:
            cli.main([a.format(path=path) for a in argv])
        assert err.value.code == 2
