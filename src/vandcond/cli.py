"""Command-line front end; options are parsed by type only, the library rules on values.

Exit codes: 0 success, 2 invalid arguments (`ValueError`, `OSError`, argparse),
3 numeric or premise failure (`VandcondError`); `errors` states the rule.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, bounds as bounds_mod, cauchyinv, knotgen, spectral
from .errors import VandcondError
from .structmat import cv_matrix, dump_matrix, leading_block, vandermonde
from .tables import DEFAULT_SEED, DEFAULT_TRIALS, emit, run_table

DEFAULT_F = complex(math.cos(0.3), math.sin(0.3))


def parse_complex(text: str) -> complex:
    """RE or RE,IM as a complex; a ValueError otherwise (argparse exits 2)."""
    parts = [float(part) for part in text.split(",")]
    if len(parts) > 2:
        raise ValueError(f"expected RE or RE,IM, got {text!r}")
    return complex(*parts)


def _add_knot_source(p: argparse.ArgumentParser):
    p.add_argument("--gen", required=True,
                   choices=["dft", "quasi-cyclic", "van-der-corput",
                            "single-outlier", "scaled-cluster", "file"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--s-last", type=parse_complex, metavar="RE,IM")
    p.add_argument("--file", metavar="PATH")


def _resolve_knots(args, parser) -> knotgen.KnotVector:
    gen = args.gen
    if gen == "file":
        if not args.file:
            parser.error("--gen file requires --file PATH")
        return knotgen.read_knots(args.file)
    if args.n is None:
        parser.error(f"--gen {gen} requires --n")
    plain = {"dft": knotgen.roots_of_unity, "quasi-cyclic": knotgen.quasi_cyclic,
             "van-der-corput": knotgen.van_der_corput}
    if gen in plain:
        return plain[gen](args.n)
    if gen == "single-outlier":
        if args.s_last is None:
            parser.error("--gen single-outlier requires --s-last RE,IM")
        return knotgen.single_outlier(args.n, args.s_last)
    if args.k is None or args.rho is None:
        parser.error("--gen scaled-cluster requires --k and --rho")
    return knotgen.scaled_cluster(args.n, args.k, args.rho)


def _cmd_gen_knots(args, parser) -> int:
    kv = _resolve_knots(args, parser)
    if args.out:
        knotgen.write_knots(kv, args.out)
    else:
        knotgen.dump_knots(kv, sys.stdout)
    return 0


def _cmd_cond(args, parser) -> int:
    kv = _resolve_knots(args, parser)
    M = vandermonde(kv)
    if args.block is not None:
        M = leading_block(M, args.block)
    s = spectral.singular_values(M)
    print("n,sigma1,sigma_min,kappa,log10kappa,trustworthy")
    print(f"{M.rows},{s.sigma1:.17g},{s.sigma_min:.17g},{s.kappa:.17g},"
          f"{s.log10kappa:.17g},{str(s.trustworthy).lower()}")
    return 0


def _print_entries(header: str, a: np.ndarray, b: np.ndarray) -> None:
    """One csv line `i,j,a[i, j],b[i, j]` per entry of two same-shape tables.

    Each row is one `%` on a row template; `%.17g` prints a float exactly
    as the f-string spec `.17g` does.
    """
    print(header)
    pairs = np.empty((a.shape[1], 2))
    for i in range(a.shape[0]):
        pairs[:, 0], pairs[:, 1] = a[i], b[i]
        row = "".join([f"{i},{j},%.17g,%.17g\n" for j in range(a.shape[1])])
        sys.stdout.write(row % tuple(pairs.ravel().tolist()))


def _cmd_invert(args, parser) -> int:
    kv = _resolve_knots(args, parser)
    # Only the corrected variant is V^-1; paper-form numbers appear as bounds.
    variant = cauchyinv.InverseVariant.CORRECTED
    if args.method == "cauchy" and args.log_domain:
        # The CV-matrix inverse is native to the log domain.
        _print_entries("i,j,log10mag,phase",
                       *cauchyinv.cv_inverse_log_entries(kv, args.f, variant))
        return 0
    if args.method == "cauchy":
        data = cauchyinv.cv_inverse(kv, args.f, variant).data
    elif args.method == "cv":
        data = cauchyinv.vandermonde_inverse_via_cv(kv, args.f, variant).data
    else:
        data = cauchyinv.vandermonde_inverse_lagrange(kv).data
    if args.log_domain:
        with np.errstate(divide="ignore"):
            _print_entries("i,j,log10mag,phase", np.log10(np.abs(data)),
                           np.angle(data))
    else:
        _print_entries("i,j,re,im", data.real, data.imag)
    return 0


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _report_line(report) -> str:
    val = report.log10value if math.isfinite(report.log10value) else None
    return json.dumps({"bound_id": report.bound_id, "log10value": val,
                       "variant": report.variant,
                       "applicable": report.applicable,
                       "reason": report.reason,
                       "params": _json_safe(report.params)})


def _cmd_bounds(args, parser) -> int:
    kv = _resolve_knots(args, parser)
    listing = bounds_mod.evaluators(kv, args.f)
    print("\n".join(_report_line(thunk()) for _, _, thunk in listing))
    return 0


def _cmd_table(args, parser) -> int:
    overrides = {"seed": args.seed, "trials": args.trials}
    table = run_table(f"T{args.id}", overrides)
    fmt = args.format or ("csv" if args.out else "markdown")
    text = emit(table, fmt)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if all(row.get("error") for row in table.rows):
        print("error: every row failed", file=sys.stderr)
        return 3
    return 0


def _cmd_genp(args, parser) -> int:
    stats = spectral.genp_residual_experiment(args.n, args.trials, args.seed)
    print("n,trials,seed,mean_rn,std_rn")
    print(f"{stats.n},{stats.trials},{stats.seed},"
          f"{stats.mean_rn:.17g},{stats.std_rn:.17g}")
    return 0


def _cmd_build(args, parser) -> int:
    kv = _resolve_knots(args, parser)
    if args.matrix == "cv":
        M = cv_matrix(kv, args.f)
    else:
        M = vandermonde(kv)
    if args.block is not None:
        M = leading_block(M, args.block)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            dump_matrix(M, fh)
    else:
        dump_matrix(M, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vandcond",
        description="Conditioning laboratory for Vandermonde, Cauchy, and "
                    "CV matrices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-knots", help="generate or rewrite a knot file")
    _add_knot_source(p)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_gen_knots)

    p = sub.add_parser("cond", help="condition number of the knot Vandermonde")
    _add_knot_source(p)
    p.add_argument("--block", type=int, metavar="Q")
    p.set_defaults(func=_cmd_cond)

    p = sub.add_parser("invert", help="closed-form inverses")
    _add_knot_source(p)
    p.add_argument("--method", choices=["lagrange", "cv", "cauchy"],
                   default="lagrange")
    p.add_argument("--f", type=parse_complex, default=DEFAULT_F, metavar="RE,IM")
    p.add_argument("--log-domain", action="store_true")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("bounds", help="evaluate lower bounds, one JSON per line")
    _add_knot_source(p)
    p.add_argument("--f", type=parse_complex, default=DEFAULT_F, metavar="RE,IM")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table", help="run one of the experiment tables 1-5")
    p.add_argument("--id", type=int, choices=[1, 2, 3, 4, 5], required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--format", choices=["csv", "markdown", "json"])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("genp", help="no-pivoting residual experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_genp)

    p = sub.add_parser("build", help="build a matrix and dump it (debug)")
    _add_knot_source(p)
    p.add_argument("--matrix", choices=["vandermonde", "cv"],
                   default="vandermonde")
    p.add_argument("--f", type=parse_complex, default=DEFAULT_F, metavar="RE,IM")
    p.add_argument("--block", type=int, metavar="Q")
    p.add_argument("--dump", metavar="PATH")
    p.set_defaults(func=_cmd_build)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except BrokenPipeError:
        # Downstream consumer (head, less, ...) closed the pipe: exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except VandcondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
