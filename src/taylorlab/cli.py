"""Command-line front end: reproduce published tables, fit models, run tests.

Exit codes: 0 on success (all golden cells pass), 1 on estimation failure
or golden mismatch, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import tables as tables_mod
from .diagnostics import (
    breusch_godfrey_test,
    chow_breakpoint_test,
    jarque_bera_test,
    wald_test,
    white_test,
)
from .errors import CollinearityError, TaylorLabError
from .hac import HacConfig
from .ingest import embedded_dataset, parse_quarterly_csv
from .ols import RegressionSpec, fit_ols
from .report import compare_golden, load_golden, render_diff, render_table
from .series import Quarter
from .transform import TransformConfig, build_taylor_dataset


class UsageError(Exception):
    pass


def _dataset(args):
    if getattr(args, "csv", None):
        try:
            with open(args.csv, "rb") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --csv {args.csv}: {exc.strerror or exc}") from None
        raw = parse_quarterly_csv(text, args.country or "csv")
    else:
        if args.country not in ("us", "uk"):
            raise UsageError(f"--country must be us or uk, got {args.country!r}")
        raw = embedded_dataset(args.country)
    cfg = TransformConfig(
        inflation_target=args.target,
        detrend=args.detrend,
        hp_lambda=args.hp_lambda,
    )
    return build_taylor_dataset(raw, cfg)


def _parse_sample(text):
    if not text:
        return None
    try:
        lo, hi = text.split(":")
        return (Quarter.parse(lo), Quarter.parse(hi))
    except (ValueError, TaylorLabError):
        raise UsageError(f"--sample must look like 1991Q1:2020Q1, got {text!r}")


def _spec_from_args(args) -> RegressionSpec:
    regs = [t for t in (args.reg or "").split(",") if t.strip()]
    if not regs:
        raise UsageError("--reg needs at least one regressor")
    if args.bandwidth is not None and args.cov != "hac":
        raise UsageError("--bandwidth needs --cov hac")
    cov = HacConfig(bandwidth=args.bandwidth) if args.cov == "hac" else None
    return RegressionSpec(
        args.dep,
        tuple(regs),
        include_constant=args.const,
        sample=_parse_sample(args.sample),
        covariance=cov,
    )


def cmd_reproduce(args) -> int:
    ids = sorted(args.tables or (
        tables_mod.US_TABLES if args.country == "us" else tables_mod.UK_TABLES
    ))
    for tid in ids:
        if tables_mod.country_for_table(tid) != args.country:
            raise UsageError(
                f"table {tid} does not belong to country {args.country!r}"
            )
    d = tables_mod.reproduction_dataset(args.country)
    all_pass = True
    for tid, result in zip(ids, tables_mod.run_tables(ids, d)):
        diff = compare_golden(result, load_golden(tid))
        all_pass &= diff.passed
        if args.verbose:
            sys.stdout.write(render_diff(diff))
        else:
            sys.stdout.write(
                f"Table {tid}: {'PASS' if diff.passed else 'FAIL'}\n"
            )
    return 0 if all_pass else 1


def cmd_fit(args) -> int:
    d = _dataset(args)
    fit = fit_ols(d, _spec_from_args(args))
    sys.stdout.write(render_table(fit, args.format))
    return 0


def _parse_restrictions(text, n_params):
    # "b1=0.5,b2=0.5": bK restricts the K-th coefficient (1-based)
    idxs, rhs = [], []
    for piece in text.split(","):
        try:
            lhs, value = piece.split("=")
            idx = int(lhs.strip().lstrip("bB")) - 1
            value = float(value)
        except ValueError:
            raise UsageError(f"malformed restriction {piece!r}; expected bK=value")
        if not math.isfinite(value):
            raise UsageError(f"restriction value must be finite, got {piece!r}")
        if not 0 <= idx < n_params:
            raise UsageError(f"restriction index b{idx + 1} out of range")
        idxs.append(idx)
        rhs.append(value)
    return np.eye(n_params)[idxs], np.array(rhs)


def cmd_test(args) -> int:
    d = _dataset(args)
    spec = _spec_from_args(args)
    if args.kind == "chow":
        if not args.break_at:
            raise UsageError("chow needs --break YYYYQN")
        report = chow_breakpoint_test(d, spec, Quarter.parse(args.break_at))
    else:
        fit = fit_ols(d, spec)
        if args.kind == "wald":
            if not args.restrict:
                raise UsageError('wald needs --restrict "b1=0.5,b2=0.5"')
            R, r = _parse_restrictions(args.restrict, fit.n_params)
            report = wald_test(fit, R, r)
        elif args.kind == "white":
            report = white_test(fit)
        elif args.kind == "bg":
            report = breusch_godfrey_test(fit, lags=args.lags)
        else:
            report = jarque_bera_test(fit.residuals)
    sys.stdout.write(render_table(report, args.format))
    return 0


def _add_data_args(p):
    p.add_argument("--country", default="us", help="us or uk (embedded data)")
    p.add_argument("--csv", help="quarterly CSV file instead of embedded data")
    p.add_argument("--target", type=float, default=2.0, help="inflation target")
    p.add_argument(
        "--detrend", default="hp_filter", choices=["hp_filter", "linear_trend"]
    )
    p.add_argument("--hp-lambda", type=float, default=1600.0, dest="hp_lambda")
    p.add_argument("--format", default="text", choices=["text", "json"])


def _add_spec_args(p):
    p.add_argument("--dep", default="it", help="dependent series")
    p.add_argument("--reg", help="comma list of regressors, lag syntax name(-k)")
    p.add_argument("--no-const", action="store_false", dest="const")
    p.add_argument("--sample", help="e.g. 1991Q1:2020Q1")
    p.add_argument("--cov", default="classical", choices=["classical", "hac"])
    p.add_argument("--bandwidth", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taylorlab", description="Taylor-rule estimation and diagnostics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="re-estimate published tables and diff")
    p.add_argument("--country", required=True, choices=["us", "uk"])
    p.add_argument("tables", nargs="*", type=int, help="table ids (default: all)")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("fit", help="estimate one regression")
    _add_data_args(p)
    _add_spec_args(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("test", help="run one diagnostic test")
    p.add_argument("kind", choices=["wald", "chow", "white", "bg", "jb"])
    _add_data_args(p)
    _add_spec_args(p)
    p.add_argument("--break", dest="break_at", help="breakpoint, e.g. 2003Q1")
    p.add_argument("--restrict", help='e.g. "b1=0.5,b2=0.5"')
    p.add_argument("--lags", type=int, default=1)
    p.set_defaults(func=cmd_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (CollinearityError,) as exc:
        sys.stderr.write(f"estimation error: {exc}\n")
        return 1
    except TaylorLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
