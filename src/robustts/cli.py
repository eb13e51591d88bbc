"""Command-line front end: ingest the data files, run each analysis, render tables.

Subcommands
-----------
unitroot   battery + bootstrap p-values, one two-line row per country and
           difference order (d1, d2)
tailindex  Hill and rank-size curve files over the truncation grid
predict    predictive-regression table: grouped t per q and starred HAC t
factors    factor-model table (CAPM..6-F) with stacked t-statistic lines

Price files are named ``<Country>_<Index>.csv``; the country part pairs the
index with the matching counts series for predictive regressions.  Exit
codes: 0 ok, 2 usage, 3 ``DataError`` (unreadable or too-short input), 4
``NumericalError``; any other exception is a program bug and ends with a
traceback.  Every run writes a ``key=value`` manifest recording seed, B and
input hashes next to the output.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from . import __version__
from .bootstrap import MIN_REPLICATIONS, BootstrapResult, UnitRootReport, unit_root_report
from .errors import DataError, NumericalError
from .ingest import ingest_counts, ingest_factors, ingest_prices, ingest_rates
from .regression import factor_report, predictive_report
from .report import emit_tail_curve, factor_table, predict_table, render_table, unitroot_table
from .series import (
    Series,
    align_predictive,
    difference,
    excess_returns,
    positive_part,
    positive_window,
    simple_returns,
)
from .tailindex import k_grid, tail_curve
from .unitroot import unit_root_battery

DEFAULT_B = 999
DEFAULT_QS = (4, 8, 12, 16)
DEFAULT_GRID = (0.025, 0.15, 20)


def _parse_qs(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad q list {raw!r}")


def _parse_list(raw: str) -> list[str]:
    return [p for p in raw.split(",") if p]


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(prog="robustts", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"robustts {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=("csv", "md", "tex"), default="csv")
        p.add_argument("--out", type=Path, default=None)

    def q_list(p):
        p.add_argument("--q", type=_parse_qs, default=DEFAULT_QS, metavar="4,8,12,16")

    p_ur = sub.add_parser("unitroot", help="unit-root battery with bootstrap p-values")
    p_ur.add_argument("--counts", type=Path, required=True)
    p_ur.add_argument("--target", choices=("infections", "deaths"), default="infections")
    p_ur.add_argument("--country", type=_parse_list, default=[], action="extend")
    output(p_ur)
    p_ur.add_argument("--B", type=int, default=DEFAULT_B)
    p_ur.add_argument("--seed", type=int, default=None)

    p_tail = sub.add_parser("tailindex", help="tail-index curve files")
    p_tail.add_argument("--counts", type=Path, required=True)
    p_tail.add_argument("--target", choices=("infections", "deaths"), default="infections")
    p_tail.add_argument("--country", type=_parse_list, default=[], action="extend")
    p_tail.add_argument("--grid-lo", type=float, default=DEFAULT_GRID[0])
    p_tail.add_argument("--grid-hi", type=float, default=DEFAULT_GRID[1])
    p_tail.add_argument("--grid-steps", type=int, default=DEFAULT_GRID[2])
    p_tail.add_argument("--out", type=Path, required=True, help="output directory")

    p_pred = sub.add_parser("predict", help="predictive-regression table")
    p_pred.add_argument("--counts", type=Path, required=True)
    p_pred.add_argument("--prices-dir", type=Path, required=True)
    p_pred.add_argument("--rates", type=Path, required=True)
    p_pred.add_argument("--target", choices=("infections", "deaths"), default="infections")
    p_pred.add_argument("--country", type=_parse_list, default=[], action="extend")
    p_pred.add_argument("--index", type=_parse_list, default=[], action="extend")
    p_pred.add_argument("--regressor", choices=("d1", "d2"), default=None,
                        help="difference order of the lagged regressor (default: both)")
    output(p_pred)
    q_list(p_pred)

    p_fac = sub.add_parser("factors", help="factor-model table (CAPM..6-F)")
    p_fac.add_argument("--prices-dir", type=Path, required=True)
    p_fac.add_argument("--index", type=_parse_list, default=[], action="extend")
    p_fac.add_argument("--factors", type=Path, required=True)
    output(p_fac)
    q_list(p_fac)

    return parser, sub.choices


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Range checks argparse cannot express; ``parser`` is the subcommand's."""
    B = getattr(args, "B", 0)
    seed = getattr(args, "seed", None)
    if B > 0 and seed is None:
        parser.error("--seed is required when B > 0")
    if seed is not None and seed < 0:
        parser.error("--seed must be non-negative")
    if any(q < 2 for q in getattr(args, "q", ())):
        parser.error("q values must be >= 2")
    if B < 0 or 0 < B < MIN_REPLICATIONS:
        parser.error(f"--B must be 0 (statistics only) or >= {MIN_REPLICATIONS}")
    if args.command == "tailindex":
        if args.out.exists() and not args.out.is_dir():
            parser.error(f"--out {args.out} is a file; tailindex writes a directory")
        if args.grid_steps < 1:
            parser.error("--grid-steps must be >= 1")
        if not 0 < args.grid_lo <= args.grid_hi:
            parser.error("--grid-lo and --grid-hi need 0 < lo <= hi")
    elif args.out is not None and args.out.is_dir():
        parser.error(f"--out {args.out} is a directory; {args.command} writes a file")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(path: Path, args: argparse.Namespace, inputs: dict[str, Path]) -> None:
    # commands without --format or --q still record the defaults, so manifest
    # bytes stay comparable across versions
    lines = {
        "command": args.command,
        "version": __version__,
        "format": getattr(args, "format", "csv"),
        "B": str(args.B) if args.command == "unitroot" else "",
        "seed": str(args.seed) if getattr(args, "seed", None) is not None else "",
        "q": ",".join(str(q) for q in getattr(args, "q", DEFAULT_QS)),
    }
    for label, p in sorted(inputs.items()):
        lines[f"input.{label}.sha256"] = _sha256(p)
    text = "".join(f"{k}={v}\n" for k, v in sorted(lines.items()))
    path.write_text(text, encoding="utf-8")


def _emit(args: argparse.Namespace, payload: bytes, inputs: dict[str, Path]) -> None:
    if args.out is None:
        sys.stdout.write(payload.decode("utf-8"))
        return
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_bytes(payload)
    _write_manifest(args.out.with_name(args.out.name + ".manifest"), args, inputs)


def _select_countries(counts: dict[str, Series], wanted: list[str]) -> list[str]:
    if not wanted:
        return list(counts)
    missing = [c for c in wanted if c not in counts]
    if missing:
        raise DataError(f"countries not in counts file: {', '.join(missing)}")
    return [c for c in counts if c in set(wanted)]


def cmd_unitroot(args: argparse.Namespace) -> None:
    counts = ingest_counts(args.counts)
    jobs = []
    for name in _select_countries(counts, args.country):
        window = positive_window(counts[name])
        for order, label in ((1, "d1"), (2, "d2")):
            jobs.append((f"{name} {label}", difference(window, order)))

    entries = []
    for idx, (label, series) in enumerate(jobs):
        if args.B > 0:
            report = unit_root_report(series, B=args.B, seed=(args.seed, idx))
        else:
            stats = unit_root_battery(series)
            report = UnitRootReport(stats, BootstrapResult(p_values={}, B=0, seed=()))
        entries.append((label, report))
    table = unitroot_table(entries, title=f"Unit root battery ({args.target})")
    _emit(args, render_table(table, args.format), {"counts": args.counts})


def cmd_tailindex(args: argparse.Namespace) -> None:
    counts = ingest_counts(args.counts)
    jobs = []
    for name in _select_countries(counts, args.country):
        sample = positive_part(difference(positive_window(counts[name]), 2))
        grid = k_grid(len(sample), args.grid_lo, args.grid_hi, args.grid_steps)
        for method in ("hill", "rank_size"):
            jobs.append((name, method, sample, grid))

    curves = [
        (name, method, emit_tail_curve(tail_curve(sample, method, grid)))
        for name, method, sample, grid in jobs
    ]
    args.out.mkdir(parents=True, exist_ok=True)
    for name, method, payload in curves:
        safe = name.replace(" ", "_").replace("/", "-")
        (args.out / f"{safe}_{args.target}_{method}.csv").write_bytes(payload)
    _write_manifest(args.out / "run.manifest", args, {"counts": args.counts})


def _price_files(
    prices_dir: Path, indices: list[str], countries: list[str]
) -> list[tuple[str, str, Path]]:
    """(country, index, path) per price file, filtered by the selections."""
    files = sorted(prices_dir.glob("*.csv"))
    if not files:
        raise DataError(f"no price files in {prices_dir}")
    out = []
    for f in files:
        stem = f.stem
        if "_" not in stem:
            raise DataError(
                "price file name must be <Country>_<Index>.csv", path=f, field="file name"
            )
        country, index = stem.split("_", 1)
        if indices and index not in indices:
            continue
        if countries and country not in countries:
            continue
        out.append((country, index, f))
    if not out:
        raise DataError("no price files match the --index/--country selection")
    return out


def cmd_predict(args: argparse.Namespace) -> None:
    counts = ingest_counts(args.counts)
    rates = ingest_rates(args.rates)
    selected = _price_files(args.prices_dir, args.index, args.country)
    orders = {"d1": (1,), "d2": (2,)}.get(args.regressor, (1, 2))
    jobs = []
    for country, index, path in selected:
        if country not in counts:
            raise DataError(f"no counts series for country {country!r}", path=path)
        excess = excess_returns(simple_returns(ingest_prices(path)), rates)
        window = positive_window(counts[country])
        for order in orders:
            jobs.append((f"{country} {index} d{order}", excess, difference(window, order)))

    entries = [
        (label, predictive_report(align_predictive(excess, regressor), args.q))
        for label, excess, regressor in jobs
    ]
    table = predict_table(entries, args.q, title=f"Predictive regressions ({args.target})")
    inputs = {"counts": args.counts, "rates": args.rates}
    inputs.update({f"prices.{index}": path for _, index, path in selected})
    _emit(args, render_table(table, args.format), inputs)


def cmd_factors(args: argparse.Namespace) -> None:
    selected = _price_files(args.prices_dir, args.index, [])
    if len(selected) != 1:
        raise DataError("factors needs exactly one --index selection")
    country, index, path = selected[0]
    panel = ingest_factors(args.factors)
    returns = simple_returns(ingest_prices(path))
    rf_by_date = dict(zip(panel.dates, panel.columns["RF"]))
    dates, values = [], []
    for d, r in zip(returns.dates, returns.values):
        if d in rf_by_date:
            dates.append(d)
            values.append(r - rf_by_date[d])
    if len(dates) < 8:
        raise DataError(f"only {len(dates)} return dates covered by the factor panel")
    excess = Series(tuple(dates), values)

    q0 = args.q[0]
    reports = [
        factor_report(excess, panel, name, qs=(q0,))
        for name in ("CAPM", "3F", "4F", "5F", "6F")
    ]
    table = factor_table(reports, q0, title=f"Factor models ({country} {index})")
    _emit(args, render_table(table, args.format), {"factors": args.factors, f"prices.{index}": path})


COMMANDS = {
    "unitroot": cmd_unitroot,
    "tailindex": cmd_tailindex,
    "predict": cmd_predict,
    "factors": cmd_factors,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    _validate(args, commands[args.command])
    try:
        COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
