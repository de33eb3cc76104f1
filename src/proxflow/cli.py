"""Command-line experiment runner.

Subcommands: converge-propagation, converge-filter, compare-filters,
lemma-checks. Results go to CSV (header mandatory, provenance in leading
comment lines) with an optional JSON mirror. Exit codes: 0 success,
1 validation error (including usage errors and unwritable outputs), 2 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import __version__
from .config import load_config
from .errors import ProxflowError, ValidationError
from .experiments import compare_filters, converge_filter, converge_propagation, lemma_checks
from .propagation import MAX_DIM
from .rng import check_seed

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2

CONFIG_COMMANDS = {
    "converge-propagation": ("propagation order study", converge_propagation),
    "converge-filter": ("filter order study vs reference run", converge_filter),
    "compare-filters": ("Monte Carlo filter comparison", compare_filters),
}


def _parse_dims(text: str):
    """'lo-hi' or 'a,b,c'; other text, a bound above MAX_DIM, or a range with
    lo > hi is refused before any range is built."""
    is_range = "-" in text
    try:
        values = [int(d) for d in (text.split("-", 1) if is_range else text.split(","))]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'lo-hi' or 'a,b,c', got {text!r}") from None
    if max(values) > MAX_DIM:
        raise argparse.ArgumentTypeError(f"each dimension must be at most {MAX_DIM}")
    if is_range and values[0] > values[1]:
        raise argparse.ArgumentTypeError(f"range {text} is empty: its start exceeds its end")
    return tuple(range(values[0], values[1] + 1)) if is_range else tuple(values)


def seed(text: str) -> int:
    """A --seed value: its decimal integer, or the text, under rng.check_seed."""
    try:
        value = int(text)
    except ValueError:
        value = text
    try:
        return check_seed(value)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxflow",
        description="Proximal-recursion propagation and filtering experiments",
    )
    parser.add_argument("--version", action="version", version=f"proxflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="CSV output path (overrides the config)")
        p.add_argument("--out-json", default=None, help="optional JSON mirror path")
        p.add_argument("--seed", type=seed, default=None, help="override the seed list")
        p.add_argument("--threads", type=int, default=None, help="accepted and ignored")

    for command, (summary, _) in CONFIG_COMMANDS.items():
        add_common(sub.add_parser(command, help=summary))

    lemma = sub.add_parser("lemma-checks", help="randomized geometry identity report")
    lemma.add_argument("--trials", type=int, default=1000)
    lemma.add_argument("--dims", type=_parse_dims, default=(1, 2, 3, 4, 5),
                       help="dimensions, e.g. '1-5' or '1,3,4'")
    lemma.add_argument("--seed", type=seed, default=0)
    lemma.add_argument("--out", default=None, help="CSV output path")
    lemma.add_argument("--out-json", default=None)
    return parser


def _check_writable(*paths, config=None) -> None:
    """Reject an output path before any work runs, so a bad path leaves no
    partial results behind; ResultTable.write still reports a later failure.
    The outputs and the config must be different files."""
    taken = {os.path.realpath(config): config} if config else {}
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.path.isdir(parent):
            raise ValidationError(f"cannot write {path}: not a file in an existing directory")
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise ValidationError(f"cannot write {path}: permission denied")
        real = os.path.realpath(path)
        if real in taken:
            raise ValidationError(f"cannot write {path}: same file as {taken[real]}")
        taken[real] = path


def _run_config_command(args, runner):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed,))
    csv_path = args.out or cfg.out_csv
    json_path = args.out_json or cfg.out_json
    if not csv_path:
        raise ValidationError("no output path: pass --out or set output.csv in the config")
    _check_writable(csv_path, json_path, config=args.config)
    table = runner(cfg)
    if args.seed is not None:
        table = dataclasses.replace(table, overrides=f"seed:{args.seed}")
    table.write(csv_path, json_path)
    print(f"wrote {len(table.rows)} rows to {csv_path} (config {table.config_hash[:12]})")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help/--version, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        if args.command in CONFIG_COMMANDS:
            _run_config_command(args, CONFIG_COMMANDS[args.command][1])
        else:  # lemma-checks, the one command without a config
            _check_writable(args.out, args.out_json)
            table = lemma_checks(args.trials, args.dims, args.seed)
            table.write(args.out, args.out_json)
            if args.out:
                print(f"wrote {len(table.rows)} rows to {args.out}")
            else:
                sys.stdout.write(table.to_csv())
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ProxflowError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
