"""Command-line interface.

Subcommands mirror the numbered experiments plus the population generator
and the cone-volume calculator:

    matchbook exp1|exp2|exp3|exp4|exp5|appendix-a [--config F] [--override k=v ...]
    matchbook sweep [--config F] [--out rows.csv]
    matchbook gen [--out book.csv] [--seed N]
    matchbook cone --profile beta:2,8 --h0 0.5 --steps 100000

Every subcommand accepts --config, --seed, --out, --format and repeatable
--override flags.  Scenario constants default to the checked-in fixtures, so
each experiment runs with no arguments at all.  Exit codes: 0 on success,
2 on configuration errors, 3 when a run ends in a liquidity drought or
produces no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .dynamics import records_to_csv
from .errors import InvalidConfig, NoLiquidity
from .experiments import (
    RUNNERS,
    ExperimentConfig,
    config_from_mapping,
    load_fixture,
    merge_config,
    run_sweep,
)
from .population import DensityProfile, PopulationConfig, cone_volume, generate, population_metadata
from .book import book_to_csv, book_to_json, csv_cell

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DROUGHT = 3


def _parse_override(text: str) -> tuple[str, Any]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise InvalidConfig(f"--override expects key=value, got {text!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _parse_profile(text: str) -> DensityProfile:
    if text == "uniform":
        return DensityProfile.uniform()
    if text == "linear-cone":
        return DensityProfile.linear_cone()
    if text.startswith("beta:"):
        try:
            a, b = (float(x) for x in text.removeprefix("beta:").split(","))
        except ValueError as exc:
            raise InvalidConfig(f"beta profile expects beta:a,b, got {text!r}") from exc
        return DensityProfile.beta(a, b)
    raise InvalidConfig(f"unknown profile {text!r}; use uniform, linear-cone or beta:a,b")


def _effective_config(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    data = load_fixture(experiment)
    if args.config is not None:
        try:
            user = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfig(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(user, dict) or not isinstance(user.get("overrides", {}), dict):
            raise InvalidConfig(f"config {args.config} must be an object with an object of overrides")
        data = merge_config(data, user)
    flags: dict[str, Any] = {}
    if args.override:
        flags["overrides"] = dict(_parse_override(item) for item in args.override)
    if args.format is not None:
        flags["format"] = args.format
    return config_from_mapping(experiment, merge_config(data, flags), seed=args.seed)


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _print_summary(summary: dict[str, Any]) -> None:
    for key, value in summary.items():
        print(f"{key} = {value}")


def _cmd_experiment(args: argparse.Namespace, experiment: str) -> int:
    cfg = _effective_config(args, experiment)
    report = RUNNERS[experiment](cfg)
    if cfg.format == "json":
        text = report.to_json()
    else:
        text = records_to_csv(report.records)
    if args.out is not None:
        _write_output(args.out, text)
    _print_summary(report.summary)
    if report.summary.get("decision") == "drought":
        return EXIT_DROUGHT
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _effective_config(args, "sweep")
    rows = run_sweep(cfg)
    if cfg.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        header = list(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(csv_cell(row[k]) for k in header))
        text = "\n".join(lines) + "\n"
    _write_output(args.out, text)
    if all(row["decision"] == "drought" for row in rows):
        return EXIT_DROUGHT
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = _effective_config(args, "gen")
    population = cfg.population if cfg.population is not None else PopulationConfig(seed=cfg.seed)
    book = generate(population)
    text = book_to_csv(book) if cfg.format == "csv" else book_to_json(book)
    _write_output(args.out, text)
    if args.out is not None:
        # Sidecar makes the dataset reproducible from its own directory.
        Path(args.out + ".meta.json").write_text(
            population_metadata(population), encoding="utf-8"
        )
    return EXIT_OK


def _cmd_cone(args: argparse.Namespace) -> int:
    profile = _parse_profile(args.profile)
    if not 0 <= args.h0 <= 1:
        raise InvalidConfig(f"--h0 must lie in [0, 1], got {args.h0}")
    if args.steps < 1:
        raise InvalidConfig(f"--steps must be >= 1, got {args.steps}")
    volume = cone_volume(profile, args.h0, args.steps)
    print(repr(volume))
    if args.out is not None:
        _write_output(args.out, repr(volume) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config merged over the fixture")
    common.add_argument("--seed", type=int, metavar="UINT", help="override the run seed")
    common.add_argument("--out", metavar="PATH", help="write the result to this file")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one scenario constant (repeatable)",
    )

    parser = argparse.ArgumentParser(
        prog="matchbook",
        description="Deterministic matching-market order-book simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    descriptions = {
        "exp1": "deep out-of-the-money bid: clipped compensation fails to clear",
        "exp2": "settling: execution through threshold decay",
        "exp3": "marketable bid: immediate fill above the ask",
        "exp4": "regional norm invariance of the book ranking",
        "exp5": "post-execution shock, slippage and regret",
        "appendix-a": "worked five-row book replay",
    }
    for name, desc in descriptions.items():
        sub.add_parser(name, parents=[common], help=desc)

    sub.add_parser("sweep", parents=[common], help="grid sweep emitting one summary row per point")
    sub.add_parser("gen", parents=[common], help="generate a seeded population book")

    cone = sub.add_parser("cone", parents=[common], help="candidate volume above a status cutoff")
    cone.add_argument("--profile", default="uniform", metavar="NAME",
                      help="uniform, linear-cone, or beta:a,b")
    cone.add_argument("--h0", type=float, default=0.0, metavar="REAL", help="status cutoff in [0, 1]")
    cone.add_argument("--steps", type=int, default=100_000, metavar="UINT",
                      help="trapezoid intervals")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "cone":
            return _cmd_cone(args)
        experiment = args.command.replace("-", "_")
        return _cmd_experiment(args, experiment)
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoLiquidity as exc:
        print(f"liquidity drought: {exc}", file=sys.stderr)
        return EXIT_DROUGHT


def run() -> None:
    sys.exit(main())
