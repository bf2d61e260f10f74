"""Command-line interface.

Subcommands mirror the numbered experiments plus the population generator
and the cone-volume calculator:

    matchbook exp1|exp2|exp3|exp4|exp5|appendix-a|sweep [--config F] [--override k=v ...]
    matchbook sweep|gen [--config F] [--seed N]
    matchbook cone --profile beta:2,8 --h0 0.5

Each also takes --out and --format.  ``COMMANDS`` lists the flags each
subcommand reads, and any other flag is a usage error (exit 2).
Scenario constants default to the checked-in fixtures, so each experiment runs
with no arguments at all.  Exit codes: 0 on success, 2 on configuration
errors, 3 when a run ends in a liquidity drought or produces no result.
``main`` alone turns an exception into an exit code; see its table.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

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
from .population import DensityProfile, cone_volume, generate, population_metadata
from .book import book_to_csv, book_to_json, csv_columns, write_csv

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
    if getattr(args, "override", None):
        flags["overrides"] = dict(_parse_override(item) for item in args.override)
    if args.format is not None:
        flags["format"] = args.format
    return config_from_mapping(experiment, merge_config(data, flags), seed=getattr(args, "seed", None))


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when there is none; a path
    that cannot be written is a config error, as a config that cannot be read.

    An existing file is rewritten in place and then cut to the bytes
    written, which leaves what ``O_TRUNC`` would, after a full write or a
    failed one.  It is not truncated first because ext4 flushes a file
    truncated to zero and rewritten when it is closed: the costliest step of
    a warm scenario command.
    """
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            try:
                # A device or FIFO has no length to cut: ftruncate fails there.
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, written)
            finally:
                os.close(fd)
    except OSError as exc:
        raise InvalidConfig(f"cannot write {path}: {exc}") from exc


def _print_summary(summary: dict[str, Any]) -> None:
    for key, value in summary.items():
        print(f"{key} = {value}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiment = args.command.replace("-", "_")
    cfg = _effective_config(args, experiment)
    report = RUNNERS[experiment](cfg)
    if cfg.format == "json":
        text = report.to_json()
    else:
        text = records_to_csv(report.records)
    if args.out is not None:
        _write_output(args.out, text)
    _print_summary(report.summary)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _effective_config(args, "sweep")
    rows = run_sweep(cfg)
    if cfg.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = write_csv(list(rows[0]), csv_columns(rows, rows[0]))
    _write_output(args.out, text)
    if all(row["decision"] == "drought" for row in rows):
        return EXIT_DROUGHT
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = _effective_config(args, "gen")
    book = generate(cfg.population)
    text = book_to_csv(book) if cfg.format == "csv" else book_to_json(book)
    if args.out is None:
        _write_output(None, text)
        return EXIT_OK
    # The sidecar makes the dataset reproducible from its own directory.  It
    # goes first and is removed if the book cannot be written, so a gen that
    # exits 2 leaves no sidecar.  A sidecar that fails, or a book that cannot
    # be opened, leaves the book as it was; a book write that fails partway
    # leaves the bytes written so far.
    sidecar = args.out + ".meta.json"
    _write_output(sidecar, population_metadata(cfg.population))
    try:
        _write_output(args.out, text)
    except InvalidConfig:
        Path(sidecar).unlink()
        raise
    return EXIT_OK


def _cmd_cone(args: argparse.Namespace) -> int:
    profile = _parse_profile(args.profile)
    volume = cone_volume(profile, args.h0)
    if not math.isfinite(volume):
        # The trapezoid samples the density at its grid points, so a
        # singular Beta density gives no usable volume.
        print(f"no result: the cone volume came out as {volume!r}", file=sys.stderr)
        return EXIT_DROUGHT
    if args.out is not None:
        _write_output(args.out, repr(volume) + "\n")
    print(repr(volume))
    return EXIT_OK


#: Every flag a command may take: its add_argument keywords.
_FLAGS: dict[str, dict[str, Any]] = {
    "--out": {"metavar": "PATH", "help": "write the result to this file"},
    "--format": {"choices": ("csv", "json"), "help": "output format"},
    "--config": {"metavar": "PATH", "help": "JSON config merged over the fixture"},
    "--seed": {"type": int, "metavar": "UINT", "help": "seed the generated population"},
    "--override": {"action": "append", "default": [], "metavar": "KEY=VALUE",
                   "help": "override one scenario constant (repeatable)"},
    "--profile": {"default": "uniform", "metavar": "NAME", "help": "uniform, linear-cone, or beta:a,b"},
    "--h0": {"type": float, "default": 0.0, "metavar": "REAL", "help": "status cutoff in [0, 1]"},
}
#: The flags of the six scenarios.
_SCENARIO = ("--out", "--format", "--config", "--override")

#: Subcommand -> (help line, handler, the flags it reads).
COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int], tuple[str, ...]]] = {
    "exp1": ("deep out-of-the-money bid: clipped compensation fails to clear",
             _cmd_experiment, _SCENARIO),
    "exp2": ("settling: execution through threshold decay", _cmd_experiment, _SCENARIO),
    "exp3": ("marketable bid: immediate fill above the ask", _cmd_experiment, _SCENARIO),
    "exp4": ("regional norm invariance of the book ranking", _cmd_experiment, _SCENARIO),
    "exp5": ("post-execution shock, slippage and regret", _cmd_experiment, _SCENARIO),
    "appendix-a": ("worked five-row book replay", _cmd_experiment, _SCENARIO),
    "sweep": ("grid sweep emitting one summary row per point", _cmd_sweep, (*_SCENARIO, "--seed")),
    "gen": ("generate a seeded population book", _cmd_gen, ("--out", "--format", "--config", "--seed")),
    "cone": ("candidate volume above a status cutoff",
             _cmd_cone, ("--out", "--format", "--profile", "--h0")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.

    It is built once per process and shared by every later call, so a
    caller must not mutate it: add no argument and set no default.  Parsing
    leaves it as it was, so ``main`` may be called again and again.
    """
    parser = argparse.ArgumentParser(
        prog="matchbook",
        description="Deterministic matching-market order-book simulations.",
    )
    # Given a prog, argparse need not format a usage line to derive it.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (help_line, handler, flags) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        subparser.set_defaults(handler=handler)
        for flag in flags:
            subparser.add_argument(flag, **_FLAGS[flag])
    return parser


#: What a domain check raises for an input outside its domain: exit 2.  Any
#: exception that is neither one of these nor NoLiquidity (exit 3) is a bug
#: and keeps its traceback.
_CONFIG_ERRORS = (InvalidConfig, ValueError, OverflowError)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoLiquidity as exc:
        print(f"liquidity drought: {exc}", file=sys.stderr)
        return EXIT_DROUGHT


def run() -> None:
    sys.exit(main())
