"""Experiment runners and their configuration.

Every scenario constant lives in a checked-in JSON fixture under
``matchbook/configs/`` or, as a default, in ``OVERRIDE_KEYS``, so each
numbered experiment is reproducible from its config alone; user configs and
``--override`` flags merge on top.  Runners
emit an :class:`ExperimentReport`, which checks its summary against its own
decision records when it is built (``verify``), so a report can never
disagree with its record stream.

Theta conventions differ by scenario: most runners use the effective-utility
ratio (compensation included); the worked five-row book replay checks the
intrinsic ratio.  Each report names the convention it used.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any

from .book import BookMetrics, CandidateEntry, LiquidityStatus, PreferenceBook, book_from_mappings
from .dynamics import (
    DecaySchedule,
    Decision,
    DecisionRecord,
    SETTLING_TABLE,
    TableSchedule,
    ThresholdSchedule,
    apply_shock,
    record_to_dict,
    reprice,
    step,
)
from .errors import EmptyGrid, InvalidConfig, MissingOverride
from .population import PopulationConfig, generate
from .valuation import CompensationRule, effective_utility, market_to_book

SWEEP_PARAMS = ("T0", "lambda", "eps", "cap", "reach_slope", "shock_factor")

#: The last step any run may reach; a longer horizon is a config error, so a
#: typo such as ``horizon=1e7`` fails at once instead of stepping for hours.
MAX_HORIZON = 10_000

#: The most points a sweep grid may have, counted as the product of its list
#: lengths before any point is built.
MAX_GRID_POINTS = 10_000

#: One row per scenario: the override keys with no default, the override
#: defaults, and the config keys it reads beside experiment, format and
#: overrides.  Every scenario also takes the compensation rule's elasticity
#: and cap; gen takes no overrides.  The override keys are declared, not the
#: keys a run reads: a sweep over a population never reads the fixture's bid.
_SCENARIOS = (
    ("exp1", ("v_uncond", "bid", "c", "T"), {}, ()),
    ("exp2", ("v_uncond", "v_reach"), {}, ("schedule",)),
    ("exp3", ("v_uncond", "bid", "c", "T"), {}, ()),
    ("exp4", ("v_uncond", "T", "v_a", "effort_a", "v_b", "effort_b", "base_high", "base_low"), {}, ()),
    ("exp5", ("partner", "ask", "commit_threshold", "shock_factor"), {}, ()),
    ("appendix_a", ("T",), {}, ("book", "owner_id")),
    ("sweep", ("v_uncond", "bid", "c", "T", "T0", "horizon", "shock_factor"),
     {"lambda": 0.0, "floor": 0.0}, ("schedule", "book", "owner_id", "population", "seed", "grid")),
)

#: Each command's override keys, each with its default (None: a run that
#: reads the key needs it given); any other key is a config error.
OVERRIDE_KEYS: dict[str, dict[str, float | None]] = {
    name: {**dict.fromkeys(keys), "elasticity": 0.05, "cap": 20.0, **defaults}
    for name, keys, defaults, _ in _SCENARIOS
} | {"gen": {}}

#: Each command's top-level config keys, the CLI's --seed included; any other is a config error.
CONFIG_KEYS: dict[str, frozenset[str]] = {
    name: frozenset(("experiment", "format", "overrides", *keys)) for name, _, _, keys in _SCENARIOS
} | {"gen": frozenset(("experiment", "format", "population", "seed"))}


# -- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged scenario configuration for one runner invocation; once built,
    ``overrides`` holds floats, the overrides given over OVERRIDE_KEYS' defaults."""

    experiment: str
    overrides: dict[str, float] = field(default_factory=dict)
    schedule: ThresholdSchedule | None = None
    population: PopulationConfig | None = None
    book: PreferenceBook | None = None
    grid: dict[str, list[float]] | None = None
    format: str = "json"

    def __post_init__(self) -> None:
        if self.experiment not in OVERRIDE_KEYS:
            raise InvalidConfig(f"unknown experiment {self.experiment!r}")
        declared = OVERRIDE_KEYS[self.experiment]
        unknown = sorted(self.overrides.keys() - declared.keys())
        if unknown:
            supported = ", ".join(sorted(declared)) or "none"
            raise InvalidConfig(
                f"unknown override keys {unknown} for {self.experiment}; supported: {supported}"
            )
        if self.format not in ("csv", "json"):
            raise InvalidConfig(f"format must be csv or json, got {self.format!r}")
        overrides = {key: value for key, value in declared.items() if value is not None}
        for key, value in self.overrides.items():
            try:
                overrides[key] = _number(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidConfig(f"override for {self.experiment} is no float: {key}={value!r}") from exc
        object.__setattr__(self, "overrides", overrides)


def _number(value: object) -> float:
    """A config value as a float; JSON's true is no number, though float(True) is 1.0."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _grid_values(value: object) -> list[float]:
    """A grid parameter's values: a JSON array of numbers, since a string
    would iterate one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"a grid value must be an array of numbers, got {value!r}")
    return [_number(x) for x in value]


def _schedule_from_mapping(d: dict) -> ThresholdSchedule:
    mode = d["mode"]
    if mode == "table":
        return TableSchedule(points=tuple((t, _number(T)) for t, T in d["points"]))
    if mode == "decay":
        return DecaySchedule(
            t0=_number(d["t0"]), rate=_number(d["rate"]), floor=_number(d.get("floor", 0.0))
        )
    raise InvalidConfig(f"schedule mode must be 'table' or 'decay', got {mode!r}")


def config_from_mapping(experiment: str, data: dict, seed: int | None = None) -> ExperimentConfig:
    """Build a config from a parsed JSON object; ``seed`` (CLI) wins if given."""
    if experiment not in CONFIG_KEYS:
        raise InvalidConfig(f"unknown experiment {experiment!r}")
    accepted = CONFIG_KEYS[experiment]
    unknown = sorted(set(data).union(() if seed is None else ("seed",)) - accepted)
    if unknown:
        raise InvalidConfig(f"unknown config keys {unknown} for {experiment}; supported: {sorted(accepted)}")
    named = data.get("experiment", experiment)
    if not isinstance(named, str) or named.replace("-", "_") != experiment:
        raise InvalidConfig(f"a config for {experiment} names the experiment {named!r}")
    run_seed = seed if seed is not None else data.get("seed", 42)
    if isinstance(run_seed, bool) or not isinstance(run_seed, int) or run_seed < 0:
        raise InvalidConfig(f"seed must be an unsigned integer, got {run_seed!r}")
    try:
        schedule = _schedule_from_mapping(data["schedule"]) if "schedule" in data else None
        book = None
        if "book" in data:
            book = book_from_mappings(data["book"], owner_id=str(data.get("owner_id", "F")))
            if not book.ids or not book.v_uncond() > 0:
                raise InvalidConfig("a configured book needs an entry with v_intrinsic > 0")
        population = None
        if "population" in data:
            # The population's own seed beats a config's, and the CLI's beats both.
            pop = {"seed": run_seed, **dict(data["population"])}
            if seed is not None:
                pop["seed"] = seed
            population = PopulationConfig(**pop)
        grid = {str(k): _grid_values(v) for k, v in dict(data["grid"]).items()} if "grid" in data else None
        return ExperimentConfig(
            experiment=experiment,
            overrides=dict(data.get("overrides", {})),
            schedule=schedule,
            population=population,
            book=book,
            grid=grid,
            format=str(data.get("format", "json")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"bad config for {experiment}: {exc}") from exc


def load_fixture(experiment: str) -> dict:
    """Checked-in scenario constants for a runner; {} when none ships."""
    name = f"{experiment}.json"
    root = resources.files("matchbook") / "configs" / name
    if not root.is_file():
        return {}
    return json.loads(root.read_text(encoding="utf-8"))


def merge_config(base: dict, user: dict) -> dict:
    """User config wins key-by-key; the overrides map merges rather than replaces."""
    merged = dict(base)
    for key, value in user.items():
        if key == "overrides" and isinstance(value, dict):
            merged["overrides"] = {**merged.get("overrides", {}), **value}
        else:
            merged[key] = value
    return merged


def _need(cfg: ExperimentConfig, *keys: str) -> dict[str, float]:
    """The overrides ``keys`` in the order given: a runner's constants echo."""
    missing = [k for k in keys if k not in cfg.overrides]
    if missing:
        raise MissingOverride(f"{cfg.experiment} needs overrides: {', '.join(missing)}")
    return {k: cfg.overrides[k] for k in keys}


def _rule(cfg: ExperimentConfig) -> CompensationRule:
    return CompensationRule(elasticity=cfg.overrides["elasticity"], cap=cfg.overrides["cap"])


def _constant_schedule(T: float) -> TableSchedule:
    return TableSchedule(points=((1, T),))


def _bid_book(v_uncond: float, *bids: tuple[str, float, float], owner: str = "F") -> PreferenceBook:
    """A hypothetical ideal at the internal ask ``v_uncond`` plus one liquid
    entry per ``(id, v, c)`` bid.  Price it at ``ask=v_uncond``: a bid above
    the ask would otherwise become the ask."""
    if not v_uncond > 0:
        raise InvalidConfig(f"the internal ask must be > 0, got {v_uncond}")
    entries = [CandidateEntry("ideal", v_uncond, 0.0, LiquidityStatus.HYPOTHETICAL)]
    entries += [CandidateEntry(i, v, c, LiquidityStatus.LIQUID) for i, v, c in bids]
    return PreferenceBook(entries, owner_id=owner)


# -- reports -----------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """A runner's full output: constants echo, record stream, summary."""

    experiment: str
    constants: dict[str, Any]
    records: list[DecisionRecord]
    summary: dict[str, Any]

    def __post_init__(self) -> None:
        self.verify()

    def verify(self) -> None:
        """Cross-check every summary field that is derivable from the records."""

        def fail(what: str) -> None:
            raise RuntimeError(f"{self.experiment} report inconsistent: {what}")

        last = self.records[-1] if self.records else None
        if "decision" in self.summary and last is not None:
            expected = "drought" if last.drought else last.decision.value
            if self.summary["decision"] != expected:
                fail(f"decision {self.summary['decision']!r} != {expected!r}")
        if "t_star" in self.summary:
            executed = [r.t for r in self.records if r.decision is Decision.EXECUTE]
            t_star = executed[0] if executed else None
            if self.summary["t_star"] != t_star:
                fail(f"t_star {self.summary['t_star']!r} != {t_star!r}")
        if last is not None:
            for key, value in (
                ("theta", last.theta), ("delta_v", last.delta_v), ("slippage", last.slippage),
            ):
                if key in self.summary and self.summary[key] != value:
                    fail(f"{key} {self.summary[key]!r} != {value!r}")
        if "regret" in self.summary and last is not None and last.theta is not None:
            if self.summary["regret"] != (last.theta < last.threshold):
                fail("regret flag disagrees with final record")
        if "regret_gap_jump" in self.summary and len(self.records) >= 2:
            jump = self.records[-1].delta_v - self.records[0].delta_v
            if self.summary["regret_gap_jump"] != jump:
                fail(f"regret_gap_jump {self.summary['regret_gap_jump']!r} != {jump!r}")
        if (
            "best_utility" in self.summary
            and "v_uncond" in self.constants
            and last is not None
            and last.slippage is not None
        ):
            # In slippage's own form: ask - (ask - utility) may not round to utility.
            derived = float(self.constants["v_uncond"]) - self.summary["best_utility"]
            if last.slippage != derived:
                fail(f"slippage {last.slippage!r} != v_uncond - best_utility {derived!r}")
        if "markets" in self.summary:
            for i, market in enumerate(self.summary["markets"]):
                if market["theta"] != self.records[i].theta:
                    fail(f"market {i} theta mismatch")

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "constants": self.constants,
            "records": [record_to_dict(r) for r in self.records],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


# -- scenario driver ----------------------------------------------------------------


def _check_horizon(last: float) -> int:
    if not (last <= MAX_HORIZON and float(last).is_integer()):
        raise InvalidConfig(f"the horizon must be whole and at most {MAX_HORIZON} steps, got {last}")
    return int(last)


def _schedule_steps(schedule: ThresholdSchedule, horizon: int | None) -> range:
    if isinstance(schedule, TableSchedule):
        first = schedule.points[0][0]
        last = horizon if horizon is not None else schedule.points[-1][0]
    else:
        first, last = 0, horizon if horizon is not None else 50
    return range(first, _check_horizon(last) + 1)


def run_schedule(
    metrics: BookMetrics | None, schedule: ThresholdSchedule, horizon: int | None = None
) -> list[DecisionRecord]:
    """Step an agent with the book snapshot ``metrics`` (None in a drought)
    over a schedule until it executes or the horizon ends.

    Execution is absorbing: the list stops at the first EXECUTE record, so
    an executed run's last record is its commitment.
    """
    records: list[DecisionRecord] = []
    for t in _schedule_steps(schedule, horizon):
        records.append(step(metrics, schedule, t))
        if records[-1].decision is Decision.EXECUTE:
            break
    if not records:
        raise InvalidConfig("the horizon ends before the schedule's first step")
    return records


def _base_summary(records: list[DecisionRecord]) -> dict[str, Any]:
    last = records[-1]
    return {
        "decision": "drought" if last.drought else last.decision.value,
        "t_star": last.t if last.decision is Decision.EXECUTE else None,
        "theta": last.theta,
        "delta_v": last.delta_v,
        "slippage": last.slippage,
    }


def _shock(
    records: list[DecisionRecord], new_ask: float | None, partner: float | None
) -> DecisionRecord | None:
    """The post-shock record of a run that executed, at the repriced ask
    ``new_ask``; None for a hold or where no shock lands."""
    if new_ask is None or records[-1].decision is not Decision.EXECUTE:
        return None
    return apply_shock(records[-1], new_ask, partner)


# -- the numbered runners ------------------------------------------------------------


def _pinned_ask(cfg: ExperimentConfig, *echoed: str) -> tuple[dict[str, float], list[DecisionRecord]]:
    """One bid against an ask pinned at ``v_uncond``, under a constant
    threshold: the constants echo (``echoed`` appended) and the records."""
    k = _need(cfg, "v_uncond", "bid", "c", "T", *echoed)
    book = _bid_book(k["v_uncond"], ("bid", k["bid"], k["c"]))
    return k, run_schedule(book.metrics(_rule(cfg), ask=k["v_uncond"]), _constant_schedule(k["T"]))


def run_exp1(cfg: ExperimentConfig) -> ExperimentReport:
    """Deep out-of-the-money bid with an aggressive transfer: the clipped
    compensation rule leaves the spread open and the order is rejected."""
    k, records = _pinned_ask(cfg, "elasticity", "cap")
    summary = {**_base_summary(records), "best_utility": effective_utility(k["bid"], k["c"], _rule(cfg)),
               "theta_convention": "effective"}
    return ExperimentReport("exp1", k, records, summary)


def run_exp2(cfg: ExperimentConfig) -> ExperimentReport:
    """Settling: a constant ratio executes once the tabulated threshold
    decays beneath it."""
    k = _need(cfg, "v_uncond", "v_reach")
    schedule = cfg.schedule if cfg.schedule is not None else SETTLING_TABLE
    book = _bid_book(k["v_uncond"], ("bid", k["v_reach"], 0.0))
    records = run_schedule(book.metrics(_rule(cfg), ask=k["v_uncond"]), schedule)
    summary = {**_base_summary(records), "theta_convention": "effective"}
    return ExperimentReport("exp2", k, records, summary)


def run_exp3(cfg: ExperimentConfig) -> ExperimentReport:
    """A bid above the internal ask is a marketable order: theta > 1 clears
    any rational threshold on the first evaluation."""
    k, records = _pinned_ask(cfg)
    summary = _base_summary(records)
    summary.update(immediate_fill=summary["t_star"] == records[0].t, theta_convention="effective")
    return ExperimentReport("exp3", k, records, summary)


def run_exp4(cfg: ExperimentConfig) -> ExperimentReport:
    """Two markets with different base transfer norms rank the same pool
    identically: a uniform intercept cannot reorder the book."""
    k = _need(cfg, "v_uncond", "T", "v_a", "effort_a", "v_b", "effort_b", "base_high", "base_low",
              "elasticity", "cap")
    rule = _rule(cfg)
    markets: list[dict[str, Any]] = []
    records: list[DecisionRecord] = []
    for label, base in (("high_norm", k["base_high"]), ("low_norm", k["base_low"])):
        bids = ("A", k["v_a"], base + k["effort_a"]), ("B", k["v_b"], base + k["effort_b"])
        metrics = _bid_book(k["v_uncond"], *bids, owner=f"F-{label}").metrics(rule, ask=k["v_uncond"])
        market_records = run_schedule(metrics, _constant_schedule(k["T"]))
        records.extend(market_records)
        markets.append(
            {
                "market": label,
                "base": base,
                "selected_id": metrics.bid.entry.id,
                "selected_v": metrics.bid.entry.v_intrinsic,
                "utility": metrics.bid.utility,
                "theta": market_records[-1].theta,
                "decision": market_records[-1].decision.value,
            }
        )
    summary = {
        "markets": markets,
        "ranking_invariant": markets[0]["selected_id"] == markets[1]["selected_id"],
        "theta_convention": "effective",
    }
    return ExperimentReport("exp4", k, records, summary)


def run_exp5(cfg: ExperimentConfig) -> ExperimentReport:
    """Post-execution repricing: a peer-comparison shock lifts the ask,
    theta falls through the committed threshold, and regret latches."""
    k = _need(cfg, "partner", "ask", "commit_threshold", "shock_factor")
    book = _bid_book(k["ask"], ("bid", k["partner"], 0.0))
    # The shock needs only the ask and the factor, so a bad factor fails even on a hold.
    new_ask = reprice(k["ask"], k["shock_factor"])
    records = run_schedule(book.metrics(_rule(cfg), ask=k["ask"]), _constant_schedule(k["commit_threshold"]))
    commit = records[-1]
    summary = {
        "commit_decision": commit.decision.value,
        "t_star": commit.t if commit.decision is Decision.EXECUTE else None,
        "pre_theta": commit.theta,
    }
    # Only a commitment can be shocked; a hold's summary reports the failed premise.
    post = _shock(records, new_ask, k["partner"])
    if post is not None:
        records.append(post)
        summary.update({
            "post_theta": post.theta,
            "post_shock_ask": new_ask,
            "regret": post.theta < post.threshold,
            "regret_gap_jump": post.delta_v - records[0].delta_v,
        })
    summary["theta_convention"] = "intrinsic (post-execution)"
    return ExperimentReport("exp5", k, records, summary)


def run_appendix_a(cfg: ExperimentConfig) -> ExperimentReport:
    """Replay of the worked five-row book: side derivation, clipped bids,
    best-bid selection, and the intrinsic-ratio execution check."""
    k = _need(cfg, "T", "elasticity", "cap")
    rule = _rule(cfg)
    if cfg.book is None:
        raise MissingOverride("appendix_a needs a book (five-row fixture)")
    book = cfg.book
    v_uncond = book.v_uncond()
    v_reach = book.v_reach()  # a drought raises here: exit 3
    metrics = book.metrics(rule)._replace(theta=market_to_book(v_reach, v_uncond))
    records = run_schedule(metrics, _constant_schedule(k["T"]))
    k["v_uncond"] = v_uncond
    summary = _base_summary(records)
    summary.update(
        {
            "v_uncond": v_uncond,
            "v_reach": v_reach,
            "effective_bids": {
                e.id: effective_utility(e.v_intrinsic, e.c_offer, rule)
                for e in book.entries if e.status is LiquidityStatus.LIQUID
            },
            "best_id": metrics.bid.entry.id,
            "best_utility": metrics.bid.utility,
            "theta_convention": "intrinsic",
        }
    )
    return ExperimentReport("appendix_a", k, records, summary)


# -- sweep ------------------------------------------------------------------------


def _grid_points(grid: dict[str, list[float]]) -> tuple[list[str], list[tuple[float, ...]]]:
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise EmptyGrid("sweep needs a non-empty grid")
    unknown = [k for k in grid if k not in SWEEP_PARAMS]
    if unknown:
        raise InvalidConfig(
            f"unknown sweep parameters {unknown}; supported: {', '.join(SWEEP_PARAMS)}"
        )
    params = list(grid.keys())
    size = math.prod(len(grid[p]) for p in params)
    if size > MAX_GRID_POINTS:
        raise InvalidConfig(f"a sweep grid has at most {MAX_GRID_POINTS} points, got {size}")
    return params, list(itertools.product(*(grid[p] for p in params)))


def _sweep_book(cfg: ExperimentConfig, reach_slope: float | None) -> tuple[PreferenceBook, float]:
    """A point's book and the ask it is priced against: the configured
    ``v_uncond`` for the fixture bid, the book's own ask otherwise."""
    if cfg.book is not None:
        return cfg.book, cfg.book.v_uncond()
    if cfg.population is not None:
        pop = cfg.population
        if reach_slope is not None:
            pop = replace(pop, reach_slope=reach_slope)
        book = generate(pop)
        return book, book.v_uncond()
    k = _need(cfg, "v_uncond", "bid", "c")
    return _bid_book(k["v_uncond"], ("bid", k["bid"], k["c"])), k["v_uncond"]


def _sweep_schedule(cfg: ExperimentConfig, t0: float | None, rate: float | None) -> ThresholdSchedule:
    if t0 is None and rate is None and cfg.schedule is not None:
        return cfg.schedule
    base = cfg.schedule if isinstance(cfg.schedule, DecaySchedule) else None
    if rate is None:
        rate = base.rate if base is not None else cfg.overrides["lambda"]
    if t0 is None:
        t0 = base.t0 if base is not None else cfg.overrides.get("T0", cfg.overrides.get("T"))
        if t0 is None:
            raise MissingOverride("sweep needs a schedule, or T0/T in overrides")
    floor = base.floor if base is not None else cfg.overrides["floor"]
    if rate == 0.0:
        return _constant_schedule(t0)
    return DecaySchedule(t0=t0, rate=rate, floor=floor)


def run_sweep(cfg: ExperimentConfig) -> list[dict[str, Any]]:
    """One summary row per grid point, ordered by grid index.

    Columns are the swept parameters plus the scenario summary; post-shock
    fields stay empty unless the point carries a shock factor and executed.
    """
    if cfg.grid is None:
        raise EmptyGrid("sweep needs a grid")
    params, points = _grid_points(cfg.grid)
    if "reach_slope" in params and (cfg.population is None or cfg.book is not None):
        raise InvalidConfig("a reach_slope grid needs a population and no book")
    horizon = _check_horizon(cfg.overrides["horizon"]) if "horizon" in cfg.overrides else None
    # generate is a pure function of its config: one book per reach_slope.
    book_for = functools.cache(functools.partial(_sweep_book, cfg))
    rows: list[dict[str, Any]] = []
    for index, values in enumerate(points):
        point = dict(zip(params, values))
        rule = CompensationRule(
            point.get("eps", cfg.overrides["elasticity"]), point.get("cap", cfg.overrides["cap"])
        )
        book, ask = book_for(point.get("reach_slope"))
        factor = point.get("shock_factor", cfg.overrides.get("shock_factor"))
        # As in run_exp5, the factor is checked whether or not the point executes.
        new_ask = None if factor is None else reprice(ask, factor)
        schedule = _sweep_schedule(cfg, point.get("T0"), point.get("lambda"))
        metrics = book.metrics(rule, ask=ask)  # None in a drought: every step holds
        records = run_schedule(metrics, schedule, horizon=horizon)
        post = _shock(records, new_ask, None if metrics is None else metrics.bid.entry.v_intrinsic)
        rows.append({
            "grid_index": index, **point, **_base_summary(records),
            "post_theta": None if post is None else post.theta,
            "regret": None if post is None else post.theta < post.threshold,
        })
    return rows


RUNNERS = {
    "exp1": run_exp1,
    "exp2": run_exp2,
    "exp3": run_exp3,
    "exp4": run_exp4,
    "exp5": run_exp5,
    "appendix_a": run_appendix_a,
}
