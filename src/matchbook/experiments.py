"""Experiment runners and their configuration.

Every scenario constant lives in a checked-in JSON fixture under
``matchbook/configs/`` or, as a default, in ``OVERRIDE_KEYS``, so each
numbered experiment is reproducible from its config alone; user configs and
``--override`` flags merge on top.  Runners emit an :class:`ExperimentReport`,
which checks its summary against its own decision records when it is built
(``verify``), so a report can never disagree with its record stream.  Every
runner, and each sweep row, runs, shocks and summarizes its point through
``_run_point``.

``config_from_mapping`` checks a config, but for the refusals that need the
whole grid: ``run_sweep`` refuses, before any point runs, a missing or empty
grid, one of unknown parameters or more than MAX_GRID_POINTS points, a book
beside a population, a reach_slope grid with no population, more than
MAX_SWEEP_ROWS rows or MAX_SWEEP_STEPS steps, a schedule beside T0, lambda or
floor, a floor that no point reads, and a horizon past MAX_HORIZON.  Every
priced point then checks its inputs in one order, so two bad values are
refused in the words of the first: the internal ask, every bid's value, every
bid's offer, the shock factor, the compensation rule, theta (a ratio past the
float range), and last the threshold.

Theta conventions differ by scenario: most runners use the effective-utility
ratio (compensation included); the worked five-row book replay checks the
intrinsic ratio.  Each report names the convention it used.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from typing import Any

from .book import BookMetrics, PreferenceBook, book_from_mappings, check_bids, price_bids
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
from .errors import InvalidConfig, quoted
from .population import PopulationConfig, generate
from .valuation import CompensationRule, effective_utility, market_to_book, slippage, spread

SWEEP_PARAMS = ("T0", "lambda", "eps", "cap", "reach_slope", "shock_factor")

#: The last step any run may reach; a longer horizon is a config error, so a
#: typo such as ``horizon=1e7`` fails at once instead of stepping for hours.
MAX_HORIZON = 10_000

#: The most points a sweep grid may have, counted as the product of its list
#: lengths before any point is built.
MAX_GRID_POINTS = 10_000

#: The most rows a sweep may draw, counted as its population's size times its
#: distinct reach_slope values before any row is drawn: the sweep keeps one
#: generated book per slope, about 107 MB per 10**6 rows.
MAX_SWEEP_ROWS = 10_000_000

#: The most steps a sweep may take, counted as its grid points times the most
#: steps one point can take before any point runs: 10**6 took 2.5-3.5 s on a 2-CPU Xeon, so some 30 s.
MAX_SWEEP_STEPS = 10_000_000

#: The compensation rule's override keys and defaults, declared by each
#: scenario whose bids carry a transfer.
_RULE_DEFAULTS = {"elasticity": 0.05, "cap": 20.0}

#: One row per scenario: the override keys with no default, the override
#: defaults, and the config keys it reads beside experiment, format and
#: overrides.  exp2's and exp5's bids carry no transfer, so they take no
#: rule keys; gen takes no overrides.  The override keys are declared, not the
#: keys a run reads: a sweep over a population never reads the fixture's bid.
#: A sweep's threshold is its ``schedule`` or its T0, lambda and floor, never both.
_SCENARIOS = (
    ("exp1", ("v_uncond", "bid", "c", "T"), _RULE_DEFAULTS, ()),
    ("exp2", ("v_uncond", "v_reach"), {}, ("schedule",)),
    ("exp3", ("v_uncond", "bid", "c", "T"), _RULE_DEFAULTS, ()),
    ("exp4", ("v_uncond", "T", "v_a", "effort_a", "v_b", "effort_b", "base_high", "base_low"),
     _RULE_DEFAULTS, ()),
    ("exp5", ("partner", "ask", "commit_threshold", "shock_factor"), {}, ()),
    ("appendix_a", ("T",), _RULE_DEFAULTS, ("book", "owner_id")),
    ("sweep", ("v_uncond", "bid", "c", "T0", "lambda", "floor", "horizon", "shock_factor"),
     _RULE_DEFAULTS, ("schedule", "book", "population", "grid")),
)

#: Each command's override keys with their defaults (None: none; a sweep with no
#: lambda holds T0, with no floor decays to 0); any other key is a config error.
OVERRIDE_KEYS: dict[str, dict[str, float | None]] = {
    name: {**dict.fromkeys(keys), **defaults} for name, keys, defaults, _ in _SCENARIOS
} | {"gen": {}}

#: Each command's top-level config keys; any other is a config error.  A
#: command takes the CLI's --seed exactly when it takes a population.
CONFIG_KEYS: dict[str, frozenset[str]] = {
    name: frozenset(("experiment", "format", "overrides", *keys)) for name, _, _, keys in _SCENARIOS
} | {"gen": frozenset(("experiment", "format", "population"))}

#: The keys of a config's population section: PopulationConfig's fields.
_POPULATION_KEYS = frozenset(f.name for f in fields(PopulationConfig))


# -- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged scenario configuration for one runner invocation, as ``config_from_mapping``
    checks and builds it: ``overrides`` holds floats, given over OVERRIDE_KEYS' defaults."""

    experiment: str
    overrides: dict[str, float] = field(default_factory=dict)
    schedule: ThresholdSchedule | None = None
    population: PopulationConfig | None = None
    book: PreferenceBook | None = None
    grid: dict[str, list[float]] | None = None
    format: str = "json"


def _number(value: object) -> float:
    """A config value as a float; JSON's true is no number, though float(True) is 1.0."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except ValueError:  # float's own words quote the whole string
        raise ValueError(f"could not convert string to float: {quoted(value)}") from None


def _grid_values(value: object) -> list[float]:
    """A grid parameter's values: a JSON array of numbers, since a string
    would iterate one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"a grid value must be an array of numbers, got {quoted(value)}")
    return [_number(x) for x in value]


def _schedule_from_mapping(d: dict) -> ThresholdSchedule:
    mode = d["mode"]
    if mode == "table":
        return TableSchedule(points=tuple((t, _number(T)) for t, T in d["points"]))
    if mode == "decay":
        return DecaySchedule(
            t0=_number(d["t0"]), rate=_number(d["rate"]), floor=_number(d.get("floor", 0.0))
        )
    raise InvalidConfig(f"schedule mode must be 'table' or 'decay', got {quoted(mode)}")


def config_from_mapping(experiment: str, data: dict, seed: int | None = None) -> ExperimentConfig:
    """Build a config from a parsed JSON object; ``seed`` (CLI) replaces the population's.
    The one place a config is checked: its keys, sections and seed, its schedule, book,
    population and grid, then its override keys, its format and each override's value."""
    if experiment not in CONFIG_KEYS:
        raise InvalidConfig(f"unknown experiment {experiment!r}")
    accepted = CONFIG_KEYS[experiment]
    unread_seed = seed is not None and "population" not in accepted & data.keys()
    unknown = sorted(set(data).union(("seed",) if unread_seed else ()) - accepted)
    if unknown:
        raise InvalidConfig(f"unknown config keys {quoted(unknown)} for {experiment}; "
                            f"supported: {sorted(accepted)}")
    named = data.get("experiment", experiment)
    if not isinstance(named, str) or named.replace("-", "_") != experiment:
        raise InvalidConfig(f"a config for {experiment} names the experiment {quoted(named)}")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise InvalidConfig(f"seed must be an unsigned integer, got {quoted(seed)}")
    for section in ("overrides", "population", "grid"):  # a list of pairs is no JSON object
        if not isinstance(data.get(section, {}), dict):
            raise InvalidConfig(f"{section} must be a JSON object, got {quoted(data[section])}")
    try:
        schedule = _schedule_from_mapping(data["schedule"]) if "schedule" in data else None
        book = None
        if "book" in data:
            book = book_from_mappings(data["book"], owner_id=str(data.get("owner_id", "F")))
            if not book.v_intrinsic.size or not book.v_uncond() > 0:
                raise InvalidConfig("a configured book needs an entry with v_intrinsic > 0")
        population = None
        if "population" in data:
            pop = dict(data["population"])
            unknown = sorted(pop.keys() - _POPULATION_KEYS)
            if unknown:
                raise InvalidConfig(f"unknown population keys {quoted(unknown)} for {experiment}; "
                                    f"supported: {sorted(_POPULATION_KEYS)}")
            if seed is not None:
                pop["seed"] = seed
            population = PopulationConfig(**pop)
        grid = {str(k): _grid_values(v) for k, v in data["grid"].items()} if "grid" in data else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"bad config for {experiment}: {exc}") from exc
    declared, given = OVERRIDE_KEYS[experiment], data.get("overrides", {})
    unknown = sorted(given.keys() - declared.keys())
    if unknown:
        supported = ", ".join(sorted(declared)) or "none"
        raise InvalidConfig(f"unknown override keys {quoted(unknown)} for {experiment}; "
                            f"supported: {supported}")
    fmt = str(data.get("format", "json"))
    if fmt not in ("csv", "json"):
        raise InvalidConfig(f"format must be csv or json, got {quoted(fmt)}")
    overrides = {key: value for key, value in declared.items() if value is not None}
    for key, value in given.items():
        try:
            overrides[key] = _number(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"override for {experiment} is no float: {key}={quoted(value)}") from exc
    return ExperimentConfig(experiment, overrides, schedule, population, book, grid, fmt)


@functools.cache
def _fixture_text(experiment: str) -> str | None:
    """A fixture file's text, read once per process; None when none ships."""
    root = resources.files("matchbook") / "configs" / f"{experiment}.json"
    return root.read_text(encoding="utf-8") if root.is_file() else None


def load_fixture(experiment: str) -> dict:
    """Checked-in scenario constants for a runner; {} when none ships.

    Each call parses the file's cached text again, so it returns a fresh
    dict that the caller may mutate without changing any later call.
    """
    text = _fixture_text(experiment)
    return {} if text is None else json.loads(text)


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
        raise InvalidConfig(f"{cfg.experiment} needs overrides: {', '.join(missing)}")
    return {k: cfg.overrides[k] for k in keys}


def _rule(setting: dict[str, float]) -> CompensationRule:
    """The rule of a run's overrides, or of a sweep point's setting, whose ``eps``
    replaces ``elasticity``.  exp2 and exp5 declare no rule keys, and their bids
    offer c = 0, which every rule turns into a utility of exactly 0.0."""
    return CompensationRule(setting.get("eps", setting.get("elasticity", 0.0)), setting.get("cap", 0.0))


def _constant_schedule(T: float) -> TableSchedule:
    return TableSchedule(points=((1, T),))


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
        """Cross-check every summary field that is derivable from the records.

        The commitment is the first EXECUTE record, or the last record if
        none executed, and a record after it is the post-shock record.
        """

        def fail(what: str) -> None:
            raise RuntimeError(f"{self.experiment} report inconsistent: {what}")

        def decision_of(r: DecisionRecord) -> str:
            return "drought" if r.drought else r.decision.value

        records, summary = self.records, self.summary
        first = next((i for i, r in enumerate(records) if r.decision is Decision.EXECUTE), None)
        derived: dict[str, Any] = {"t_star": None if first is None else records[first].t}
        at = len(records) - 1 if first is None else first
        post = records[at + 1] if at + 1 < len(records) else None
        if at >= 0:
            commit = records[at]
            decided = decision_of(commit)
            derived.update(
                decision=decided, commit_decision=decided, theta=commit.theta,
                pre_theta=commit.theta, delta_v=commit.delta_v, slippage=commit.slippage,
                immediate_fill=records[0].decision is Decision.EXECUTE,
                # With no post-shock record, every post-shock field is None.
                post_theta=post and post.theta, regret=post and post.theta < post.threshold,
                regret_gap_jump=post and post.delta_v - commit.delta_v,
            )
        for key, value in derived.items():
            if key in summary and summary[key] != value:
                fail(f"{key} {summary[key]!r} != {value!r}")
        if "best_utility" in summary and "v_uncond" in self.constants and derived.get("slippage") is not None:
            # In slippage's own form: ask - (ask - utility) may not round to utility.
            expected = float(self.constants["v_uncond"]) - summary["best_utility"]
            if derived["slippage"] != expected:
                fail(f"slippage {derived['slippage']!r} != v_uncond - best_utility {expected!r}")
        if "post_shock_ask" in summary and "partner" in self.constants:
            # In apply_shock's own form: the post-shock gap is the new ask minus the partner.
            gap = summary["post_shock_ask"] - self.constants["partner"]
            if post is None or post.delta_v != gap:
                fail(f"post_shock_ask {summary['post_shock_ask']!r} - partner != post-shock delta_v")
        for i, market in enumerate(summary.get("markets", ())):
            if (market["theta"], market["decision"]) != (records[i].theta, decision_of(records[i])):
                fail(f"market {i} theta or decision mismatch")

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


#: The summary fields of a run's commitment, in report order.
_COMMIT_FIELDS = ("decision", "t_star", "theta", "delta_v", "slippage")


def _run_point(metrics: BookMetrics | None, schedule: ThresholdSchedule, horizon: int | None = None,
               new_ask: float | None = None) -> tuple[list[DecisionRecord], dict[str, Any]]:
    """One run's records and summary fields.  An executed run given ``new_ask`` is shocked to
    that ask, and the post-shock record appended; each post-shock field is None where no
    shock lands."""
    records = run_schedule(metrics, schedule, horizon)
    commit, post = records[-1], None
    executed = commit.decision is Decision.EXECUTE
    if new_ask is not None and executed:
        post = apply_shock(commit, new_ask)
        records.append(post)
    return records, {
        "decision": "drought" if commit.drought else commit.decision.value,
        "t_star": commit.t if executed else None,
        "theta": commit.theta, "delta_v": commit.delta_v, "slippage": commit.slippage,
        "post_theta": post and post.theta, "post_shock_ask": post and new_ask,
        "regret": post and post.theta < post.threshold,
        "regret_gap_jump": post and post.delta_v - commit.delta_v,
    }


# -- the numbered runners ------------------------------------------------------------


def _one_bid(cfg: ExperimentConfig, ask: float, v: float, c: float, threshold: float | ThresholdSchedule,
             factor: float | None = None) -> tuple[list[DecisionRecord], dict[str, Any]]:
    """``_run_point`` of one bid ``(v, c)`` against an ask pinned at ``ask``, under a
    constant ``threshold`` or a schedule, shocked to ``ask`` repriced by ``factor`` if given."""
    bids = check_bids(ask, ("bid", v, c))
    # The shock needs only the ask and the factor, so a bad factor fails even on a hold.
    new_ask = None if factor is None else reprice(ask, factor)
    metrics = price_bids(bids, _rule(cfg.overrides), ask)
    schedule = _constant_schedule(threshold) if isinstance(threshold, float) else threshold
    return _run_point(metrics, schedule, new_ask=new_ask)


def run_exp1(cfg: ExperimentConfig) -> ExperimentReport:
    """Deep out-of-the-money bid with an aggressive transfer: the clipped
    compensation rule leaves the spread open and the order is rejected."""
    k = _need(cfg, *OVERRIDE_KEYS["exp1"])
    records, run = _one_bid(cfg, k["v_uncond"], k["bid"], k["c"], k["T"])
    summary = {**{f: run[f] for f in _COMMIT_FIELDS},
               "best_utility": effective_utility(k["bid"], k["c"], _rule(k)),
               "theta_convention": "effective"}
    return ExperimentReport("exp1", k, records, summary)


def run_exp2(cfg: ExperimentConfig) -> ExperimentReport:
    """Settling: a constant ratio executes once the tabulated threshold
    decays beneath it."""
    k = _need(cfg, *OVERRIDE_KEYS["exp2"])
    schedule = cfg.schedule if cfg.schedule is not None else SETTLING_TABLE
    records, run = _one_bid(cfg, k["v_uncond"], k["v_reach"], 0.0, schedule)
    summary = {**{f: run[f] for f in _COMMIT_FIELDS}, "theta_convention": "effective"}
    return ExperimentReport("exp2", k, records, summary)


def run_exp3(cfg: ExperimentConfig) -> ExperimentReport:
    """A bid above the internal ask is a marketable order: theta > 1 clears
    any rational threshold on the first evaluation."""
    # The one echo that leaves out keys its run reads (elasticity, cap): a
    # reading at cap 0 and one at cap 20 echo the same constants.
    k = _need(cfg, "v_uncond", "bid", "c", "T")
    records, run = _one_bid(cfg, k["v_uncond"], k["bid"], k["c"], k["T"])
    summary = {**{f: run[f] for f in _COMMIT_FIELDS}, "immediate_fill": run["t_star"] == records[0].t,
               "theta_convention": "effective"}
    return ExperimentReport("exp3", k, records, summary)


def run_exp4(cfg: ExperimentConfig) -> ExperimentReport:
    """Two markets with different base transfer norms rank the same pool
    identically while no cap binds (``cap = inf``); a finite cap may clip one
    market's transfers and not the other's, and so reorder the book."""
    k = _need(cfg, *OVERRIDE_KEYS["exp4"])
    bases = {"high_norm": k["base_high"], "low_norm": k["base_low"]}
    # Both markets' bids are checked before the rule, and priced before the threshold.
    bids = [check_bids(k["v_uncond"], ("A", k["v_a"], base + k["effort_a"]),
                       ("B", k["v_b"], base + k["effort_b"])) for base in bases.values()]
    rule = _rule(k)
    priced = [price_bids(market_bids, rule, k["v_uncond"]) for market_bids in bids]
    schedule = _constant_schedule(k["T"])
    markets: list[dict[str, Any]] = []
    records: list[DecisionRecord] = []
    for (label, base), metrics in zip(bases.items(), priced):
        market_records, run = _run_point(metrics, schedule)
        records.extend(market_records)
        markets.append({"market": label, "base": base, "selected_id": metrics.bid.entry.id,
                        "selected_v": metrics.bid.entry.v_intrinsic, "utility": metrics.bid.utility,
                        "theta": run["theta"], "decision": run["decision"]})
    summary = {
        "markets": markets,
        "ranking_invariant": markets[0]["selected_id"] == markets[1]["selected_id"],
        "theta_convention": "effective",
    }
    return ExperimentReport("exp4", k, records, summary)


def run_exp5(cfg: ExperimentConfig) -> ExperimentReport:
    """Post-execution repricing: a peer-comparison shock lifts the ask,
    theta falls through the committed threshold, and regret latches."""
    k = _need(cfg, *OVERRIDE_KEYS["exp5"])
    records, run = _one_bid(cfg, k["ask"], k["partner"], 0.0, k["commit_threshold"], k["shock_factor"])
    summary = {"commit_decision": run["decision"], "t_star": run["t_star"], "pre_theta": run["theta"]}
    # Only a commitment can be shocked; a hold's summary reports the failed premise.
    if run["post_theta"] is not None:
        summary.update((f, run[f]) for f in ("post_theta", "post_shock_ask", "regret", "regret_gap_jump"))
    summary["theta_convention"] = "intrinsic (post-execution)"
    return ExperimentReport("exp5", k, records, summary)


def run_appendix_a(cfg: ExperimentConfig) -> ExperimentReport:
    """Replay of the worked five-row book: side derivation, clipped bids,
    best-bid selection, and the intrinsic-ratio execution check."""
    k = _need(cfg, *OVERRIDE_KEYS["appendix_a"])
    rule = _rule(k)
    if cfg.book is None:
        raise InvalidConfig("appendix_a needs a book (five-row fixture)")
    book = cfg.book
    v_uncond = book.v_uncond()
    v_reach = book.v_reach()  # a drought raises here: exit 3
    bid = book.best_bid(rule)
    if not math.isfinite(bid.utility):
        raise OverflowError(f"the best bid's effective utility {bid.utility!r} is not finite")
    metrics = BookMetrics(
        theta=market_to_book(v_reach, v_uncond),
        delta_v=spread(v_uncond, bid.entry.v_intrinsic),
        slippage=slippage(v_uncond, bid.utility),
        bid=bid,
    )
    records, run = _run_point(metrics, _constant_schedule(k["T"]))
    k["v_uncond"] = v_uncond
    summary = {
        **{f: run[f] for f in _COMMIT_FIELDS},
        "v_uncond": v_uncond,
        "v_reach": v_reach,
        "effective_bids": book.effective_bids(rule),
        "best_id": metrics.bid.entry.id,
        "best_utility": metrics.bid.utility,
        "theta_convention": "intrinsic",
    }
    return ExperimentReport("appendix_a", k, records, summary)


# -- sweep ------------------------------------------------------------------------


def _grid_points(grid: dict[str, list[float]]) -> tuple[list[str], list[tuple[float, ...]]]:
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise InvalidConfig("sweep needs a non-empty grid")
    unknown = [k for k in grid if k not in SWEEP_PARAMS]
    if unknown:
        raise InvalidConfig(
            f"unknown sweep parameters {quoted(unknown)}; supported: {', '.join(SWEEP_PARAMS)}"
        )
    params = list(grid.keys())
    size = math.prod(len(grid[p]) for p in params)
    if size > MAX_GRID_POINTS:
        raise InvalidConfig(f"a sweep grid has at most {MAX_GRID_POINTS} points, got {size}")
    return params, list(itertools.product(*(grid[p] for p in params)))


def _sweep_pricer(cfg: ExperimentConfig, reach_slope: float | None
                  ) -> tuple[Callable[[CompensationRule], BookMetrics | None], float]:
    """A point's pricer of a rule and the ask it prices against: the fixture bid
    at the configured ``v_uncond``, or a configured or generated book at its own ask."""
    if cfg.book is not None:
        book = cfg.book
    elif cfg.population is not None:
        pop = cfg.population
        if reach_slope is not None:
            pop = replace(pop, reach_slope=reach_slope)
        book = generate(pop)
    else:
        k = _need(cfg, "v_uncond", "bid", "c")
        bids = check_bids(k["v_uncond"], ("bid", k["bid"], k["c"]))
        return functools.partial(price_bids, bids, ask=k["v_uncond"]), k["v_uncond"]
    ask = book.v_uncond()
    return functools.partial(book.metrics, ask=ask), ask


def _sweep_schedule(setting: dict[str, float]) -> ThresholdSchedule:
    """T(t) of a point with no configured schedule, from its merged ``setting``:
    constant at T0 with no lambda or lambda 0, else T0 exp(-lambda t) above the floor."""
    if "T0" not in setting:
        raise InvalidConfig("sweep needs a schedule, or T0 in overrides")
    rate = setting.get("lambda", 0.0)
    if rate == 0.0:
        return _constant_schedule(setting["T0"])
    return DecaySchedule(t0=setting["T0"], rate=rate, floor=setting.get("floor", 0.0))


def run_sweep(cfg: ExperimentConfig) -> list[dict[str, Any]]:
    """One summary row per grid point, ordered by grid index.

    Columns are the swept parameters plus the scenario summary; post-shock
    fields stay empty unless the point carries a shock factor and executed.
    """
    if cfg.grid is None:
        raise InvalidConfig("sweep needs a grid")
    params, points = _grid_points(cfg.grid)
    # Each refusal names a key the sweep would otherwise drop in silence.
    if cfg.book is not None and cfg.population is not None:
        raise InvalidConfig("a sweep takes a book or a population, not both")
    if "reach_slope" in params and cfg.population is None:
        raise InvalidConfig("a reach_slope grid needs a population")
    if cfg.population is not None:
        slopes = len(set(cfg.grid["reach_slope"])) if "reach_slope" in params else 1
        rows = cfg.population.n_candidates * slopes
        if rows > MAX_SWEEP_ROWS:
            raise InvalidConfig(f"a sweep draws at most {MAX_SWEEP_ROWS} rows, n_candidates times "
                                f"the distinct reach_slope values, got {rows}")
    rates = cfg.grid["lambda"] if "lambda" in params else [cfg.overrides.get("lambda", 0.0)]
    decays = any(rate != 0.0 for rate in rates)
    if cfg.schedule is not None:
        clash = sorted({"T0", "lambda", "floor"} & (cfg.overrides.keys() | set(params)))
        if clash:
            raise InvalidConfig(f"a sweep takes a schedule or T0, lambda and floor, not both; "
                                f"got a schedule and {clash}")
    elif "floor" in cfg.overrides:  # checked in the decay's words, then refused if no decay reads it
        DecaySchedule(t0=1.0, rate=0.0, floor=cfg.overrides["floor"])
        if not decays:
            raise InvalidConfig("a sweep's floor is read only where lambda is not 0, "
                                "and every point's lambda is 0")
    horizon = _check_horizon(cfg.overrides["horizon"]) if "horizon" in cfg.overrides else None
    # The longest step range of a point: the schedule's, else a decay's from step 0 or T0's from step 1.
    longest = cfg.schedule or (DecaySchedule(t0=1.0, rate=0.0) if decays else _constant_schedule(1.0))
    steps = len(points) * len(_schedule_steps(longest, horizon))
    if steps > MAX_SWEEP_STEPS:
        raise InvalidConfig(f"a sweep takes at most {MAX_SWEEP_STEPS} steps, its grid points times "
                            f"the most steps one point takes, got {steps}")
    # generate is a pure function of its config: one book per reach_slope.
    pricer_for = functools.cache(functools.partial(_sweep_pricer, cfg))
    # One pricing per book and rule, keyed on reprs: 0.0 == -0.0, but theta keeps the sign.
    priced: dict[tuple, BookMetrics | None] = {}
    summary_keys = (*_COMMIT_FIELDS, "post_theta", "regret")
    rows: list[dict[str, Any]] = []
    for index, values in enumerate(points):
        point = dict(zip(params, values))
        setting = {**cfg.overrides, **point}
        price, ask = pricer_for(point.get("reach_slope"))
        factor = setting.get("shock_factor")
        # As in run_exp5, the factor is checked whether or not the point executes.
        new_ask = None if factor is None else reprice(ask, factor)
        rule = _rule(setting)
        key = (point.get("reach_slope"), repr(rule.elasticity), repr(rule.cap))
        if key not in priced:
            priced[key] = price(rule)  # None in a drought: every step holds
        schedule = cfg.schedule if cfg.schedule is not None else _sweep_schedule(setting)
        records, run = _run_point(priced[key], schedule, horizon, new_ask)
        report = ExperimentReport("sweep", point, records, {f: run[f] for f in summary_keys})
        rows.append({"grid_index": index, **report.constants, **report.summary})
    return rows


RUNNERS = {
    "exp1": run_exp1,
    "exp2": run_exp2,
    "exp3": run_exp3,
    "exp4": run_exp4,
    "exp5": run_exp5,
    "appendix_a": run_appendix_a,
}
