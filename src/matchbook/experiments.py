"""Experiment runners and their configuration.

Every scenario constant lives in a checked-in JSON fixture under
``matchbook/configs/`` so each numbered experiment is reproducible from its
config alone; user configs and ``--override`` flags merge on top.  Runners
emit an :class:`ExperimentReport` whose summary is recomputed from its own
decision records before it is returned (``verify``), so a report can never
disagree with its record stream.

Theta conventions differ by scenario: most runners use the effective-utility
ratio (compensation included); the worked five-row book replay checks the
intrinsic ratio.  Each report names the convention it used.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any, Callable

from .book import CandidateEntry, LiquidityStatus, PreferenceBook, book_from_mappings
from .dynamics import (
    DecaySchedule,
    Decision,
    DecisionRecord,
    SETTLING_TABLE,
    ShockEvent,
    TableSchedule,
    ThresholdSchedule,
    apply_shock,
    record_to_dict,
    step,
)
from .errors import EmptyGrid, InvalidConfig, MissingOverride, NonPositiveAsk
from .population import PopulationConfig, generate
from .valuation import CompensationRule, effective_utility

EXPERIMENTS = (
    "exp1", "exp2", "exp3", "exp4", "exp5", "appendix_a", "sweep", "gen", "cone",
)

SWEEP_PARAMS = ("T0", "lambda", "eps", "cap", "reach_slope", "shock_factor")

#: The last step any run may reach; a longer horizon is a config error, so a
#: typo such as ``horizon=1e7`` fails at once instead of stepping for hours.
MAX_HORIZON = 10_000


# -- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged scenario configuration for one runner invocation."""

    experiment: str
    overrides: dict[str, Any] = field(default_factory=dict)
    schedule: ThresholdSchedule | None = None
    population: PopulationConfig | None = None
    book: PreferenceBook | None = None
    grid: dict[str, list[float]] | None = None
    seed: int = 42
    format: str = "json"

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise InvalidConfig(f"unknown experiment {self.experiment!r}")
        if self.format not in ("csv", "json"):
            raise InvalidConfig(f"format must be csv or json, got {self.format!r}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be an unsigned integer, got {self.seed}")


def _schedule_from_mapping(d: dict) -> ThresholdSchedule:
    try:
        mode = d["mode"]
        if mode == "table":
            return TableSchedule(points=tuple((int(t), float(T)) for t, T in d["points"]))
        if mode == "decay":
            return DecaySchedule(
                t0=float(d["t0"]), rate=float(d["rate"]), floor=float(d.get("floor", 0.0))
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad schedule block: {exc}") from exc
    raise InvalidConfig(f"schedule mode must be 'table' or 'decay', got {mode!r}")


def config_from_mapping(experiment: str, data: dict, seed: int | None = None) -> ExperimentConfig:
    """Build a config from a parsed JSON object; ``seed`` (CLI) wins if given."""
    try:
        schedule = _schedule_from_mapping(data["schedule"]) if "schedule" in data else None
        book = None
        if "book" in data:
            book = book_from_mappings(data["book"], owner_id=str(data.get("owner_id", "F")))
            if not book.ids or not book.v_uncond() > 0:
                raise InvalidConfig("a configured book needs an entry with v_intrinsic > 0")
        population = None
        if "population" in data:
            pop = dict(data["population"])
            if seed is not None:
                pop["seed"] = seed
            pop.setdefault("seed", data.get("seed", 42))
            population = PopulationConfig(**pop)
        grid = None
        if "grid" in data:
            grid = {str(k): [float(x) for x in v] for k, v in data["grid"].items()}
        return ExperimentConfig(
            experiment=experiment,
            overrides=dict(data.get("overrides", {})),
            schedule=schedule,
            population=population,
            book=book,
            grid=grid,
            seed=int(seed if seed is not None else data.get("seed", 42)),
            format=str(data.get("format", "json")),
        )
    except (KeyError, TypeError, ValueError) as exc:
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


def _override(cfg: ExperimentConfig, key: str, default: float | None = None) -> float:
    """A numeric override, or ``default`` when the key is absent."""
    value = cfg.overrides.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"non-numeric override for {cfg.experiment}: {key}={value!r}") from exc


def _need(cfg: ExperimentConfig, *keys: str) -> list[float]:
    missing = [k for k in keys if k not in cfg.overrides]
    if missing:
        raise MissingOverride(f"{cfg.experiment} needs overrides: {', '.join(missing)}")
    return [_override(cfg, k) for k in keys]


def _from_config(make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call a domain constructor (or apply a shock) on config values: the
    errors it raises for an out-of-domain value are config errors."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError, NonPositiveAsk) as exc:
        raise InvalidConfig(str(exc)) from exc


def _rule(cfg: ExperimentConfig, eps: float | None = None, cap: float | None = None) -> CompensationRule:
    elasticity = eps if eps is not None else _override(cfg, "elasticity", 0.05)
    ceiling = cap if cap is not None else _override(cfg, "cap", 20.0)
    return _from_config(CompensationRule, elasticity=elasticity, cap=ceiling)


def _constant_schedule(T: float) -> TableSchedule:
    return _from_config(TableSchedule, points=((1, T),))


def _bid_book(v_uncond: float, *bids: tuple[str, float, float], owner: str = "F") -> PreferenceBook:
    """A hypothetical ideal at the internal ask ``v_uncond`` plus one liquid
    entry per ``(id, v, c)`` bid."""
    if not v_uncond > 0:
        raise InvalidConfig(f"the internal ask must be > 0, got {v_uncond}")
    rows = [("ideal", v_uncond, 0.0, LiquidityStatus.HYPOTHETICAL)]
    rows += [(i, v, c, LiquidityStatus.LIQUID) for i, v, c in bids]
    entries = tuple(_from_config(CandidateEntry, *row) for row in rows)
    return PreferenceBook(entries=entries, owner_id=owner)


# -- reports -----------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """A runner's full output: constants echo, record stream, summary."""

    experiment: str
    constants: dict[str, Any]
    records: list[DecisionRecord]
    summary: dict[str, Any]

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


def _finish(report: ExperimentReport) -> ExperimentReport:
    report.verify()
    return report


# -- scenario driver ----------------------------------------------------------------


def _check_horizon(last: int) -> int:
    if last > MAX_HORIZON:
        raise InvalidConfig(f"the horizon must be at most {MAX_HORIZON} steps, got {last}")
    return last


def _schedule_steps(schedule: ThresholdSchedule, horizon: int | None) -> range:
    if isinstance(schedule, TableSchedule):
        first = schedule.points[0][0]
        last = horizon if horizon is not None else schedule.points[-1][0]
    else:
        first, last = 0, horizon if horizon is not None else 50
    return range(first, _check_horizon(last) + 1)


def run_schedule(
    book: PreferenceBook,
    rule: CompensationRule,
    schedule: ThresholdSchedule,
    ask: float | None = None,
    intrinsic_theta: bool = False,
    horizon: int | None = None,
) -> list[DecisionRecord]:
    """Step an agent over a schedule until it executes or the horizon ends.

    Execution is absorbing: the list stops at the first EXECUTE record, so
    an executed run's last record is its commitment.
    """
    records: list[DecisionRecord] = []
    for t in _schedule_steps(schedule, horizon):
        records.append(step(book, rule, schedule, t, ask=ask, intrinsic_theta=intrinsic_theta))
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


# -- the numbered runners ------------------------------------------------------------


def run_exp1(cfg: ExperimentConfig) -> ExperimentReport:
    """Deep out-of-the-money bid with an aggressive transfer: the clipped
    compensation rule leaves the spread open and the order is rejected."""
    v_uncond, bid, c, T = _need(cfg, "v_uncond", "bid", "c", "T")
    rule = _rule(cfg)
    book = _bid_book(v_uncond, ("bid", bid, c))
    # The ask is pinned: a bid above it would otherwise become the ask.
    records = run_schedule(book, rule, _constant_schedule(T), ask=v_uncond)
    summary = _base_summary(records)
    summary["best_utility"] = effective_utility(bid, c, rule)
    summary["theta_convention"] = "effective"
    constants = {"v_uncond": v_uncond, "bid": bid, "c": c, "T": T,
                 "elasticity": rule.elasticity, "cap": rule.cap}
    return _finish(ExperimentReport("exp1", constants, records, summary))


def run_exp2(cfg: ExperimentConfig) -> ExperimentReport:
    """Settling: a constant ratio executes once the tabulated threshold
    decays beneath it."""
    v_uncond, v_reach = _need(cfg, "v_uncond", "v_reach")
    rule = _rule(cfg)
    schedule = cfg.schedule if cfg.schedule is not None else SETTLING_TABLE
    book = _bid_book(v_uncond, ("bid", v_reach, 0.0))
    records = run_schedule(book, rule, schedule)
    summary = _base_summary(records)
    summary["theta_convention"] = "effective"
    constants = {"v_uncond": v_uncond, "v_reach": v_reach}
    return _finish(ExperimentReport("exp2", constants, records, summary))


def run_exp3(cfg: ExperimentConfig) -> ExperimentReport:
    """A bid above the internal ask is a marketable order: theta > 1 clears
    any rational threshold on the first evaluation."""
    v_uncond, bid, c, T = _need(cfg, "v_uncond", "bid", "c", "T")
    rule = _rule(cfg)
    book = _bid_book(v_uncond, ("bid", bid, c))
    # The ask is a belief anchor, pinned explicitly: the arriving bid must
    # not be absorbed into the unconditional side.
    records = run_schedule(book, rule, _constant_schedule(T), ask=v_uncond)
    summary = _base_summary(records)
    summary["immediate_fill"] = summary["t_star"] == records[0].t
    summary["theta_convention"] = "effective"
    constants = {"v_uncond": v_uncond, "bid": bid, "c": c, "T": T}
    return _finish(ExperimentReport("exp3", constants, records, summary))


def run_exp4(cfg: ExperimentConfig) -> ExperimentReport:
    """Two markets with different base transfer norms rank the same pool
    identically: a uniform intercept cannot reorder the book."""
    v_uncond, T, v_a, e_a, v_b, e_b, base_high, base_low = _need(
        cfg, "v_uncond", "T", "v_a", "effort_a", "v_b", "effort_b", "base_high", "base_low"
    )
    rule = _rule(cfg)
    markets: list[dict[str, Any]] = []
    records: list[DecisionRecord] = []
    for label, base in (("high_norm", base_high), ("low_norm", base_low)):
        book = _bid_book(v_uncond, ("A", v_a, base + e_a), ("B", v_b, base + e_b), owner=f"F-{label}")
        best = book.best_bid(rule)
        market_records = run_schedule(book, rule, _constant_schedule(T))
        records.extend(market_records)
        markets.append(
            {
                "market": label,
                "base": base,
                "selected_id": best.entry.id,
                "selected_v": best.entry.v_intrinsic,
                "utility": best.utility,
                "theta": market_records[-1].theta,
                "decision": market_records[-1].decision.value,
            }
        )
    summary = {
        "markets": markets,
        "ranking_invariant": markets[0]["selected_id"] == markets[1]["selected_id"],
        "theta_convention": "effective",
    }
    constants = {"v_uncond": v_uncond, "T": T, "v_a": v_a, "effort_a": e_a,
                 "v_b": v_b, "effort_b": e_b, "base_high": base_high, "base_low": base_low,
                 "elasticity": rule.elasticity, "cap": rule.cap}
    return _finish(ExperimentReport("exp4", constants, records, summary))


def run_exp5(cfg: ExperimentConfig) -> ExperimentReport:
    """Post-execution repricing: a peer-comparison shock lifts the ask,
    theta falls through the committed threshold, and regret latches."""
    partner, ask, T, factor = _need(cfg, "partner", "ask", "commit_threshold", "shock_factor")
    rule = _rule(cfg)
    book = _bid_book(ask, ("bid", partner, 0.0))
    records = run_schedule(book, rule, _constant_schedule(T))
    constants = {"partner": partner, "ask": ask, "commit_threshold": T, "shock_factor": factor}
    commit = records[-1]
    pre_theta = commit.theta
    if commit.decision is not Decision.EXECUTE:
        # Nothing committed, nothing to shock: report the failed premise.
        summary = {
            "commit_decision": Decision.HOLD.value,
            "t_star": None,
            "pre_theta": pre_theta,
            "theta_convention": "intrinsic (post-execution)",
        }
        return _finish(ExperimentReport("exp5", constants, records, summary))
    shock = _from_config(ShockEvent.multiplicative, factor, step=commit.t + 1)
    result = _from_config(apply_shock, commit, ask, partner, shock)
    # The shock re-evaluation joins the record stream; execution is
    # absorbing, so a sub-threshold theta here is regret, not a reversal.
    records.append(
        DecisionRecord(
            t=shock.step,
            theta=result.new_theta,
            threshold=commit.threshold,
            delta_v=result.new_v_uncond - partner,
            slippage=result.new_v_uncond - partner,
            decision=Decision.HOLD,
        )
    )
    summary = {
        "commit_decision": Decision.EXECUTE.value,
        "t_star": commit.t,
        "pre_theta": pre_theta,
        "post_theta": result.new_theta,
        "post_shock_ask": result.new_v_uncond,
        "regret": result.regret,
        "regret_gap_jump": records[-1].delta_v - records[0].delta_v,
        "theta_convention": "intrinsic (post-execution)",
    }
    return _finish(ExperimentReport("exp5", constants, records, summary))


def run_appendix_a(cfg: ExperimentConfig) -> ExperimentReport:
    """Replay of the worked five-row book: side derivation, clipped bids,
    best-bid selection, and the intrinsic-ratio execution check."""
    (T,) = _need(cfg, "T")
    rule = _rule(cfg)
    if cfg.book is None:
        raise MissingOverride("appendix_a needs a book (five-row fixture)")
    book = cfg.book
    v_uncond = book.v_uncond()
    v_reach = book.v_reach()
    best = book.best_bid(rule)
    records = run_schedule(book, rule, _constant_schedule(T), intrinsic_theta=True)
    summary = _base_summary(records)
    summary.update(
        {
            "v_uncond": v_uncond,
            "v_reach": v_reach,
            "effective_bids": {
                e.id: effective_utility(e.v_intrinsic, e.c_offer, rule)
                for e in book.liquid_entries()
            },
            "best_id": best.entry.id,
            "best_utility": best.utility,
            "theta_convention": "intrinsic",
        }
    )
    constants = {"T": T, "elasticity": rule.elasticity, "cap": rule.cap,
                 "v_uncond": v_uncond}
    return _finish(ExperimentReport("appendix_a", constants, records, summary))


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
    return params, list(itertools.product(*(grid[p] for p in params)))


def _sweep_book(cfg: ExperimentConfig, reach_slope: float | None) -> PreferenceBook:
    if cfg.book is not None:
        return cfg.book
    if cfg.population is not None:
        pop = cfg.population
        if reach_slope is not None:
            pop = replace(pop, reach_slope=reach_slope)
        return generate(pop)
    v_uncond, bid, c = _need(cfg, "v_uncond", "bid", "c")
    return _bid_book(v_uncond, ("bid", bid, c))


def _sweep_schedule(cfg: ExperimentConfig, t0: float | None, rate: float | None) -> ThresholdSchedule:
    if t0 is None and rate is None and cfg.schedule is not None:
        return cfg.schedule
    base = cfg.schedule if isinstance(cfg.schedule, DecaySchedule) else None
    if rate is None:
        rate = base.rate if base is not None else _override(cfg, "lambda", 0.0)
    if t0 is None:
        if base is not None:
            t0 = base.t0
        elif "T0" in cfg.overrides or "T" in cfg.overrides:
            t0 = _override(cfg, "T0" if "T0" in cfg.overrides else "T")
        else:
            raise MissingOverride("sweep needs a schedule, or T0/T in overrides")
    floor = base.floor if base is not None else _override(cfg, "floor", 0.0)
    if rate == 0.0:
        return _constant_schedule(t0)
    return _from_config(DecaySchedule, t0=t0, rate=rate, floor=floor)


def run_sweep(cfg: ExperimentConfig) -> list[dict[str, Any]]:
    """One summary row per grid point, ordered by grid index.

    Columns are the swept parameters plus the scenario summary; post-shock
    fields stay empty unless the point carries a shock factor and executed.
    """
    if cfg.grid is None:
        raise EmptyGrid("sweep needs a grid")
    params, points = _grid_points(cfg.grid)
    horizon = None
    if "horizon" in cfg.overrides:
        horizon = _check_horizon(_from_config(int, _override(cfg, "horizon")))
    # generate is a pure function of its config: one book per reach_slope.
    book_for = functools.cache(functools.partial(_sweep_book, cfg))
    rows: list[dict[str, Any]] = []
    for index, values in enumerate(points):
        point = dict(zip(params, values))
        rule = _rule(cfg, eps=point.get("eps"), cap=point.get("cap"))
        book = book_for(point.get("reach_slope"))
        schedule = _sweep_schedule(cfg, point.get("T0"), point.get("lambda"))
        records = run_schedule(book, rule, schedule, horizon=horizon)
        summary = _base_summary(records)
        post_theta = None
        regret = None
        commit = records[-1]
        factor = point.get("shock_factor")
        if factor is None and "shock_factor" in cfg.overrides:
            factor = _override(cfg, "shock_factor")
        if factor is not None and commit.decision is Decision.EXECUTE:
            best = book.best_bid(rule)
            shock = _from_config(ShockEvent.multiplicative, factor, step=commit.t + 1)
            result = _from_config(apply_shock, commit, book.v_uncond(), best.entry.v_intrinsic, shock)
            post_theta = result.new_theta
            regret = result.regret
        row: dict[str, Any] = {"grid_index": index}
        row.update(point)
        row.update(summary)
        row["post_theta"] = post_theta
        row["regret"] = regret
        rows.append(row)
    return rows


RUNNERS = {
    "exp1": run_exp1,
    "exp2": run_exp2,
    "exp3": run_exp3,
    "exp4": run_exp4,
    "exp5": run_exp5,
    "appendix_a": run_appendix_a,
}
