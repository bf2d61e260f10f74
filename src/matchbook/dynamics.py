"""Execution dynamics: threshold schedules, per-step decision records,
post-execution shocks, lock-in and impulse adjustments.

An agent compares the market-to-book ratio theta of its book, a fixed
snapshot, with a time-decaying threshold T(t) at each step and executes at
the first step where theta >= T: only the threshold moves.  That step's
EXECUTE record is the agent's commitment: it carries the step and the
threshold committed at.  Execution is absorbing; only external shocks
reprice the internal ask afterwards.  A shock's re-evaluation is one more
record, a HOLD a step after the commit, and a theta there below the
committed threshold is regret.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from numbers import Integral
from operator import itemgetter
from typing import Iterable, Union

from .book import BookMetrics, csv_columns, write_csv
from .valuation import Valuation, market_to_book


# -- threshold schedules ------------------------------------------------------


def _integer(value: object, what: str) -> int:
    """A step as an int: a bool or a fraction is a ValueError, not a truncation."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TableSchedule:
    """Step function over tabulated (step, threshold) points.

    Steps must be strictly increasing integers and thresholds non-increasing,
    each in (0, 1].  The threshold at t is the value of the greatest
    tabulated step <= t; asking before the first step is an error.
    """

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        points = tuple((_integer(t, "a table step"), float(T)) for t, T in self.points)
        object.__setattr__(self, "points", points)
        if not points:
            raise ValueError("a table schedule needs at least one point")
        for _, T in points:
            if not 0 < T <= 1:
                raise ValueError(f"thresholds must lie in (0, 1], got {T}")
        steps = [t for t, _ in points]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("table steps must be strictly increasing")
        values = [T for _, T in points]
        if any(b > a for a, b in zip(values, values[1:])):
            raise ValueError("table thresholds must be non-increasing")

    def at(self, t: int) -> float:
        i = bisect.bisect_right(self.points, t, key=itemgetter(0))
        if i == 0:
            raise ValueError(f"t={t} is before the first tabulated step {self.points[0][0]}")
        return self.points[i - 1][1]


@dataclass(frozen=True)
class DecaySchedule:
    """Exponential decay with a floor: T(t) = max(floor, t0 * exp(-rate * t))."""

    t0: float
    rate: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.t0 <= 1:
            raise ValueError(f"t0 must lie in (0, 1], got {self.t0}")
        if self.rate < 0 or not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not 0 <= self.floor <= 1:
            raise ValueError(f"floor must lie in [0, 1], got {self.floor}")

    def at(self, t: int) -> float:
        if t < 0:
            raise ValueError(f"decay schedules start at t=0, got t={t}")
        return max(self.floor, self.t0 * math.exp(-self.rate * t))


ThresholdSchedule = Union[TableSchedule, DecaySchedule]


#: Replay of the canonical five-step decay table used by the settling scenario.
SETTLING_TABLE = TableSchedule(points=((1, 0.95), (2, 0.88), (3, 0.80), (4, 0.75), (5, 0.70)))


# -- decisions ----------------------------------------------------------------


class Decision(str, Enum):
    EXECUTE = "execute"
    HOLD = "hold"


def decide(theta: float, T: float) -> Decision:
    """Execute iff theta >= T.

    The comparison is inclusive so a perfect match at maximal standards
    (theta == T == 1) executes.
    """
    return Decision.EXECUTE if theta >= T else Decision.HOLD


@dataclass(frozen=True)
class DecisionRecord:
    """One evaluation's outputs; the per-step ledger row.

    A record has all of theta, delta_v and slippage, or none of them: a
    drought (no liquid entry meant no metrics could be computed).  An
    EXECUTE record is the agent's commitment: ``t`` is the execution step
    and ``threshold`` the threshold committed at.
    """

    t: int
    theta: float | None
    threshold: float
    delta_v: float | None
    slippage: float | None
    decision: Decision

    def __post_init__(self) -> None:
        if len({self.theta is None, self.delta_v is None, self.slippage is None}) > 1:
            raise ValueError("a record has all of theta, delta_v and slippage, or none (a drought)")
        if self.decision is Decision.EXECUTE:
            if self.theta is None or not self.theta >= self.threshold:  # NaN fails
                raise ValueError("an execute record requires theta >= threshold")

    @property
    def drought(self) -> bool:
        """No liquid entry: the record carries no metrics."""
        return self.theta is None


def step(metrics: BookMetrics | None, schedule: ThresholdSchedule, t: int) -> DecisionRecord:
    """One evaluation: compare the snapshot's theta with T(t).

    ``metrics`` is the book's snapshot (PreferenceBook.metrics, or a
    scenario's bids priced as a book of them would be); the book
    does not change during a run, so one snapshot serves every step and only
    the threshold moves.  ``None`` is a liquidity drought: a Hold without
    metrics.  Execution is absorbing: run_schedule stops at the first
    EXECUTE record.
    """
    T = schedule.at(t)
    if metrics is None:
        return DecisionRecord(
            t=t, theta=None, threshold=T, delta_v=None, slippage=None, decision=Decision.HOLD
        )
    return DecisionRecord(
        t=t,
        theta=metrics.theta,
        threshold=T,
        delta_v=metrics.delta_v,
        slippage=metrics.slippage,
        decision=decide(metrics.theta, T),
    )


# -- post-execution shocks ----------------------------------------------------


def reprice(v_uncond: Valuation, factor: float) -> Valuation:
    """The ask scaled by a finite ``factor`` > 0: a finite ask > 0, or a
    ValueError when the product overflows to inf or underflows to 0.

    Repricing in decimal keeps decimally-quoted factors exact: 90 * 1.1 is
    99, not 99.00000000000001.
    """
    if not v_uncond > 0:  # NaN fails too
        raise ValueError(f"internal ask must be > 0, got {v_uncond}")
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"a shock factor must be finite and > 0, got {factor}")
    ask = float(Decimal(repr(v_uncond)) * Decimal(repr(factor)))
    if not (math.isfinite(ask) and ask > 0):
        raise ValueError(f"the repriced ask must be finite and > 0, got {ask}")
    return ask


def apply_shock(commit: DecisionRecord, new_v_uncond: Valuation, v_partner: Valuation) -> DecisionRecord:
    """The post-shock record: theta re-evaluated at the repriced ask against
    the committed threshold, a step after the commit.

    The partner's *intrinsic* value is used: compensation utility has
    dissipated by the time a shock lands, so only the structural ratio
    remains, and delta_v and slippage are both the new ask minus it.
    Execution is absorbing, so the record is a HOLD, and theta below its
    threshold is regret, not a reversal.  Regret clears only if a later
    downward repricing lifts theta back (upward shocks can only deepen it).

    ``commit`` is the agent's EXECUTE record; any other record raises
    ValueError.  The new ask must be finite and > 0, and the partner's value
    finite and >= 0.
    """
    if commit.decision is not Decision.EXECUTE:
        raise ValueError("shocks apply to executed agents only")
    if not (math.isfinite(new_v_uncond) and new_v_uncond > 0):
        raise ValueError(f"the repriced ask must be finite and > 0, got {new_v_uncond}")
    if not (math.isfinite(v_partner) and v_partner >= 0):
        raise ValueError(f"the partner's value must be finite and >= 0, got {v_partner}")
    gap = new_v_uncond - v_partner
    return DecisionRecord(
        t=commit.t + 1,
        theta=market_to_book(v_partner, new_v_uncond),
        threshold=commit.threshold,
        delta_v=gap,
        slippage=gap,
        decision=Decision.HOLD,
    )


def lock_in_threshold(T: float, kappa: float) -> float:
    """Exit threshold: entry threshold raised by the lock-in premium.

    May exceed 1, in which case exit is unreachable and the match is sticky
    no matter how far theta falls.
    """
    if not T >= 0:  # NaN fails too
        raise ValueError(f"threshold must be >= 0, got {T}")
    if not kappa >= 0:
        raise ValueError(f"lock-in premium must be >= 0, got {kappa}")
    return T + kappa


def impulse_adjust(T: float, delta_emotion: float) -> float:
    """Sudden threshold drop; floors at 0 (unconditional execution)."""
    if not T >= 0:  # NaN fails too
        raise ValueError(f"threshold must be >= 0, got {T}")
    if not delta_emotion >= 0:
        raise ValueError(f"impulse drop must be >= 0, got {delta_emotion}")
    return max(0.0, T - delta_emotion)


# -- record serialization -------------------------------------------------------

RECORD_CSV_HEADER = ("t", "theta", "threshold", "delta_v", "slippage", "decision", "drought")


def records_to_csv(records: Iterable[DecisionRecord]) -> str:
    return write_csv(RECORD_CSV_HEADER, csv_columns(list(map(record_to_dict, records)), RECORD_CSV_HEADER))


def record_to_dict(r: DecisionRecord) -> dict:
    return {
        "t": r.t,
        "theta": r.theta,
        "threshold": r.threshold,
        "delta_v": r.delta_v,
        "slippage": r.slippage,
        "decision": r.decision.value,
        "drought": r.drought,
    }
