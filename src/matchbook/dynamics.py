"""Execution dynamics: threshold schedules, per-step decision records,
post-execution shocks, lock-in and impulse adjustments.

An agent evaluates the market-to-book ratio theta against a time-decaying
threshold T(t) at each step and executes at the first step where
theta >= T.  That step's EXECUTE record is the agent's commitment: it
carries the step and the threshold committed at.  Execution is absorbing;
only external shocks reprice the internal ask afterwards, and a repriced ask
can push theta below the committed threshold, which is what the regret flag
records.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Iterable, NamedTuple, Union

from .book import PreferenceBook, csv_cell
from .errors import NoLiquidity, NotExecuted, StepBeforeSchedule
from .valuation import CompensationRule, Valuation, market_to_book


# -- threshold schedules ------------------------------------------------------


@dataclass(frozen=True)
class TableSchedule:
    """Step function over tabulated (step, threshold) points.

    Steps must be strictly increasing and thresholds non-increasing, each in
    (0, 1].  The threshold at t is the value of the greatest tabulated step
    <= t; asking before the first step is an error.
    """

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        points = tuple((int(t), float(T)) for t, T in self.points)
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
        if t < self.points[0][0]:
            raise StepBeforeSchedule(f"t={t} is before the first tabulated step {self.points[0][0]}")
        value = self.points[0][1]
        for step_t, T in self.points:
            if step_t > t:
                break
            value = T
        return value


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
            raise StepBeforeSchedule(f"decay schedules start at t=0, got t={t}")
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

    theta/delta_v/slippage are None on drought rows (no liquid entry meant
    no metrics could be computed).  An EXECUTE record is the agent's
    commitment: ``t`` is the execution step and ``threshold`` the threshold
    committed at.
    """

    t: int
    theta: float | None
    threshold: float
    delta_v: float | None
    slippage: float | None
    decision: Decision
    drought: bool = False

    def __post_init__(self) -> None:
        if self.decision is Decision.EXECUTE:
            if self.theta is None or self.theta < self.threshold:
                raise ValueError("an execute record requires theta >= threshold")


def step(
    book: PreferenceBook,
    rule: CompensationRule,
    schedule: ThresholdSchedule,
    t: int,
    ask: Valuation | None = None,
    intrinsic_theta: bool = False,
) -> DecisionRecord:
    """One evaluation: compute the book's metrics and compare theta to T(t).

    theta defaults to the effective-utility convention (best bid including
    compensation over the ask); pass intrinsic_theta=True to use the raw
    v_reach / v_uncond ratio instead.  ``ask`` pins the internal ask when it
    should not be derived from the book (see PreferenceBook.metrics).

    A liquidity drought records a Hold with the drought flag set rather than
    propagating.  Execution is absorbing: run_schedule stops at the first
    EXECUTE record.
    """
    T = schedule.at(t)
    try:
        metrics = book.metrics(rule, ask=ask)
    except NoLiquidity:
        return DecisionRecord(
            t=t, theta=None, threshold=T, delta_v=None, slippage=None,
            decision=Decision.HOLD, drought=True,
        )

    if intrinsic_theta:
        v_ask = book.v_uncond() if ask is None else ask
        theta = market_to_book(book.v_reach(), v_ask)
    else:
        theta = metrics.theta

    return DecisionRecord(
        t=t,
        theta=theta,
        threshold=T,
        delta_v=metrics.delta_v,
        slippage=metrics.slippage,
        decision=decide(theta, T),
    )


# -- post-execution shocks ----------------------------------------------------


class ShockKind(str, Enum):
    MULTIPLICATIVE = "multiplicative"
    ABSOLUTE = "absolute"


@dataclass(frozen=True)
class ShockEvent:
    """Repricing of the internal ask after execution.

    Multiplicative shocks scale the ask by ``factor`` (> 0); absolute shocks
    replace it with ``new_ask``.
    """

    kind: ShockKind
    step: int
    factor: float | None = None
    new_ask: Valuation | None = None

    def __post_init__(self) -> None:
        if self.kind is ShockKind.MULTIPLICATIVE:
            if self.factor is None or not math.isfinite(self.factor) or self.factor <= 0:
                raise ValueError(f"multiplicative shock needs a finite factor > 0, got {self.factor}")
        else:
            if self.new_ask is None or not math.isfinite(self.new_ask) or self.new_ask < 0:
                raise ValueError(f"absolute shock needs a finite new_ask >= 0, got {self.new_ask}")

    @classmethod
    def multiplicative(cls, factor: float, step: int = 0) -> "ShockEvent":
        return cls(kind=ShockKind.MULTIPLICATIVE, step=step, factor=factor)

    @classmethod
    def absolute(cls, new_ask: Valuation, step: int = 0) -> "ShockEvent":
        return cls(kind=ShockKind.ABSOLUTE, step=step, new_ask=new_ask)


class ShockResult(NamedTuple):
    new_v_uncond: Valuation
    new_theta: float
    regret: bool


def _decimal_product(a: float, b: float) -> float:
    # Repricing in decimal keeps decimally-quoted factors exact:
    # 90 * 1.1 is 99, not 99.00000000000001.
    return float(Decimal(repr(a)) * Decimal(repr(b)))


def apply_shock(
    commit: DecisionRecord,
    v_uncond: Valuation,
    v_partner: Valuation,
    shock: ShockEvent,
) -> ShockResult:
    """Reprice the ask and re-evaluate theta against the committed threshold.

    The partner's *intrinsic* value is used: compensation utility has
    dissipated by the time a shock lands, so only the structural ratio
    remains.  Regret is theta falling below the threshold the agent
    committed at; it clears only if a later downward repricing lifts theta
    back (upward shocks can only deepen it).

    ``commit`` is the agent's EXECUTE record; any other record raises
    NotExecuted.
    """
    if commit.decision is not Decision.EXECUTE:
        raise NotExecuted("shocks apply to executed agents only")
    if v_uncond <= 0:
        raise ValueError(f"current ask must be > 0, got {v_uncond}")
    if shock.kind is ShockKind.MULTIPLICATIVE:
        new_v = _decimal_product(v_uncond, shock.factor)
    else:
        new_v = float(shock.new_ask)
    new_theta = market_to_book(v_partner, new_v)
    return ShockResult(new_v, new_theta, new_theta < commit.threshold)


def lock_in_threshold(T: float, kappa: float) -> float:
    """Exit threshold: entry threshold raised by the lock-in premium.

    May exceed 1, in which case exit is unreachable and the match is sticky
    no matter how far theta falls.
    """
    if kappa < 0:
        raise ValueError(f"lock-in premium must be >= 0, got {kappa}")
    return T + kappa


def impulse_adjust(T: float, delta_emotion: float) -> float:
    """Sudden threshold drop; floors at 0 (unconditional execution)."""
    if delta_emotion < 0:
        raise ValueError(f"impulse drop must be >= 0, got {delta_emotion}")
    return max(0.0, T - delta_emotion)


# -- record serialization -------------------------------------------------------

RECORD_CSV_HEADER = ("t", "theta", "threshold", "delta_v", "slippage", "decision", "drought")


def records_to_csv(records: Iterable[DecisionRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_CSV_HEADER)
    for r in records:
        writer.writerow(csv_cell(value) for value in record_to_dict(r).values())
    return buf.getvalue()


def records_from_csv(text: str) -> list[DecisionRecord]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames) != RECORD_CSV_HEADER:
        raise ValueError(f"expected header {','.join(RECORD_CSV_HEADER)}, got {reader.fieldnames}")
    out = []
    for row in reader:
        out.append(
            DecisionRecord(
                t=int(row["t"]),
                theta=float(row["theta"]) if row["theta"] else None,
                threshold=float(row["threshold"]),
                delta_v=float(row["delta_v"]) if row["delta_v"] else None,
                slippage=float(row["slippage"]) if row["slippage"] else None,
                decision=Decision(row["decision"]),
                drought=row["drought"] == "true",
            )
        )
    return out


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


def records_to_jsonl(records: Iterable[DecisionRecord]) -> str:
    return "".join(json.dumps(record_to_dict(r)) + "\n" for r in records)


def records_from_jsonl(text: str) -> list[DecisionRecord]:
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        out.append(
            DecisionRecord(
                t=int(d["t"]),
                theta=d["theta"],
                threshold=d["threshold"],
                delta_v=d["delta_v"],
                slippage=d["slippage"],
                decision=Decision(d["decision"]),
                drought=bool(d["drought"]),
            )
        )
    return out
