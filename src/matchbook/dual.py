"""Two-sided execution: both parties run their own liquidity check, and the
transfer that would clear the match must fit under the paying side's ceiling.

A match clears only on a triple coincidence: the initiating side's theta
crosses its threshold, the counterparty's theta crosses theirs, and the
required transfer does not trip the counterparty's circuit breaker (c_max).
Checks are evaluated in that order and the first failure names the outcome,
so an outcome of CIRCUIT_BREAKER certifies that both liquidity checks
passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .book import PreferenceBook, csv_columns, write_csv
from .errors import NoLiquidity
from .valuation import CompensationRule, Money, required_transfer


@dataclass(frozen=True)
class Counterparty:
    """The other side of a prospective match: their book, their threshold,
    and the most they will ever transfer."""

    id: str
    book: PreferenceBook
    threshold: float
    c_max: Money

    def __post_init__(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold must lie in (0, 1], got {self.threshold}")
        if self.c_max < 0 or math.isnan(self.c_max):
            raise ValueError(f"c_max must be >= 0, got {self.c_max}")


class MatchResult(str, Enum):
    MATCHED = "matched"
    F_SIDE_HOLD = "f_side_hold"
    M_SIDE_HOLD = "m_side_hold"
    CIRCUIT_BREAKER = "circuit_breaker"


@dataclass(frozen=True)
class MatchOutcome:
    """All three checks' inputs plus the first-failure verdict.

    Thetas are None when the corresponding side had no liquid entry; that
    side's hold carries the drought flag.
    """

    result: MatchResult
    f_theta: float | None
    m_theta: float | None
    c_required: Money
    c_max: Money
    f_drought: bool = False
    m_drought: bool = False


def effective_compensation_cap(
    delta_v_utility: float, c_max: Money, rule: CompensationRule
) -> Money:
    """Largest transfer actually deliverable against a utility gap.

    Inverts the clipped rule on the gap (clamped to the utility cap) and
    then applies the counterparty ceiling; an unbounded inversion therefore
    clips at c_max.
    """
    if not delta_v_utility >= 0:  # NaN fails too
        raise ValueError(f"utility gap must be >= 0, got {delta_v_utility}")
    if not c_max >= 0:
        raise ValueError(f"c_max must be >= 0, got {c_max}")
    transfer = required_transfer(min(delta_v_utility, rule.cap), rule)
    return min(transfer, c_max)


def _side_theta(book: PreferenceBook, rule: CompensationRule) -> tuple[float | None, bool]:
    try:
        return book.metrics(rule).theta, False
    except NoLiquidity:
        return None, True


def triple_coincidence(
    f_book: PreferenceBook,
    f_threshold: float,
    m: Counterparty,
    c_required: Money,
    rule: CompensationRule,
) -> MatchOutcome:
    """Evaluate the three clearing clauses in order; report the first failure.

    Both thetas are computed regardless of where the evaluation stops, so an
    outcome always documents the full state of the pair.

    Fails closed: ``f_threshold`` must lie in (0, 1] and ``c_required``
    must be >= 0 (``INFEASIBLE`` allowed, which trips the breaker), else
    ValueError; a NaN in either would otherwise compare its way to MATCHED.
    """
    if not 0 < f_threshold <= 1:
        raise ValueError(f"f_threshold must lie in (0, 1], got {f_threshold}")
    if math.isnan(c_required) or c_required < 0:
        raise ValueError(f"c_required must be >= 0 (inf allowed), got {c_required}")
    f_theta, f_drought = _side_theta(f_book, rule)
    m_theta, m_drought = _side_theta(m.book, rule)

    if f_drought or f_theta < f_threshold:
        result = MatchResult.F_SIDE_HOLD
    elif m_drought or m_theta < m.threshold:
        result = MatchResult.M_SIDE_HOLD
    elif c_required > m.c_max:
        result = MatchResult.CIRCUIT_BREAKER
    else:
        result = MatchResult.MATCHED

    return MatchOutcome(
        result=result,
        f_theta=f_theta,
        m_theta=m_theta,
        c_required=c_required,
        c_max=m.c_max,
        f_drought=f_drought,
        m_drought=m_drought,
    )


# -- pairwise report serialization ------------------------------------------------

MATCH_CSV_HEADER = ("f_id", "m_id", "f_theta", "m_theta", "c_required", "c_max", "result")


def outcomes_to_csv(rows: list[tuple[str, str, MatchOutcome]]) -> str:
    """Pairwise match report: one row per (f_id, m_id, outcome)."""
    cells = [(f_id, m_id, outcome.f_theta, outcome.m_theta, outcome.c_required, outcome.c_max,
              outcome.result.value) for f_id, m_id, outcome in rows]
    return write_csv(MATCH_CSV_HEADER, csv_columns(cells, range(len(MATCH_CSV_HEADER))))
