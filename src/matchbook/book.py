"""The preference book: a two-sided snapshot of candidate matches.

Each entry carries an intrinsic valuation, a standing compensation offer and
a liquidity status.  The *unconditional* side (the ask) is the maximum over
every entry, hypothetical ideals included; the *reachable* side (the bid) is
the maximum over liquid entries only.  Lock-up entries raise the ask without
ever being executable.

This is a preference snapshot, not an exchange venue: there is no price-time
priority, no partial fill, no cancellation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import EmptyBook, NoLiquidity
from .valuation import (
    CompensationRule,
    Money,
    Valuation,
    effective_utility,
    market_to_book,
    slippage,
    spread,
)


class LiquidityStatus(str, Enum):
    """Where an entry sits in the book.

    HYPOTHETICAL entries exist only on the ask side (believed to exist,
    never executable).  LOCKUP entries are real but attached elsewhere.
    LIQUID entries are the bid side: explicitly willing to match.
    """

    HYPOTHETICAL = "hypothetical"
    LOCKUP = "lockup"
    LIQUID = "liquid"


@dataclass(frozen=True)
class CandidateEntry:
    """One row of the book."""

    id: str
    v_intrinsic: Valuation
    c_offer: Money
    status: LiquidityStatus

    def __post_init__(self) -> None:
        if not math.isfinite(self.v_intrinsic) or self.v_intrinsic < 0:
            raise ValueError(f"v_intrinsic must be finite and >= 0, got {self.v_intrinsic}")
        if not math.isfinite(self.c_offer) or self.c_offer < 0:
            raise ValueError(f"c_offer must be finite and >= 0, got {self.c_offer}")


class BestBid(NamedTuple):
    entry: CandidateEntry
    utility: float


class BookMetrics(NamedTuple):
    """Snapshot metrics of a book under a compensation rule.

    theta uses the best bid's *effective* utility (compensation included);
    delta_v uses the best bid's *intrinsic* value; slippage is the ask minus
    the effective utility.
    """

    theta: float
    delta_v: float
    slippage: float


@dataclass(frozen=True)
class PreferenceBook:
    """An agent's internal order book of candidates.

    Entry ids must be unique; entry order is meaningful (ties in best_bid
    break toward the earliest entry).
    """

    entries: tuple[CandidateEntry, ...]
    owner_id: str = "agent"

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        ids = [e.id for e in entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate entry ids in book {self.owner_id!r}")

    # -- side derivations ---------------------------------------------------

    def liquid_entries(self) -> tuple[CandidateEntry, ...]:
        return tuple(e for e in self.entries if e.status is LiquidityStatus.LIQUID)

    def v_uncond(self) -> Valuation:
        """Internal ask: max intrinsic value over *all* entries.

        Hypothetical and lock-up rows count: believing a tier exists is what
        anchors the ask.
        """
        if not self.entries:
            raise EmptyBook(f"book {self.owner_id!r} has no entries")
        return max(e.v_intrinsic for e in self.entries)

    def v_reach(self) -> Valuation:
        """Best bid: max intrinsic value over liquid entries only."""
        liquid = self.liquid_entries()
        if not liquid:
            raise NoLiquidity(f"book {self.owner_id!r} has no liquid entry")
        return max(e.v_intrinsic for e in liquid)

    def best_bid(self, rule: CompensationRule) -> BestBid:
        """Liquid entry maximizing effective utility; earliest entry wins ties."""
        liquid = self.liquid_entries()
        if not liquid:
            raise NoLiquidity(f"book {self.owner_id!r} has no liquid entry")
        best = max(liquid, key=lambda e: effective_utility(e.v_intrinsic, e.c_offer, rule))
        return BestBid(best, effective_utility(best.v_intrinsic, best.c_offer, rule))

    def metrics(self, rule: CompensationRule, ask: Valuation | None = None) -> BookMetrics:
        """theta / delta_v / slippage of the current snapshot.

        ``ask`` overrides the book-derived internal ask.  The ask is a belief
        anchor and does not reprice when a strong bid arrives, so scenarios
        where a live bid exceeds the anchor must pass the anchor explicitly
        (the book-derived maximum would swallow the bid).
        """
        v_ask = self.v_uncond() if ask is None else ask
        best = self.best_bid(rule)
        return BookMetrics(
            theta=market_to_book(best.utility, v_ask),
            delta_v=spread(v_ask, best.entry.v_intrinsic),
            slippage=slippage(v_ask, best.utility),
        )


# -- serialization ----------------------------------------------------------

BOOK_CSV_HEADER = ("id", "v_intrinsic", "c_offer", "status")


def csv_cell(value: object) -> str:
    """One CSV cell of a report: None is empty, a bool is true/false, and
    anything else is ``str`` (which equals ``repr`` for floats)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def book_to_csv(book: PreferenceBook) -> str:
    """One record per entry, header exactly id,v_intrinsic,c_offer,status."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BOOK_CSV_HEADER)
    for e in book.entries:
        writer.writerow([e.id, repr(e.v_intrinsic), repr(e.c_offer), e.status.value])
    return buf.getvalue()


def book_from_csv(text: str, owner_id: str = "agent") -> PreferenceBook:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames) != BOOK_CSV_HEADER:
        raise ValueError(f"expected header {','.join(BOOK_CSV_HEADER)}, got {reader.fieldnames}")
    entries = [entry_from_mapping(row) for row in reader]
    return PreferenceBook(entries=tuple(entries), owner_id=owner_id)


def book_to_json(book: PreferenceBook) -> str:
    rows = [
        {
            "id": e.id,
            "v_intrinsic": e.v_intrinsic,
            "c_offer": e.c_offer,
            "status": e.status.value,
        }
        for e in book.entries
    ]
    return json.dumps(rows, indent=2) + "\n"


def book_from_json(text: str, owner_id: str = "agent") -> PreferenceBook:
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("book JSON must be an array of entry objects")
    entries = [entry_from_mapping(row) for row in rows]
    return PreferenceBook(entries=tuple(entries), owner_id=owner_id)


def entry_from_mapping(row: dict) -> CandidateEntry:
    return CandidateEntry(
        id=str(row["id"]),
        v_intrinsic=float(row["v_intrinsic"]),
        c_offer=float(row["c_offer"]),
        status=LiquidityStatus(row["status"]),
    )
