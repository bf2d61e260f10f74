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
from json.encoder import encode_basestring_ascii
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import EmptyBook, NoLiquidity
from .valuation import (
    CompensationRule,
    Money,
    Valuation,
    effective_utility,  # noqa: F401 - the benchmark counts calls through this name
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


#: Status codes: the column value ``k`` stands for ``STATUSES[k]``.
STATUSES: tuple[LiquidityStatus, ...] = tuple(LiquidityStatus)
_STATUS_CODE = {status: code for code, status in enumerate(STATUSES)}
_STATUS_VALUES = tuple(status.value for status in STATUSES)
_LIQUID = _STATUS_CODE[LiquidityStatus.LIQUID]


def _status_codes(tokens: Iterable[object]) -> np.ndarray:
    """Codes of LiquidityStatus members or their values; ValueError names
    the first token that is neither."""
    tokens = list(tokens)
    try:
        codes = [_STATUS_CODE[t] for t in tokens]
    except (KeyError, TypeError):
        codes = [_STATUS_CODE[LiquidityStatus(t)] for t in tokens]
    return np.array(codes, dtype=np.int8)


class _Rows(Sequence):
    """A book's rows as CandidateEntry values, built on access."""

    __slots__ = ("_book",)

    def __init__(self, book: PreferenceBook) -> None:
        self._book = book

    def __len__(self) -> int:
        return len(self._book.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return self._book._row(i)

    def __iter__(self) -> Iterator[CandidateEntry]:
        book = self._book
        return map(CandidateEntry, book.ids, book.v_intrinsic.tolist(),
                   book.c_offer.tolist(), book.statuses())


class PreferenceBook:
    """An agent's internal order book of candidates, stored as columns.

    ``ids``, ``v_intrinsic``, ``c_offer`` and ``status_codes`` (indices into
    STATUSES) hold one value per row; the arrays are read-only and the book
    is immutable, so the ask and the intrinsic best bid are computed once,
    here.  Entry ids must be unique; entry order is meaningful (ties in
    best_bid break toward the earliest entry).
    """

    __slots__ = ("owner_id", "ids", "v_intrinsic", "c_offer", "status_codes",
                 "_liquid", "_v_liquid", "_c_liquid", "_v_uncond", "_v_reach")

    def __init__(self, entries: Iterable[CandidateEntry], owner_id: str = "agent") -> None:
        entries = tuple(entries)
        self._set_columns(
            [e.id for e in entries],
            ([e.v_intrinsic for e in entries], [e.c_offer for e in entries]),
            _status_codes(e.status for e in entries),
            owner_id,
        )

    @classmethod
    def from_columns(
        cls,
        ids: Iterable[str],
        v_intrinsic: Iterable[float],
        c_offer: Iterable[float],
        status_codes: Iterable[int],
        owner_id: str = "agent",
    ) -> PreferenceBook:
        """A book from one value per row in each column (copied)."""
        ids = tuple(ids)
        codes = np.asarray(status_codes)
        if codes.shape != (len(ids),) or not ((codes >= 0) & (codes < len(STATUSES))).all():
            raise ValueError(f"status codes must be one index into STATUSES per id, got {codes}")
        book = cls.__new__(cls)
        book._set_columns(ids, (v_intrinsic, c_offer), codes.astype(np.int8), owner_id)
        return book

    def _set_columns(self, ids, values, codes: np.ndarray, owner_id: str) -> None:
        """``values`` is the pair (v_intrinsic, c_offer); ``codes`` are valid."""
        ids = tuple(ids)
        n = len(ids)
        vc = np.array(values, dtype=np.float64)
        if vc.shape != (2, n):
            raise ValueError(f"v_intrinsic and c_offer need one value per id, got shape {vc.shape}")
        ok = (vc >= 0) & (vc < math.inf)
        if not ok.all():
            column, row = divmod(int((~ok).argmax()), n)
            raise ValueError(f"{('v_intrinsic', 'c_offer')[column]} must be finite and >= 0, "
                             f"got {float(vc[column, row])}")
        vc.flags.writeable = False
        codes.flags.writeable = False
        if len(set(ids)) != n:
            raise ValueError(f"duplicate entry ids in book {owner_id!r}")
        v, c = vc
        liquid = np.flatnonzero(codes == _LIQUID)
        v_liquid = v[liquid]
        state = {
            "owner_id": owner_id, "ids": ids, "v_intrinsic": v, "c_offer": c,
            "status_codes": codes, "_liquid": liquid, "_v_liquid": v_liquid,
            "_c_liquid": c[liquid],
            # Indexing at argmax keeps max()'s first maximum (and its sign of zero).
            "_v_uncond": float(v[v.argmax()]) if n else None,
            "_v_reach": float(v_liquid[v_liquid.argmax()]) if liquid.size else None,
        }
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PreferenceBook is immutable; cannot set {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the checked constructor
        return (PreferenceBook.from_columns,
                (self.ids, self.v_intrinsic, self.c_offer, self.status_codes, self.owner_id))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceBook):
            return NotImplemented
        return (
            self.owner_id == other.owner_id
            and self.ids == other.ids
            and np.array_equal(self.v_intrinsic, other.v_intrinsic)
            and np.array_equal(self.c_offer, other.c_offer)
            and np.array_equal(self.status_codes, other.status_codes)
        )

    def __hash__(self) -> int:
        return hash((self.owner_id, self.ids))

    def __repr__(self) -> str:
        return (f"PreferenceBook(owner_id={self.owner_id!r}, rows={len(self.ids)}, "
                f"liquid={self._liquid.size})")

    # -- rows ---------------------------------------------------------------

    @property
    def entries(self) -> Sequence[CandidateEntry]:
        """The rows as CandidateEntry values; ``len`` builds none of them."""
        return _Rows(self)

    def _row(self, i: int) -> CandidateEntry:
        return CandidateEntry(self.ids[i], float(self.v_intrinsic[i]), float(self.c_offer[i]),
                              STATUSES[self.status_codes[i]])

    def statuses(self) -> Iterator[LiquidityStatus]:
        return map(STATUSES.__getitem__, self.status_codes.tolist())

    def liquid_entries(self) -> tuple[CandidateEntry, ...]:
        return tuple(self._row(i) for i in self._liquid)

    # -- side derivations ---------------------------------------------------

    def v_uncond(self) -> Valuation:
        """Internal ask: max intrinsic value over *all* entries.

        Hypothetical and lock-up rows count: believing a tier exists is what
        anchors the ask.
        """
        if self._v_uncond is None:
            raise EmptyBook(f"book {self.owner_id!r} has no entries")
        return self._v_uncond

    def v_reach(self) -> Valuation:
        """Best bid: max intrinsic value over liquid entries only."""
        if self._v_reach is None:
            raise NoLiquidity(f"book {self.owner_id!r} has no liquid entry")
        return self._v_reach

    def best_bid(self, rule: CompensationRule) -> BestBid:
        """Liquid entry maximizing effective utility; earliest entry wins ties.

        The utilities are effective_utility's, bit for bit: the same IEEE
        product, minimum and sum, and np.minimum returns its second operand
        on a tie where min() returns its first, so even signed zeros agree.
        argmax returns the first maximum.
        """
        if self._v_reach is None:
            raise NoLiquidity(f"book {self.owner_id!r} has no liquid entry")
        utility = self._v_liquid + np.minimum(rule.cap, self._c_liquid * rule.elasticity)
        k = int(utility.argmax())
        return BestBid(self._row(self._liquid[k]), float(utility[k]))

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
    writer.writerows(zip(book.ids, map(repr, book.v_intrinsic.tolist()),
                         map(repr, book.c_offer.tolist()), _status_values(book)))
    return buf.getvalue()


def book_from_csv(text: str, owner_id: str = "agent") -> PreferenceBook:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != BOOK_CSV_HEADER:
        raise ValueError(f"expected header {','.join(BOOK_CSV_HEADER)}, got {header}")
    rows = [row for row in reader if row]  # blank lines are skipped
    if any(len(row) < len(BOOK_CSV_HEADER) for row in rows):
        raise ValueError(f"every book row needs the fields {','.join(BOOK_CSV_HEADER)}")
    return _book_from_fields(*([row[k] for row in rows] for k in range(4)), owner_id)


#: One entry object as ``json.dumps(rows, indent=2)`` lays it out.
_JSON_ROW = '  {{\n    "id": {},\n    "v_intrinsic": {!r},\n    "c_offer": {!r},\n    "status": "{}"\n  }}'


def book_to_json(book: PreferenceBook) -> str:
    """The bytes of ``json.dumps(rows, indent=2)`` for the row objects,
    formatted from the columns without building them."""
    if not book.ids:
        return "[]\n"
    rows = map(_JSON_ROW.format, map(encode_basestring_ascii, book.ids),
               book.v_intrinsic.tolist(), book.c_offer.tolist(), _status_values(book))
    return "[\n" + ",\n".join(rows) + "\n]\n"


def book_from_json(text: str, owner_id: str = "agent") -> PreferenceBook:
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("book JSON must be an array of entry objects")
    return book_from_mappings(rows, owner_id)


def book_from_mappings(rows: Iterable[dict], owner_id: str = "agent") -> PreferenceBook:
    """A book from entry objects with the keys of BOOK_CSV_HEADER."""
    rows = list(rows)
    return _book_from_fields(
        [str(row["id"]) for row in rows],
        [row["v_intrinsic"] for row in rows],
        [row["c_offer"] for row in rows],
        [row["status"] for row in rows],
        owner_id,
    )


def _book_from_fields(ids: list[str], v: list, c: list, statuses: list,
                      owner_id: str) -> PreferenceBook:
    # Python's float() parses each cell, so the accepted spellings are the
    # row-by-row ones; the book's own check rejects NaN, inf and negatives.
    n = len(ids)
    return PreferenceBook.from_columns(
        ids,
        np.fromiter(map(float, v), np.float64, n),
        np.fromiter(map(float, c), np.float64, n),
        _status_codes(statuses),
        owner_id,
    )


def _status_values(book: PreferenceBook) -> Iterator[str]:
    return map(_STATUS_VALUES.__getitem__, book.status_codes.tolist())


def entry_from_mapping(row: dict) -> CandidateEntry:
    return CandidateEntry(
        id=str(row["id"]),
        v_intrinsic=float(row["v_intrinsic"]),
        c_offer=float(row["c_offer"]),
        status=LiquidityStatus(row["status"]),
    )
