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

import contextlib
import csv
import io
import json
import math
import numbers
import re
from json.encoder import encode_basestring_ascii
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
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


#: The most rows a book holds, however it is built (generated, loaded or
#: configured); a larger book is a ValueError.
MAX_ROWS = 1_000_000

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
                 "_liquid", "_v_liquid", "_c_liquid", "_v_uncond", "_v_reach", "_c_top")

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
        if n > MAX_ROWS:
            raise ValueError(f"a book holds at most {MAX_ROWS} rows, got {n}")
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
        v_liquid, c_liquid = v[liquid], c[liquid]
        state = {
            "owner_id": owner_id, "ids": ids, "v_intrinsic": v, "c_offer": c,
            "status_codes": codes, "_liquid": liquid, "_v_liquid": v_liquid,
            "_c_liquid": c_liquid,
            # Indexing at argmax keeps max()'s first maximum (and its sign of zero).
            "_v_uncond": float(v[v.argmax()]) if n else None,
            "_v_reach": float(v_liquid[v_liquid.argmax()]) if liquid.size else None,
            "_c_top": float(c_liquid.max()) if liquid.size else None,
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
        argmax returns the first maximum.  A product or sum past the float
        range is inf, silently, as in effective_utility.
        """
        if self._v_reach is None:
            raise NoLiquidity(f"book {self.owner_id!r} has no liquid entry")
        # No product or sum overflows unless the top value plus the top offer's
        # product does, so only then is numpy's warning silenced: entering
        # np.errstate costs about a tenth of a 10^5-row query.
        overflows = math.isinf(self._v_reach + self._c_top * rule.elasticity)
        with np.errstate(over="ignore") if overflows else contextlib.nullcontext():
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


#: The characters that make csv quote a cell: a comma, a quote, LF and CR.
_QUOTED_CHARS = ',"\r\n'
_NEEDS_QUOTES = re.compile(f"[{_QUOTED_CHARS}]")


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def write_csv(header: Sequence[str], columns: Iterable[Iterable[str]]) -> str:
    """A CSV table of the cells as given, one column per header name and one
    line per row after the header, each ended by LF; a cell holding a comma,
    a quote, LF or CR is quoted, its quotes doubled, as csv.writer does.
    ValueError when the columns do not match the header or each other in length."""
    table = []
    for name, column in zip(header, columns, strict=True):
        column = [name, *column]
        # Most columns (numbers, statuses) quote nothing.  Four substring scans
        # of the joined column find that far faster than one regex search.
        joined = "".join(column)
        if any(char in joined for char in _QUOTED_CHARS):
            column = list(map(_quote, column))
        table.append(column)
    return "\n".join(map(",".join, zip(*table, strict=True))) + "\n"


def csv_columns(rows: Sequence, keys: Iterable) -> Iterator[list[str]]:
    """The cells ``csv_cell(row[key])`` of ``rows`` as one column per key."""
    return ([csv_cell(row[key]) for row in rows] for key in keys)


def read_csv(text: str, header: Sequence[str]) -> list[list[str]]:
    """The rows of a CSV table whose first line is ``header``, blank lines
    skipped; ValueError on another header, a row of another width, or text
    that is not well-formed CSV (an unterminated quote, say)."""
    try:
        reader = csv.reader(io.StringIO(text), strict=True)
        first = next(reader, None)
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from exc
    if first is None or tuple(first) != tuple(header):
        raise ValueError(f"expected header {','.join(header)}, got {first}")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"every row needs the {len(header)} fields {','.join(header)}")
    return rows


def book_to_csv(book: PreferenceBook) -> str:
    """One record per entry, header exactly id,v_intrinsic,c_offer,status."""
    return write_csv(BOOK_CSV_HEADER, (book.ids, map(repr, book.v_intrinsic.tolist()),
                                       map(repr, book.c_offer.tolist()), _status_values(book)))


def book_from_csv(text: str, owner_id: str = "agent") -> PreferenceBook:
    rows = read_csv(text, BOOK_CSV_HEADER)
    return _book_from_fields(*([row[k] for row in rows] for k in range(4)), owner_id)


#: ``json.dumps(rows, indent=2)`` lays out an entry object as this head, the
#: escaped id, each value after its key, and the tail of the entry's status.
_JSON_ROW_HEAD = '  {\n    "id": '
_JSON_STATUS_TAILS = tuple(f',\n    "status": "{value}"\n  }}' for value in _STATUS_VALUES)


def book_to_json(book: PreferenceBook) -> str:
    """The bytes of ``json.dumps(rows, indent=2)`` for the row objects,
    joined from the columns without building them."""
    if not book.ids:
        return "[]\n"
    tails = map(_JSON_STATUS_TAILS.__getitem__, book.status_codes.tolist())
    rows = map("".join, zip(map(encode_basestring_ascii, book.ids), repeat(',\n    "v_intrinsic": '),
                            map(repr, book.v_intrinsic.tolist()), repeat(',\n    "c_offer": '),
                            map(repr, book.c_offer.tolist()), tails))
    return "[\n" + _JSON_ROW_HEAD + (",\n" + _JSON_ROW_HEAD).join(rows) + "\n]\n"


def book_from_json(text: str, owner_id: str = "agent") -> PreferenceBook:
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("book JSON must be an array of entry objects")
    return book_from_mappings(rows, owner_id)


def book_from_mappings(rows: Iterable[dict], owner_id: str = "agent") -> PreferenceBook:
    """A book from entry objects with the keys of BOOK_CSV_HEADER; a missing
    key or a value of the wrong type raises ValueError."""
    rows = list(rows)
    try:
        v = [row["v_intrinsic"] for row in rows]
        c = [row["c_offer"] for row in rows]
        # float() would read True as 1.0 and "7_0" as 70.0: only real numbers pass.
        bad = sorted(t.__name__ for t in {*map(type, v), *map(type, c)}
                     if t is bool or not issubclass(t, numbers.Real))
        if bad:
            raise TypeError(f"book values are numbers, not booleans or strings: {', '.join(bad)}")
        return _book_from_fields([str(row["id"]) for row in rows], v, c,
                                 [row["status"] for row in rows], owner_id)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad book entry: {exc!r}") from exc


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
    return book_from_mappings([row]).entries[0]
