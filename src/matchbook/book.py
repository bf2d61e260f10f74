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
import numbers
import re
from json.encoder import encode_basestring_ascii
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import NoLiquidity, quoted
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


class CandidateEntry(NamedTuple):
    """One row of the book; the book that holds it checks its values."""

    id: str
    v_intrinsic: Valuation
    c_offer: Money
    status: LiquidityStatus


class BestBid(NamedTuple):
    entry: CandidateEntry
    utility: float


class BookMetrics(NamedTuple):
    """Snapshot metrics of a book under a compensation rule, priced from the
    best bid ``bid``.

    theta uses the bid's *effective* utility (compensation included);
    delta_v uses the bid's *intrinsic* value; slippage is the ask minus
    the effective utility.
    """

    theta: float
    delta_v: float
    slippage: float
    bid: BestBid


def snapshot(best: BestBid, ask: Valuation) -> BookMetrics:
    """The metrics of the best bid ``best`` priced against the internal ask ``ask``."""
    return BookMetrics(
        theta=market_to_book(best.utility, ask),
        delta_v=spread(ask, best.entry.v_intrinsic),
        slippage=slippage(ask, best.utility),
        bid=best,
    )


#: A row's two values, in the order a book checks them: every row's value,
#: then every row's offer.
VALUE_COLUMNS = ("v_intrinsic", "c_offer")


def bad_value(column: str, value: float) -> ValueError:
    """The refusal of a value of ``column`` that is negative, infinite or NaN."""
    return ValueError(f"{column} must be finite and >= 0, got {value}")


#: The most rows a book holds, however it is built (generated, loaded or
#: configured); a larger book is a ValueError, and a larger population an
#: InvalidConfig before any array is allocated.
MAX_ROWS = 1_000_000

#: Status codes: the column value ``k`` stands for ``STATUSES[k]``.
STATUSES: tuple[LiquidityStatus, ...] = tuple(LiquidityStatus)
_STATUS_CODE = {status: code for code, status in enumerate(STATUSES)}
_STATUS_VALUES = tuple(status.value for status in STATUSES)
_LIQUID = _STATUS_CODE[LiquidityStatus.LIQUID]


def _status_codes(tokens: Iterable[object]) -> np.ndarray:
    """Codes of LiquidityStatus members or their values (a member hashes and
    compares as its value); ValueError on the first token that is neither."""
    try:
        return np.array([_STATUS_CODE[t] for t in tokens], dtype=np.int8)
    except (KeyError, TypeError) as exc:
        got = quoted(exc.args[0]) if isinstance(exc, KeyError) else exc
        raise ValueError(f"a status is one of {', '.join(_STATUS_VALUES)}, got {got}") from exc


def _id(i: int, n: int) -> str:
    """The name of row i of a numbered book of n rows: ``c`` and i,
    zero-padded to the digit count of n - 1."""
    return "c" + str(i).zfill(len(str(n - 1)))


def _ids(n: int) -> list[str]:
    """``[_id(i, n) for i in range(n)]``: one ASCII buffer holds every row
    as ``c``, the digits and a space, and is decoded and split once instead
    of formatted row by row."""
    width = len(str(n - 1))
    rows = np.empty((n, width + 2), dtype=np.uint8)
    rows[:, 0] = ord("c")
    rows[:, -1] = ord(" ")
    rest = np.arange(n, dtype=np.uint32)  # n <= MAX_ROWS
    for k in range(width, 0, -1):
        rest, digit = np.divmod(rest, 10)
        np.add(digit, ord("0"), out=rows[:, k], casting="unsafe")
    return rows.tobytes().decode("ascii").split()


class _Rows(Sequence):
    """A book's rows as CandidateEntry values, built on access."""

    __slots__ = ("_book",)

    def __init__(self, book: PreferenceBook) -> None:
        self._book = book

    def __len__(self) -> int:
        return self._book.v_intrinsic.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return self._book._row(i)

    def __iter__(self) -> Iterator[CandidateEntry]:
        book = self._book
        return map(CandidateEntry, book.ids, book.v_intrinsic.tolist(), book.c_offer.tolist(),
                   map(STATUSES.__getitem__, book.status_codes.tolist()))


class PreferenceBook:
    """An agent's internal order book of candidates, stored as columns.

    ``ids``, ``v_intrinsic``, ``c_offer`` and ``status_codes`` (indices into
    STATUSES) hold one value per row; the arrays are read-only and the book
    is immutable, so the ask and the intrinsic best bid are computed once,
    here.  Entry ids must be unique; entry order is meaningful (ties in
    best_bid break toward the earliest entry).  A generated book is
    numbered: its ids are ``_ids(n)``, built on the first read of ``ids``.
    """

    __slots__ = ("owner_id", "_names", "v_intrinsic", "c_offer", "status_codes",
                 "_liquid", "_v_liquid", "_c_liquid", "_v_uncond", "_v_reach")

    def __init__(self, entries: Iterable[CandidateEntry], owner_id: str = "agent") -> None:
        ids, v, c, statuses = tuple(zip(*entries)) or ((),) * 4
        self._set_columns(ids, (v, c), _status_codes(statuses), owner_id)

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

    @classmethod
    def _numbered(cls, v_intrinsic: np.ndarray, c_offer: np.ndarray, liquid: np.ndarray,
                  owner_id: str) -> PreferenceBook:
        """A book whose row i is named ``_id(i, n)``, liquid where the mask ``liquid`` is
        true and hypothetical elsewhere.  The names are unique by construction, so
        unchecked, and built on the first read of ``ids``."""
        codes = np.where(liquid, np.int8(_LIQUID), np.int8(_STATUS_CODE[LiquidityStatus.HYPOTHETICAL]))
        book = cls.__new__(cls)
        book._set_columns(len(v_intrinsic), (v_intrinsic, c_offer), codes, owner_id)
        return book

    def _set_columns(self, ids, values, codes: np.ndarray, owner_id: str) -> None:
        """``ids`` are the row names, or the row count of a numbered book;
        ``values`` is the pair (v_intrinsic, c_offer); ``codes`` are valid.

        A value column must be one numpy holds as integers or floats:
        strings, booleans and objects (an int past 64 bits, say) are a
        ValueError, not a cast.  numpy promotes a boolean mixed into a float
        column to a float, so that one passes; CSV and JSON input reject
        booleans before they get here.
        """
        names = None if isinstance(ids, int) else tuple(ids)
        n = ids if names is None else len(names)
        if n > MAX_ROWS:
            raise ValueError(f"a book holds at most {MAX_ROWS} rows, got {n}")
        columns = [np.asarray(column) for column in values]
        for name, column in zip(VALUE_COLUMNS, columns):
            if column.dtype.kind not in "iuf":
                raise ValueError(f"{name} must hold numbers, got an array of {column.dtype}")
        shapes = [column.shape for column in columns]
        if shapes != [(n,), (n,)]:  # before np.array, which refuses a ragged pair in its own words
            raise ValueError(f"v_intrinsic and c_offer need one value per id, got shapes "
                             f"{shapes[0]} and {shapes[1]} for {n} ids")
        vc = np.array(columns, dtype=np.float64)
        ok = (vc >= 0) & (vc < math.inf)
        if not ok.all():
            column, row = divmod(int((~ok).argmax()), n)
            raise bad_value(VALUE_COLUMNS[column], float(vc[column, row]))
        vc.flags.writeable = False
        codes.flags.writeable = False
        if names is not None and len(set(names)) != n:
            raise ValueError(f"duplicate entry ids in book {quoted(owner_id)}")
        v, c = vc
        liquid = np.flatnonzero(codes == _LIQUID)
        v_liquid, c_liquid = v[liquid], c[liquid]
        # Fancy indexing copies, and a copy is writable: a stray out= into
        # one of these would change every later query without an error.
        for derived in (liquid, v_liquid, c_liquid):
            derived.flags.writeable = False
        state = {
            "owner_id": owner_id, "_names": names, "v_intrinsic": v, "c_offer": c,
            "status_codes": codes, "_liquid": liquid, "_v_liquid": v_liquid,
            "_c_liquid": c_liquid,
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
        return (f"PreferenceBook(owner_id={self.owner_id!r}, rows={self.v_intrinsic.size}, "
                f"liquid={self._liquid.size})")

    # -- rows ---------------------------------------------------------------

    @property
    def ids(self) -> tuple[str, ...]:
        """The row names, one per row; a numbered book builds them on first read."""
        if self._names is None:
            object.__setattr__(self, "_names", tuple(_ids(self.v_intrinsic.size)))
        return self._names

    @property
    def entries(self) -> Sequence[CandidateEntry]:
        """The rows as CandidateEntry values; ``len`` builds none of them."""
        return _Rows(self)

    def _row(self, i: int) -> CandidateEntry:
        # The columns raise IndexError past either end; a numbered book names
        # only the row asked for, counting a negative i from the end.
        n, names = self.v_intrinsic.size, self._names
        v, c, code = float(self.v_intrinsic[i]), float(self.c_offer[i]), self.status_codes[i]
        return CandidateEntry(_id(i % n, n) if names is None else names[i], v, c, STATUSES[code])

    # -- side derivations ---------------------------------------------------

    def v_uncond(self) -> Valuation:
        """Internal ask: max intrinsic value over *all* entries.

        Hypothetical and lock-up rows count: believing a tier exists is what
        anchors the ask.
        """
        if self._v_uncond is None:
            raise ValueError(f"book {quoted(self.owner_id)} has no entries")
        return self._v_uncond

    def v_reach(self) -> Valuation:
        """Best bid: max intrinsic value over liquid entries only."""
        if self._v_reach is None:
            raise NoLiquidity(f"book {quoted(self.owner_id)} has no liquid entry")
        return self._v_reach

    def _utilities(self, rule: CompensationRule) -> np.ndarray:
        """The liquid rows' effective utilities, effective_utility's bit for bit:
        the same IEEE product, minimum and sum, and np.minimum returns its second
        operand on a tie where min() returns its first, so even signed zeros agree.
        A product or sum past the float range is inf, silently, as in
        effective_utility.  One new array as long as the liquid columns."""
        with np.errstate(over="ignore"):
            utility = np.multiply(self._c_liquid, rule.elasticity)
            np.minimum(rule.cap, utility, out=utility)  # cap first: see the tie rule above
            return np.add(self._v_liquid, utility, out=utility)

    def effective_bids(self, rule: CompensationRule) -> dict[str, float]:
        """Each liquid row's id and effective utility, in row order."""
        return dict(zip(map(self.ids.__getitem__, self._liquid.tolist()), self._utilities(rule).tolist()))

    def best_bid(self, rule: CompensationRule) -> BestBid:
        """Liquid entry maximizing effective utility; earliest entry wins ties,
        since argmax returns the first maximum."""
        if self._v_reach is None:
            raise NoLiquidity(f"book {quoted(self.owner_id)} has no liquid entry")
        utility = self._utilities(rule)
        k = int(utility.argmax())
        return BestBid(self._row(self._liquid[k]), float(utility[k]))

    def metrics(self, rule: CompensationRule, ask: Valuation | None = None) -> BookMetrics | None:
        """theta / delta_v / slippage of the current snapshot and the best bid
        they are priced from; None when no row is liquid (a drought).

        ``ask`` overrides the book-derived internal ask.  The ask is a belief
        anchor and does not reprice when a strong bid arrives, so a library
        caller or test whose live bid exceeds the anchor passes the anchor
        (the book-derived maximum would swallow the bid); scenarios price
        their bids against it through ``price_bids``.
        """
        v_ask = self.v_uncond() if ask is None else ask
        if self._v_reach is None:
            return None
        return snapshot(self.best_bid(rule), v_ask)


def check_bids(ask: Valuation, *bids: tuple[str, float, float]) -> tuple[CandidateEntry, ...]:
    """One liquid entry per ``(id, v, c)`` bid, once the internal ask ``ask`` is
    checked, then every bid's value and every bid's offer, as a book checks them."""
    # The one ask check, since no row holds the ask.  market_to_book refuses
    # 0, negatives and NaN, but prices an infinite ask at theta = 0.
    market_to_book(0.0, ask)
    if ask == math.inf:
        raise ValueError(f"internal ask must be finite, got {ask}")
    for column, name in enumerate(VALUE_COLUMNS, start=1):
        for bid in bids:
            if not 0 <= bid[column] < math.inf:
                raise bad_value(name, bid[column])
    return tuple(CandidateEntry(i, v, c, LiquidityStatus.LIQUID) for i, v, c in bids)


def price_bids(bids: tuple[CandidateEntry, ...], rule: CompensationRule, ask: Valuation) -> BookMetrics:
    """``PreferenceBook(bids).metrics(rule, ask=ask)`` with no book: each bid's
    effective utility, and the metrics of the first maximum against ``ask``."""
    priced = (BestBid(e, effective_utility(e.v_intrinsic, e.c_offer, rule)) for e in bids)
    return snapshot(max(priced, key=itemgetter(1)), ask)


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
    if not book.v_intrinsic.size:
        return "[]\n"
    tails = map(_JSON_STATUS_TAILS.__getitem__, book.status_codes.tolist())
    rows = map("".join, zip(map(encode_basestring_ascii, book.ids), repeat(',\n    "v_intrinsic": '),
                            map(repr, book.v_intrinsic.tolist()), repeat(',\n    "c_offer": '),
                            map(repr, book.c_offer.tolist()), tails))
    return "[\n" + _JSON_ROW_HEAD + (",\n" + _JSON_ROW_HEAD).join(rows) + "\n]\n"


def book_from_json(text: str, owner_id: str = "agent") -> PreferenceBook:
    try:
        rows = json.loads(text)
    except RecursionError as exc:  # json.loads raises it, no ValueError, past its nesting depth
        raise ValueError(f"book JSON is nested too deeply: {exc}") from exc
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
