import contextlib
import csv
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matchbook import (
    BestBid,
    BookMetrics,
    CandidateEntry,
    CompensationRule,
    LiquidityStatus,
    NoLiquidity,
    PopulationConfig,
    PreferenceBook,
    book_from_csv,
    book_from_json,
    book_to_csv,
    book_to_json,
    effective_utility,
    generate,
    market_to_book,
    slippage,
    spread,
)
from matchbook.book import STATUSES, write_csv
from matchbook.cli import main
from conftest import make_book

LINEAR = CompensationRule(elasticity=0.02, cap=math.inf)
CLIPPED = CompensationRule(elasticity=0.05, cap=20.0)


class TestSides:
    def test_worked_book_ask(self, worked_book):
        assert worked_book.v_uncond() == 95

    def test_single_entry(self):
        assert make_book([("x", 42.0, 0.0, "l")]).v_uncond() == 42

    def test_liquid_entries_count_toward_ask(self):
        assert make_book([("a", 70.0, 0.0, "l"), ("b", 60.0, 0.0, "l")]).v_uncond() == 70

    def test_empty_book(self):
        with pytest.raises(ValueError, match="book 'F' has no entries"):
            PreferenceBook(entries=(), owner_id="F").v_uncond()

    def test_worked_book_bid(self, worked_book):
        assert worked_book.v_reach() == 78

    def test_lockup_dominates_but_is_excluded(self, worked_book):
        # The 88-point entry is locked up; the bid side tops out at 78.
        assert worked_book.v_reach() == 78
        assert worked_book.v_uncond() > worked_book.v_reach()

    def test_all_hypothetical_is_a_drought(self):
        book = make_book([("a", 80.0, 0.0, "h"), ("b", 70.0, 0.0, "h")])
        with pytest.raises(NoLiquidity):
            book.v_reach()

    def test_ask_never_below_bid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(1, 8)
            rows = [
                (f"e{i}", float(rng.uniform(0, 100)), float(rng.uniform(0, 300)),
                 rng.choice(["h", "k", "l"]))
                for i in range(n)
            ]
            book = make_book(rows)
            try:
                assert book.v_uncond() >= book.v_reach()
            except NoLiquidity:
                pass


class TestBestBid:
    def test_worked_selection(self, worked_book):
        best = worked_book.best_bid(LINEAR)
        assert best.entry.id == "C"
        assert best.utility == 82

    def test_regional_pools_select_same_entry(self):
        for base in (200.0, 30.0):
            book = make_book([("A", 85.0, base + 10, "l"), ("B", 75.0, base + 50, "l")])
            assert book.best_bid(CLIPPED).entry.id == "A"

    def test_single_liquid_entry(self):
        book = make_book([("only", 55.0, 10.0, "l")])
        assert book.best_bid(CLIPPED).entry.id == "only"

    def test_ties_break_to_earliest(self):
        book = make_book([("first", 70.0, 0.0, "l"), ("second", 70.0, 0.0, "l")])
        assert book.best_bid(CLIPPED).entry.id == "first"

    def test_no_liquidity(self):
        with pytest.raises(NoLiquidity):
            make_book([("a", 80.0, 0.0, "h")]).best_bid(CLIPPED)

    @pytest.mark.parametrize(
        "value, offer, cap, utility",
        # At elasticity 10: 1e308 * 10 overflows to inf, and the cap clips it
        # or the sum stays inf; 1.7e308 + 1e307 * 10 overflows in the sum.
        [(60.0, 1e308, 50.0, 110.0), (1.7e308, 1e308, math.inf, math.inf),
         (1.7e308, 1e307, math.inf, math.inf)],
        ids=["clipped-product", "infinite-product", "overflowing-sum"],
    )
    def test_overflow_is_silent(self, value, offer, cap, utility):
        rule = CompensationRule(elasticity=10.0, cap=cap)
        book = make_book([("rich", value, offer, "l"), ("poor", 85.0, 1.0, "l")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy must not print an overflow warning
            best = book.best_bid(rule)
        assert best.entry.id == "rich"
        assert best.utility == utility == effective_utility(value, offer, rule)

    def test_removing_loser_keeps_selection(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            rows = [
                (f"e{i}", float(rng.uniform(0, 100)), float(rng.uniform(0, 300)), "l")
                for i in range(n)
            ]
            book = make_book(rows)
            winner = book.best_bid(CLIPPED).entry.id
            losers = [r for r in rows if r[0] != winner]
            if not losers:
                continue
            drop = losers[int(rng.integers(0, len(losers)))][0]
            smaller = make_book([r for r in rows if r[0] != drop])
            assert smaller.best_bid(CLIPPED).entry.id == winner

    def test_makes_one_liquid_length_scratch_array(self):
        book = generate(PopulationConfig(n_candidates=100_000, seed=3))
        book.best_bid(CLIPPED)  # any one-time setup (imports, caches) is not the query's
        tracemalloc.start()
        try:
            book.best_bid(CLIPPED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One float64 per liquid row; two such arrays would pass 16 bytes a row.
        assert peak < 1.5 * 8 * book._liquid.size


class TestUniformShiftInvariance:
    def test_additive_base_shift_never_reorders(self):
        # Cap never binds by construction: either unbounded, or a ceiling
        # above the largest shifted offer's utility.
        rng = np.random.default_rng(20240818)
        for trial in range(300):
            n = int(rng.integers(2, 9))
            values = rng.uniform(0, 100, size=n)
            offers = rng.uniform(0, 300, size=n)
            base = float(rng.uniform(0, 500))
            eps = float(rng.uniform(0.001, 0.3))
            if trial % 2:
                rule = CompensationRule(eps, math.inf)
            else:
                rule = CompensationRule(eps, (offers.max() + base) * eps + 1.0)
            rows = [(f"e{i}", float(values[i]), float(offers[i]), "l") for i in range(n)]
            shifted = [(f"e{i}", float(values[i]), float(offers[i] + base), "l") for i in range(n)]
            assert (
                make_book(rows).best_bid(rule).entry.id
                == make_book(shifted).best_bid(rule).entry.id
            )

    def test_rescaling_offers_with_inverse_elasticity(self):
        # Powers of two rescale losslessly in binary floats, so the
        # selection is bit-for-bit invariant.
        rng = np.random.default_rng(5)
        for k in (0.5, 2.0, 4.0):
            for _ in range(100):
                n = int(rng.integers(2, 7))
                rows = [
                    (f"e{i}", float(rng.uniform(0, 100)), float(rng.uniform(0, 300)), "l")
                    for i in range(n)
                ]
                eps = float(rng.uniform(0.01, 0.2))
                rule = CompensationRule(eps, math.inf)
                scaled_rule = CompensationRule(eps / k, math.inf)
                scaled = [(i, v, c * k, s) for i, v, c, s in rows]
                assert (
                    make_book(rows).best_bid(rule).entry.id
                    == make_book(scaled).best_bid(scaled_rule).entry.id
                )

    def test_rescaling_by_non_dyadic_factor(self):
        # A factor like 3 introduces rounding at the last bit; selection is
        # still invariant whenever utilities are separated by more than the
        # rounding noise, which random draws guarantee here.
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            rows = [
                (f"e{i}", float(rng.uniform(0, 100)), float(rng.uniform(0, 300)), "l")
                for i in range(n)
            ]
            rule = CompensationRule(0.09, math.inf)
            scaled_rule = CompensationRule(0.09 / 3.0, math.inf)
            utilities = sorted(v + c * rule.elasticity for _, v, c, _ in rows)
            if min(b - a for a, b in zip(utilities, utilities[1:])) < 1e-6:
                continue
            scaled = [(i, v, c * 3.0, s) for i, v, c, s in rows]
            assert (
                make_book(rows).best_bid(rule).entry.id
                == make_book(scaled).best_bid(scaled_rule).entry.id
            )


class TestMetrics:
    def test_worked_book_effective_metrics(self, worked_book):
        m = worked_book.metrics(LINEAR)
        assert m.theta == pytest.approx(82 / 95, abs=1e-12)
        assert m.delta_v == 17
        assert m.slippage == 13

    def test_deep_out_of_the_money_bid(self):
        book = make_book([("ideal", 95.0, 0.0, "h"), ("bid", 60.0, 500.0, "l")])
        m = book.metrics(CLIPPED)
        assert m.theta == pytest.approx(80 / 95, abs=1e-12)
        assert m.slippage == 15.0

    def test_zero_compensation_reduces_to_intrinsic_ratio(self):
        book = make_book([("ideal", 90.0, 0.0, "h"), ("bid", 70.0, 0.0, "l")])
        m = book.metrics(CLIPPED)
        assert m.theta == market_to_book(book.v_reach(), book.v_uncond())

    def test_slippage_is_exact(self, worked_book):
        m = worked_book.metrics(LINEAR)
        best = worked_book.best_bid(LINEAR)
        assert m.slippage == worked_book.v_uncond() - best.utility

    def test_explicit_ask_override(self):
        book = make_book([("ideal", 90.0, 0.0, "h"), ("bid", 94.0, 0.0, "l")])
        m = book.metrics(CLIPPED, ask=90.0)
        assert m.theta == pytest.approx(94 / 90, abs=1e-12)
        assert m.delta_v == -4.0

    def test_zero_ask_rejected(self):
        book = make_book([("z", 0.0, 0.0, "l")])
        with pytest.raises(ValueError, match=r"internal ask must be > 0, got 0\.0"):
            book.metrics(CLIPPED)

    @pytest.mark.parametrize("ask", [None, 90.0])
    def test_no_liquid_row_is_a_drought(self, ask):
        book = make_book([("ideal", 95.0, 0.0, "h"), ("taken", 88.0, 0.0, "k")])
        assert book.metrics(CLIPPED, ask=ask) is None
        with pytest.raises(NoLiquidity):
            book.best_bid(CLIPPED)

    @pytest.mark.parametrize("rule", [LINEAR, CLIPPED])
    def test_carries_the_bid_it_priced(self, worked_book, rule):
        m = worked_book.metrics(rule)
        assert m.bid == worked_book.best_bid(rule)
        assert m.delta_v == worked_book.v_uncond() - m.bid.entry.v_intrinsic
        assert m.slippage == worked_book.v_uncond() - m.bid.utility


#: Every way into a book: each builds a good row, then row ``x`` from a value, offer and status.
BOOK_PATHS = {
    "rows": lambda v, c, status: PreferenceBook(
        [CandidateEntry("a", 1.0, 0.0, LiquidityStatus.LIQUID), CandidateEntry("x", v, c, status)]),
    "columns": lambda v, c, status: PreferenceBook.from_columns(
        ["a", "x"], [1.0, v], [0.0, c], [STATUSES.index(LiquidityStatus.LIQUID), STATUSES.index(status)]),
    "csv": lambda v, c, status: book_from_csv(
        f"id,v_intrinsic,c_offer,status\na,1.0,0.0,liquid\nx,{v!r},{c!r},{status.value}\n"),
    "json": lambda v, c, status: book_from_json(json.dumps(
        [{"id": "a", "v_intrinsic": 1.0, "c_offer": 0.0, "status": "liquid"},
         {"id": "x", "v_intrinsic": v, "c_offer": c, "status": status}])),
}


class TestEntryValidation:
    @pytest.mark.parametrize("path", BOOK_PATHS)
    @pytest.mark.parametrize("column", ["v_intrinsic", "c_offer"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_rejects_a_bad_value_on_every_path(self, bad, column, path):
        values = {"v_intrinsic": 10.0, "c_offer": 5.0, column: bad}
        message = f"^{column} must be finite and >= 0, got {re.escape(str(bad))}$"
        with pytest.raises(ValueError, match=message):
            BOOK_PATHS[path](values["v_intrinsic"], values["c_offer"], LiquidityStatus.LOCKUP)

    @pytest.mark.parametrize("path", ["rows", "json"])
    @pytest.mark.parametrize("status", ["frozen", 2, ["liquid"]], ids=["frozen", "int", "list"])
    def test_rejects_a_bad_status(self, status, path):
        with pytest.raises(ValueError, match="^a status is one of hypothetical, lockup, liquid, got "):
            BOOK_PATHS[path](10.0, 5.0, status)

    def test_rejects_a_value_column_that_holds_no_numbers(self):
        # A string and a boolean cast to 1000.0 and 1.0 without this check.
        with pytest.raises(ValueError, match="^v_intrinsic must hold numbers"):
            PreferenceBook.from_columns(["x"], ["1e3"], [True], [2])
        with pytest.raises(ValueError, match="^v_intrinsic must hold numbers"):
            PreferenceBook([CandidateEntry("x", "1e3", True, "liquid")])
        with pytest.raises(ValueError, match="^c_offer must hold numbers"):
            PreferenceBook([CandidateEntry("x", 1e3, True, "liquid")])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            make_book([("a", 10.0, 0.0, "l"), ("a", 20.0, 0.0, "l")])


class TestSerialization:
    def test_csv_round_trip(self, worked_book):
        text = book_to_csv(worked_book)
        assert text.splitlines()[0] == "id,v_intrinsic,c_offer,status"
        again = book_from_csv(text, owner_id=worked_book.owner_id)
        assert again == worked_book

    def test_json_round_trip(self, worked_book):
        again = book_from_json(book_to_json(worked_book), owner_id=worked_book.owner_id)
        assert again == worked_book

    def test_status_tokens(self, worked_book):
        text = book_to_csv(worked_book)
        assert "hypothetical" in text and "lockup" in text and "liquid" in text

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            book_from_csv("id,value\nx,1\n")

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            book_from_csv("id,v_intrinsic,c_offer,status\nx,1,0,frozen\n")

    @pytest.mark.parametrize(
        "rows",
        ['"x,1,0,liquid\n', 'x,1,0,"liquid', 'x,1\n', 'x,1,0,liquid,extra\n', '"x"y,1,0,liquid\n',
         'x\ry,1,0,liquid\n'],
        ids=["unterminated-quote", "unterminated-last-cell", "short-row", "long-row",
             "text-after-quote", "unquoted-cr"],
    )
    def test_malformed_csv_rejected(self, rows):
        with pytest.raises(ValueError):
            book_from_csv("id,v_intrinsic,c_offer,status\n" + rows)

    @pytest.mark.parametrize(
        "text",
        ['[{"id": "x", "v_intrinsic": 1, "c_offer": 0}]', "[1]", '[{"id": "x", "v_intrinsic": null, '
         '"c_offer": 0, "status": "liquid"}]', '[{"id": "x", "v_intrinsic": 1' + "0" * 400 +
         ', "c_offer": 0, "status": "liquid"}]'],
        ids=["missing-key", "not-an-object", "null-value", "huge-integer"],
    )
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ValueError):
            book_from_json(text)


class TestColumns:
    def test_entries_is_a_row_view(self, worked_book):
        rows = worked_book.entries
        assert len(rows) == 5
        assert rows[2] == CandidateEntry("C", 78.0, 200.0, LiquidityStatus.LIQUID)
        assert rows[-1].id == "E" and [e.id for e in rows[1:3]] == ["B", "C"]
        assert [e.id for e in rows] == list(worked_book.ids)
        with pytest.raises(IndexError):
            rows[5]

    def test_from_columns_equals_the_row_built_book(self, worked_book):
        codes = [STATUSES.index(e.status) for e in worked_book.entries]
        again = PreferenceBook.from_columns(
            worked_book.ids, worked_book.v_intrinsic, worked_book.c_offer, codes, "F"
        )
        assert again == worked_book
        assert again != PreferenceBook.from_columns(
            worked_book.ids, worked_book.v_intrinsic, worked_book.c_offer, codes, "M"
        )

    @pytest.mark.parametrize(
        "v, c, codes",
        [
            ([1.0, math.nan], [0.0, 0.0], [2, 2]),
            ([1.0, 2.0], [0.0, -1.0], [2, 2]),
            ([1.0, 2.0], [0.0], [2, 2]),
            ([1.0, 2.0], [0.0, 0.0], [2, 3]),
        ],
        ids=["nan-value", "negative-offer", "short-column", "unknown-status"],
    )
    def test_from_columns_validates(self, v, c, codes):
        with pytest.raises(ValueError):
            PreferenceBook.from_columns(["a", "b"], v, c, codes)

    def test_empty_book_serializes_like_json_dumps(self):
        empty = PreferenceBook((), owner_id="F")
        assert book_to_json(empty) == json.dumps([], indent=2) + "\n"
        assert book_from_json(book_to_json(empty), owner_id="F") == empty
        assert book_from_csv(book_to_csv(empty), owner_id="F") == empty

    def test_copies_are_equal_books(self, worked_book):
        import copy
        import pickle

        assert copy.deepcopy(worked_book) == worked_book
        assert pickle.loads(pickle.dumps(worked_book)).best_bid(LINEAR) == worked_book.best_bid(LINEAR)

    def test_book_is_immutable(self, worked_book):
        with pytest.raises(AttributeError):
            worked_book.owner_id = "M"
        with pytest.raises(ValueError):
            worked_book.v_intrinsic[0] = 0.0
        assert worked_book.v_uncond() == 95

    def test_derived_columns_are_read_only_and_queries_keep_every_column(self):
        book = generate(PopulationConfig(n_candidates=500, seed=9))
        for derived in (book._liquid, book._v_liquid, book._c_liquid):
            with pytest.raises(ValueError, match="read-only"):
                derived[0] = 0
        names = ("v_intrinsic", "c_offer", "status_codes", "_liquid", "_v_liquid", "_c_liquid")
        before = {name: getattr(book, name).tobytes() for name in names}
        rng = np.random.default_rng(5)
        for elasticity, cap in zip(rng.choice([0.0, -0.0, 0.05, 1.0, 10.0], 50),
                                   rng.choice([0.0, -0.0, 1.0, 20.0, math.inf], 50)):
            book.metrics(CompensationRule(float(elasticity), float(cap)))
        assert {name: getattr(book, name).tobytes() for name in names} == before


# -- properties against a row-by-row reference ------------------------------------

#: A small pool forces ties (signed zeros included); any finite value may follow.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 20.0, 60.0, 95.0]),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)
RULES = st.builds(
    CompensationRule,
    elasticity=st.one_of(st.sampled_from([0.0, -0.0, 0.05, 1.0]),
                         st.floats(min_value=0, max_value=1e6)),
    cap=st.one_of(st.sampled_from([0.0, -0.0, 20.0, math.inf]), st.floats(min_value=0)),
)


@st.composite
def row_lists(draw):
    n = draw(st.integers(1, 50))
    ids = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True))
    return [
        CandidateEntry(i, draw(VALUES), draw(VALUES), draw(st.sampled_from(list(LiquidityStatus))))
        for i in ids
    ]


def outcome(fn):
    """A call's value, or the type of the error it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def bits(value):
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value.hex() if isinstance(value, float) else value


def reference_best(rows, rule):
    liquid = [e for e in rows if e.status is LiquidityStatus.LIQUID]
    if not liquid:
        raise NoLiquidity("no liquid row")
    best = max(liquid, key=lambda e: effective_utility(e.v_intrinsic, e.c_offer, rule))
    return best, effective_utility(best.v_intrinsic, best.c_offer, rule)


def reference_metrics(rows, rule):
    v_ask = max(e.v_intrinsic for e in rows)
    if not any(e.status is LiquidityStatus.LIQUID for e in rows):
        return None
    best, utility = reference_best(rows, rule)
    return BookMetrics(market_to_book(utility, v_ask), spread(v_ask, best.v_intrinsic),
                       slippage(v_ask, utility), BestBid(best, utility))


def csv_text(lines):
    """CSV written cell by cell: LF-ended lines, and a cell holding a comma, a
    quote, LF or CR quoted with its quotes doubled."""

    def cell(text):
        return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\n\r') else text

    return "".join(",".join(map(cell, line)) + "\n" for line in lines)


def reference_csv(rows):
    return csv_text([("id", "v_intrinsic", "c_offer", "status"),
                     *([e.id, repr(e.v_intrinsic), repr(e.c_offer), e.status.value] for e in rows)])


def reference_json(rows):
    return json.dumps([{"id": e.id, "v_intrinsic": e.v_intrinsic, "c_offer": e.c_offer,
                        "status": e.status.value} for e in rows], indent=2) + "\n"


class TestAgainstRowReference:
    @given(rows=row_lists(), rule=RULES)
    # min(-0.0, 0.0) is -0.0, and -0.0 + -0.0 keeps the sign: a signed-zero tie.
    @example(rows=[CandidateEntry("z", -0.0, -0.0, LiquidityStatus.LIQUID)],
             rule=CompensationRule(1.0, 0.0))
    @example(rows=[CandidateEntry("z", -0.0, 0.0, LiquidityStatus.LIQUID)],
             rule=CompensationRule(1.0, -0.0))
    @settings(max_examples=250, deadline=None)
    def test_queries_match_row_by_row(self, rows, rule):
        book = PreferenceBook(rows, owner_id="F")
        best = outcome(lambda: book.best_bid(rule))
        expected = outcome(lambda: reference_best(rows, rule))
        if isinstance(expected, type):
            assert best is expected
        else:
            assert best.entry == expected[0]
            assert bits(best.utility) == bits(expected[1])
        assert bits(outcome(book.v_uncond)) == bits(max(e.v_intrinsic for e in rows))
        liquid = [e.v_intrinsic for e in rows if e.status is LiquidityStatus.LIQUID]
        assert bits(outcome(book.v_reach)) == (bits(max(liquid)) if liquid else NoLiquidity)
        assert bits(outcome(lambda: book.metrics(rule))) == bits(
            outcome(lambda: reference_metrics(rows, rule)))

    @given(rows=row_lists())
    @settings(max_examples=100, deadline=None)
    def test_round_trips_keep_book_and_bytes(self, rows):
        book = PreferenceBook(rows, owner_id="F")
        for write, read, reference in ((book_to_csv, book_from_csv, reference_csv),
                                       (book_to_json, book_from_json, reference_json)):
            text = write(book)
            assert text == reference(rows)
            again = read(text, owner_id="F")
            assert again == book
            assert write(again) == text

    @pytest.mark.parametrize("special", ["a,b", 'q"t', "x\ny", "\r", "x\r\ny", "", '""', "é", " "],
                             ids=repr)
    def test_ids_that_need_quoting_or_escaping(self, special):
        rows = [CandidateEntry(special, 70.5, 0.25, LiquidityStatus.LIQUID),
                CandidateEntry("plain", 1e-7, 3e20, LiquidityStatus.LOCKUP)]
        book = PreferenceBook(rows, owner_id="F")
        for write, read, reference in ((book_to_csv, book_from_csv, reference_csv),
                                       (book_to_json, book_from_json, reference_json)):
            text = write(book)
            assert text == reference(rows)
            assert read(text, owner_id="F") == book

    def test_empty_book(self):
        book = PreferenceBook([], owner_id="F")
        assert book_to_csv(book) == reference_csv([]) == "id,v_intrinsic,c_offer,status\n"
        assert book_to_json(book) == reference_json([]) == "[]\n"
        assert book_from_csv(book_to_csv(book), owner_id="F") == book
        assert book_from_json(book_to_json(book), owner_id="F") == book


def stdlib_csv(header, columns):
    """The table as csv.writer writes it, each line's CR LF cut back to LF."""
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return "".join(line[:-2] + "\n" for line in lines)


@st.composite
def tables(draw):
    width, n = draw(st.integers(2, 6)), draw(st.integers(0, 8))
    header = draw(st.lists(st.text(), min_size=width, max_size=width))
    return header, [draw(st.lists(st.text(), min_size=n, max_size=n)) for _ in range(width)]


class TestWriteCsv:
    @given(table=tables())
    @example(table=(["a", "b"], [[",", '"', "\r", "\n", "\r\n"], ["", "é", " ", '""', "x,\"y\""]]))
    @example(table=([",", '"'], [[], []]))
    @example(table=(["\r\n", ""], [["\r"], ["\n"]]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_stdlib_writer(self, table):
        header, columns = table
        assert write_csv(header, columns) == stdlib_csv(header, columns)

    @pytest.mark.parametrize("columns", [[["1"]], [["1"], ["2"], ["3"]], [["1", "2"], ["3"]]],
                             ids=["too-few", "too-many", "ragged"])
    def test_columns_must_fit_the_header(self, columns):
        with pytest.raises(ValueError):
            write_csv(["a", "b"], columns)


BAD_NUMBERS = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-1", "-1e-300", "-5.5"])


@st.composite
def rows_with_one_bad_number(draw):
    """Book rows as (id, v_intrinsic, c_offer, status) text, one number bad."""
    rows = [[e.id, repr(e.v_intrinsic), repr(e.c_offer), e.status.value] for e in draw(row_lists())]
    draw(st.sampled_from(rows))[draw(st.sampled_from([1, 2]))] = draw(BAD_NUMBERS)
    return rows


def rows_to_json(rows, as_text):
    return json.dumps([
        {"id": i, "v_intrinsic": v if as_text else float(v), "c_offer": c if as_text else float(c),
         "status": status}
        for i, v, c, status in rows
    ])


class TestInvalidNumbersRejected:
    @given(rows=rows_with_one_bad_number())
    @settings(max_examples=100, deadline=None)
    def test_csv_and_json_books(self, rows):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            book_from_csv(csv_text([("id", "v_intrinsic", "c_offer", "status"), *rows]))
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            book_from_json(rows_to_json(rows, as_text=False))
        # A JSON string is no number, whatever it spells.
        with pytest.raises(ValueError, match="not booleans or strings"):
            book_from_json(rows_to_json(rows, as_text=True))

    @given(rows=rows_with_one_bad_number())
    @settings(max_examples=30, deadline=None)
    def test_config_book_exits_2(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(f'{{"book": {rows_to_json(rows, False)}}}', encoding="utf-8")
            with redirect_output():
                assert main(["appendix-a", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("field", ["v_intrinsic", "c_offer"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_json_boolean_is_no_number(self, field, flag, tmp_path):
        # float(True) is 1.0, so a boolean would otherwise read as a number.
        rows = [{"id": "H", "v_intrinsic": 95.0, "c_offer": 0.0, "status": "hypothetical"},
                {"id": "B", "v_intrinsic": 88.0, "c_offer": 10.0, "status": "liquid", field: flag}]
        with pytest.raises(ValueError, match="not booleans"):
            book_from_json(json.dumps(rows))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"book": rows}), encoding="utf-8")
        with redirect_output():
            assert main(["appendix-a", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("field", ["v_intrinsic", "c_offer"])
    @pytest.mark.parametrize("text", ["90", "7_0", " 1e3 ", "nan"])
    def test_json_string_is_no_number(self, field, text, tmp_path):
        # float("7_0") is 70.0 and float(" 1e3 ") is 1000.0.
        rows = [{"id": "H", "v_intrinsic": 95.0, "c_offer": 0.0, "status": "hypothetical"},
                {"id": "A", "v_intrinsic": 7.0, "c_offer": 0.0, "status": "liquid", field: text}]
        with pytest.raises(ValueError, match="not booleans or strings"):
            book_from_json(json.dumps(rows))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"book": rows}), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["appendix-a", "--config", str(cfg)]) == 2
        assert "not booleans or strings" in err.getvalue()


class TestRowCap:
    ROWS = [(f"r{i}", f"{10 + i}.0", "1.0", "liquid") for i in range(4)]
    HEADER = ("id", "v_intrinsic", "c_offer", "status")

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr("matchbook.book.MAX_ROWS", 3)

    def test_loaded_books(self):
        assert len(book_from_csv(csv_text([self.HEADER, *self.ROWS[:3]])).ids) == 3
        assert len(book_from_json(rows_to_json(self.ROWS[:3], False)).ids) == 3
        with pytest.raises(ValueError, match="at most 3 rows"):
            book_from_csv(csv_text([self.HEADER, *self.ROWS]))
        with pytest.raises(ValueError, match="at most 3 rows"):
            book_from_json(rows_to_json(self.ROWS, False))

    def test_config_book_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"book": {rows_to_json(self.ROWS, False)}}}', encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["appendix-a", "--config", str(cfg)]) == 2
        assert "at most 3 rows" in err.getvalue()


def redirect_output():
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack
