"""A reference model of exp1-exp5, appendix-a, the fixture-bid sweep and the
triple coincidence, written from the paper.

Each model restates the paper's equations for one scenario in plain Python,
in the paper's order of operations, and shares no code with the engine:

    U = v + min(c * e, cap)        a bid's effective utility under the clipped rule
    theta = U / V_uncond           against the configured internal ask
    delta_V = V_uncond - v         the internal preference differential
    slippage = V_uncond - U
    t* = the first step with theta >= T(t); execution is absorbing
    theta' = v / (V_uncond * f)    a shock reprices the ask by f, in decimal
    regret = theta' < T_commit     the committed threshold
    best bid = argmax U over the liquid bids; the earlier bid wins a tie
    V_uncond = max v over a book's rows, V_reach = max v over its liquid rows
    a match clears when theta_F >= T_F, theta_M >= T_M and c <= c_max, checked
    in that order; the first clause to fail names the outcome

Hypothesis draws in-domain overrides and sweep grids, and every summary
field a runner reports, and every field of every sweep row, must equal the
model's exactly.
"""

import contextlib
import functools
import io
import itertools
import json
import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from matchbook import CompensationRule, Counterparty, triple_coincidence
from matchbook.book import book_from_mappings
from matchbook.cli import main
from matchbook.experiments import RUNNERS, config_from_mapping, load_fixture, run_sweep

# -- the model ------------------------------------------------------------------


def effective_utility(v, c, e, cap):
    return v + min(c * e, cap)


def first_execution(theta, thresholds):
    """The decision and t* of an agent that meets ``thresholds``, (t, T(t))
    pairs in step order, with a fixed theta: it executes at the first t
    with theta >= T(t) and stops there."""
    decision, t_star, _ = commitment(theta, thresholds)
    return decision, t_star


def commitment(theta, thresholds):
    """first_execution plus the threshold committed at, None for a hold."""
    for t, T in thresholds:
        if theta >= T:
            return "execute", t, T
    return "hold", None, None


def priced_bid(v_uncond, bid, c, e, cap, thresholds):
    """The summary fields every scenario with one bid against the configured ask shares."""
    U = effective_utility(bid, c, e, cap)
    theta = U / v_uncond
    decision, t_star = first_execution(theta, thresholds)
    return U, {"decision": decision, "t_star": t_star, "theta": theta,
               "delta_v": v_uncond - bid, "slippage": v_uncond - U}


def table_thresholds(points):
    """T(t) of a table, the threshold of the last tabulated step at or
    before t, from its first tabulated step to its last."""
    return [(t, [T for step, T in points if step <= t][-1])
            for t in range(points[0][0], points[-1][0] + 1)]


def decay_thresholds(t0, rate, floor, horizon=50):
    """T(t) = max(floor, t0 * exp(-rate * t)) from step 0 to the horizon, by default 50."""
    return [(t, max(floor, t0 * math.exp(-rate * t))) for t in range(0, horizon + 1)]


def shocked_ask(ask, factor):
    """The ask repriced by a shock factor, in decimal."""
    return float(Decimal(repr(ask)) * Decimal(repr(factor)))


def model_exp1(k):
    U, summary = priced_bid(k["v_uncond"], k["bid"], k["c"], k["elasticity"], k["cap"], [(1, k["T"])])
    return {**summary, "best_utility": U, "theta_convention": "effective"}


def model_exp2(k, thresholds):
    # The settling bid carries no transfer.
    _, summary = priced_bid(k["v_uncond"], k["v_reach"], 0.0, 0.0, 0.0, thresholds)
    return {**summary, "theta_convention": "effective"}


def model_exp3(k):
    _, summary = priced_bid(k["v_uncond"], k["bid"], k["c"], k["elasticity"], k["cap"], [(1, k["T"])])
    return {**summary, "immediate_fill": summary["t_star"] == 1, "theta_convention": "effective"}


def model_exp5(k):
    ask, partner, T = k["ask"], k["partner"], k["commit_threshold"]
    _, commit = priced_bid(ask, partner, 0.0, 0.0, 0.0, [(1, T)])
    summary = {"commit_decision": commit["decision"], "t_star": commit["t_star"],
               "pre_theta": commit["theta"]}
    if commit["decision"] == "execute":
        new_ask = shocked_ask(ask, k["shock_factor"])
        post_theta = partner / new_ask
        summary.update(post_theta=post_theta, post_shock_ask=new_ask, regret=post_theta < T,
                       regret_gap_jump=(new_ask - partner) - commit["delta_v"])
    return {**summary, "theta_convention": "intrinsic (post-execution)"}


def model_exp4(k):
    """Two markets price the same two bids, each offering its market's base
    transfer plus its own effort; the ranking must not depend on the base."""
    markets = []
    for label, base in (("high_norm", k["base_high"]), ("low_norm", k["base_low"])):
        bids = [("A", k["v_a"], base + k["effort_a"]), ("B", k["v_b"], base + k["effort_b"])]
        utilities = [effective_utility(v, c, k["elasticity"], k["cap"]) for _, v, c in bids]
        best = 0 if utilities[0] >= utilities[1] else 1
        theta = utilities[best] / k["v_uncond"]
        decision, _ = first_execution(theta, [(1, k["T"])])
        markets.append({"market": label, "base": base, "selected_id": bids[best][0],
                        "selected_v": bids[best][1], "utility": utilities[best],
                        "theta": theta, "decision": decision})
    return {"markets": markets,
            "ranking_invariant": markets[0]["selected_id"] == markets[1]["selected_id"],
            "theta_convention": "effective"}


def model_sweep(k, grid):
    """One row per grid point, in grid order: the fixture bid priced at the
    configured ask under the point's rule, against a constant threshold
    (lambda = 0) or a decaying one, then shocked if it executed."""
    v_uncond, bid, c = k["v_uncond"], k["bid"], k["c"]
    rows = []
    for index, values in enumerate(itertools.product(*grid.values())):
        point = dict(zip(grid, values))
        setting = {**k, **point}
        U = effective_utility(bid, c, setting["eps"], setting["cap"])
        theta = U / v_uncond
        if setting["lambda"] == 0:
            thresholds = [(t, setting["T0"]) for t in range(1, k.get("horizon", 1) + 1)]
        else:
            thresholds = decay_thresholds(setting["T0"], setting["lambda"], k["floor"],
                                          k.get("horizon", 50))
        decision, t_star, committed = commitment(theta, thresholds)
        post_theta = regret = None
        if decision == "execute" and "shock_factor" in setting:
            post_theta = bid / shocked_ask(v_uncond, setting["shock_factor"])
            regret = post_theta < committed
        rows.append({"grid_index": index, **point, "decision": decision, "t_star": t_star,
                     "theta": theta, "delta_v": v_uncond - bid, "slippage": v_uncond - U,
                     "post_theta": post_theta, "regret": regret})
    return rows


def model_appendix_a(rows, k):
    """The worked-book replay on any book: the exit code, and the summary of
    a run that exits 0.  The ask is the book's own V_uncond, and theta is
    the intrinsic ratio V_reach / V_uncond, while the best bid is still
    chosen, and priced, by effective utility: a bid whose U is past the
    float range is refused (exit 2), and U / V_uncond is never formed."""
    v_uncond = max(row["v_intrinsic"] for row in rows)
    if not v_uncond > 0:
        return 2, None
    liquid = [row for row in rows if row["status"] == "liquid"]
    if not liquid:
        return 3, None
    utilities = {row["id"]: effective_utility(row["v_intrinsic"], row["c_offer"], k["elasticity"], k["cap"])
                 for row in liquid}
    best = liquid[0]
    for row in liquid[1:]:
        if utilities[row["id"]] > utilities[best["id"]]:
            best = row
    U = utilities[best["id"]]
    if not math.isfinite(U):
        return 2, None
    v_reach = max(row["v_intrinsic"] for row in liquid)
    theta = v_reach / v_uncond
    decision, t_star = first_execution(theta, [(1, k["T"])])
    return 0, {"decision": decision, "t_star": t_star, "theta": theta,
               "delta_v": v_uncond - best["v_intrinsic"], "slippage": v_uncond - U,
               "v_uncond": v_uncond, "v_reach": v_reach, "effective_bids": utilities,
               "best_id": best["id"], "best_utility": U, "theta_convention": "intrinsic"}


def book_theta(rows, e, cap):
    """A side's theta, its best effective utility over its own V_uncond; None
    in a drought, inf past the float range."""
    liquid = [row for row in rows if row["status"] == "liquid"]
    if not liquid:
        return None
    U = max(effective_utility(row["v_intrinsic"], row["c_offer"], e, cap) for row in liquid)
    return U / max(row["v_intrinsic"] for row in rows)


def model_triple_coincidence(f_rows, f_threshold, m_rows, m_threshold, c_required, c_max, e, cap):
    """The verdict, both thetas and both drought flags of a prospective match;
    None where a side's theta is past the float range, which refuses the pair."""
    f_theta, m_theta = book_theta(f_rows, e, cap), book_theta(m_rows, e, cap)
    if math.inf in (f_theta, m_theta):
        return None
    if f_theta is None or f_theta < f_threshold:
        result = "f_side_hold"
    elif m_theta is None or m_theta < m_threshold:
        result = "m_side_hold"
    elif c_required > c_max:
        result = "circuit_breaker"
    else:
        result = "matched"
    return {"result": result, "f_theta": f_theta, "m_theta": m_theta, "c_required": c_required,
            "c_max": c_max, "f_drought": f_theta is None, "m_drought": m_theta is None}


# -- the draws ------------------------------------------------------------------

#: Whole values make exact ties such as 72 / 90 == 0.8 likely; fractions reach the rest.
VALUES = st.one_of(st.integers(0, 150).map(float), st.floats(0, 150))
ASKS = st.one_of(st.integers(1, 100).map(float), st.floats(0.01, 100))
THRESHOLDS = st.one_of(st.sampled_from([0.5, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0]),
                       st.floats(0, 1, exclude_min=True))
ELASTICITIES = st.one_of(st.sampled_from([0.0, 0.02, 0.05]), st.floats(0, 1))
CAPS = st.one_of(st.sampled_from([0.0, 20.0, math.inf]), st.floats(0, 50))
RULES = st.fixed_dictionaries({
    "c": st.one_of(st.just(0.0), st.floats(0, 1000)), "elasticity": ELASTICITIES, "cap": CAPS,
})


@st.composite
def tables(draw):
    steps = sorted(draw(st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True)))
    values = sorted(draw(st.lists(THRESHOLDS, min_size=len(steps), max_size=len(steps))), reverse=True)
    return list(zip(steps, values))


#: The sweep's grid parameters over the fixture bid, each with its values' range.
SWEEP_GRIDS = {
    "T0": THRESHOLDS,
    "lambda": st.one_of(st.just(0.0), st.floats(0, 1)),
    "eps": ELASTICITIES,
    "cap": CAPS,
    "shock_factor": st.one_of(st.sampled_from([0.9, 1.1, 2.0]), st.floats(0.01, 10)),
}


@st.composite
def sweep_grids(draw):
    """A non-empty subset of SWEEP_GRIDS in a drawn order, one to three values each."""
    names = draw(st.permutations(list(SWEEP_GRIDS)))[:draw(st.integers(1, len(SWEEP_GRIDS)))]
    return {name: draw(st.lists(SWEEP_GRIDS[name], min_size=1, max_size=3)) for name in names}


#: Offers of the worked book and any other; equal offers make equal utilities likely.
OFFERS = st.one_of(st.sampled_from([0.0, 100.0, 200.0, 300.0]), st.floats(0, 1000))
MONEY = st.one_of(st.sampled_from([0.0, 10.0, 50.0, math.inf]), st.floats(0, 100))


@st.composite
def books(draw, min_size):
    """min_size to 6 rows with unique ids, each of any status; whole values
    and equal offers make ties in value and in utility likely."""
    ids = draw(st.permutations("ABCDEF"))[:draw(st.integers(min_size, 6))]
    return [{"id": i, "v_intrinsic": draw(VALUES), "c_offer": draw(OFFERS),
             "status": draw(st.sampled_from(["liquid", "lockup", "hypothetical"]))} for i in ids]


def run(experiment, overrides, **config):
    return RUNNERS[experiment](config_from_mapping(experiment, {"overrides": overrides, **config})).summary


class TestAgainstTheModel:
    @given(v_uncond=ASKS, bid=VALUES, T=THRESHOLDS, rule=RULES)
    @settings(max_examples=300, deadline=None)
    def test_exp1(self, v_uncond, bid, T, rule):
        k = {"v_uncond": v_uncond, "bid": bid, "T": T, **rule}
        assert run("exp1", k) == model_exp1(k)

    @given(v_uncond=ASKS, v_reach=VALUES, points=tables())
    @settings(max_examples=200, deadline=None)
    def test_exp2_table(self, v_uncond, v_reach, points):
        k = {"v_uncond": v_uncond, "v_reach": v_reach}
        schedule = {"mode": "table", "points": points}
        assert run("exp2", k, schedule=schedule) == model_exp2(k, table_thresholds(points))

    @given(v_uncond=ASKS, v_reach=VALUES, t0=THRESHOLDS, rate=st.floats(0, 1), floor=st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_exp2_decay(self, v_uncond, v_reach, t0, rate, floor):
        k = {"v_uncond": v_uncond, "v_reach": v_reach}
        schedule = {"mode": "decay", "t0": t0, "rate": rate, "floor": floor}
        assert run("exp2", k, schedule=schedule) == model_exp2(k, decay_thresholds(t0, rate, floor))

    @given(v_uncond=ASKS, bid=VALUES, T=THRESHOLDS, rule=RULES)
    @settings(max_examples=300, deadline=None)
    def test_exp3(self, v_uncond, bid, T, rule):
        k = {"v_uncond": v_uncond, "bid": bid, "T": T, **rule}
        assert run("exp3", k) == model_exp3(k)

    @given(
        partner=VALUES, ask=ASKS, commit_threshold=THRESHOLDS,
        shock_factor=st.one_of(st.sampled_from([0.9, 1.1, 1.25, 2.0]), st.floats(0.01, 10)),
    )
    @settings(max_examples=300, deadline=None)
    def test_exp5(self, partner, ask, commit_threshold, shock_factor):
        k = {"partner": partner, "ask": ask, "commit_threshold": commit_threshold,
             "shock_factor": shock_factor}
        assert run("exp5", k) == model_exp5(k)

    @given(
        v_uncond=ASKS, T=THRESHOLDS, v_a=VALUES, v_b=VALUES,
        effort_a=st.floats(0, 100), effort_b=st.floats(0, 100),
        base_high=st.floats(0, 300), base_low=st.floats(0, 300),
        elasticity=ELASTICITIES, cap=CAPS,
    )
    @settings(max_examples=150, deadline=None)
    def test_exp4(self, **k):
        assert run("exp4", k) == model_exp4(k)

    @given(
        v_uncond=ASKS, bid=VALUES, rule=RULES, T0=THRESHOLDS, floor=st.floats(0, 1),
        extra=st.fixed_dictionaries({}, optional={
            "lambda": SWEEP_GRIDS["lambda"], "shock_factor": SWEEP_GRIDS["shock_factor"],
            "horizon": st.integers(1, 60),
        }),
        grid=sweep_grids(),
    )
    # A shock that lands exactly on the committed threshold, 90 / 112.5 == 0.8, is no regret.
    @example(v_uncond=90.0, bid=90.0, rule={"c": 0.0, "elasticity": 0.05, "cap": 20.0}, T0=0.8,
             floor=0.0, extra={}, grid={"shock_factor": [1.25]})
    @settings(max_examples=100, deadline=None)
    def test_fixture_bid_sweep(self, v_uncond, bid, rule, T0, floor, extra, grid):
        overrides = {"v_uncond": v_uncond, "bid": bid, "T0": T0, **rule, **extra}
        if any(grid.get("lambda", [extra.get("lambda", 0.0)])):  # a floor no lambda reads is refused
            overrides["floor"] = floor
        config = {**load_fixture("sweep"), "grid": grid}
        config["overrides"] = {**config["overrides"], **overrides}
        rows = run_sweep(config_from_mapping("sweep", config))
        k = {"lambda": 0.0, **overrides, "eps": overrides["elasticity"]}
        assert rows == model_sweep(k, grid)

    @given(rows=books(min_size=2), T=THRESHOLDS, elasticity=ELASTICITIES, cap=CAPS)
    # The worked book itself, and a book whose only liquid rows tie in utility.
    @example(rows=load_fixture("appendix_a")["book"], T=0.8, elasticity=0.02, cap=math.inf)
    @example(rows=[{"id": "A", "v_intrinsic": 90.0, "c_offer": 0.0, "status": "hypothetical"},
                   {"id": "B", "v_intrinsic": 60.0, "c_offer": 200.0, "status": "liquid"},
                   {"id": "C", "v_intrinsic": 70.0, "c_offer": 0.0, "status": "liquid"}],
             T=0.8, elasticity=0.05, cap=20.0)
    # A utility past the float range is refused.
    @example(rows=[{"id": "A", "v_intrinsic": 90.0, "c_offer": 1e308, "status": "liquid"},
                   {"id": "B", "v_intrinsic": 60.0, "c_offer": 0.0, "status": "liquid"}],
             T=0.8, elasticity=10.0, cap=math.inf)
    # A tiny ask: the best bid's U / V_uncond is past the float range, but
    # the report prices theta = V_reach / V_uncond = 1.0, so it exits 0.
    @example(rows=[{"id": "A", "v_intrinsic": 5e-324, "c_offer": 100.0, "status": "liquid"},
                   {"id": "B", "v_intrinsic": 0.0, "c_offer": 0.0, "status": "lockup"}],
             T=0.8, elasticity=0.02, cap=20.0)
    @settings(max_examples=200, deadline=None)
    def test_appendix_a(self, rows, T, elasticity, cap, tmp_path_factory):
        k = {"T": T, "elasticity": elasticity, "cap": cap}
        code, summary = model_appendix_a(rows, k)
        if code == 0:
            assert run("appendix_a", k, book=rows) == summary
            return
        # No row with a value above 0 is a config error; no liquid row is a drought.
        cfg = tmp_path_factory.getbasetemp() / "appendix-a.json"
        cfg.write_text(json.dumps({"book": rows, "overrides": k}), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["appendix-a", "--config", str(cfg)]) == code

    @given(
        f_rows=books(min_size=1), m_rows=books(min_size=1), f_threshold=THRESHOLDS,
        m_threshold=THRESHOLDS, c_max=MONEY, c_required=st.one_of(MONEY, st.none()),
        elasticity=ELASTICITIES, cap=CAPS,
    )
    # Every clause passes on a tie: theta_F = 72 / 90 = T_F, theta_M = T_M = 1 and c = c_max.
    @example(f_rows=[{"id": "A", "v_intrinsic": 90.0, "c_offer": 0.0, "status": "lockup"},
                     {"id": "B", "v_intrinsic": 72.0, "c_offer": 0.0, "status": "liquid"}],
             m_rows=[{"id": "C", "v_intrinsic": 60.0, "c_offer": 0.0, "status": "liquid"}],
             f_threshold=0.8, m_threshold=1.0, c_max=50.0, c_required=None, elasticity=0.0, cap=20.0)
    # The M side's ask is so small that its theta is past the float range.
    @example(f_rows=[{"id": "A", "v_intrinsic": 1.0, "c_offer": 0.0, "status": "liquid"}],
             m_rows=[{"id": "A", "v_intrinsic": 5e-324, "c_offer": 100.0, "status": "liquid"}],
             f_threshold=0.5, m_threshold=0.5, c_max=0.0, c_required=None, elasticity=0.02, cap=20.0)
    @settings(max_examples=300, deadline=None)
    def test_triple_coincidence(self, f_rows, m_rows, f_threshold, m_threshold, c_max, c_required,
                                elasticity, cap):
        # A side's book needs a row with a value above 0 to have an ask at all.
        if not (max(r["v_intrinsic"] for r in f_rows) > 0 and max(r["v_intrinsic"] for r in m_rows) > 0):
            return
        c_required = c_max if c_required is None else c_required  # None: exactly at the ceiling
        m = Counterparty(id="M", book=book_from_mappings(m_rows, owner_id="M"), threshold=m_threshold,
                         c_max=c_max)
        match = functools.partial(triple_coincidence, book_from_mappings(f_rows, owner_id="F"), f_threshold,
                                  m, c_required, CompensationRule(elasticity, cap))
        expected = model_triple_coincidence(f_rows, f_threshold, m_rows, m_threshold, c_required, c_max,
                                            elasticity, cap)
        if expected is None:
            with pytest.raises(OverflowError):
                match()
            return
        outcome = match()
        assert {**vars(outcome), "result": outcome.result.value} == expected
