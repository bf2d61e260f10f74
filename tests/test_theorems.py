"""The paper's claims as properties of the engine, each with the domain where
it holds on this engine.

Every check goes through the public entry points (``run_sweep``, ``RUNNERS``
and ``config_from_mapping``), so it states what a user of the engine sees,
not what a helper computes.  Where a claim stops holding, the test pins the
counterexample rather than widening the claim.
"""

import itertools
import math
import statistics

from hypothesis import assume, example, given, settings, strategies as st

from matchbook import (CompensationRule, LiquidityStatus, PopulationConfig, classify_bucket,
                       compensation_utility, effective_utility, generate, run_sweep)
from matchbook.experiments import RUNNERS, config_from_mapping, load_fixture

#: Every value a row computes from lies in [0, 100] (a population's values)
#: or [0, 60] (a cap), so U = v + min(c e, cap) and theta = U / V_uncond each
#: round by a few ulps of 100, about 1e-14.  This bound leaves room for that.
ROUNDING = 1e-9


def sweep(overrides, grid, **config):
    return run_sweep(config_from_mapping("sweep", {"overrides": overrides, "grid": grid, **config}))


@given(
    population=st.fixed_dictionaries({
        "n_candidates": st.integers(1, 300), "seed": st.integers(0, 2**32 - 1),
        "reach_slope": st.floats(0, 1), "comp_scale": st.floats(0, 20),
    }),
    eps=st.lists(st.floats(0, 1), min_size=1, max_size=3),
    cap=st.lists(st.floats(0, 60), min_size=1, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_threshold_impossibility_over_population_sweeps(population, eps, cap):
    """No linear compensation closes a spread wider than the cap: on any
    population, a row with theta >= 1 has delta_v <= cap, up to ROUNDING.
    A bid's utility is v + min(c e, cap) <= v + cap, so reaching the ask
    V_uncond needs V_uncond - v <= cap."""
    rows = sweep({"T0": 1.0}, {"eps": eps, "cap": cap}, population=population)
    for row in rows:
        if row["theta"] is not None and row["theta"] >= 1:
            assert row["delta_v"] <= row["cap"] + ROUNDING


def t_star(row, horizon):
    """A row's execution step; a point that never executes counts as horizon + 1."""
    return horizon + 1 if row["t_star"] is None else row["t_star"]


@given(
    v_uncond=st.floats(1, 100), bid=st.floats(0, 100), horizon=st.integers(1, 60),
    T0=st.lists(st.floats(0.01, 1), min_size=1, max_size=4, unique=True).map(sorted),
    rate=st.lists(st.one_of(st.just(0.0), st.floats(0, 1)), min_size=1, max_size=4, unique=True).map(sorted),
    floor_share=st.floats(0, 1),
)
@settings(max_examples=100, deadline=None)
def test_t_star_responds_to_the_schedule_monotonically(v_uncond, bid, horizon, T0, rate, floor_share):
    """t_star never rises as lambda grows, and never falls as T0 grows, where
    the floor lies at or below every T0 of the grid: a lower threshold at
    every step can only execute sooner."""
    overrides = {"v_uncond": v_uncond, "bid": bid, "c": 0, "horizon": horizon}
    if max(rate) > 0:  # a sweep refuses a floor that no lambda reads
        overrides["floor"] = floor_share * T0[0]
    rows = sweep(overrides, {"T0": T0, "lambda": rate})
    steps = [[t_star(row, horizon) for row in rows[i * len(rate):(i + 1) * len(rate)]]
             for i in range(len(T0))]
    for by_rate in steps:
        assert all(a >= b for a, b in zip(by_rate, by_rate[1:]))
    for lower, higher in zip(steps, steps[1:]):
        assert all(a <= b for a, b in zip(lower, higher))


def test_a_floor_above_T0_is_read_only_by_a_decay():
    """Outside that domain t_star can rise with lambda.  A lambda of 0 is a
    constant T0 and reads no floor, while any lambda > 0 holds the threshold
    at or above the floor: 70 / 90 clears T0 = 0.7 at once, but never a floor
    of 0.9."""
    overrides = {"v_uncond": 90, "bid": 70, "c": 0, "T0": 0.7, "floor": 0.9, "horizon": 10}
    rows = sweep(overrides, {"lambda": [0.0, 0.1]})
    assert [t_star(row, 10) for row in rows] == [1, 11]


@given(
    v_a=st.floats(0, 100), v_b=st.floats(0, 100), effort_a=st.floats(0, 100),
    effort_b=st.floats(0, 100), base_high=st.floats(0, 300), base_low=st.floats(0, 300),
    elasticity=st.floats(0, 1), cap=st.just(math.inf),
)
# At the fixture's cap of 20 the high-norm market clips both transfers to 20,
# so A's value wins (100 against 90), while in the low-norm market nothing is
# clipped and B's effort wins (85 against 80): the ranking flips.
@example(v_a=80.0, v_b=70.0, effort_a=0.0, effort_b=300.0, base_high=400.0, base_low=0.0,
         elasticity=0.05, cap=20.0)
@settings(max_examples=100, deadline=None)
def test_exp4_ranking_invariance_without_a_binding_cap(
    v_a, v_b, effort_a, effort_b, base_high, base_low, elasticity, cap
):
    """Regional price norms cannot reorder the book while no cap binds: with
    cap = inf a base transfer adds base * e to every bid alike.  Near ties,
    where rounding alone may decide, are skipped.  The cap is drawn only as
    inf, the claim's domain; the example at a finite cap is where it fails."""
    for base in (base_high, base_low):
        gap = (v_a + (base + effort_a) * elasticity) - (v_b + (base + effort_b) * elasticity)
        assume(abs(gap) > 1e-9)
    overrides = {**load_fixture("exp4")["overrides"], "v_a": v_a, "v_b": v_b, "effort_a": effort_a,
                 "effort_b": effort_b, "base_high": base_high, "base_low": base_low,
                 "elasticity": elasticity, "cap": cap}
    report = RUNNERS["exp4"](config_from_mapping("exp4", {"overrides": overrides}))
    assert report.summary["ranking_invariant"] is (cap == math.inf)


#: The ask of every book below: one hypothetical row at 100 anchors it.
ASK = 100


@given(
    rows=st.lists(st.tuples(st.integers(0, ASK - 1), st.one_of(st.just(0), st.integers(0, 500))),
                  min_size=1, max_size=8, unique_by=lambda row: row[0]),
    eps=st.floats(0.01, 1), cap=st.floats(1, 60), gap=st.integers(1, 20),
)
# The clause: r0 (80, c = 0) stays at 0.8 below T = 0.85, and money executes
# through the row of 70 + min(500 * 0.05, 20) = 90.
@example(rows=[(80, 0), (70, 500)], eps=0.05, cap=20.0, gap=5)
# Outside its domain: money lifts r0 itself over T, 70 + min(100 * 0.05, 20) = 75,
# so theta goes 0.7 -> 0.75 and the run executes with the same partner.
@example(rows=[(70, 100)], eps=0.05, cap=20.0, gap=5)
@settings(max_examples=100, deadline=None)
def test_a_transfer_needs_another_partner_exactly_where_the_first_falls_short(rows, eps, cap, gap):
    """The abstract's identity shift, within its domain.  Call r0 the best row
    with no transfer (eps 0).  A transfer-driven execution needs another
    partner exactly where r0's own effective utility stays below T * ask:
    then the executed row's utility exceeds r0's, so it is another row.  Where
    r0's utility reaches T * ask the run executes, with r0 unless another row
    offers more.  So where r0 offers c = 0, money executes only through
    another partner.  The best row is the first of highest utility (argmax
    keeps the first maximum).  Values are distinct whole numbers, so a row's
    delta_v = ask - v names it.  T lies ``gap`` points above r0's theta, so
    with no transfer every run holds."""
    book = [{"id": "H", "v_intrinsic": ASK, "c_offer": 0, "status": "hypothetical"},
            *({"id": f"r{i}", "v_intrinsic": v, "c_offer": c, "status": "liquid"}
              for i, (v, c) in enumerate(rows))]
    rule = CompensationRule(eps, cap)
    utility = {v: effective_utility(v, c, rule) for v, c in rows}
    v0, best = max(utility), max(utility, key=utility.get)
    T = min(v0 + gap, ASK) / ASK
    no_money, money = sweep({"T0": T}, {"eps": [0.0, eps], "cap": [cap]}, book=book)
    assert no_money["decision"] == "hold"
    assert (no_money["delta_v"], money["delta_v"]) == (ASK - v0, ASK - best)
    if utility[v0] / ASK >= T:
        assert money["decision"] == "execute"
    elif money["decision"] == "execute":
        assert best != v0


def gap_shares(book, rule):
    """Each liquid row below the ask as (v, c, share): the share of its own gap
    to the ask that its transfer closes, min(c * eps, cap) / (ask - v)."""
    ask = book.v_uncond()
    return [(e.v_intrinsic, e.c_offer, compensation_utility(e.c_offer, rule) / (ask - e.v_intrinsic))
            for e in book.entries if e.status is LiquidityStatus.LIQUID and e.v_intrinsic < ask]


def tier_medians(book, rule, least):
    """The median share of each ``classify_bucket`` tier of at least ``least`` rows, in tier order."""
    tiers = {}
    for v, _, share in gap_shares(book, rule):
        tiers.setdefault(classify_bucket(v), []).append(share)
    return [statistics.median(shares) for _, shares in sorted(tiers.items()) if len(shares) >= least]


def increasing(values):
    return all(a <= b for a, b in zip(values, values[1:]))


@given(
    population=st.builds(PopulationConfig, n_candidates=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
                         reach_slope=st.floats(0, 1), beta_alpha=st.floats(0.1, 10),
                         beta_beta=st.floats(0.1, 10), comp_scale=st.floats(0, 20)),
    eps=st.floats(0, 1), cap=st.floats(0, 60),
)
@settings(max_examples=60, deadline=None)
def test_a_low_tier_transfer_closes_no_more_of_its_gap(population, eps, cap):
    """The abstract's inefficiency of transfers in low-tier matches, on a row:
    of two liquid rows with v_i <= v_j < ask and c_i <= c_j, the transfer of
    row i closes no larger a share of its gap to the ask than that of row j.
    The product, the min, the difference and the quotient are each monotone
    in IEEE arithmetic, so this holds exactly, on any book and rule."""
    rows = gap_shares(generate(population), CompensationRule(eps, cap))
    for (v_i, c_i, share_i), (v_j, c_j, share_j) in itertools.permutations(rows, 2):
        if v_i <= v_j and c_i <= c_j:
            assert share_i <= share_j


#: Beta shapes: right-skewed, left-skewed, symmetric and U-shaped values.
SHAPES = ((2, 8), (8, 2), (2, 2), (0.5, 0.5))


def test_the_median_share_never_falls_from_tier_to_tier_of_five_rows():
    """The same claim by tier: the median share of the tiers with at least 5
    liquid rows below the ask never falls from one tier to the next.  It is a
    property of the generator, which draws offers that grow with value, not
    of the rule; the next test pins where it stops holding."""
    for seed, n, slope, (a, b) in itertools.product(range(8), (30, 60, 120), (0.3, 0.8, 1.0), SHAPES):
        book = generate(PopulationConfig(n_candidates=n, seed=seed, reach_slope=slope, beta_alpha=a, beta_beta=b))
        for eps, cap in itertools.product((0.01, 0.05, 0.2), (5, 20, 50)):
            assert increasing(tier_medians(book, CompensationRule(eps, cap), least=5)), (seed, n, slope, a, b, eps, cap)


def test_tiers_of_three_rows_can_reverse_the_median_share():
    """Outside its domain: counting tiers of any size, this book's median
    shares go 0.0083, 0.2305, 0.2187, 0.5509, falling from PROVIDER to MATCH,
    two tiers of 3 rows each."""
    book = generate(PopulationConfig(n_candidates=60, seed=1, reach_slope=1.0, beta_alpha=0.5, beta_beta=0.5))
    rule = CompensationRule(0.01, 20)
    medians = tier_medians(book, rule, least=1)
    assert [round(m, 4) for m in medians] == [0.0083, 0.2305, 0.2187, 0.5509]
    assert not increasing(medians)
    assert increasing(tier_medians(book, rule, least=5))
