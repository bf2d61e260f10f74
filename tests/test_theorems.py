"""The paper's claims as properties of the engine, each with the domain where
it holds on this engine.

Every check goes through the public entry points (``run_sweep``, ``RUNNERS``
and ``config_from_mapping``), so it states what a user of the engine sees,
not what a helper computes.  Where a claim stops holding, the test pins the
counterexample rather than widening the claim.
"""

import math

from hypothesis import assume, example, given, settings, strategies as st

from matchbook import run_sweep
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
