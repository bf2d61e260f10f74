"""A reference model of exp1, exp2, exp3 and exp5, written from the paper.

Each model restates the paper's equations for one scenario in plain Python,
in the paper's order of operations, and shares no code with the engine:

    U = v + min(c * e, cap)        a bid's effective utility under the clipped rule
    theta = U / V_uncond           against the configured internal ask
    delta_V = V_uncond - v         the internal preference differential
    slippage = V_uncond - U
    t* = the first step with theta >= T(t); execution is absorbing
    theta' = v / (V_uncond * f)    a shock reprices the ask by f, in decimal
    regret = theta' < T_commit     the committed threshold

Hypothesis draws in-domain overrides, and every summary field a runner
reports must equal the model's exactly.
"""

import math
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from matchbook.experiments import RUNNERS, config_from_mapping

# -- the model ------------------------------------------------------------------


def effective_utility(v, c, e, cap):
    return v + min(c * e, cap)


def first_execution(theta, thresholds):
    """The decision and t* of an agent that meets ``thresholds``, (t, T(t))
    pairs in step order, with a fixed theta: it executes at the first t
    with theta >= T(t) and stops there."""
    for t, T in thresholds:
        if theta >= T:
            return "execute", t
    return "hold", None


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


def decay_thresholds(t0, rate, floor):
    """T(t) = max(floor, t0 * exp(-rate * t)) over the default horizon, steps 0 to 50."""
    return [(t, max(floor, t0 * math.exp(-rate * t))) for t in range(0, 51)]


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
        new_ask = float(Decimal(repr(ask)) * Decimal(repr(k["shock_factor"])))
        post_theta = partner / new_ask
        summary.update(post_theta=post_theta, post_shock_ask=new_ask, regret=post_theta < T,
                       regret_gap_jump=(new_ask - partner) - commit["delta_v"])
    return {**summary, "theta_convention": "intrinsic (post-execution)"}


# -- the draws ------------------------------------------------------------------

#: Whole values make exact ties such as 72 / 90 == 0.8 likely; fractions reach the rest.
VALUES = st.one_of(st.integers(0, 150).map(float), st.floats(0, 150))
ASKS = st.one_of(st.integers(1, 100).map(float), st.floats(0.01, 100))
THRESHOLDS = st.one_of(st.sampled_from([0.5, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0]),
                       st.floats(0, 1, exclude_min=True))
RULES = st.fixed_dictionaries({
    "c": st.one_of(st.just(0.0), st.floats(0, 1000)),
    "elasticity": st.one_of(st.sampled_from([0.0, 0.02, 0.05]), st.floats(0, 1)),
    "cap": st.one_of(st.sampled_from([0.0, 20.0, math.inf]), st.floats(0, 50)),
})


@st.composite
def tables(draw):
    steps = sorted(draw(st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True)))
    values = sorted(draw(st.lists(THRESHOLDS, min_size=len(steps), max_size=len(steps))), reverse=True)
    return list(zip(steps, values))


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
