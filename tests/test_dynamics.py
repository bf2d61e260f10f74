import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from matchbook import (
    CompensationRule,
    DecaySchedule,
    Decision,
    DecisionRecord,
    SETTLING_TABLE,
    TableSchedule,
    apply_shock,
    decide,
    impulse_adjust,
    lock_in_threshold,
    records_to_csv,
    reprice,
    run_schedule,
    step,
)
import matchbook
from matchbook import dynamics, experiments
from matchbook.cli import main
from matchbook.dynamics import record_to_dict
from conftest import make_book

RULE = CompensationRule(elasticity=0.05, cap=20.0)


def settling_book():
    return make_book([("ideal", 90.0, 0.0, "h"), ("bid", 70.0, 0.0, "l")])


class TestThresholdAt:
    def test_tabulated_decay(self):
        assert SETTLING_TABLE.at(1) == 0.95
        assert SETTLING_TABLE.at(3) == 0.80
        assert SETTLING_TABLE.at(4) == 0.75
        assert SETTLING_TABLE.at(5) == 0.70

    def test_step_function_holds_between_and_after_points(self):
        table = TableSchedule(points=((1, 0.9), (5, 0.5)))
        assert table.at(3) == 0.9
        assert table.at(100) == 0.5

    def test_before_schedule(self):
        with pytest.raises(ValueError, match="t=0 is before the first tabulated step 1"):
            SETTLING_TABLE.at(0)

    def test_no_decay(self):
        flat = DecaySchedule(t0=1.0, rate=0.0)
        for t in (0, 1, 10, 1000):
            assert flat.at(t) == 1.0

    def test_floor_binds(self):
        # 0.95 * exp(-2) ~ 0.1286, far below the 0.70 floor.
        sched = DecaySchedule(t0=0.95, rate=0.1, floor=0.70)
        assert sched.at(20) == 0.70
        assert sched.at(20) > 0.95 * math.exp(-0.1 * 20)

    def test_decay_before_zero(self):
        with pytest.raises(ValueError, match="decay schedules start at t=0, got t=-1"):
            DecaySchedule(t0=0.9, rate=0.1).at(-1)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TableSchedule(points=())
        with pytest.raises(ValueError):
            TableSchedule(points=((1, 0.9), (1, 0.8)))
        with pytest.raises(ValueError):
            TableSchedule(points=((1, 0.8), (2, 0.9)))
        with pytest.raises(ValueError):
            TableSchedule(points=((1, 1.5),))
        # A step is an integer: 1.5 is not truncated to 1, nor True read as 1.
        for bad_step in (1.5, 2.0, True, "1"):
            with pytest.raises(ValueError):
                TableSchedule(points=((bad_step, 0.9),))

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=20, unique=True),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=20, max_size=20),
    )
    def test_table_at_matches_a_linear_scan(self, steps, thresholds):
        steps = sorted(steps)
        table = TableSchedule(points=tuple(zip(steps, sorted(thresholds, reverse=True))))
        for t in {s + d for s in steps for d in (-1, 0, 1)}:
            reached = [T for step_t, T in table.points if step_t <= t]
            if reached:
                assert table.at(t) == reached[-1]
            else:
                with pytest.raises(ValueError, match=f"t={t} is before the first tabulated step {steps[0]}"):
                    table.at(t)

    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    )
    def test_decay_non_increasing(self, t0, rate, floor, ta, tb):
        sched = DecaySchedule(t0=t0, rate=rate, floor=floor)
        lo, hi = sorted((ta, tb))
        assert sched.at(lo) >= sched.at(hi)

    def test_table_non_increasing(self):
        for t in range(1, 10):
            assert SETTLING_TABLE.at(t) >= SETTLING_TABLE.at(t + 1)


class TestDecide:
    def test_hold_below_threshold(self):
        assert decide(0.78, 0.80) is Decision.HOLD

    def test_execute_above_threshold(self):
        assert decide(0.78, 0.75) is Decision.EXECUTE

    def test_marketable_ratio(self):
        assert decide(94 / 90, 0.95) is Decision.EXECUTE

    def test_boundary_is_inclusive(self):
        assert decide(1.0, 1.0) is Decision.EXECUTE
        assert decide(0.75, 0.75) is Decision.EXECUTE

    @given(st.floats(min_value=0, max_value=2), st.floats(min_value=0, max_value=2),
           st.floats(min_value=0.01, max_value=1))
    def test_monotone_in_theta(self, a, b, T):
        lo, hi = sorted((a, b))
        if decide(lo, T) is Decision.EXECUTE:
            assert decide(hi, T) is Decision.EXECUTE

    @given(st.floats(min_value=0, max_value=2), st.floats(min_value=0.01, max_value=1),
           st.floats(min_value=0.01, max_value=1))
    def test_antitone_in_threshold(self, theta, Ta, Tb):
        lo, hi = sorted((Ta, Tb))
        if decide(theta, lo) is Decision.HOLD:
            assert decide(theta, hi) is Decision.HOLD


class TestStep:
    def test_settling_run(self):
        records = run_schedule(settling_book().metrics(RULE), SETTLING_TABLE)
        decisions = [r.decision for r in records]
        assert decisions == [Decision.HOLD, Decision.HOLD, Decision.HOLD, Decision.EXECUTE]
        commit = records[-1]
        assert commit.t == 4
        assert commit.threshold == 0.75
        assert commit.theta == pytest.approx(70 / 90, abs=1e-12)
        assert commit.slippage == 20.0

    def test_marketable_bid_fills_on_first_step(self):
        book = make_book([("ideal", 90.0, 0.0, "h"), ("bid", 94.0, 0.0, "l")])
        metrics = book.metrics(RULE, ask=90.0)
        for T in (0.70, 0.85, 1.0):
            record = step(metrics, TableSchedule(points=((1, T),)), 1)
            assert record.decision is Decision.EXECUTE

    def test_drought_records_hold_with_flag(self):
        record = step(None, SETTLING_TABLE, 2)
        assert record.drought is True
        assert record.decision is Decision.HOLD
        assert record.theta is None and record.delta_v is None and record.slippage is None
        assert record.threshold == 0.88

    def test_drought_holds_to_the_horizon(self):
        records = run_schedule(None, SETTLING_TABLE)
        assert [(r.t, r.drought, r.decision) for r in records] == [
            (t, True, Decision.HOLD) for t in range(1, 6)
        ]

    def test_execute_is_absorbing(self):
        # The schedule runs to t=5, but the run ends at its first execution.
        book = make_book([("bid", 90.0, 0.0, "l")])
        records = run_schedule(book.metrics(RULE), TableSchedule(points=((1, 0.5), (5, 0.4))))
        assert [(r.t, r.decision) for r in records] == [(1, Decision.EXECUTE)]

    def test_record_carries_metrics(self):
        metrics = settling_book().metrics(RULE)
        record = step(metrics, SETTLING_TABLE, 1)
        assert record.t == 1
        assert record.threshold == 0.95
        assert (record.theta, record.delta_v, record.slippage) == metrics[:3]
        assert record.theta == pytest.approx(70 / 90, abs=1e-12)
        assert record.delta_v == 20.0
        assert record.slippage == 20.0

    def test_deterministic_records(self):
        def run():
            return run_schedule(settling_book().metrics(RULE), SETTLING_TABLE)

        assert records_to_csv(run()) == records_to_csv(run())

    def test_a_run_evaluates_its_book_once(self, monkeypatch, capsys):
        # exp2 holds three steps and executes at the fourth on one snapshot.
        calls = []
        price_bids = experiments._price_bids

        def counted(bids, rule, ask):
            calls.append(rule)
            return price_bids(bids, rule, ask)

        monkeypatch.setattr(experiments, "_price_bids", counted)
        assert main(["exp2"]) == 0
        assert "t_star = 4" in capsys.readouterr().out
        assert len(calls) == 1


class TestEventualExecution:
    @given(
        st.floats(min_value=0.2, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.6),
    )
    @settings(max_examples=60)
    def test_decaying_schedule_eventually_executes(self, t0, rate, floor):
        # Holds for genuinely decaying schedules (rate > 0); theta must sit
        # strictly above the floor the schedule decays toward.
        theta = floor + 0.05
        sched = DecaySchedule(t0=t0, rate=rate, floor=floor)
        horizon = int(math.log(max(t0 / theta, 1.0)) / rate) + 2
        assert any(
            decide(theta, sched.at(t)) is Decision.EXECUTE for t in range(horizon + 1)
        )


class TestApplyShock:
    def commit_record(self, threshold=0.80):
        return DecisionRecord(1, 75 / 90, threshold, 15.0, 15.0, Decision.EXECUTE)

    def test_peer_comparison_shock(self):
        new_ask = reprice(90.0, 1.10)
        assert new_ask == 99.0
        post = apply_shock(self.commit_record(), new_ask, 75.0)
        assert post.theta == pytest.approx(75 / 99, abs=1e-12)
        assert post.theta < post.threshold

    def test_identity_shock(self):
        new_ask = reprice(90.0, 1.0)
        assert new_ask == 90.0
        post = apply_shock(self.commit_record(), new_ask, 75.0)
        assert post.theta == pytest.approx(75 / 90, abs=1e-12)
        assert post.theta >= post.threshold

    def test_mild_shock_absorbed(self):
        new_ask = reprice(90.0, 1.02)
        assert new_ask == 91.8
        post = apply_shock(self.commit_record(), new_ask, 75.0)
        assert post.theta == pytest.approx(0.8169934640522876, abs=1e-12)
        assert post.theta >= post.threshold

    def test_absolute_repricing(self):
        post = apply_shock(self.commit_record(), 99.0, 75.0)
        assert post.theta == pytest.approx(75 / 99, abs=1e-12)
        assert post.theta < post.threshold

    def test_downward_repricing_clears_regret(self):
        state = self.commit_record()
        shocked = apply_shock(state, reprice(90.0, 1.10), 75.0)
        assert shocked.theta < shocked.threshold
        recovered = apply_shock(state, 90.0, 75.0)
        assert recovered.theta >= recovered.threshold

    def test_theta_strictly_decreasing_in_factor(self):
        factors = [1.0 + 0.01 * k for k in range(1, 60)]
        thetas = [
            apply_shock(self.commit_record(), reprice(90.0, f), 75.0).theta
            for f in factors
        ]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))

    def test_requires_executed_state(self):
        hold = DecisionRecord(1, 75 / 90, 0.90, 15.0, 15.0, Decision.HOLD)
        drought = DecisionRecord(1, None, 0.90, None, None, Decision.HOLD)
        for record in (hold, drought):
            with pytest.raises(ValueError, match="shocks apply to executed agents only"):
                apply_shock(record, reprice(90.0, 1.1), 75.0)

    def test_post_shock_record(self):
        # A HOLD a step after the commit, at the committed threshold, with
        # the new ask's gap to the partner as both delta_v and slippage.
        post = apply_shock(self.commit_record(), 99.0, 75.0)
        assert post == DecisionRecord(2, 75 / 99, 0.80, 24.0, 24.0, Decision.HOLD)

    def test_nan_ask_is_no_verdict(self):
        # NaN compares false both ways: a NaN ask must not report regret=False.
        for ask in (math.nan, 0.0):
            with pytest.raises(ValueError):
                reprice(ask, 1.1)
            with pytest.raises(ValueError):
                apply_shock(self.commit_record(), ask, 70.0)

    def test_bad_partner_value_is_no_verdict(self):
        # A NaN partner gave a record with every metric NaN, read as no regret.
        for partner in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(ValueError):
                apply_shock(self.commit_record(), 99.0, partner)

    def test_overflowing_ask_is_no_verdict(self):
        # 1e308 * 10 overflows to inf, which would read as theta = 0, and
        # 1e-300 * 1e-300 underflows to an ask of 0.
        for ask, factor in ((1e308, 10.0), (1e-300, 1e-300)):
            with pytest.raises(ValueError, match="the repriced ask must be finite and > 0"):
                reprice(ask, factor)
        for ask in (math.inf, -math.inf):
            with pytest.raises(ValueError):
                apply_shock(self.commit_record(), ask, 70.0)

    def test_shock_validation(self):
        with pytest.raises(ValueError):
            reprice(90.0, 0.0)
        with pytest.raises(ValueError):
            reprice(90.0, math.inf)
        with pytest.raises(ValueError):
            apply_shock(self.commit_record(), -1.0, 75.0)


class TestLockInAndImpulse:
    def test_lock_in_raises_exit_threshold(self):
        assert lock_in_threshold(0.80, 0.15) == pytest.approx(0.95, abs=1e-12)
        assert lock_in_threshold(0.80, 0.0) == 0.80

    def test_lock_in_may_exceed_one(self):
        assert lock_in_threshold(0.95, 0.2) > 1.0

    def test_regret_persists_under_lock_in(self):
        # The shock drops theta below the raised exit threshold, yet the
        # commitment stands: stickiness, not reversal.
        commit = DecisionRecord(1, 75 / 90, 0.80, 15.0, 15.0, Decision.EXECUTE)
        post = apply_shock(commit, reprice(90.0, 1.10), 75.0)
        exit_threshold = lock_in_threshold(commit.threshold, 0.15)
        assert post.theta < exit_threshold
        assert post.theta < post.threshold
        assert commit.decision is Decision.EXECUTE

    def test_impulse_drop(self):
        assert impulse_adjust(0.95, 0.20) == 0.75
        assert impulse_adjust(0.95, 0.0) == 0.95

    def test_impulse_floors_at_zero(self):
        assert impulse_adjust(0.10, 0.50) == 0.0

    def test_negative_arguments_rejected(self):
        # A NaN would otherwise pass through, or floor to an unconditional
        # execute: decide(0.2, impulse_adjust(0.8, nan)) was EXECUTE.
        for T, amount in ((0.8, -0.1), (0.8, math.nan), (math.nan, 0.1)):
            with pytest.raises(ValueError):
                lock_in_threshold(T, amount)
            with pytest.raises(ValueError):
                impulse_adjust(T, amount)

    def test_infinite_amounts_stay_legal(self):
        assert lock_in_threshold(0.8, math.inf) == math.inf
        assert impulse_adjust(0.8, math.inf) == 0.0


class TestRecordSerialization:
    def records(self):
        return [
            DecisionRecord(1, 70 / 90, 0.95, 20.0, 20.0, Decision.HOLD),
            DecisionRecord(2, None, 0.88, None, None, Decision.HOLD),
            DecisionRecord(4, 70 / 90, 0.75, 20.0, 20.0, Decision.EXECUTE),
        ]

    def test_csv_text(self):
        # A drought row leaves its metrics empty; no golden stream holds one.
        assert records_to_csv(self.records()) == (
            "t,theta,threshold,delta_v,slippage,decision,drought\n"
            "1,0.7777777777777778,0.95,20.0,20.0,hold,false\n"
            "2,,0.88,,,hold,true\n"
            "4,0.7777777777777778,0.75,20.0,20.0,execute,false\n"
        )

    def test_csv_of_no_records_is_the_header(self):
        assert records_to_csv([]) == "t,theta,threshold,delta_v,slippage,decision,drought\n"

    def test_csv_takes_any_iterable(self):
        assert records_to_csv(iter(self.records())) == records_to_csv(self.records())

    @pytest.mark.parametrize(
        "index, expected",
        [
            (0, {"t": 1, "theta": 70 / 90, "threshold": 0.95, "delta_v": 20.0, "slippage": 20.0,
                 "decision": "hold", "drought": False}),
            (1, {"t": 2, "theta": None, "threshold": 0.88, "delta_v": None, "slippage": None,
                 "decision": "hold", "drought": True}),
            (2, {"t": 4, "theta": 70 / 90, "threshold": 0.75, "delta_v": 20.0, "slippage": 20.0,
                 "decision": "execute", "drought": False}),
        ],
        ids=["hold", "drought", "execute"],
    )
    def test_dict_form(self, index, expected):
        # The JSON report's spelling of a record; a JSON round trip keeps it,
        # a drought's metrics as null.
        d = record_to_dict(self.records()[index])
        assert d == expected
        assert json.loads(json.dumps(d)) == expected

    @pytest.mark.parametrize(
        "name", ["records_from_csv", "records_from_jsonl", "records_to_jsonl", "record_from_dict"]
    )
    def test_record_streams_have_no_reader(self, name):
        # Record streams are written, never read back.
        assert not hasattr(matchbook, name)
        assert not hasattr(dynamics, name)

    def test_execute_record_must_cross_threshold(self):
        with pytest.raises(ValueError):
            DecisionRecord(1, 0.7, 0.75, 20.0, 20.0, Decision.EXECUTE)
        with pytest.raises(ValueError):
            DecisionRecord(1, None, 0.75, None, None, Decision.EXECUTE)
        with pytest.raises(ValueError):
            DecisionRecord(1, math.nan, 0.8, 1.0, 1.0, Decision.EXECUTE)
        with pytest.raises(ValueError):
            DecisionRecord(1, 0.9, math.nan, 1.0, 1.0, Decision.EXECUTE)

    @pytest.mark.parametrize(
        "theta, delta_v, slippage",
        [(0.5, 1.0, None), (0.5, None, 1.0), (None, 1.0, 1.0), (0.5, None, None), (None, None, 1.0)],
    )
    def test_metrics_all_or_none(self, theta, delta_v, slippage):
        with pytest.raises(ValueError):
            DecisionRecord(1, theta, 0.9, delta_v, slippage, Decision.HOLD)
