import math

import pytest
from hypothesis import given, settings, strategies as st

from matchbook import (
    CompensationRule,
    DecaySchedule,
    Decision,
    DecisionRecord,
    NotExecuted,
    SETTLING_TABLE,
    ShockEvent,
    StepBeforeSchedule,
    TableSchedule,
    apply_shock,
    decide,
    impulse_adjust,
    lock_in_threshold,
    records_from_csv,
    records_from_jsonl,
    records_to_csv,
    records_to_jsonl,
    run_schedule,
    step,
)
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
        with pytest.raises(StepBeforeSchedule):
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
        with pytest.raises(StepBeforeSchedule):
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
        records = run_schedule(settling_book(), RULE, SETTLING_TABLE)
        decisions = [r.decision for r in records]
        assert decisions == [Decision.HOLD, Decision.HOLD, Decision.HOLD, Decision.EXECUTE]
        commit = records[-1]
        assert commit.t == 4
        assert commit.threshold == 0.75
        assert commit.theta == pytest.approx(70 / 90, abs=1e-12)
        assert commit.slippage == 20.0

    def test_marketable_bid_fills_on_first_step(self):
        book = make_book([("ideal", 90.0, 0.0, "h"), ("bid", 94.0, 0.0, "l")])
        for T in (0.70, 0.85, 1.0):
            record = step(book, RULE, TableSchedule(points=((1, T),)), 1, ask=90.0)
            assert record.decision is Decision.EXECUTE

    def test_drought_records_hold_with_flag(self):
        book = make_book([("ideal", 90.0, 0.0, "h")])
        record = step(book, RULE, SETTLING_TABLE, 2)
        assert record.drought is True
        assert record.decision is Decision.HOLD
        assert record.theta is None and record.delta_v is None and record.slippage is None

    def test_execute_is_absorbing(self):
        # The schedule runs to t=5, but the run ends at its first execution.
        book = make_book([("bid", 90.0, 0.0, "l")])
        records = run_schedule(book, RULE, TableSchedule(points=((1, 0.5), (5, 0.4))))
        assert [(r.t, r.decision) for r in records] == [(1, Decision.EXECUTE)]

    def test_record_carries_metrics(self):
        book = settling_book()
        record = step(book, RULE, SETTLING_TABLE, 1)
        assert record.t == 1
        assert record.threshold == 0.95
        assert record.theta == pytest.approx(70 / 90, abs=1e-12)
        assert record.delta_v == 20.0
        assert record.slippage == 20.0

    def test_deterministic_records(self):
        def run():
            return run_schedule(settling_book(), RULE, SETTLING_TABLE)

        assert records_to_csv(run()) == records_to_csv(run())
        assert records_to_jsonl(run()) == records_to_jsonl(run())


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
        result = apply_shock(self.commit_record(), 90.0, 75.0, ShockEvent.multiplicative(1.10))
        assert result.new_v_uncond == 99.0
        assert result.new_theta == pytest.approx(75 / 99, abs=1e-12)
        assert result.regret is True

    def test_identity_shock(self):
        result = apply_shock(self.commit_record(), 90.0, 75.0, ShockEvent.multiplicative(1.0))
        assert result.new_v_uncond == 90.0
        assert result.new_theta == pytest.approx(75 / 90, abs=1e-12)
        assert result.regret is False

    def test_mild_shock_absorbed(self):
        result = apply_shock(self.commit_record(), 90.0, 75.0, ShockEvent.multiplicative(1.02))
        assert result.new_v_uncond == 91.8
        assert result.new_theta == pytest.approx(0.8169934640522876, abs=1e-12)
        assert result.regret is False

    def test_absolute_repricing(self):
        result = apply_shock(self.commit_record(), 90.0, 75.0, ShockEvent.absolute(99.0))
        assert result.new_v_uncond == 99.0
        assert result.regret is True

    def test_downward_repricing_clears_regret(self):
        state = self.commit_record()
        shocked = apply_shock(state, 90.0, 75.0, ShockEvent.multiplicative(1.10))
        assert shocked.regret
        recovered = apply_shock(state, shocked.new_v_uncond, 75.0, ShockEvent.absolute(90.0))
        assert recovered.regret is False

    def test_theta_strictly_decreasing_in_factor(self):
        factors = [1.0 + 0.01 * k for k in range(1, 60)]
        thetas = [
            apply_shock(self.commit_record(), 90.0, 75.0, ShockEvent.multiplicative(f)).new_theta
            for f in factors
        ]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))

    def test_requires_executed_state(self):
        hold = DecisionRecord(1, 75 / 90, 0.90, 15.0, 15.0, Decision.HOLD)
        drought = DecisionRecord(1, None, 0.90, None, None, Decision.HOLD, drought=True)
        for record in (hold, drought):
            with pytest.raises(NotExecuted):
                apply_shock(record, 90.0, 75.0, ShockEvent.multiplicative(1.1))

    def test_shock_validation(self):
        with pytest.raises(ValueError):
            ShockEvent.multiplicative(0.0)
        with pytest.raises(ValueError):
            ShockEvent.multiplicative(math.inf)
        with pytest.raises(ValueError):
            ShockEvent.absolute(-1.0)


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
        result = apply_shock(commit, 90.0, 75.0, ShockEvent.multiplicative(1.10))
        exit_threshold = lock_in_threshold(commit.threshold, 0.15)
        assert result.new_theta < exit_threshold
        assert result.regret
        assert commit.decision is Decision.EXECUTE

    def test_impulse_drop(self):
        assert impulse_adjust(0.95, 0.20) == 0.75
        assert impulse_adjust(0.95, 0.0) == 0.95

    def test_impulse_floors_at_zero(self):
        assert impulse_adjust(0.10, 0.50) == 0.0

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            lock_in_threshold(0.8, -0.1)
        with pytest.raises(ValueError):
            impulse_adjust(0.8, -0.1)


class TestRecordSerialization:
    def records(self):
        return [
            DecisionRecord(1, 70 / 90, 0.95, 20.0, 20.0, Decision.HOLD),
            DecisionRecord(2, None, 0.88, None, None, Decision.HOLD, drought=True),
            DecisionRecord(4, 70 / 90, 0.75, 20.0, 20.0, Decision.EXECUTE),
        ]

    def test_csv_round_trip(self):
        text = records_to_csv(self.records())
        assert text.splitlines()[0] == "t,theta,threshold,delta_v,slippage,decision,drought"
        assert records_from_csv(text) == self.records()

    def test_jsonl_round_trip(self):
        text = records_to_jsonl(self.records())
        assert len(text.splitlines()) == 3
        assert records_from_jsonl(text) == self.records()

    def test_execute_record_must_cross_threshold(self):
        with pytest.raises(ValueError):
            DecisionRecord(1, 0.7, 0.75, 20.0, 20.0, Decision.EXECUTE)
        with pytest.raises(ValueError):
            DecisionRecord(1, None, 0.75, None, None, Decision.EXECUTE)
