import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matchbook import (
    INFEASIBLE,
    CompensationRule,
    NonPositiveAsk,
    compensation_utility,
    effective_utility,
    market_to_book,
    regime_threshold,
    required_transfer,
    slippage,
    spread,
)

RULE = CompensationRule(elasticity=0.05, cap=20.0)
LINEAR = CompensationRule(elasticity=0.02, cap=math.inf)


class TestSpread:
    def test_worked_numbers(self):
        assert spread(95, 78) == 17
        assert spread(90, 90) == 0

    def test_marketable_bid_is_negative(self):
        assert spread(90, 94) == -4


class TestMarketToBook:
    def test_worked_ratio(self):
        assert market_to_book(78, 95) == pytest.approx(78 / 95, abs=1e-12)

    def test_above_parity(self):
        assert market_to_book(94, 90) == pytest.approx(94 / 90, abs=1e-12)

    def test_zero_bid(self):
        assert market_to_book(0, 95) == 0

    def test_nonpositive_ask_rejected(self):
        with pytest.raises(NonPositiveAsk):
            market_to_book(50, 0)
        with pytest.raises(NonPositiveAsk):
            market_to_book(50, -1)
        with pytest.raises(NonPositiveAsk):
            market_to_book(70.0, math.nan)

    @pytest.mark.parametrize("v_reach, v_uncond", [(1e300, 1e-300), (math.inf, 95.0)])
    def test_non_finite_ratio_is_an_overflow(self, v_reach, v_uncond):
        # An infinite theta would clear every threshold.
        with pytest.raises(OverflowError):
            market_to_book(v_reach, v_uncond)

    def test_monotone_in_both_arguments(self):
        # Strict monotonicity, checked on a grid coarse enough that float
        # rounding cannot produce ties.
        bids = np.linspace(1.0, 99.0, 50)
        thetas = [market_to_book(b, 100.0) for b in bids]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        asks = np.linspace(50.0, 150.0, 50)
        thetas = [market_to_book(40.0, a) for a in asks]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))


class TestCompensationUtility:
    def test_cap_binds(self):
        assert compensation_utility(500, RULE) == 20

    def test_zero_transfer(self):
        assert compensation_utility(0, RULE) == 0

    def test_below_cap(self):
        assert compensation_utility(200, RULE) == 10

    def test_negative_transfer_rejected(self):
        for c in (-1, math.nan):
            with pytest.raises(ValueError):
                compensation_utility(c, RULE)

    def test_infinite_transfer_at_zero_elasticity_buys_nothing(self):
        # inf * 0 is NaN: the clipped product gave NaN utility.
        for cap in (0.0, 20.0, math.inf):
            assert compensation_utility(math.inf, CompensationRule(0.0, cap)) == 0.0

    @given(st.floats(min_value=0, allow_infinity=False),
           st.floats(min_value=0, allow_infinity=False), st.floats(min_value=0))
    def test_finite_transfer_is_the_clipped_product(self, c, eps, cap):
        # Bit for bit, so that no finite transfer's utility moves.
        got = compensation_utility(c, CompensationRule(eps, cap))
        assert got.hex() == min(c * eps, cap).hex()

    @given(st.floats(min_value=0, max_value=1e9), st.floats(min_value=0, max_value=1),
           st.floats(min_value=0, max_value=100))
    def test_bounded_by_cap(self, c, eps, cap):
        rule = CompensationRule(eps, cap)
        h = compensation_utility(c, rule)
        assert 0 <= h <= rule.cap

    @given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6))
    def test_non_decreasing(self, c1, c2):
        lo, hi = sorted((c1, c2))
        assert compensation_utility(lo, RULE) <= compensation_utility(hi, RULE)


class TestEffectiveUtility:
    def test_capped_injection(self):
        assert effective_utility(60, 500, RULE) == 80

    def test_linear_regime(self):
        assert effective_utility(78, 200, LINEAR) == 82

    def test_zero_transfer(self):
        assert effective_utility(60, 0, RULE) == 60


class TestRegimeThreshold:
    def test_gap(self):
        assert regime_threshold(95, 60) == 35
        assert regime_threshold(95, 95) == 0
        assert regime_threshold(90, 75) == 15


class TestRequiredTransfer:
    def test_inversion(self):
        assert required_transfer(10, RULE) == 200

    def test_gap_beyond_cap_is_infeasible(self):
        assert required_transfer(35, RULE) == INFEASIBLE
        assert math.isinf(required_transfer(20.0001, RULE))

    def test_zero_gap(self):
        assert required_transfer(0, RULE) == 0
        assert required_transfer(0, CompensationRule(0.0, 0.0)) == 0

    def test_zero_elasticity_cannot_close_positive_gap(self):
        assert required_transfer(5, CompensationRule(0.0, 20.0)) == INFEASIBLE

    def test_negative_gap_rejected(self):
        for gap in (-1, math.nan):
            with pytest.raises(ValueError):
                required_transfer(gap, RULE)

    def test_infinite_amounts_stay_legal(self):
        assert required_transfer(math.inf, RULE) == INFEASIBLE
        assert compensation_utility(math.inf, RULE) == RULE.cap

    @given(st.floats(min_value=0, max_value=20))
    def test_mutual_inverse_on_feasible_range(self, gap):
        transfer = required_transfer(gap, RULE)
        assert compensation_utility(transfer, RULE) == pytest.approx(gap, abs=1e-9)


class TestSlippage:
    def test_worked_numbers(self):
        assert slippage(95, 80) == 15
        assert slippage(95, 82) == 13
        assert slippage(90, 90) == 0

    def test_exact_on_rational_inputs(self):
        # Differences of representable values carry no rounding error.
        assert spread(95.0, 78.0) == 17.0
        assert slippage(95.0, 82.0) == 13.0


class TestOrderingPreservation:
    """Money cannot reorder candidates across a gap wider than the cap."""

    def test_sub_reservation_bound_randomized(self):
        rng = np.random.default_rng(20240817)
        sweep = np.concatenate([[0.0], np.logspace(-2, 6, 33)])
        for _ in range(1000):
            cap = rng.uniform(0.0, 30.0)
            eps = rng.uniform(0.001, 1.0)
            v_uncond = rng.uniform(cap + 1.0, 100.0 + cap)
            v = rng.uniform(0.0, v_uncond - cap - 1e-6)
            rule = CompensationRule(eps, cap)
            assert v + cap < v_uncond
            for c in sweep:
                assert effective_utility(v, c, rule) < v_uncond

    def test_pairwise_ordering_preserved(self):
        rule = CompensationRule(0.05, 20.0)
        v_a, v_b = 60.0, 85.0  # v_a + cap = 80 < v_b
        for c in np.logspace(0, 6, 25):
            assert effective_utility(v_a, c, rule) < v_b


class TestCompensationRuleValidation:
    def test_rejects_negative_elasticity(self):
        with pytest.raises(ValueError):
            CompensationRule(-0.1, 20)

    def test_rejects_infinite_elasticity(self):
        with pytest.raises(ValueError):
            CompensationRule(math.inf, 20)

    def test_rejects_negative_or_nan_cap(self):
        with pytest.raises(ValueError):
            CompensationRule(0.05, -1)
        with pytest.raises(ValueError):
            CompensationRule(0.05, math.nan)

    def test_unbounded_cap_is_legal(self):
        rule = CompensationRule(0.05, math.inf)
        assert compensation_utility(1e12, rule) == 1e12 * 0.05
