import itertools
import math

import numpy as np
import pytest

from matchbook import (
    CompensationRule,
    Counterparty,
    MatchResult,
    effective_compensation_cap,
    outcomes_to_csv,
    required_transfer,
    triple_coincidence,
)
from conftest import make_book

RULE = CompensationRule(elasticity=0.05, cap=20.0)


def side_book(theta, owner):
    """Anchor at 100 with a single zero-compensation liquid bid at 100*theta,
    so the side's ratio is exactly theta."""
    return make_book([("ideal", 100.0, 0.0, "h"), ("bid", 100.0 * theta, 0.0, "l")], owner)


def counterparty(theta=0.9, threshold=0.8, c_max=100.0):
    return Counterparty(id="M", book=side_book(theta, "M"), threshold=threshold, c_max=c_max)


class TestEffectiveCompensationCap:
    def test_inversion_then_ceiling(self):
        assert effective_compensation_cap(10.0, 500.0, RULE) == 200.0

    def test_ceiling_binds(self):
        assert effective_compensation_cap(10.0, 100.0, RULE) == 100.0

    def test_zero_gap(self):
        assert effective_compensation_cap(0.0, 100.0, RULE) == 0.0

    def test_gap_beyond_utility_cap_clamps_first(self):
        # Gap 35 clamps to the 20-point cap, costing 400; the ceiling of 500
        # does not bind.
        assert effective_compensation_cap(35.0, 500.0, RULE) == 400.0

    def test_infeasible_inversion_clips_at_ceiling(self):
        rigid = CompensationRule(elasticity=0.0, cap=20.0)
        assert effective_compensation_cap(10.0, 150.0, rigid) == 150.0

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            effective_compensation_cap(-1.0, 100.0, RULE)

    def test_never_exceeds_either_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            gap = float(rng.uniform(0, 60))
            c_max = float(rng.uniform(0, 800))
            rule = CompensationRule(float(rng.uniform(0.001, 0.5)), float(rng.uniform(0, 40)))
            out = effective_compensation_cap(gap, c_max, rule)
            assert out <= c_max
            assert out <= required_transfer(rule.cap, rule) or math.isinf(rule.cap)


class TestTripleCoincidence:
    def test_symmetric_match(self):
        # theta 0.9 on both sides against 0.8 thresholds, transfer 50 under a
        # 100 ceiling: every clause passes.
        outcome = triple_coincidence(side_book(0.9, "F"), 0.8, counterparty(), 50.0, RULE)
        assert outcome.result is MatchResult.MATCHED
        assert outcome.f_theta == pytest.approx(0.9)
        assert outcome.m_theta == pytest.approx(0.9)

    def test_circuit_breaker(self):
        outcome = triple_coincidence(
            side_book(0.9, "F"), 0.8, counterparty(c_max=40.0), 50.0, RULE
        )
        assert outcome.result is MatchResult.CIRCUIT_BREAKER

    def test_f_side_holds_even_when_m_would_accept(self):
        outcome = triple_coincidence(side_book(0.7, "F"), 0.8, counterparty(), 50.0, RULE)
        assert outcome.result is MatchResult.F_SIDE_HOLD
        assert outcome.m_theta is not None  # both sides reported regardless

    def test_truth_table_first_failure(self):
        # All eight pass/fail combinations; the first failed clause in the
        # order (F, M, capital) names the outcome.
        expected = {
            (True, True, True): MatchResult.MATCHED,
            (True, True, False): MatchResult.CIRCUIT_BREAKER,
            (True, False, True): MatchResult.M_SIDE_HOLD,
            (True, False, False): MatchResult.M_SIDE_HOLD,
            (False, True, True): MatchResult.F_SIDE_HOLD,
            (False, True, False): MatchResult.F_SIDE_HOLD,
            (False, False, True): MatchResult.F_SIDE_HOLD,
            (False, False, False): MatchResult.F_SIDE_HOLD,
        }
        for f_pass, m_pass, c_pass in itertools.product((True, False), repeat=3):
            outcome = triple_coincidence(
                side_book(0.9 if f_pass else 0.7, "F"),
                0.8,
                counterparty(theta=0.9 if m_pass else 0.7),
                50.0 if c_pass else 150.0,
                RULE,
            )
            assert outcome.result is expected[(f_pass, m_pass, c_pass)], (f_pass, m_pass, c_pass)

    def test_f_drought_reported(self):
        dry = make_book([("ideal", 100.0, 0.0, "h")], "F")
        outcome = triple_coincidence(dry, 0.8, counterparty(), 50.0, RULE)
        assert outcome.result is MatchResult.F_SIDE_HOLD
        assert outcome.f_drought is True
        assert outcome.f_theta is None
        assert outcome.m_theta is not None

    def test_m_drought_reported(self):
        dry = Counterparty(
            id="M", book=make_book([("ideal", 100.0, 0.0, "h")], "M"),
            threshold=0.8, c_max=100.0,
        )
        outcome = triple_coincidence(side_book(0.9, "F"), 0.8, dry, 50.0, RULE)
        assert outcome.result is MatchResult.M_SIDE_HOLD
        assert outcome.m_drought is True

    def test_circuit_breaker_iff_both_pass_and_capital_fails(self):
        rng = np.random.default_rng(20240819)
        for _ in range(1000):
            f_theta = float(rng.uniform(0.4, 1.0))
            m_theta = float(rng.uniform(0.4, 1.0))
            f_T = float(rng.uniform(0.4, 1.0))
            m_T = float(rng.uniform(0.4, 1.0))
            c_req = float(rng.uniform(0, 200))
            c_max = float(rng.uniform(0, 200))
            outcome = triple_coincidence(
                side_book(f_theta, "F"), f_T,
                counterparty(theta=m_theta, threshold=m_T, c_max=c_max),
                c_req, RULE,
            )
            breaker = f_theta >= f_T and m_theta >= m_T and c_req > c_max
            assert (outcome.result is MatchResult.CIRCUIT_BREAKER) == breaker

    def test_match_is_monotone(self):
        # Relaxing any clause never destroys a match: lower thresholds,
        # lower required transfer, higher thetas.
        rng = np.random.default_rng(99)
        matched = 0
        for _ in range(1000):
            f_theta = float(rng.uniform(0.4, 1.0))
            m_theta = float(rng.uniform(0.4, 1.0))
            f_T = float(rng.uniform(0.4, 1.0))
            m_T = float(rng.uniform(0.4, 1.0))
            c_req = float(rng.uniform(0, 200))
            c_max = float(rng.uniform(0, 200))
            base = triple_coincidence(
                side_book(f_theta, "F"), f_T,
                counterparty(theta=m_theta, threshold=m_T, c_max=c_max),
                c_req, RULE,
            )
            if base.result is not MatchResult.MATCHED:
                continue
            matched += 1
            eased = triple_coincidence(
                side_book(min(1.0, f_theta + 0.01), "F"),
                f_T * 0.9,
                counterparty(
                    theta=min(1.0, m_theta + 0.01), threshold=m_T * 0.9, c_max=c_max
                ),
                c_req * 0.9,
                RULE,
            )
            assert eased.result is MatchResult.MATCHED
        assert matched > 100  # the sweep actually exercised the property

    def test_counterparty_validation(self):
        with pytest.raises(ValueError):
            Counterparty(id="M", book=side_book(0.9, "M"), threshold=1.5, c_max=10.0)
        with pytest.raises(ValueError):
            Counterparty(id="M", book=side_book(0.9, "M"), threshold=0.8, c_max=-1.0)

    @pytest.mark.parametrize(
        "f_threshold, c_required",
        [(math.nan, 50.0), (0.8, math.nan), (0.8, -1.0)],
        ids=["f_threshold-nan", "c_required-nan", "c_required-negative"],
    )
    def test_out_of_domain_inputs_fail_closed(self, f_threshold, c_required):
        # Each of these used to compare its way to MATCHED.
        with pytest.raises(ValueError):
            triple_coincidence(side_book(0.9, "F"), f_threshold, counterparty(), c_required, RULE)

    def test_infeasible_transfer_trips_the_breaker(self):
        outcome = triple_coincidence(side_book(0.9, "F"), 0.8, counterparty(), math.inf, RULE)
        assert outcome.result is MatchResult.CIRCUIT_BREAKER


class TestMatchReportCsv:
    def test_header_and_rows(self):
        outcome = triple_coincidence(side_book(0.9, "F"), 0.8, counterparty(), 50.0, RULE)
        text = outcomes_to_csv([("F", "M", outcome)])
        lines = text.splitlines()
        assert lines[0] == "f_id,m_id,f_theta,m_theta,c_required,c_max,result"
        assert lines[1].startswith("F,M,0.9")
        assert lines[1].endswith("matched")

    def test_drought_cells_empty(self):
        dry = make_book([("ideal", 100.0, 0.0, "h")], "F")
        outcome = triple_coincidence(dry, 0.8, counterparty(), 50.0, RULE)
        line = outcomes_to_csv([("F", "M", outcome)]).splitlines()[1]
        assert line.split(",")[2] == ""
