"""Acceptance suite: the twelve exit criteria, each at its stated tolerance.

Golden criteria (1-6) pin the numbered scenarios to their exact snapshot
values; property criteria (7-11) run randomized sweeps with fixed seeds; the
determinism criterion (12) hashes re-run CLI outputs.  Each test prints one
PASS line so the suite reads as a checklist under ``pytest -v -s``.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from matchbook import (
    CompensationRule,
    Counterparty,
    Decision,
    DensityProfile,
    LiquidityStatus,
    MatchResult,
    PopulationConfig,
    cone_volume,
    effective_utility,
    generate,
    required_transfer,
    triple_coincidence,
)
from matchbook.cli import main
from matchbook.experiments import RUNNERS, config_from_mapping, load_fixture
from conftest import make_book

TOL = 1e-9


def run_fixture(name, tweaks=None):
    data = load_fixture(name)
    if tweaks:
        data["overrides"] = {**data.get("overrides", {}), **tweaks}
    return RUNNERS[name](config_from_mapping(name, data))


def test_criterion_01_compensation_cannot_clear_deep_spread():
    report = run_fixture("exp1")
    assert report.summary["best_utility"] == 80.0
    assert abs(report.summary["theta"] - 80 / 95) < TOL
    assert report.summary["decision"] == "hold"
    assert report.records[0].threshold == 0.90
    assert report.summary["slippage"] == 15.0
    print("criterion 1 (deep OTM bid rejected at U=80, theta=0.84, spread=15): PASS")


def test_criterion_02_settling_executes_at_fourth_step():
    report = run_fixture("exp2")
    assert [r.decision for r in report.records] == [
        Decision.HOLD, Decision.HOLD, Decision.HOLD, Decision.EXECUTE,
    ]
    assert [r.t for r in report.records] == [1, 2, 3, 4]
    assert report.summary["t_star"] == 4
    print("criterion 2 (hold, hold, hold, execute; t* = t4): PASS")


def test_criterion_03_marketable_bid_fills_immediately():
    report = run_fixture("exp3")
    assert abs(report.summary["theta"] - 94 / 90) < TOL
    for T in (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.0):
        again = run_fixture("exp3", {"T": T})
        assert again.summary["t_star"] == again.records[0].t
    print("criterion 3 (theta=1.0444 fills at first step for every T <= 1): PASS")


def test_criterion_04_regional_norms_do_not_reorder():
    report = run_fixture("exp4")
    selected = [(m["selected_id"], m["selected_v"]) for m in report.summary["markets"]]
    assert selected == [("A", 85.0), ("A", 85.0)]
    assert report.summary["ranking_invariant"] is True
    print("criterion 4 (same candidate V=85 wins under norms 200 and 30): PASS")


def test_criterion_05_shock_slippage_and_regret():
    report = run_fixture("exp5")
    assert abs(report.summary["pre_theta"] - 75 / 90) < TOL
    assert report.summary["post_shock_ask"] == 99.0
    assert abs(report.summary["post_theta"] - 75 / 99) < TOL
    assert report.summary["regret"] is True
    assert report.constants["commit_threshold"] == 0.80
    assert report.summary["regret_gap_jump"] == 9.0
    print("criterion 5 (ask 90 -> 99 exactly, theta 0.83 -> 0.76, regret): PASS")


def test_criterion_06_worked_book_replay():
    report = run_fixture("appendix_a")
    s = report.summary
    assert s["delta_v"] == 17.0
    assert report.constants["elasticity"] == 0.02
    assert s["effective_bids"] == {"C": 82.0, "D": 78.0, "E": 60.0}
    assert s["best_id"] == "C"
    assert abs(s["theta"] - 78 / 95) < TOL
    assert s["decision"] == "execute" and report.constants["T"] == 0.80
    assert s["slippage"] == 13.0
    print("criterion 6 (worked book: dV=17, bids 82/78/60, best C, slippage 13): PASS")


def test_criterion_07_bounded_compensation_preserves_ordering():
    rng = np.random.default_rng(20240820)
    sweep = np.concatenate([[0.0], np.logspace(-2, 6, 33)])
    for _ in range(1000):
        cap = float(rng.uniform(0.0, 30.0))
        eps = float(rng.uniform(0.001, 1.0))
        v_uncond = float(rng.uniform(cap + 1.0, cap + 100.0))
        v = float(rng.uniform(0.0, v_uncond - cap - 1e-6))
        rule = CompensationRule(eps, cap)
        assert v + cap < v_uncond
        for c in sweep:
            assert effective_utility(v, float(c), rule) < v_uncond
        gap = float(rng.uniform(0.0, 60.0))
        assert math.isinf(required_transfer(gap, rule)) == (gap > cap)
    print("criterion 7 (1000 triples: capped utility never crosses the ask): PASS")


def test_criterion_08_uniform_shift_argmax_invariance():
    rng = np.random.default_rng(20240821)
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        values = rng.uniform(0.0, 100.0, size=n)
        offers = rng.uniform(0.0, 300.0, size=n)
        base = float(rng.uniform(0.0, 500.0))
        eps = float(rng.uniform(0.001, 0.3))
        # No differential cap binding by construction: either unbounded, or
        # a ceiling above every shifted offer's utility.
        cap = math.inf if trial % 2 else float((offers.max() + base) * eps + 1.0)
        rule = CompensationRule(eps, cap)
        rows = [(f"e{i}", float(values[i]), float(offers[i]), "l") for i in range(n)]
        shifted = [(f"e{i}", float(values[i]), float(offers[i] + base), "l") for i in range(n)]
        assert (
            make_book(rows).best_bid(rule).entry.id
            == make_book(shifted).best_bid(rule).entry.id
        )
    print("criterion 8 (1000 books: uniform base shift never changes the pick): PASS")


def test_criterion_09_population_statistics():
    book = generate(PopulationConfig(n_candidates=10_000, seed=42))
    values = np.array([e.v_intrinsic for e in book.entries])
    liquid = np.array([e.status is LiquidityStatus.LIQUID for e in book.entries])
    assert 19.0 <= values.mean() <= 21.0
    assert 0.83 <= liquid.mean() <= 0.85
    big = generate(PopulationConfig(n_candidates=100_000, seed=42))
    scaled = np.array([e.v_intrinsic for e in big.entries]) / 100.0
    ks = stats.kstest(scaled, stats.beta(2, 8).cdf)
    assert ks.statistic < 0.01
    print(
        "criterion 9 (mean %.2f in [19,21], liquid %.3f in [0.83,0.85], KS %.4f < 0.01): PASS"
        % (values.mean(), liquid.mean(), ks.statistic)
    )


def riemann_oracle(profile, h0, n):
    """Independent midpoint-rule integrator, chunked to bound memory."""
    width = (1.0 - h0) / n
    total = 0.0
    chunk = 1_000_000
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n), dtype=float)
        total += float(np.sum(profile.g(h0 + (idx + 0.5) * width)))
    return math.pi * total * width


def test_criterion_10_cone_volumes():
    assert abs(cone_volume(DensityProfile.uniform(), 0.5) - math.pi / 2) < 1e-9
    assert abs(cone_volume(DensityProfile.linear_cone(), 0.0) - math.pi / 3) < 1e-6
    beta = DensityProfile.beta(2, 8)
    oracle = riemann_oracle(beta, 0.5, 10_000_000)
    assert abs(cone_volume(beta, 0.5) - oracle) < 1e-6
    for profile in (DensityProfile.linear_cone(), beta):
        full = cone_volume(profile, 0.0)
        for h0 in np.arange(0.1, 0.95, 0.1):
            assert cone_volume(profile, float(h0)) / full < 1 - h0
    print("criterion 10 (pi/2, pi/3, 1e7-step oracle match, super-linear collapse): PASS")


def dual_instance(f_theta, f_T, m_theta, m_T, c_req, c_max):
    f_book = make_book(
        [("ideal", 100.0, 0.0, "h"), ("bid", 100.0 * f_theta, 0.0, "l")], "F"
    )
    m = Counterparty(
        id="M",
        book=make_book(
            [("ideal", 100.0, 0.0, "h"), ("bid", 100.0 * m_theta, 0.0, "l")], "M"
        ),
        threshold=m_T,
        c_max=c_max,
    )
    return triple_coincidence(f_book, f_T, m, c_req, CompensationRule(0.05, 20.0))


def test_criterion_11_triple_coincidence_truth_table_and_monotonicity():
    expected_first_failure = {
        (True, True, True): MatchResult.MATCHED,
        (True, True, False): MatchResult.CIRCUIT_BREAKER,
        (True, False, True): MatchResult.M_SIDE_HOLD,
        (True, False, False): MatchResult.M_SIDE_HOLD,
        (False, True, True): MatchResult.F_SIDE_HOLD,
        (False, True, False): MatchResult.F_SIDE_HOLD,
        (False, False, True): MatchResult.F_SIDE_HOLD,
        (False, False, False): MatchResult.F_SIDE_HOLD,
    }
    for combo in itertools.product((True, False), repeat=3):
        f_pass, m_pass, c_pass = combo
        outcome = dual_instance(
            0.9 if f_pass else 0.7, 0.8,
            0.9 if m_pass else 0.7, 0.8,
            50.0 if c_pass else 150.0, 100.0,
        )
        assert outcome.result is expected_first_failure[combo], combo

    rng = np.random.default_rng(20240822)
    checked = 0
    for _ in range(1000):
        f_theta, m_theta = rng.uniform(0.4, 1.0, size=2)
        f_T, m_T = rng.uniform(0.4, 1.0, size=2)
        c_req, c_max = rng.uniform(0.0, 200.0, size=2)
        base = dual_instance(f_theta, f_T, m_theta, m_T, c_req, c_max)
        if base.result is not MatchResult.MATCHED:
            continue
        checked += 1
        eased = dual_instance(
            min(1.0, f_theta + 0.02), f_T * 0.95,
            min(1.0, m_theta + 0.02), m_T * 0.95,
            c_req * 0.9, c_max,
        )
        assert eased.result is MatchResult.MATCHED
    assert checked > 100
    print(f"criterion 11 (8-way truth table exact, {checked} matched cases monotone): PASS")


def test_criterion_12_byte_identical_reruns(tmp_path):
    commands = [
        ["exp1"], ["exp2"], ["exp3"], ["exp4"], ["exp5"], ["appendix-a"],
        ["sweep"], ["gen"],
        ["cone", "--profile", "beta:2,8", "--h0", "0.5"],
    ]
    for argv in commands:
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / f"{argv[0]}-{run}.out"
            seed = ["--seed", "42"] if argv[0] == "gen" else []
            assert main([*argv, *seed, "--out", str(out)]) == 0
            hashes.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert hashes[0] == hashes[1], argv
    print("criterion 12 (all nine commands re-run byte-identical): PASS")
