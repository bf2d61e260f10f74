import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from matchbook import (
    CompensationRule,
    Decision,
    ExperimentReport,
    InvalidConfig,
    PreferenceBook,
    apply_shock,
    reprice,
    run_sweep,
)
from matchbook import experiments
from matchbook.cli import main
from matchbook.experiments import (
    OVERRIDE_KEYS,
    RUNNERS,
    config_from_mapping,
    load_fixture,
    merge_config,
    run_appendix_a,
    run_exp1,
    run_exp2,
    run_exp3,
    run_exp4,
    run_exp5,
)


@pytest.fixture
def best_bid_calls(monkeypatch):
    """The rule of every PreferenceBook.best_bid query the test makes."""
    calls = []
    best_bid = PreferenceBook.best_bid

    def counted(book, rule):
        calls.append(rule)
        return best_bid(book, rule)

    monkeypatch.setattr(PreferenceBook, "best_bid", counted)
    return calls


@pytest.fixture
def pricings(monkeypatch):
    """The rule of every pricing of scenario or fixture bids the test makes."""
    calls = []
    price_bids = experiments.price_bids

    def counted(bids, rule, ask):
        calls.append(rule)
        return price_bids(bids, rule, ask)

    monkeypatch.setattr(experiments, "price_bids", counted)
    return calls


def cfg_for(name, overrides=None, **top):
    data = load_fixture(name)
    user = dict(top)
    if overrides:
        user["overrides"] = overrides
    if user:
        data = merge_config(data, user)
    return config_from_mapping(name, data)


class TestExp1:
    def test_fixture_snapshot(self):
        report = run_exp1(cfg_for("exp1"))
        assert report.summary["best_utility"] == 80.0
        assert report.summary["theta"] == pytest.approx(80 / 95, abs=1e-12)
        assert report.summary["decision"] == "hold"
        assert report.summary["slippage"] == 15.0
        assert report.records[0].threshold == 0.9

    def test_raising_cap_still_holds(self):
        # min(500 * 0.05, 35) = 25, so the bid tops out at 85: still short
        # of 0.90 * 95.
        report = run_exp1(cfg_for("exp1", {"cap": 35}))
        assert report.summary["best_utility"] == 85.0
        assert report.summary["theta"] == pytest.approx(85 / 95, abs=1e-12)
        assert report.summary["decision"] == "hold"

    def test_lower_threshold_executes(self):
        report = run_exp1(cfg_for("exp1", {"T": 0.80}))
        assert report.summary["decision"] == "execute"

    def test_missing_override(self):
        data = load_fixture("exp1")
        del data["overrides"]["bid"]
        with pytest.raises(InvalidConfig, match="exp1 needs overrides: bid"):
            run_exp1(config_from_mapping("exp1", data))


class TestExp2:
    def test_settles_at_fourth_step(self):
        report = run_exp2(cfg_for("exp2"))
        assert [r.decision for r in report.records] == [
            Decision.HOLD, Decision.HOLD, Decision.HOLD, Decision.EXECUTE,
        ]
        assert report.summary["t_star"] == 4
        assert report.summary["theta"] == pytest.approx(70 / 90, abs=1e-12)

    def test_weaker_bid_settles_later(self):
        # 65/90 ~ 0.722 clears only the final 0.70 rung.
        report = run_exp2(cfg_for("exp2", {"v_reach": 65}))
        assert report.summary["t_star"] == 5

    def test_parity_bid_fills_immediately(self):
        report = run_exp2(cfg_for("exp2", {"v_reach": 90}))
        assert report.summary["t_star"] == 1

    def test_bid_above_the_ask_is_priced_at_the_ask(self):
        # The echoed v_uncond stays the ask: the bid does not become it.
        report = run_exp2(cfg_for("exp2", {"v_reach": 95}))
        assert report.constants["v_uncond"] == 90.0
        assert report.summary["theta"] == 95 / 90
        assert report.summary["delta_v"] == -5.0


class TestExp3:
    def test_marketable_bid(self):
        report = run_exp3(cfg_for("exp3"))
        assert report.summary["theta"] == pytest.approx(94 / 90, abs=1e-12)
        assert report.summary["t_star"] == 1
        assert report.summary["immediate_fill"] is True
        assert report.summary["delta_v"] == -4.0

    def test_fills_even_at_maximal_threshold(self):
        report = run_exp3(cfg_for("exp3", {"T": 1.0}))
        assert report.summary["decision"] == "execute"

    def test_parity_bid_at_maximal_threshold(self):
        report = run_exp3(cfg_for("exp3", {"bid": 90, "T": 1.0}))
        assert report.summary["theta"] == 1.0
        assert report.summary["decision"] == "execute"


def brute_force_selection(candidates, eps, cap):
    """Independent argmax oracle over (id, v, c) triples."""
    best_id, best_u = None, -math.inf
    for cid, v, c in candidates:
        u = v + min(c * eps, cap)
        if u > best_u:
            best_id, best_u = cid, u
    return best_id


class TestExp4:
    def test_invariance_across_norms(self):
        report = run_exp4(cfg_for("exp4"))
        assert [m["selected_id"] for m in report.summary["markets"]] == ["A", "A"]
        assert [m["selected_v"] for m in report.summary["markets"]] == [85.0, 85.0]
        assert report.summary["ranking_invariant"] is True

    def test_matches_brute_force_oracle(self):
        report = run_exp4(cfg_for("exp4"))
        for market, base in zip(report.summary["markets"], (200.0, 30.0)):
            oracle = brute_force_selection(
                [("A", 85.0, base + 10), ("B", 75.0, base + 50)], 0.05, 20.0
            )
            assert market["selected_id"] == oracle

    def test_identical_efforts_pick_higher_value(self):
        report = run_exp4(cfg_for("exp4", {"effort_a": 10, "effort_b": 10}))
        assert [m["selected_id"] for m in report.summary["markets"]] == ["A", "A"]

    def test_uncapped_high_elasticity_still_invariant(self):
        # With no cap and elasticity 0.3, B's extra 40k of effort outweighs
        # the 10-point value gap, so B wins; crucially it wins in *both*
        # markets, because the base shift is uniform.
        report = run_exp4(cfg_for("exp4", {"elasticity": 0.3, "cap": "inf"}))
        selected = [m["selected_id"] for m in report.summary["markets"]]
        assert selected == ["B", "B"]
        assert report.summary["ranking_invariant"] is True
        for market, base in zip(report.summary["markets"], (200.0, 30.0)):
            oracle = brute_force_selection(
                [("A", 85.0, base + 10), ("B", 75.0, base + 50)], 0.3, math.inf
            )
            assert market["selected_id"] == oracle

    def test_bid_above_the_ask_is_priced_at_the_ask(self):
        # A's 99 tops the ask of 95; high-norm utility is 99 + min(200 * 0.05, 20).
        report = run_exp4(cfg_for("exp4", {"v_a": 99, "effort_a": 0}))
        high = report.summary["markets"][0]
        assert (high["selected_id"], high["utility"]) == ("A", 109.0)
        assert high["theta"] == 109 / 95

    def test_each_market_queries_its_book_once(self, pricings, capsys):
        # One pricing of the two bids per market.
        assert main(["exp4"]) == 0
        assert "ranking_invariant = True" in capsys.readouterr().out
        assert len(pricings) == 2


class TestExp5:
    def test_shock_triggers_regret(self):
        report = run_exp5(cfg_for("exp5"))
        assert report.summary["pre_theta"] == pytest.approx(75 / 90, abs=1e-12)
        assert report.summary["post_shock_ask"] == 99.0
        assert report.summary["post_theta"] == pytest.approx(75 / 99, abs=1e-12)
        assert report.summary["regret"] is True
        assert report.summary["regret_gap_jump"] == 9.0

    def test_identity_shock_absorbed(self):
        report = run_exp5(cfg_for("exp5", {"shock_factor": 1.0}))
        assert report.summary["regret"] is False
        assert report.summary["post_theta"] == report.summary["pre_theta"]

    def test_appends_the_post_shock_record(self):
        report = run_exp5(cfg_for("exp5"))
        commit, post = report.records
        c = report.constants
        assert post == apply_shock(commit, reprice(c["ask"], c["shock_factor"]))
        assert post.metrics.bid.entry.v_intrinsic == c["partner"]

    def test_gap_jump_is_exact_arithmetic(self):
        report = run_exp5(cfg_for("exp5"))
        assert report.records[-1].delta_v == 24.0
        assert report.records[0].delta_v == 15.0

    def test_partner_above_the_ask_is_priced_at_the_ask(self):
        report = run_exp5(cfg_for("exp5", {"partner": 95}))
        assert report.summary["pre_theta"] == 95 / 90
        # delta_v goes from 90 - 95 to 99 - 95.
        assert report.summary["regret_gap_jump"] == 9.0

    def test_failed_commitment_reports_hold(self):
        # With the threshold above the ratio nothing commits, so there is
        # nothing to shock and the report says so.
        report = run_exp5(cfg_for("exp5", {"commit_threshold": 0.9}))
        assert report.summary["commit_decision"] == "hold"
        assert report.summary["t_star"] is None
        assert "regret" not in report.summary


class TestAppendixA:
    def test_the_replay_queries_its_book_once(self, best_bid_calls, capsys):
        assert main(["appendix-a"]) == 0
        assert "best_id = C" in capsys.readouterr().out
        assert len(best_bid_calls) == 1

    def test_full_replay(self):
        report = run_appendix_a(cfg_for("appendix_a"))
        s = report.summary
        assert s["v_uncond"] == 95.0
        assert s["v_reach"] == 78.0
        assert s["delta_v"] == 17.0
        assert s["effective_bids"] == {"C": 82.0, "D": 78.0, "E": 60.0}
        assert s["best_id"] == "C"
        assert s["theta"] == pytest.approx(78 / 95, abs=1e-12)
        assert s["decision"] == "execute"
        assert s["slippage"] == 13.0
        assert s["theta_convention"] == "intrinsic"

    def test_lockup_row_anchors_the_ask(self):
        data = load_fixture("appendix_a")
        data["book"] = [row for row in data["book"] if row["id"] != "H"]
        report = run_appendix_a(config_from_mapping("appendix_a", data))
        assert report.summary["v_uncond"] == 88.0

    def test_higher_threshold_holds(self):
        report = run_appendix_a(cfg_for("appendix_a", {"T": 0.85}))
        assert report.summary["decision"] == "hold"

    def test_needs_a_book(self):
        with pytest.raises(InvalidConfig, match=r"appendix_a needs a book \(five-row fixture\)"):
            run_appendix_a(config_from_mapping("appendix_a", {"overrides": {"T": 0.8}}))


class TestPriceBids:
    """Scenario bids are priced with book.price_bids, and no book is built."""

    # appendix-a builds its configured five-row book: the probe sees a book.
    @pytest.mark.parametrize("command, books", [
        *((name, 0) for name in ("exp1", "exp2", "exp3", "exp4", "exp5", "sweep")), ("appendix-a", 1),
    ])
    def test_scenarios_build_no_book(self, command, books, monkeypatch, capsys):
        built = []
        set_columns = PreferenceBook._set_columns

        def counted(book, *args):
            built.append(args)
            return set_columns(book, *args)

        monkeypatch.setattr(PreferenceBook, "_set_columns", counted)
        assert main([command]) == 0
        assert len(built) == books


class TestReportConsistency:
    def test_verify_runs_on_every_report(self):
        for name in ("exp1", "exp2", "exp3", "exp4", "exp5", "appendix_a"):
            RUNNERS[name](cfg_for(name)).verify()

    def test_verify_catches_tampering(self):
        report = run_exp2(cfg_for("exp2"))
        report.summary["t_star"] = 2
        with pytest.raises(RuntimeError):
            report.verify()

    def test_inconsistent_report_cannot_be_built(self):
        report = run_exp2(cfg_for("exp2"))
        with pytest.raises(RuntimeError):
            ExperimentReport("exp2", report.constants, report.records, {**report.summary, "t_star": 2})

    @pytest.mark.parametrize("key", ["pre_theta", "post_theta"])
    def test_verify_checks_exp5_thetas(self, key):
        # pre_theta is the commitment's theta, post_theta the post-shock record's.
        report = run_exp5(cfg_for("exp5"))
        report.summary[key] += 0.125
        with pytest.raises(RuntimeError, match=f"exp5 report inconsistent: {key}"):
            report.verify()

    @pytest.mark.parametrize("name, tamper, what", [
        ("exp5", lambda s: s.update(commit_decision="hold"), "commit_decision 'hold' != 'execute'"),
        ("exp5", lambda s: s.update(post_shock_ask=s["post_shock_ask"] + 1), "post_shock_ask 100.0 - partner"),
        ("exp3", lambda s: s.update(immediate_fill=False), "immediate_fill False != True"),
        ("exp4", lambda s: s["markets"][1].update(decision="hold"), "market 1 theta or decision"),
        ("exp1", lambda s: s.update(best_utility=81.0), "slippage 15.0 != v_uncond - best_utility 14.0"),
    ], ids=["exp5-commit_decision", "exp5-post_shock_ask", "exp3-immediate_fill", "exp4-market-decision",
            "exp1-best_utility"])
    def test_verify_checks_every_derivable_field(self, name, tamper, what):
        # Each field is derivable from the records and the constants: exp5's
        # post-shock gap is post_shock_ask - partner, as apply_shock computes it.
        report = RUNNERS[name](cfg_for(name))
        tamper(report.summary)
        with pytest.raises(RuntimeError, match=f"{name} report inconsistent: {what}"):
            report.verify()

    def test_a_sweep_row_is_verified(self, monkeypatch, capsys):
        # A row whose summary disagrees with its records is a bug, not a
        # config error: it keeps its traceback through the CLI.
        import matchbook.experiments as experiments

        run_point = experiments._run_point

        def tampered(*args):
            records, summary = run_point(*args)
            return records, {**summary, "t_star": 7}

        monkeypatch.setattr(experiments, "_run_point", tampered)
        with pytest.raises(RuntimeError, match="sweep report inconsistent: t_star 7 != None"):
            run_sweep(cfg_for("sweep"))
        with pytest.raises(RuntimeError, match="sweep report inconsistent"):
            main(["sweep"])

    def test_json_round_trip_is_deterministic(self):
        a = run_exp1(cfg_for("exp1")).to_json()
        b = run_exp1(cfg_for("exp1")).to_json()
        assert a == b


class TestSweep:
    def test_threshold_grid_flips_at_the_crossing(self):
        rows = run_sweep(cfg_for("sweep"))
        flags = [(row["T0"], row["decision"]) for row in rows]
        assert flags == [
            (0.95, "hold"), (0.88, "hold"), (0.8, "hold"),
            (0.75, "execute"), (0.7, "execute"),
        ]

    def test_single_point_matches_runner(self):
        data = load_fixture("sweep")
        data["grid"] = {"T0": [0.75]}
        rows = run_sweep(config_from_mapping("sweep", data))
        assert len(rows) == 1
        report = run_exp2(cfg_for("exp2", {"v_uncond": 90, "v_reach": 70}))
        assert rows[0]["decision"] == "execute"
        assert rows[0]["theta"] == report.summary["theta"]

    def test_bid_above_the_ask_is_priced_at_the_ask(self):
        rows = run_sweep(cfg_for("sweep", {"bid": 95}))
        assert [row["theta"] for row in rows] == [95 / 90] * 5
        assert {row["delta_v"] for row in rows} == {-5.0}
        # The shock reprices the configured ask, 90, not the bid.
        shocked = run_sweep(cfg_for("sweep", {"bid": 95, "shock_factor": 1.1}))
        assert {row["post_theta"] for row in shocked} == {95 / 99}

    def test_cap_grid_is_ceilinged_by_elasticity(self):
        # With a 500k offer at elasticity 0.05 the utility tops out at 25
        # points, so no cap on this grid reaches 0.90 * 95 = 85.5.
        caps = [0, 5, 10, 15, 20, 25, 30, 35, 40]
        data = {
            "overrides": {"v_uncond": 95, "bid": 60, "c": 500, "elasticity": 0.05, "T0": 0.9},
            "grid": {"cap": caps},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        oracle = [60 + min(500 * 0.05, cap) >= 0.9 * 95 for cap in caps]
        assert [row["decision"] == "execute" for row in rows] == oracle
        assert not any(oracle)

    def test_cap_grid_crossing_with_larger_offer(self):
        # Raising the offer to 1000k lifts the ceiling above the grid, and
        # the first executing cap is then 30 (60 + cap >= 85.5).
        caps = [0, 5, 10, 15, 20, 25, 30, 35, 40]
        data = {
            "overrides": {"v_uncond": 95, "bid": 60, "c": 1000, "elasticity": 0.05, "T0": 0.9},
            "grid": {"cap": caps},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        oracle = [60 + min(1000 * 0.05, cap) >= 0.9 * 95 for cap in caps]
        assert [row["decision"] == "execute" for row in rows] == oracle
        first = next(row for row in rows if row["decision"] == "execute")
        assert first["cap"] == 30

    def test_grid_rows_are_ordered_by_index(self):
        rows = run_sweep(cfg_for("sweep"))
        assert [row["grid_index"] for row in rows] == list(range(len(rows)))

    def test_two_parameter_product_order(self):
        data = load_fixture("sweep")
        data["grid"] = {"T0": [0.9, 0.7], "eps": [0.01, 0.02]}
        rows = run_sweep(config_from_mapping("sweep", data))
        assert [(r["T0"], r["eps"]) for r in rows] == [
            (0.9, 0.01), (0.9, 0.02), (0.7, 0.01), (0.7, 0.02),
        ]

    def test_decay_schedule_sweep(self):
        data = {
            "overrides": {"v_uncond": 90, "bid": 70, "c": 0, "T0": 0.95, "horizon": 40},
            "grid": {"lambda": [0.01, 0.1]},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        # Faster decay executes sooner; both eventually clear 70/90.
        assert all(row["decision"] == "execute" for row in rows)
        assert rows[1]["t_star"] < rows[0]["t_star"]

    def test_shock_factor_column(self):
        data = {
            "overrides": {"v_uncond": 90, "bid": 75, "c": 0, "T0": 0.8},
            "grid": {"shock_factor": [1.0, 1.1]},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        assert rows[0]["regret"] is False
        assert rows[1]["regret"] is True
        assert rows[1]["post_theta"] == pytest.approx(75 / 99, abs=1e-12)

    def test_a_shocked_point_queries_its_book_once(self, pricings):
        # The partner of the shock is the bid the point's snapshot was priced
        # from, and the three points share one bid and rule: one pricing.
        data = {
            "overrides": {"v_uncond": 90, "bid": 75, "c": 0, "T0": 0.8},
            "grid": {"shock_factor": [1.0, 1.1, 1.2]},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        assert all(row["decision"] == "execute" and row["post_theta"] is not None for row in rows)
        assert rows[2]["post_theta"] == 75 / reprice(90.0, 1.2)
        assert len(pricings) == 1

    def test_a_T0_cap_grid_queries_once_per_cap(self, pricings):
        # T0 changes only the schedule, so each cap's snapshot serves every T0.
        data = {
            "overrides": {"v_uncond": 90, "bid": 60, "c": 500, "T0": 0.5},
            "grid": {"T0": [0.9, 0.7, 0.5], "cap": [0.0, 20.0, 40.0]},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        assert [row["theta"] for row in rows] == [60 / 90, 80 / 90, 85 / 90] * 3
        assert [rule.cap for rule in pricings] == [0.0, 20.0, 40.0]

    def test_signed_zero_rules_are_priced_apart(self, tmp_path):
        # 0.0 == -0.0, yet a bid of -0.0 at eps -0.0 has theta -0.0: one
        # query per rule must not merge the two.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "overrides": {"v_uncond": 90, "bid": -0.0, "c": 0, "T0": 0.5},
            "grid": {"eps": [0.0, -0.0]}, "format": "csv",
        }), encoding="utf-8")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1:] == [
            "0,0.0,hold,,0.0,90.0,90.0,,", "1,-0.0,hold,,-0.0,90.0,90.0,,",
        ]

    @given(name=st.sampled_from(["exp1", "exp2", "exp3", "exp5"]), v=st.floats(0, 100),
           ask=st.floats(1, 100), T=st.floats(0.01, 1), c=st.floats(0, 1000), eps=st.floats(0, 1),
           cap=st.one_of(st.floats(0, 50), st.just(math.inf)), shock_factor=st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_each_one_bid_scenario_is_a_one_point_sweep(self, name, v, ask, T, c, eps, cap, shock_factor):
        # exp1, exp2, exp3 and exp5 each price one bid (v, c) against an ask
        # pinned at its configured value: each is one row of a fixture-bid
        # sweep.  exp1 and exp3 hold T and sweep their one eps; exp2 runs its
        # table at c = 0; exp5 holds its threshold at c = 0 and is shocked.
        top, grid = {}, {"eps": [eps]}
        if name == "exp2":
            k, sweep = {"v_uncond": ask, "v_reach": v}, {"v_uncond": ask, "bid": v, "c": 0}
            top = {"schedule": load_fixture("exp2")["schedule"]}
        elif name == "exp5":
            k = {"partner": v, "ask": ask, "commit_threshold": T, "shock_factor": shock_factor}
            sweep, grid = {"v_uncond": ask, "bid": v, "c": 0, "T0": T}, {"shock_factor": [shock_factor]}
        else:
            k = {"v_uncond": ask, "bid": v, "c": c, "T": T, "elasticity": eps, "cap": cap}
            sweep = {"v_uncond": ask, "bid": v, "c": c, "T0": T, "cap": cap}
        report = RUNNERS[name](config_from_mapping(name, {**top, "overrides": k}))
        (row,) = run_sweep(config_from_mapping("sweep", {**top, "overrides": sweep, "grid": grid}))
        s = dict(report.summary)
        if name == "exp5":
            commit = report.records[0]
            s.update(decision=s["commit_decision"], theta=s["pre_theta"], delta_v=commit.delta_v,
                     slippage=commit.slippage)
            assert (row["post_theta"], row["regret"]) == (s.get("post_theta"), s.get("regret"))
        keys = ("decision", "t_star", "theta", "delta_v", "slippage")
        assert [row[key] for key in keys] == [s[key] for key in keys]

    def test_a_book_prices_its_ask_once(self, monkeypatch):
        # The ask is cached with its book, not recomputed per grid point.
        calls = []
        v_uncond = PreferenceBook.v_uncond

        def counted(book):
            calls.append(book)
            return v_uncond(book)

        monkeypatch.setattr(PreferenceBook, "v_uncond", counted)
        data = {
            "population": {"n_candidates": 200, "seed": 5},
            "overrides": {"T0": 0.5},
            "grid": {"reach_slope": [0.0, 0.8], "eps": [0.05, 0.1, 0.2]},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        assert len(rows) == 6
        assert len(calls) == 2

    def test_population_generated_once_per_reach_slope(self, monkeypatch):
        import matchbook.experiments as experiments

        configs = []
        generate = experiments.generate

        def counting_generate(config):
            configs.append(config)
            return generate(config)

        monkeypatch.setattr(experiments, "generate", counting_generate)
        data = {
            "population": {"n_candidates": 200, "seed": 5},
            "overrides": {"T0": 0.5},
            "grid": {"reach_slope": [0.0, 0.8, 0.0], "eps": [0.05, 0.1], "cap": [0.0, 20.0]},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        assert len(rows) == 12
        assert [c.reach_slope for c in configs] == [0.0, 0.8]

    def test_population_reach_slope_sweep(self):
        from matchbook import CompensationRule, PopulationConfig, generate

        data = {
            "population": {"n_candidates": 400, "seed": 5},
            "overrides": {"T0": 0.5},
            "grid": {"reach_slope": [0.0, 0.8]},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        assert len(rows) == 2
        assert all(row["decision"] in ("execute", "hold") for row in rows)
        # Each grid point regenerates the book with its own slope; the row
        # ratio must match metrics computed on an independently generated
        # copy of that book.
        rule = CompensationRule(0.05, 20.0)
        for row, slope in zip(rows, (0.0, 0.8)):
            book = generate(PopulationConfig(n_candidates=400, seed=5, reach_slope=slope))
            assert row["theta"] == book.metrics(rule).theta
        liquid_counts = [
            sum(e.status.value == "liquid" for e in generate(
                PopulationConfig(n_candidates=400, seed=5, reach_slope=s)
            ).entries)
            for s in (0.0, 0.8)
        ]
        assert liquid_counts[0] == 400 and liquid_counts[1] < 400

    @pytest.mark.parametrize(
        "source",
        [{}, {"book": [{"id": "H", "v_intrinsic": 90, "c_offer": 0, "status": "liquid"}]}],
        ids=["fixture-bid", "book"],
    )
    def test_reach_slope_grid_needs_a_population(self, source):
        # Without a generated population the slope has no book to reshape,
        # and every grid point would repeat the same row.
        grid = {"reach_slope": [0.1, 0.9], "T0": [0.8]}
        data = merge_config(load_fixture("sweep"), {**source, "grid": grid})
        with pytest.raises(InvalidConfig, match="reach_slope grid needs a population"):
            run_sweep(config_from_mapping("sweep", data))

    @pytest.mark.parametrize(
        "grid, overrides",
        [({"T0": [0.9, 0.8]}, {"lambda": 0.1}), ({"lambda": [0.1, 0.5]}, {"T0": 0.9})],
        ids=["T0", "lambda"],
    )
    def test_decay_schedule_takes_its_grid(self, grid, overrides):
        # The fixture bid's theta is 70 / 90; T(t) = 0.9 exp(-0.1 t) first meets it at t = 2.
        # A schedule is used whole, so the decay beside a grid is spelled in overrides.
        data = merge_config(load_fixture("sweep"), {"overrides": overrides, "grid": grid})
        assert [row["t_star"] for row in run_sweep(config_from_mapping("sweep", data))] == [2, 1]
        schedule = {"mode": "decay", "t0": 0.9, "rate": 0.1}
        data = merge_config(load_fixture("sweep"), {"schedule": schedule, "grid": grid})
        with pytest.raises(InvalidConfig, match=rf"got a schedule and \['{next(iter(grid))}'\]"):
            run_sweep(config_from_mapping("sweep", data))

    def test_drought_book_reports_drought(self):
        data = {
            "book": [{"id": "H", "v_intrinsic": 90, "c_offer": 0, "status": "hypothetical"}],
            "overrides": {"T0": 0.8},
            "grid": {"eps": [0.05]},
        }
        rows = run_sweep(config_from_mapping("sweep", data))
        assert rows[0]["decision"] == "drought"
        assert rows[0]["theta"] is None

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidConfig, match="sweep needs a grid"):
            run_sweep(config_from_mapping("sweep", {"overrides": {"v_uncond": 90}}))
        with pytest.raises(InvalidConfig, match="sweep needs a non-empty grid"):
            run_sweep(config_from_mapping("sweep", {"grid": {"T0": []}}))

    def test_unknown_parameter_rejected(self):
        data = load_fixture("sweep")
        data["grid"] = {"volatility": [1.0]}
        with pytest.raises(InvalidConfig):
            run_sweep(config_from_mapping("sweep", data))

    def test_horizon_before_schedule_rejected(self):
        data = load_fixture("sweep")
        data["overrides"] = {**data["overrides"], "horizon": 0}
        with pytest.raises(InvalidConfig):
            run_sweep(config_from_mapping("sweep", data))


class TestConfigMachinery:
    def test_merge_overrides_key_by_key(self):
        base = {"overrides": {"a": 1, "b": 2}, "seed": 1}
        user = {"overrides": {"b": 3}, "format": "csv"}
        merged = merge_config(base, user)
        assert merged["overrides"] == {"a": 1, "b": 3}
        assert merged["seed"] == 1 and merged["format"] == "csv"

    def test_unbounded_cap_spelled_inf(self):
        report = run_appendix_a(cfg_for("appendix_a"))
        assert report.constants["cap"] == math.inf

    def test_bad_schedule_mode(self):
        with pytest.raises(InvalidConfig):
            config_from_mapping("exp2", {"schedule": {"mode": "sine"}})

    def test_bad_format(self):
        with pytest.raises(InvalidConfig):
            config_from_mapping("exp1", {"format": "yaml"})

    def test_unknown_experiment(self):
        with pytest.raises(InvalidConfig):
            config_from_mapping("exp9", {})

    @pytest.mark.parametrize("name", sorted(name for name in OVERRIDE_KEYS if OVERRIDE_KEYS[name]))
    def test_override_keys_are_declared_per_command(self, name):
        data = load_fixture(name)
        assert set(data.get("overrides", {})) <= OVERRIDE_KEYS[name].keys()
        for key in OVERRIDE_KEYS[name]:
            config_from_mapping(name, merge_config(data, {"overrides": {key: 1}}))
        with pytest.raises(InvalidConfig, match=r"unknown override keys \['bidd'\]"):
            config_from_mapping(name, merge_config(data, {"overrides": {"bidd": 3}}))

    def test_declared_key_a_run_does_not_read_is_accepted(self):
        # A sweep over a population keeps the fixture's bid keys unread.
        data = merge_config(load_fixture("sweep"), {"population": {"n_candidates": 20}})
        rows = run_sweep(config_from_mapping("sweep", data))
        assert [row["grid_index"] for row in rows] == list(range(5))

    def test_seed_argument_wins(self):
        cfg = config_from_mapping("gen", load_fixture("gen"), seed=123)
        assert cfg.population.seed == 123

    def test_seed_argument_passes_the_key_check(self):
        # One rule for a seed, whether it comes from the CLI or a config file.
        for data, seed in (({}, 7), ({"seed": 7}, None)):
            with pytest.raises(InvalidConfig, match=r"unknown config keys \['seed'\] for exp1"):
                config_from_mapping("exp1", data, seed=seed)
