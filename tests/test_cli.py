import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import matchbook
from matchbook import DensityProfile, cli, cone_volume, errors, experiments
from matchbook.cli import main
from matchbook.experiments import CONFIG_KEYS, MAX_GRID_POINTS, MAX_HORIZON, RUNNERS, load_fixture
from matchbook.book import MAX_ROWS

#: Every value draws as 0.0, so a book generated from it has no positive ask.
ZERO_ASK_POPULATION = {"n_candidates": 50, "beta_alpha": 1e-300, "beta_beta": 1.0,
                       "reach_slope": 0.0, "seed": 1}

#: A sweep's schedule is used whole; its refusal beside a T0, lambda or floor.
SCHEDULE_CLASH = "config error: a sweep takes a schedule or T0, lambda and floor, not both; got a schedule and "
DECAY = {"mode": "decay", "t0": 0.9, "rate": 0.1}
SWEEP_OVERRIDES = "T0, bid, c, cap, elasticity, floor, horizon, lambda, shock_factor, v_uncond"
#: A sweep's floor that no point reads: a lambda grid replaces the lambda override.
FLOOR_UNREAD = "config error: a sweep's floor is read only where lambda is not 0, and every point's lambda is 0\n"

#: (argv, config passed with --config or None, exit code, the exact stderr):
#: ValueError and InvalidConfig refusals exit 2, a drought exits 3.
REFUSALS = [
    (["cone", "--h0", "1.5"], None, 2, "config error: h0 must lie in [0, 1], got 1.5\n"),
    (["cone", "--h0", "nan"], None, 2, "config error: h0 must lie in [0, 1], got nan\n"),
    (["sweep"], {"population": ZERO_ASK_POPULATION, "overrides": {"T0": 0.5}, "grid": {"cap": [0.0]}},
     2, "config error: internal ask must be > 0, got 0.0\n"),
    (["sweep"], {"grid": {"cap": []}}, 2, "config error: sweep needs a non-empty grid\n"),
    (["sweep"], {"grid": {"cap": [1.0]}}, 2, "config error: sweep needs a schedule, or T0 in overrides\n"),
    (["sweep"], {"book": [{"id": "A", "v_intrinsic": 90, "c_offer": 0, "status": "liquid"}],
                 "population": {"n_candidates": 50}},
     2, "config error: a sweep takes a book or a population, not both\n"),
    (["sweep"], {"schedule": {"mode": "table", "points": [[1, 0.9]]}, "grid": {"T0": [0.8]}},
     2, f"{SCHEDULE_CLASH}['T0']\n"),
    (["sweep"], {"schedule": {"mode": "table", "points": [[1, 0.9]]}, "grid": {"lambda": [0.1]}},
     2, f"{SCHEDULE_CLASH}['lambda']\n"),
    (["sweep"], {"schedule": {"mode": "table", "points": [[1, 0.9]]}, "overrides": {"T0": 0.8},
                 "grid": {"lambda": [0.1]}},
     2, f"{SCHEDULE_CLASH}['T0', 'lambda']\n"),
    (["sweep", "--override", "lambda=0.5"], {"schedule": DECAY, "grid": {"cap": [20]}},
     2, f"{SCHEDULE_CLASH}['lambda']\n"),
    (["sweep", "--override", "floor=0.5"], {"schedule": DECAY, "grid": {"cap": [20]}},
     2, f"{SCHEDULE_CLASH}['floor']\n"),
    (["sweep", "--override", "floor=5"], None, 2, "config error: floor must lie in [0, 1], got 5.0\n"),
    (["sweep", "--override", "floor=nan"], None, 2, "config error: floor must lie in [0, 1], got nan\n"),
    (["sweep", "--override", "floor=0.5"], None, 2, FLOOR_UNREAD),
    (["sweep", "--override", "floor=0.5", "--override", "lambda=0.5"], {"grid": {"lambda": [0.0, -0.0]}},
     2, FLOOR_UNREAD),
    (["sweep", "--override", "T=0.8"], None,
     2, f"config error: unknown override keys ['T'] for sweep; supported: {SWEEP_OVERRIDES}\n"),
    (["appendix-a"], {"book": [{"id": "H", "v_intrinsic": 95, "c_offer": 0, "status": "hypothetical"}]},
     3, "liquidity drought: book 'F' has no liquid entry\n"),
]
REFUSAL_IDS = ["h0-above-1", "h0-nan", "zero-ask", "empty-grid", "no-schedule", "book-and-population",
               "table-schedule-T0-grid", "table-schedule-lambda-grid",
               "table-schedule-lambda-grid-beside-T", "decay-schedule-beside-lambda",
               "decay-schedule-beside-floor", "floor-above-1", "floor-nan", "floor-without-lambda",
               "floor-beside-a-zero-lambda-grid", "sweep-T-override", "no-liquid-row"]

#: ("command key=value ...", the words after "config error: ") for the bids
#: exp1-exp5 and the fixture-bid sweep price: the ask is checked first, then
#: every bid's value and every bid's offer in a book's words, then the rest
#: of the run in its own order (a sweep's rule comes before its bid).
PRICED_BID_REFUSALS = [
    ("exp1 c=-1 bid=-1", "v_intrinsic must be finite and >= 0, got -1.0"),
    ("exp1 bid=nan v_uncond=inf", "internal ask must be finite, got inf"),
    ("exp1 bid=inf elasticity=-1", "v_intrinsic must be finite and >= 0, got inf"),
    ("exp1 bid=1e308 c=1e308 elasticity=10 cap=inf T=nan", "theta = inf / 95.0 is not finite"),
    ("exp1 v_uncond=5e-324 T=nan", "theta = 80.0 / 5e-324 is not finite"),
    ("exp1 c=inf cap=nan", "c_offer must be finite and >= 0, got inf"),
    ("exp2 v_reach=-1 v_uncond=0", "internal ask must be > 0, got 0.0"),
    ("exp2 v_reach=-0.0 v_uncond=-0.0", "internal ask must be > 0, got -0.0"),
    ("exp3 c=nan elasticity=-1", "c_offer must be finite and >= 0, got nan"),
    ("exp3 bid=inf c=-1", "v_intrinsic must be finite and >= 0, got inf"),
    ("exp3 c=-1 T=nan", "c_offer must be finite and >= 0, got -1.0"),
    ("exp4 v_b=-1 effort_a=-300", "v_intrinsic must be finite and >= 0, got -1.0"),
    ("exp4 effort_b=-1000 v_a=nan", "v_intrinsic must be finite and >= 0, got nan"),
    ("exp4 elasticity=-1 v_a=-1", "elasticity must be finite and >= 0, got -1.0"),
    ("exp4 base_low=-100 T=nan", "thresholds must lie in (0, 1], got nan"),
    ("exp4 v_uncond=inf v_b=-1", "internal ask must be finite, got inf"),
    ("exp4 v_a=1e308 effort_a=1e308 elasticity=10 cap=inf T=nan", "theta = inf / 95.0 is not finite"),
    ("exp5 ask=inf partner=-1", "internal ask must be finite, got inf"),
    ("exp5 partner=-1 shock_factor=-1", "v_intrinsic must be finite and >= 0, got -1.0"),
    ("exp5 partner=nan ask=0", "internal ask must be > 0, got 0.0"),
    ("exp5 shock_factor=-1 commit_threshold=nan", "a shock factor must be finite and > 0, got -1.0"),
    ("sweep bid=-1 c=nan", "v_intrinsic must be finite and >= 0, got -1.0"),
    ("sweep bid=-1 elasticity=-1", "elasticity must be finite and >= 0, got -1.0"),
    ("sweep v_uncond=0 bid=-1", "internal ask must be > 0, got 0.0"),
    ("sweep bid=-1 shock_factor=-1", "v_intrinsic must be finite and >= 0, got -1.0"),
    ("sweep c=inf T0=nan", "c_offer must be finite and >= 0, got inf"),
    ("sweep v_uncond=inf cap=-1", "cap must be >= 0 (inf allowed), got -1.0"),
    ("sweep bid=1e308 c=1e308 elasticity=10 cap=inf T0=nan", "theta = inf / 90.0 is not finite"),
]

REMOVED_ERRORS = ["MatchbookError", "NonPositiveAsk", "OutOfRange", "EmptyBook",
                  "StepBeforeSchedule", "NotExecuted", "MissingOverride", "EmptyGrid"]

ALL_COMMANDS = [
    ["exp1"], ["exp2"], ["exp3"], ["exp4"], ["exp5"], ["appendix-a"],
    ["sweep"], ["gen"],
    ["cone", "--profile", "beta:2,8", "--h0", "0.5"],
]


#: A book row whose ask is the smallest float and whose offer buys utility 2.0.
TINY_ASK_ROW = {"id": "A", "v_intrinsic": 5e-324, "c_offer": 100, "status": "liquid"}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestExitCodes:
    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_defaults_succeed(self, argv, tmp_path):
        out = tmp_path / "out.dat"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.exists()

    def test_override_parse_error(self, capsys):
        assert main(["exp1", "--override", "elasticity"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["exp1", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize("text", ["[1, 2]", '{"overrides": [1]}'], ids=["list", "list-overrides"])
    def test_config_must_be_an_object(self, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        assert main(["exp1", "--config", str(cfg), "--override", "T=0.5"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_profile(self, capsys):
        assert main(["cone", "--profile", "pyramid"]) == 2
        assert main(["cone", "--profile", "beta:2"]) == 2

    def test_bad_h0(self):
        assert main(["cone", "--h0", "1.5"]) == 2

    def test_unknown_sweep_parameter(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"volatility": [1.0]}}), encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_non_numeric_constant_is_config_error(self, capsys):
        assert main(["exp1", "--override", "v_uncond=tall"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_out_to_a_directory_is_config_error(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot write {tmp_path}: ")

    def test_gen_sidecar_to_a_directory_is_config_error(self, tmp_path, capsys):
        (tmp_path / "book.csv.meta.json").mkdir()
        assert main(["gen", "--out", str(tmp_path / "book.csv")]) == 2
        assert "config error: cannot write" in capsys.readouterr().err
        assert not (tmp_path / "book.csv").exists()

    def test_failed_gen_keeps_an_existing_book(self, tmp_path, capsys):
        (tmp_path / "book.csv").write_text("old\n")
        (tmp_path / "book.csv.meta.json").mkdir()
        assert main(["gen", "--out", str(tmp_path / "book.csv")]) == 2
        assert (tmp_path / "book.csv").read_text() == "old\n"

    def test_gen_book_to_a_directory_leaves_no_sidecar(self, tmp_path, capsys):
        (tmp_path / "book.csv").mkdir()
        assert main(["gen", "--out", str(tmp_path / "book.csv")]) == 2
        assert f"config error: cannot write {tmp_path / 'book.csv'}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["book.csv"]

    def test_sweep_drought_exits_3(self, tmp_path):
        cfg = tmp_path / "dry.json"
        cfg.write_text(
            json.dumps(
                {
                    "book": [
                        {"id": "H", "v_intrinsic": 90, "c_offer": 0, "status": "hypothetical"}
                    ],
                    "overrides": {"T0": 0.8},
                    "grid": {"eps": [0.05, 0.1]},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        assert "drought" in out.read_text()

    def test_appendix_a_drought_exits_3(self, tmp_path):
        cfg = tmp_path / "dry.json"
        cfg.write_text(
            json.dumps(
                {
                    "book": [
                        {"id": "H", "v_intrinsic": 95, "c_offer": 0, "status": "hypothetical"},
                        {"id": "B", "v_intrinsic": 88, "c_offer": 0, "status": "lockup"},
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert main(["appendix-a", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("argv, config, code, stderr", REFUSALS, ids=REFUSAL_IDS)
    def test_refusal_stderr_and_exit(self, argv, config, code, stderr, tmp_path):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", str(cfg)]
        assert run_cli([*argv, "--out", str(tmp_path / "out")]) == (code, "", stderr)

    @pytest.mark.parametrize("command, words", PRICED_BID_REFUSALS, ids=[c for c, _ in PRICED_BID_REFUSALS])
    def test_a_priced_bid_is_refused_in_order(self, command, words):
        name, *overrides = command.split()
        argv = [name, *itertools.chain.from_iterable(("--override", o) for o in overrides)]
        assert run_cli(argv) == (2, "", f"config error: {words}\n")

    @pytest.mark.parametrize("name", REMOVED_ERRORS)
    def test_removed_error_classes_are_gone(self, name):
        # A refused argument raises ValueError, a refused config InvalidConfig.
        assert not hasattr(matchbook, name)
        assert not hasattr(errors, name)

    def test_two_exceptions_one_exit_table(self):
        defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
        assert defined == {"InvalidConfig", "NoLiquidity"}
        assert errors.InvalidConfig.__bases__ == errors.NoLiquidity.__bases__ == (Exception,)
        assert cli._CONFIG_ERRORS == (errors.InvalidConfig, ValueError, OverflowError)


SCENARIOS = ["exp1", "exp2", "exp3", "exp4", "exp5", "appendix-a", "sweep"]

#: Every override key a fixture sets, plus the optional ones the sweep reads.
OVERRIDE_KEYS = sorted(
    {key for name in SCENARIOS for key in load_fixture(name.replace("-", "_"))["overrides"]}
    | {"horizon", "T0", "lambda", "floor"}
)

#: An integer no float can hold: float() of it raises OverflowError.
BEYOND_FLOAT = str(10**400)

#: Override values as typed on the command line, numbers of any size, integers
#: beyond float range included: a horizon above MAX_HORIZON is a config error,
#: so none runs for long.
OVERRIDE_VALUES = st.one_of(
    st.sampled_from(
        ["NaN", "nan", "Infinity", "inf", "-Infinity", "-inf", "0", "-0.0", "-1", "-5",
         "1.5", "abc", "", "null", "true", "[1]", "{}", "1e7", "1e300", "10001"]
    ),
    st.floats().map(repr),
    st.text(alphabet=string.ascii_letters, max_size=4),
    st.integers(10**308, 10**400).map(str),
    st.integers(-(10**400), -(10**308)).map(str),
)

CONFIG_COMMANDS = ["exp1", "exp2", "appendix-a", "sweep", "gen"]

#: Any JSON value a config key might hold, in or out of its domain.
CONFIG_VALUES = st.one_of(
    st.sampled_from([None, True, "", "a", "1", [], {}, 0, -1, 1.5, 10**30, 10**400]),
    st.integers(-5, 50),
    st.floats(),
)
SCHEDULES = st.fixed_dictionaries(
    {"mode": st.sampled_from(["table", "decay", "step"])},
    optional={
        "points": st.one_of(CONFIG_VALUES, st.lists(st.lists(CONFIG_VALUES, max_size=3), max_size=3)),
        "t0": CONFIG_VALUES, "rate": CONFIG_VALUES, "floor": CONFIG_VALUES,
    },
)
#: n_candidates is drawn from at most 1000 so that no example runs for long.
POPULATIONS = st.fixed_dictionaries(
    {"n_candidates": st.one_of(st.integers(-1, 1000), st.sampled_from([1.5, math.nan, "10", True]))},
    optional={key: CONFIG_VALUES for key in ("seed", "beta_alpha", "reach_slope", "comp_scale")},
)
BOOK_ROWS = st.lists(
    st.fixed_dictionaries({}, optional={
        "id": CONFIG_VALUES, "v_intrinsic": CONFIG_VALUES, "c_offer": CONFIG_VALUES,
        "status": st.sampled_from(["liquid", "lockup", "hypothetical", "frozen"]),
    }),
    max_size=4,
)
GRIDS = st.dictionaries(
    st.sampled_from(["T0", "lambda", "eps", "cap", "reach_slope", "shock_factor", "x"]),
    st.one_of(CONFIG_VALUES, st.lists(CONFIG_VALUES, max_size=3)),
    max_size=2,
)
CONFIG_OBJECTS = st.fixed_dictionaries({}, optional={
    "seed": CONFIG_VALUES,
    "format": st.sampled_from(["csv", "json", "xml"]),
    "schedule": st.one_of(CONFIG_VALUES, SCHEDULES),
    "population": st.one_of(CONFIG_VALUES, POPULATIONS),
    "book": st.one_of(CONFIG_VALUES, BOOK_ROWS),
    "owner_id": CONFIG_VALUES,
    "grid": st.one_of(CONFIG_VALUES, GRIDS),
})


class TestOverrideContract:
    """Any --override value exits 0, 2 or 3; no input reaches a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["exp1", "--override", "T=1.5"],
            ["exp1", "--override", "T=NaN"],
            ["exp1", "--override", "v_uncond=0", "--override", "bid=0"],
            ["exp1", "--override", "c=inf"],
            ["exp1", "--override", "elasticity=abc"],
            ["exp2", "--override", "v_uncond=-5"],
            ["exp2", "--override", "v_reach=nan"],
            ["exp5", "--override", "shock_factor=0"],
            ["exp5", "--override", "ask=0", "--override", "partner=5"],
            # 90 * 1e308 overflows to an infinite ask, which would read as theta = 0.
            ["exp5", "--override", "shock_factor=1e308"],
            # At commit_threshold 1 the agent holds, and the factor is still checked.
            *(["exp5", "--override", "commit_threshold=1", "--override", f"shock_factor={factor}"]
              for factor in ("NaN", "-3", "0", "inf", "-inf")),
            # A finite factor whose product overflows or underflows, on a hold.
            ["exp5", "--override", "commit_threshold=1", "--override", "shock_factor=1e308"],
            ["exp5", "--override", "ask=1e-300", "--override", "partner=0",
             "--override", "shock_factor=1e-300"],
            ["sweep", "--override", "bid=1", "--override", "shock_factor=-1"],
            ["exp1", "--override", "T=true"],
            ["appendix-a", "--override", "T=0"],
            ["sweep", "--override", "horizon=abc"],
            ["sweep", "--override", "horizon=inf"],
            ["sweep", "--override", "horizon=1e7"],
            ["sweep", "--override", "horizon=10001"],
            ["sweep", "--override", "horizon=12.7"],
            ["sweep", "--override", "lambda=abc"],
            # The grid's T0 replaces the override's, which must still be a number.
            ["sweep", "--override", "T0=abc"],
            ["sweep", "--seed", "-1"],
            ["exp1", "--override", f"v_uncond={BEYOND_FLOAT}"],
            ["exp2", "--override", f"v_reach={BEYOND_FLOAT}"],
            ["sweep", "--override", f"horizon={BEYOND_FLOAT}"],
        ],
        ids=lambda argv: " ".join(argv).replace(BEYOND_FLOAT, "10**400"),
    )
    def test_out_of_domain_value_is_config_error(self, argv, capsys):
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", SCENARIOS)
    def test_unknown_override_key_is_config_error(self, command, tmp_path, capsys):
        # A misspelled key is rejected, not ignored in favour of the fixture's value.
        out = tmp_path / "out"
        assert main([command, "--override", "bidd=3", "--out", str(out)]) == 2
        assert "unknown override keys ['bidd']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", SCENARIOS)
    def test_unknown_override_key_in_config_is_config_error(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"overrides": {"bidd": 3}}', encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "unknown override keys ['bidd']" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["bid=abc", "bid=true", "c=null", "v_uncond=[1]"])
    def test_declared_key_a_run_does_not_read_must_be_a_number(self, override, tmp_path, capsys):
        # A sweep over a population never reads the fixture's bid keys.
        cfg = tmp_path / "pop.json"
        cfg.write_text('{"population": {"n_candidates": 50}}', encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--override", override]) == 2
        assert "is no float" in capsys.readouterr().err

    def test_overflowing_shock_on_a_held_sweep_point_is_config_error(self, tmp_path, capsys):
        # 70 / 90 holds at 0.99, and 90 * 1e308 is still no ask.
        cfg = tmp_path / "shock.json"
        cfg.write_text(json.dumps({"grid": {"T0": [0.99], "shock_factor": [1e308]}}), encoding="utf-8")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "the repriced ask must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["exp1", "exp3"])
    def test_overflowing_theta_is_config_error(self, command, fmt, tmp_path, capsys):
        # 1e300 / 1e-300 is inf, which would clear any threshold.
        out = tmp_path / "report"
        argv = [command, "--override", "v_uncond=1e-300", "--override", "bid=1e300",
                "--override", "c=0", "--format", fmt, "--out", str(out)]
        assert main(argv) == 2
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_offer_beyond_float_range_prints_no_warning(self, capsys):
        # A's offer of base + 1e308 times the elasticity overflows; the cap clips it.
        argv = ["exp4", "--override", "effort_a=1e308", "--override", "elasticity=10"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "'selected_id': 'A', 'selected_v': 85.0, 'utility': 105.0" in out

    def test_tiny_ask_appendix_a_prices_the_intrinsic_theta(self, tmp_path):
        # U / V_uncond = 2.0 / 5e-324 is past the float range; V_reach / V_uncond is 1.0.
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"book": [TINY_ASK_ROW]}), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["appendix-a", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads(out.read_text(encoding="utf-8"))["summary"]
        assert (summary["theta"], summary["slippage"], summary["best_utility"]) == (1.0, -2.0, 2.0)

    def test_appendix_a_refuses_a_utility_past_the_float_range(self, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"book": [{**TINY_ASK_ROW, "v_intrinsic": 90, "c_offer": 1e308}]}),
                       encoding="utf-8")
        argv = ["appendix-a", "--config", str(cfg), "--override", "elasticity=10", "--override", "cap=inf"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: the best bid's effective utility inf is not finite\n"

    def test_population_without_an_ask_is_config_error(self, tmp_path, capsys):
        # gen writes a book with no positive ask; only a run that steps on it fails.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": ZERO_ASK_POPULATION, "overrides": {"T0": 0.5},
                                   "grid": {"cap": [0.0]}}), encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("ask", ["0", "-1"])
    @pytest.mark.parametrize("command", ["exp1", "exp2", "exp3", "exp4", "exp5"])
    def test_non_positive_ask_has_one_refusal(self, command, ask, capsys):
        # The words of the zero-ask population sweep in REFUSALS, a negative ask included.
        key = "ask" if command == "exp5" else "v_uncond"
        assert main([command, "--override", f"{key}={ask}"]) == 2
        assert capsys.readouterr() == ("", f"config error: internal ask must be > 0, got {float(ask)}\n")

    @pytest.mark.parametrize("ask", ["inf", "1e309"])
    @pytest.mark.parametrize("command", ["exp1", "exp2", "exp3", "exp4", "exp5"])
    def test_infinite_ask_is_refused_in_its_words(self, command, ask, capsys):
        # Not as the ideal row's v_intrinsic, a book column the user never typed.
        key = "ask" if command == "exp5" else "v_uncond"
        assert main([command, "--override", f"{key}={ask}"]) == 2
        assert capsys.readouterr() == ("", "config error: internal ask must be finite, got inf\n")

    @pytest.mark.parametrize("key", ["elasticity", "cap"])
    @pytest.mark.parametrize("command", ["exp2", "exp5"])
    def test_transfer_free_scenarios_take_no_rule_keys(self, command, key, capsys):
        # Their bids offer no transfer, so no rule could change a byte of the report.
        assert main([command, "--override", f"{key}=0"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: unknown override keys ['{key}'] for {command}; supported: ")

    @pytest.mark.parametrize(
        "command, error", [("exp1", RuntimeError), ("exp3", TypeError)], ids=["runtime", "type"]
    )
    def test_a_bug_keeps_its_traceback(self, command, error, monkeypatch):
        def broken(cfg):
            raise error("a bug, not an input")

        monkeypatch.setitem(RUNNERS, command, broken)
        with pytest.raises(error, match="a bug, not an input"):
            main([command])

    @pytest.mark.parametrize(
        "argv",
        [
            # A bid above the exp1 ask: the ask stays pinned at v_uncond.
            ["exp1", "--override", "v_uncond=50", "--override", "bid=60.3"],
            # v_uncond - (v_uncond - bid) rounds to 23.799999999999997.
            ["exp1", "--override", "v_uncond=78.6", "--override", "bid=23.8", "--override", "c=0"],
        ],
        ids=" ".join,
    )
    def test_report_verifies_for_in_domain_values(self, argv):
        assert main(argv) == 0

    @given(
        command=st.sampled_from(SCENARIOS),
        overrides=st.lists(
            st.tuples(st.sampled_from(OVERRIDE_KEYS), OVERRIDE_VALUES), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_override_exits_0_2_or_3(self, command, overrides):
        argv = [command]
        for key, value in overrides:
            argv += ["--override", f"{key}={value}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3)

    @pytest.mark.parametrize(
        "rows",
        [[], [{"id": "Z", "v_intrinsic": 0, "c_offer": 0, "status": "liquid"}]],
        ids=["empty", "zero-ask"],
    )
    @pytest.mark.parametrize("command", ["appendix-a", "sweep"])
    def test_configured_book_without_an_ask(self, command, rows, tmp_path, capsys):
        cfg = tmp_path / "book.json"
        cfg.write_text(json.dumps({"book": rows}), encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_horizon_cap_fails_at_once(self, tmp_path, capsys):
        # MAX_HORIZON bounds every run, a configured table schedule included.
        assert main(["sweep", "--override", f"horizon={MAX_HORIZON}", "--override", "T0=0.5",
                     "--out", str(tmp_path / "rows.csv")]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": {"mode": "table", "points": [[1, 0.99], [10**9, 0.5]]}}),
                       encoding="utf-8")
        assert main(["exp2", "--config", str(cfg)]) == 2
        assert f"at most {MAX_HORIZON} steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "population",
        [{"beta_alpha": math.nan}, {"n_candidates": 10.5}, {"seed": 1.5}, {"comp_scale": math.inf},
         {"comp_scale": 1e308}, {"n_candidates": True}, {"reach_slope": True}],
        ids=["nan-alpha", "fractional-n", "fractional-seed", "inf-scale", "overflowing-offers",
             "boolean-n", "boolean-slope"],
    )
    @pytest.mark.parametrize("command", ["gen", "sweep"])
    def test_bad_population_is_config_error(self, command, population, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": {"n_candidates": 20, **population}}), encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ['{"seed": 1e400}', '{"seed": 1.5}', '{"seed": "7"}', '{"seed": true}',
         '{"schedule": {"mode": "table", "points": [[1e400, 0.5]]}}', '{"grid": 5}',
         '{"schedule": {"mode": "table", "points": [[1.5, 0.99], [2.7, 0.5]]}}',
         '{"schedule": {"mode": "decay", "t0": true, "rate": 0.1}}', '{"grid": {"T0": [true]}}',
         '{"grid": {"T0": [0.8], "cap": "20"}}', '{"overides": {"bid": 3}}'],
        ids=["overflowing-seed", "fractional-seed", "string-seed", "boolean-seed", "overflowing-step",
             "scalar-grid", "fractional-steps", "boolean-t0", "boolean-grid-value",
             "string-grid-value", "misspelled-key"],
    )
    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_bad_config_is_config_error(self, command, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config",
        [(["exp5", "--override", "commit_threshold=1", "--override", "shock_factor=NaN"], None),
         (["sweep"], '{"grid": {"T0": [0.99], "shock_factor": [-1e999]}}')],
        ids=["exp5-override", "sweep-grid"],
    )
    def test_bad_shock_factor_on_a_hold_writes_nothing(self, argv, config, tmp_path, capsys):
        # Every run holds, so no shock lands, but the factor is checked all the same.
        if config is not None:
            (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "report.json"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 2
        assert "config error: a shock factor must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_grid_list_is_an_empty_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": []}', encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "non-empty grid" in capsys.readouterr().err
        # exp1 reads no grid, so it takes none.
        assert main(["exp1", "--config", str(cfg)]) == 2
        assert "unknown config keys ['grid'] for exp1" in capsys.readouterr().err

    @given(config=CONFIG_OBJECTS, command=st.sampled_from(CONFIG_COMMANDS))
    @settings(max_examples=200, deadline=None)
    def test_any_config_exits_0_2_or_3(self, config, command, tmp_path_factory):
        # Only keys the command reads, so that the values get past the key check.
        config = {k: v for k, v in config.items() if k in CONFIG_KEYS[command.replace("-", "_")]}
        cfg = tmp_path_factory.getbasetemp() / "any-config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv = [command, "--config", str(cfg), "--out", str(cfg.with_suffix(".out"))]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3)


def run_cli(argv):
    """What ``matchbook`` exits with, argparse usage errors included, its stdout and its stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def exit_status(argv):
    return run_cli(argv)[0]


class TestSizeCaps:
    """A population or sweep grid over its cap fails before it is allocated."""

    @pytest.mark.parametrize("command", ["gen", "sweep"])
    def test_population_over_the_cap_is_config_error(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": {"n_candidates": 10**15}}), encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"[1, {MAX_ROWS}]" in capsys.readouterr().err

    #: Sizes under the cap stay small so that no example runs for long; sizes
    #: of 10**15 and up are more than any machine can allocate.
    @given(n=st.one_of(st.integers(-5, 1000), st.integers(10**15, 10**30)))
    @settings(max_examples=60, deadline=None)
    def test_any_population_size_exits_0_or_2(self, n, tmp_path_factory):
        cfg = tmp_path_factory.getbasetemp() / "size.json"
        cfg.write_text(json.dumps({"population": {"n_candidates": n}}), encoding="utf-8")
        code = exit_status(["gen", "--config", str(cfg), "--out", str(cfg.with_suffix(".csv"))])
        assert code == (0 if 1 <= n <= MAX_ROWS else 2)

    def test_grid_over_the_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        # Five lists of 1000 values: 10**15 points.  Building any of them
        # fails the test rather than exhausting memory.
        def refuse(*lists):
            raise AssertionError("the grid was built before its size was checked")

        monkeypatch.setattr(itertools, "product", refuse)
        values = [0.5 + i / 4000 for i in range(1000)]
        grid = {key: values for key in ("T0", "lambda", "eps", "cap", "shock_factor")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": grid}), encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"at most {MAX_GRID_POINTS} points, got {10**15}" in capsys.readouterr().err


#: A value in its key's domain for each top-level config key but
#: ``experiment``, which every command takes, so that a command that read the
#: key would run; and for ``seed``, which no command takes: a population's
#: seed is its own.
CONFIG_KEY_VALUES = {
    "format": "csv",
    "overrides": {},
    "schedule": load_fixture("exp2")["schedule"],
    "book": load_fixture("appendix_a")["book"],
    "owner_id": "F",
    "population": {"n_candidates": 50},
    "seed": 7,
    "grid": {"cap": [0.0, 20.0]},
}

#: Each command with top-level config keys that one config reads in full.  A
#: sweep prices a book or a population, never both, so it takes two configs.
READ_KEYS = [
    *(pytest.param(name, keys, id=name.replace("_", "-")) for name, keys in CONFIG_KEYS.items()
      if name != "sweep"),
    pytest.param("sweep", CONFIG_KEYS["sweep"] - {"population"}, id="sweep-book"),
    pytest.param("sweep", CONFIG_KEYS["sweep"] - {"book"}, id="sweep-population"),
]


class TestConfigKeys:
    """Each command takes exactly the top-level config keys it reads
    (``experiments.CONFIG_KEYS``); any other key is exit 2."""

    @pytest.mark.parametrize(
        "command, key",
        [pytest.param(name.replace("_", "-"), key, id=f"{name}-{key}")
         for name, keys in CONFIG_KEYS.items() for key in sorted(set().union(*CONFIG_KEYS.values(), CONFIG_KEY_VALUES) - keys)],
    )
    def test_key_outside_the_command_table_is_config_error(self, command, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: CONFIG_KEY_VALUES[key]}), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, keys", READ_KEYS)
    def test_every_key_in_the_command_table_is_read(self, command, keys, tmp_path):
        command = command.replace("_", "-")
        data = {k: CONFIG_KEY_VALUES[k] for k in keys - {"experiment"}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": command, **data}), encoding="utf-8")
        assert exit_status([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("named", ["exp1", 5, None])
    def test_config_naming_another_experiment_is_config_error(self, named, tmp_path, capsys):
        # exp1's constants must not run as an exp3 report.
        cfg = tmp_path / "exp1.json"
        cfg.write_text(json.dumps({**load_fixture("exp1"), "experiment": named}), encoding="utf-8")
        out = tmp_path / "out.json"
        assert main(["exp3", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"a config for exp3 names the experiment {named!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("named", ["appendix-a", "appendix_a"])
    def test_appendix_a_config_takes_either_spelling(self, named, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": named}), encoding="utf-8")
        plain, configured = tmp_path / "plain.json", tmp_path / "configured.json"
        assert main(["appendix-a", "--out", str(plain)]) == 0
        assert main(["appendix-a", "--config", str(cfg), "--out", str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes()


#: A population with no seed of its own, and a book whose best liquid bid is B.
SMALL_POPULATION = {"n_candidates": 200}
PRICED_BOOK = [{"id": "A", "v_intrinsic": 90, "c_offer": 0, "status": "lockup"},
               {"id": "B", "v_intrinsic": 70, "c_offer": 100, "status": "liquid"}]

#: Each input that had two spellings, as (command, flags, the removed form,
#: the key its refusal names, the one spelling left, the sha256 of the CSV
#: rows the removed form wrote while it still ran).  Where a schedule met
#: overrides, the removed form's rows came from the schedule alone, and where
#: it met a grid, from the grid's T0 or lambda and the schedule's other fields.
ONE_SPELLING = {
    "decay-schedule-T0-grid": (
        "sweep", [], {"schedule": DECAY, "grid": {"T0": [0.9, 0.8]}}, "['T0']",
        {"overrides": {"lambda": 0.1}, "grid": {"T0": [0.9, 0.8]}},
        "0cc5094882857b6ad7cb3decb79a930681c9130f4b8e92d8bfa2351d9fabe3c0"),
    "decay-schedule-floor-T0-grid": (
        "sweep", [], {"schedule": {**DECAY, "rate": 0.5, "floor": 0.8}, "grid": {"T0": [0.95, 0.7]}},
        "['T0']", {"overrides": {"lambda": 0.5, "floor": 0.8}, "grid": {"T0": [0.95, 0.7]}},
        "5b1430b98aa0b0e9f22735c39e16038c9381d3267c9452d20a39723ca439306f"),
    "decay-schedule-lambda-grid": (
        "sweep", [], {"schedule": {**DECAY, "floor": 0.8}, "grid": {"lambda": [0.0, 0.1, 0.5]}},
        "['lambda']", {"overrides": {"T0": 0.9, "floor": 0.8}, "grid": {"lambda": [0.0, 0.1, 0.5]}},
        "a958d8a7130b08018db15760ec40f2763b5778c72d98475adb856458dc428435"),
    "decay-schedule-both-grids": (
        "sweep", [], {"schedule": {**DECAY, "floor": 0.8}, "grid": {"T0": [0.95, 0.75], "lambda": [0.0, 0.2]}},
        "['T0', 'lambda']", {"overrides": {"floor": 0.8}, "grid": {"T0": [0.95, 0.75], "lambda": [0.0, 0.2]}},
        "64ff6a3a9affa48dcf96a25a9c6184e28d67ab11ec2a9d722a56bd27daffc243"),
    "decay-schedule-beside-overrides": (
        "sweep", ["--override", "lambda=0.5", "--override", "floor=0.8"],
        {"schedule": DECAY, "grid": {"cap": [20]}}, "['floor', 'lambda']",
        {"schedule": DECAY, "grid": {"cap": [20]}},
        "2a20a68b2a9e1ba0504abf71f4ee1311fb05fcb11c952fd14683d76f69abdf77"),
    "table-schedule-beside-T0": (
        "sweep", ["--override", "T0=0.5"], {"schedule": {"mode": "table", "points": [[1, 0.95], [3, 0.75]]},
                                           "grid": {"cap": [0, 20]}}, "['T0']",
        {"schedule": {"mode": "table", "points": [[1, 0.95], [3, 0.75]]}, "grid": {"cap": [0, 20]}},
        "37b5ad8b13fed6762be3c21abff91d1a90190a063d9eadd41807ea3d4a104870"),
    "T-override": (
        "sweep", ["--override", "T=0.75"], {"grid": {"cap": [0, 20]}}, "['T']",
        {"overrides": {"T0": 0.75}, "grid": {"cap": [0, 20]}},
        "b219d37d02e2f0a74c1463f9cca9347d3831b723fcc5044ed3d9df1abcf1f905"),
    "T-beside-T0-grid": (
        "sweep", ["--override", "T=0.8"], {}, "['T']", {},
        "a594b6d9e1775e27b8476dd312670d25a6b137c5f4c40852a0bff1b46992a4cd"),
    "owner-id-beside-book": (
        "sweep", [], {"book": PRICED_BOOK, "owner_id": "Z", "overrides": {"T0": 0.8}, "grid": {"eps": [0.05, 0.2]}},
        "['owner_id']", {"book": PRICED_BOOK, "overrides": {"T0": 0.8}, "grid": {"eps": [0.05, 0.2]}},
        "cac169e17dccbfa7eff5c1bc82561d3ef35e74ec640a46c4a32031d5e9130cde"),
    "owner-id": (
        "sweep", [], {"owner_id": "Z"}, "['owner_id']", {},
        "a594b6d9e1775e27b8476dd312670d25a6b137c5f4c40852a0bff1b46992a4cd"),
    "sweep-seed": (
        "sweep", [], {"seed": 7, "population": SMALL_POPULATION, "overrides": {"T0": 0.5}, "grid": {"cap": [0, 20]}},
        "['seed']", {"population": {**SMALL_POPULATION, "seed": 7}, "overrides": {"T0": 0.5}, "grid": {"cap": [0, 20]}},
        "83017ee424b0ae14e128568e36063715be991f17fc4e5440207e1869ce4eeb61"),
    "gen-seed": (
        "gen", [], {"seed": 7, "population": {"n_candidates": 50}}, "['seed']",
        {"population": {"n_candidates": 50, "seed": 7}},
        "319c407a9de5baf8a7ca206787a629edf07c2b1012a749da7c83da6260e0ee02"),
    "gen-seed-beside-population-seed": (
        "gen", [], {"seed": 7}, "['seed']", {},
        "29d930e206e9e6ce119e5ef31ce91df95344285e8bb7a119f7e0cc11dc4a71fc"),
}


class TestOneSpelling:
    """Each refused merged form has a spelling left that writes its old rows."""

    @pytest.mark.parametrize("name", ONE_SPELLING)
    def test_removed_form_is_refused_and_its_spelling_keeps_the_rows(self, name, tmp_path):
        command, flags, removed, named, spelled, digest_before = ONE_SPELLING[name]
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps(removed), encoding="utf-8")
        code, _, err = run_cli([command, "--config", str(cfg), *flags, "--format", "csv", "--out", str(out)])
        assert (code, err.startswith("config error: "), named in err) == (2, True, True), err
        assert not out.exists()
        cfg.write_text(json.dumps(spelled), encoding="utf-8")
        assert main([command, "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 0
        assert digest(out) == digest_before


#: Each command's help line, as ``matchbook --help`` lists it.
HELP_LINES = {
    "exp1": "deep out-of-the-money bid: clipped compensation fails to clear",
    "exp2": "settling: execution through threshold decay",
    "exp3": "marketable bid: immediate fill above the ask",
    "exp4": "regional norm invariance of the book ranking",
    "exp5": "post-execution shock, slippage and regret",
    "appendix-a": "worked five-row book replay",
    "sweep": "grid sweep emitting one summary row per point",
    "gen": "generate a seeded population book",
    "cone": "candidate volume above a status cutoff",
}

#: Profile names, well- and ill-formed, and beta shape pairs drawn from every
#: float, the infinities and NaN included.
PROFILES = st.one_of(
    st.sampled_from(["uniform", "linear-cone", "pyramid", "beta:", "beta:2", "beta:1,2,3", "beta:a,b"]),
    st.tuples(st.floats(), st.floats()),
)


class TestCommandFlags:
    """Each command takes exactly the flags it reads; any other is exit 2."""

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listing = " ".join(capsys.readouterr().out.split())
        assert "{" + ",".join(HELP_LINES) + "}" in listing
        for name, help_line in HELP_LINES.items():
            assert f"{name} {help_line}" in listing

    @pytest.mark.parametrize(
        "flag",
        [["--config", "cfg.json"], ["--seed", "42"], ["--override", "T=0.5"], ["--steps", "100000"]],
        ids=lambda flag: flag[0],
    )
    def test_cone_rejects_flags_it_does_not_read(self, flag, tmp_path):
        argv = ["cone", "--profile", "beta:2,8", "--h0", "0.5", *flag, "--out", str(tmp_path / "v")]
        assert exit_status(argv) == 2
        assert not (tmp_path / "v").exists()

    def test_gen_rejects_override(self, tmp_path):
        argv = ["gen", "--override", "n_candidates=20", "--out", str(tmp_path / "b.csv")]
        assert exit_status(argv) == 2
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("command", SCENARIOS)
    def test_scenarios_take_every_flag_they_read(self, command, tmp_path):
        # Four flags for the six scenarios; sweep also takes --seed for its population.
        cfg = tmp_path / "cfg.json"
        population = {"population": SMALL_POPULATION} if command == "sweep" else {}
        cfg.write_text(json.dumps(population), encoding="utf-8")
        key, value = next(iter(load_fixture(command.replace("-", "_"))["overrides"].items()))
        seed = ["--seed", "7"] if command == "sweep" else []
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), *seed, "--override",
                     f"{key}={json.dumps(value)}", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith(("t,", "grid_index,"))

    @pytest.mark.parametrize("command", SCENARIOS)
    def test_scenarios_reject_seed(self, command, tmp_path):
        # Nothing in these runs is drawn, so a seed would change no byte.  The
        # sweep fixture holds no population, so its seed is refused too.
        out = tmp_path / "out.json"
        assert exit_status([command, "--seed", "7", "--out", str(out)]) == 2
        assert not out.exists()

    def test_sweep_seed_needs_a_population_in_the_merged_config(self, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        argv = ["sweep", "--config", str(cfg), "--seed", "5", "--out", str(out)]
        cfg.write_text(json.dumps({"overrides": {"T0": 0.5}}), encoding="utf-8")
        code, _, err = run_cli(argv)
        assert (code, err.startswith("config error: unknown config keys ['seed']")) == (2, True), err
        assert not out.exists()
        cfg.write_text(json.dumps({"population": SMALL_POPULATION, "overrides": {"T0": 0.5}}), encoding="utf-8")
        assert main(argv) == 0

    def test_seed_flag_matches_config_keys(self):
        seeded = {name for name, (_, _, flags) in cli.COMMANDS.items() if "--seed" in flags}
        assert seeded == {name.replace("_", "-") for name, keys in CONFIG_KEYS.items() if "population" in keys}
        assert seeded == {"sweep", "gen"}

    @pytest.mark.parametrize(
        "profile", ["beta:nan,2", "beta:2,nan", "beta:inf,2", "beta:1e400,2", "beta:2,-inf"]
    )
    def test_non_finite_beta_shape_is_config_error(self, profile, capsys):
        assert main(["cone", "--profile", profile, "--h0", "0.5"]) == 2
        assert "finite and > 0" in capsys.readouterr().err

    @given(
        profile=PROFILES,
        h0=st.one_of(st.floats().map(repr), st.sampled_from(["", "abc", "1e400", "-0.0"])),
        fmt=st.sampled_from([[], ["--format", "csv"], ["--format", "json"], ["--format", "xml"]]),
    )
    @example(profile=(5e-324, 1.7976931348623157e308), h0="5e-324", fmt=[])  # SciPy overflowed
    @example(profile=(0.5, 2.0), h0="0.0", fmt=[])  # printed inf
    @settings(max_examples=150, deadline=None)
    def test_any_cone_input_exits_0_or_2(self, profile, h0, fmt):
        if isinstance(profile, tuple):
            shapes, profile = profile, "beta:{!r},{!r}".format(*profile)
        else:
            shapes = ()
        code, out, _ = run_cli(["cone", f"--profile={profile}", f"--h0={h0}", *fmt])
        assert code in (0, 2, 3)
        if code == 0:
            assert all(0 < shape < math.inf for shape in shapes)
            assert math.isfinite(float(out))

    @pytest.mark.parametrize(
        "profile, h0", [("beta:0.5,2", "0"), ("beta:2,0.5", "0.5"), ("beta:0.5,0.5", "0")]
    )
    def test_non_finite_volume_is_no_result(self, profile, h0, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["cone", "--profile", profile, "--h0", h0, "--out", str(out)]) == 3
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "no result" in printed.err
        assert not out.exists()

    @pytest.mark.parametrize("profile", ["beta:2,0.5", "beta:0.5,0.5"])
    def test_a_cutoff_just_below_1_is_no_result_and_no_warning(self, profile):
        # The grid repeats points there, so a zero width meets the infinite
        # density at h = 1: NaN, with no numpy warning on stderr.
        assert run_cli(["cone", "--profile", profile, "--h0", repr(1 - 2**-53)]) == (
            3, "", "no result: the cone volume came out as nan\n")


def run_in_empty_dir(argv):
    """``run_cli(argv)`` from a fresh working directory, so that an ``--out``
    file one run writes is no ``--config`` file for the next."""
    with tempfile.TemporaryDirectory() as cwd, pytest.MonkeyPatch.context() as patch:
        patch.chdir(cwd)
        return run_cli(argv)


class TestParserPerCommand:
    """The one parser that serves every command: its usage errors, the argv
    it reads by default, and parses that leave it as it was."""

    @pytest.mark.parametrize(
        "argv",
        [[], ["-h"], ["bogus"], ["--seed", "1", "exp1"], ["exp1", "--bogus"], ["exp1", "extra"],
         ["exp1", "--seed"], ["cone", "--config", "x"], ["gen", "--override", "a=1"],
         ["exp1", "--override", "bid=80"], ["sweep", "--override", "T0=0.5", "--seed", "7"],
         *([name, "-h"] for name in cli.COMMANDS)],
        ids=" ".join,
    )
    def test_a_parse_mutates_nothing(self, argv):
        # The parser is shared, so a default that one call changed would reach the next.
        parser = cli.build_parser()
        plain = [parser.parse_args([name]) for name in cli.COMMANDS]
        run_in_empty_dir(argv)
        assert [parser.parse_args([name]) for name in cli.COMMANDS] == plain

    @pytest.mark.parametrize(
        "argv, error",
        [([], "the following arguments are required: command"),
         (["bogus"], "argument command: invalid choice: 'bogus' (choose from {})".format(
             ", ".join(map(repr, cli.COMMANDS)))),
         (["exp1", "extra"], "unrecognized arguments: extra")],
        ids=["missing", "unknown", "extra"],
    )
    def test_usage_error_text(self, argv, error):
        usage = "usage: matchbook [-h] {" + ",".join(cli.COMMANDS) + "} ...\n"
        assert run_cli(argv) == (2, "", f"{usage}matchbook: error: {error}\n")

    def test_argv_defaults_to_sys_argv(self, tmp_path, monkeypatch):
        out = tmp_path / "exp3.json"
        monkeypatch.setattr(sys, "argv", ["matchbook", "exp3", "--out", str(out)])
        assert main() == 0
        assert json.loads(out.read_text())["summary"]["t_star"] == 1


def run_with_outputs(argv):
    """``run_cli`` of ``argv`` plus ``--out out`` in a fresh working
    directory: its exit code, stdout and stderr, and the bytes of every file
    it wrote there."""
    with tempfile.TemporaryDirectory() as cwd, pytest.MonkeyPatch.context() as patch:
        patch.chdir(cwd)
        result = run_cli([*argv, "--out", "out"])
        return result, {path.name: path.read_bytes() for path in sorted(Path(cwd).iterdir())}


def empty_caches():
    """Make the next call of each command a process's first one again."""
    cli.build_parser.cache_clear()
    experiments._fixture_text.cache_clear()


#: Every command with its default inputs, an override, a config error, a
#: usage error and help from the parser and a subparser: a warm-up that builds
#: the parser and reads every fixture.
WARM_UP = [
    *ALL_COMMANDS,
    ["exp1", "--override", "bid=80", "--override", "c=0"],
    ["exp2", "--override", "v_uncond=abc"],
    ["exp1", "--bogus"],
    ["--help"],
    ["exp1", "--help"],
]


#: The progs of the parser and of each subparser that build_parser makes.
PARSER_PROGS = ["matchbook", *(f"matchbook {name}" for name in cli.COMMANDS)]


def count_work(monkeypatch):
    """Lists that record each ArgumentParser built, by prog, and each
    fixture file opened, by name, from now on."""
    built, read = [], []
    configs = Path(experiments.__file__).parent / "configs"
    init, opener = argparse.ArgumentParser.__init__, io.open

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counted_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == configs:
            read.append(Path(file).name)
        return opener(file, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(io, "open", counted_open)
    return built, read


class TestWarmCalls:
    """The parser is built once per process and each fixture read once; a
    call after any other gives what the process's first call gives."""

    @pytest.mark.parametrize("command", [*cli.COMMANDS, None])
    def test_each_parser_is_built_once(self, command, monkeypatch):
        # Whatever a process's first call names, the parser it builds serves every command.
        argv = ["--help"] if command is None else [command, "--help"]
        empty_caches()
        built, _ = count_work(monkeypatch)
        assert run_in_empty_dir(argv)[0] == 0
        assert built == PARSER_PROGS
        for other in ([], *([name, "--help"] for name in cli.COMMANDS)):
            run_in_empty_dir(other)
        assert built == PARSER_PROGS
        assert cli.build_parser() is cli.build_parser()

    def test_a_warm_call_builds_no_parser_and_reads_no_fixture(self, monkeypatch):
        for argv in WARM_UP:
            run_in_empty_dir(argv)
        built, read = count_work(monkeypatch)
        for argv in WARM_UP:
            run_in_empty_dir(argv)
        assert (built, read) == ([], [])
        # The counters see the work a cold call does.
        empty_caches()
        assert run_in_empty_dir(["exp1"])[0] == 0
        assert (built, read) == (PARSER_PROGS, ["exp1.json"])

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_a_warm_run_is_a_cold_run(self, argv):
        empty_caches()
        cold = run_with_outputs(argv)
        for other in WARM_UP:
            run_with_outputs(other)
        assert run_with_outputs(argv) == cold
        assert cold[0][0] == 0

    def test_overrides_never_reach_the_next_call(self):
        plain = run_with_outputs(["exp1"])
        assert run_with_outputs(["exp1", "--override", "bid=80", "--override", "c=0"]) != plain
        assert run_with_outputs(["exp1"]) == plain
        assert cli.build_parser().parse_args(["exp1"]).override == []

    def test_a_mutated_fixture_changes_no_later_run(self):
        plain = run_with_outputs(["exp1"])
        data = load_fixture("exp1")
        data["overrides"]["bid"] = 80
        data["format"] = "csv"
        assert load_fixture("exp1") != data
        assert run_with_outputs(["exp1"]) == plain


class TestDeterminism:
    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_rerun_is_byte_identical(self, argv, tmp_path):
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.out"
            seed = ["--seed", "42"] if argv[0] == "gen" else []
            assert main([*argv, *seed, "--out", str(out)]) == 0
            hashes.append(digest(out))
        assert hashes[0] == hashes[1]

    def test_gen_formats_are_deterministic(self, tmp_path):
        for fmt in ("csv", "json"):
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"{fmt}-{run}.out"
                assert main(["gen", "--seed", "7", "--format", fmt, "--out", str(out)]) == 0
                outs.append(digest(out))
            assert outs[0] == outs[1]

    def test_different_seed_changes_gen(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "--seed", "1", "--out", str(a)])
        main(["gen", "--seed", "2", "--out", str(b)])
        assert digest(a) != digest(b)


class TestWriteInPlace:
    """``--out`` rewrites an existing file in place and cuts it to the new bytes."""

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_rewrite_over_a_longer_file_is_a_fresh_write(self, argv, tmp_path):
        written = {}
        for run in ("fresh", "reused"):
            (tmp_path / run).mkdir()
            out = tmp_path / run / "out"
            if run == "reused":
                out.write_bytes(b"#" * 65536)
                if argv[0] == "gen":
                    Path(f"{out}.meta.json").write_bytes(b"#" * 65536)
            assert main([*argv, "--out", str(out)]) == 0
            written[run] = {p.name: p.read_bytes() for p in (tmp_path / run).iterdir()}
        assert written["reused"] == written["fresh"]

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_out_to_dev_null_succeeds(self, argv, tmp_path):
        # gen writes its sidecar beside the book, so the book is a link to
        # the device in a directory of the test's own.
        null = tmp_path / "null"
        null.symlink_to(os.devnull)
        assert main([*argv, "--out", str(null)]) == 0
        assert null.is_symlink()

    def test_links_reach_the_same_file(self, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(b"#" * 65536)
        (tmp_path / "soft").symlink_to(target)
        os.link(target, tmp_path / "hard")
        assert main(["exp1", "--out", str(tmp_path / "soft")]) == 0
        assert (tmp_path / "soft").is_symlink()
        assert (tmp_path / "hard").read_bytes() == target.read_bytes()
        assert json.loads(target.read_text(encoding="utf-8"))["experiment"] == "exp1"

    def test_a_write_that_fails_partway_leaves_a_prefix_of_the_new_bytes(self, tmp_path):
        fresh = tmp_path / "fresh.csv"
        assert main(["gen", "--out", str(fresh)]) == 0
        book = tmp_path / "book.csv"
        book.write_bytes(b"#" * 10_000)
        # A file size limit of 4096 bytes, in the child alone, with SIGXFSZ
        # ignored so that a write past it fails with EFBIG.
        code = ("import resource, signal, sys; from matchbook import cli; "
                "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
                "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard)); "
                "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = TestModuleEntryPoint.fresh("-c", code, "gen", "--out", str(book))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"config error: cannot write {book}: ")
        left = book.read_bytes()
        assert 0 < len(left) < 10_000
        assert fresh.read_bytes().startswith(left)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["book.csv", "fresh.csv", "fresh.csv.meta.json"]


class TestOutputs:
    def test_exp1_json_report(self, tmp_path):
        out = tmp_path / "exp1.json"
        assert main(["exp1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["experiment"] == "exp1"
        assert report["summary"]["best_utility"] == 80.0
        assert report["records"][0]["decision"] == "hold"

    def test_exp2_csv_records(self, tmp_path):
        out = tmp_path / "exp2.csv"
        assert main(["exp2", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,theta,threshold,delta_v,slippage,decision,drought"
        assert len(lines) == 5  # header + t1..t4
        assert lines[-1].split(",")[-2] == "execute"

    def test_override_changes_outcome(self, capsys):
        assert main(["exp1", "--override", "T=0.8"]) == 0
        assert "decision = execute" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["exp2", "--override", "v_reach=95"], "theta = 1.0555555555555556"),
            (["exp2", "--override", "v_reach=95"], "delta_v = -5.0"),
            (["exp5", "--override", "partner=95"], "pre_theta = 1.0555555555555556"),
            (["exp5", "--override", "partner=95"], "regret_gap_jump = 9.0"),
        ],
    )
    def test_bid_above_the_ask_prints_theta_above_1(self, argv, line, capsys):
        # A bid above the configured ask is priced at that ask, not capped to it.
        assert main(argv) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_summary_printed(self, capsys):
        assert main(["exp5"]) == 0
        out = capsys.readouterr().out
        assert "post_shock_ask = 99.0" in out
        assert "regret = True" in out

    def test_gen_writes_book_and_sidecar(self, tmp_path):
        out = tmp_path / "book.csv"
        assert main(["gen", "--seed", "42", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,v_intrinsic,c_offer,status"
        assert len(lines) == 10_001
        meta = json.loads((tmp_path / "book.csv.meta.json").read_text())
        assert meta["population"]["seed"] == 42
        assert meta["population"]["n_candidates"] == 10_000

    def test_gen_json_format(self, tmp_path):
        out = tmp_path / "book.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": {"n_candidates": 50, "seed": 3}}))
        assert main(["gen", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 50
        assert set(rows[0]) == {"id", "v_intrinsic", "c_offer", "status"}

    def test_cone_prints_library_value(self, capsys):
        assert main(["cone", "--profile", "linear-cone", "--h0", "0.0"]) == 0
        printed = float(capsys.readouterr().out.strip())
        expected = cone_volume(DensityProfile.linear_cone(), 0.0)
        assert printed == expected
        assert printed == pytest.approx(math.pi / 3, abs=1e-6)

    def test_sweep_csv_shape(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("grid_index,T0,decision")
        assert len(lines) == 6

    def test_sweep_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        assert main(["sweep", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [r["decision"] for r in rows] == ["hold", "hold", "hold", "execute", "execute"]


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "exp3.json"
        proc = subprocess.run(
            [sys.executable, "-m", "matchbook", "exp3", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "immediate_fill = True" in proc.stdout
        assert json.loads(out.read_text())["summary"]["t_star"] == 1

    @staticmethod
    def fresh(*args):
        """A fresh interpreter that imports this matchbook, run with ``args``."""
        src = str(Path(matchbook.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    def run_fresh(self, code):
        """Run ``code`` in a fresh interpreter; its stdout."""
        proc = self.fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats takes about a second to import, and no command needs it.
        code = "import sys, matchbook.cli; print('scipy.stats' in sys.modules)"
        assert self.run_fresh(code).strip() == "False"

    def test_beta_cone_leaves_scipy_stats_unloaded(self):
        # The beta profile calls the Boost density in scipy.special directly.
        code = ("import sys; from matchbook import cli; "
                "status = cli.main(['cone', '--profile', 'beta:2,8', '--h0', '0.5']); "
                "print(status, 'scipy.stats' in sys.modules)")
        assert self.run_fresh(code) == "0.06135923153751499\n0 False\n"

    @pytest.mark.parametrize("h0", ["0", "0.5"])
    @pytest.mark.parametrize(
        "profile", ["beta:5e-324,1", "beta:5.562684646268003e-309,1", "beta:1,5e-324", "beta:1,1e-320"]
    )
    def test_tiny_shape_beside_one_is_config_error(self, profile, h0):
        # SciPy's Beta density used to abort the process here (exit 134), so
        # each case runs in its own interpreter.
        proc = self.fresh("-m", "matchbook", "cone", "--profile", profile, "--h0", h0)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("config error: beta profile shapes ")

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "matchbook", "warp"], capture_output=True, text=True
        )
        assert proc.returncode == 2
