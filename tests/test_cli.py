import contextlib
import hashlib
import io
import json
import math
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import matchbook
from matchbook import DensityProfile, cone_volume
from matchbook.cli import main
from matchbook.experiments import MAX_HORIZON, load_fixture

ALL_COMMANDS = [
    ["exp1"], ["exp2"], ["exp3"], ["exp4"], ["exp5"], ["appendix-a"],
    ["sweep"], ["gen"],
    ["cone", "--profile", "beta:2,8", "--h0", "0.5", "--steps", "20000"],
]


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


SCENARIOS = ["exp1", "exp2", "exp3", "exp4", "exp5", "appendix-a", "sweep"]

#: Every override key a fixture sets, plus the optional ones the sweep reads.
OVERRIDE_KEYS = sorted(
    {key for name in SCENARIOS for key in load_fixture(name.replace("-", "_"))["overrides"]}
    | {"horizon", "T0", "lambda", "floor"}
)

#: Override values as typed on the command line, numbers of any size: a
#: horizon above MAX_HORIZON is a config error, so none runs for long.
OVERRIDE_VALUES = st.one_of(
    st.sampled_from(
        ["NaN", "nan", "Infinity", "inf", "-Infinity", "-inf", "0", "-0.0", "-1", "-5",
         "1.5", "abc", "", "null", "true", "[1]", "{}", "1e7", "1e300", "10001"]
    ),
    st.floats().map(repr),
    st.text(alphabet=string.ascii_letters, max_size=4),
)


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
            ["appendix-a", "--override", "T=0"],
            ["sweep", "--override", "horizon=abc"],
            ["sweep", "--override", "horizon=inf"],
            ["sweep", "--override", "horizon=1e7"],
            ["sweep", "--override", "horizon=10001"],
            ["sweep", "--override", "lambda=abc"],
        ],
        ids=" ".join,
    )
    def test_out_of_domain_value_is_config_error(self, argv, capsys):
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

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
         {"comp_scale": 1e308}],
        ids=["nan-alpha", "fractional-n", "fractional-seed", "inf-scale", "overflowing-offers"],
    )
    @pytest.mark.parametrize("command", ["gen", "sweep"])
    def test_bad_population_is_config_error(self, command, population, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": {"n_candidates": 20, **population}}), encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_rerun_is_byte_identical(self, argv, tmp_path):
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.out"
            assert main([*argv, "--seed", "42", "--out", str(out)]) == 0
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
        assert main(["cone", "--profile", "linear-cone", "--h0", "0.0", "--steps", "50000"]) == 0
        printed = float(capsys.readouterr().out.strip())
        expected = cone_volume(DensityProfile.linear_cone(), 0.0, 50_000)
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

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats takes about a second to import; only the beta profile needs it.
        code = "import sys, matchbook.cli; print('scipy.stats' in sys.modules)"
        src = str(Path(matchbook.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "matchbook", "warp"], capture_output=True, text=True
        )
        assert proc.returncode == 2
