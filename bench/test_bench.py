"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import statistics
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from metrics import percentile, spread, tail  # noqa: E402
from run import parse_importtime  # noqa: E402
from spans import Tracer, covered_ns  # noqa: E402


# -- self time -------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    root = t.open("root", 0)
    a = t.open("a", 10)
    t.close(a, 30)
    b = t.open("b", 40)
    c = t.open("c", 45)
    t.close(c, 50)
    t.close(b, 70)
    t.close(root, 100)
    own = [s / 1e-9 for s in t.self_times_s()]
    assert own == pytest.approx([100 - 20 - 30, 20, 30 - 5, 5])
    assert t.parents == [-1, 0, 0, 2]


def test_covered_ns_is_the_union_of_intervals():
    assert covered_ns([]) == 0
    assert covered_ns([(20, 25), (0, 10), (5, 15)]) == 20
    assert covered_ns([(0, 10), (2, 3)]) == 10


def test_self_time_of_a_slice_ignores_spans_outside_it():
    t = Tracer()
    first = t.open("p1", 0)
    t.close(first, 10)
    second = t.open("p2", 20)
    child = t.open("x", 21)
    t.close(child, 29)
    t.close(second, 30)
    assert [s / 1e-9 for s in t.self_times_s(1, 3)] == pytest.approx([2, 8])


def test_spans_must_close_innermost_first():
    t = Tracer()
    outer = t.open("outer")
    t.open("inner")
    with pytest.raises(RuntimeError):
        t.close(outer)


# -- patching --------------------------------------------------------------------------


def test_patches_at_the_lookup_site_are_undone():
    def double(x):
        return 2 * x

    class Book:
        def size(self):
            return 3

    module = types.SimpleNamespace(double=double)
    table = {"a": double}
    t = Tracer()
    t.patch(module, "double", t.wrap(double, "double"))
    t.patch(Book, "size", t.wrap(Book.size, "size"))
    t.patch(table, "a", t.count_only(double, "row"))
    assert module.double(2) == 4 and Book().size() == 3 and table["a"](1) == 2
    assert t.names == ["double", "size"]  # count_only leaves no span
    assert t.counts == {"double": 1, "size": 1, "row": 1}
    t.enabled = False
    module.double(1)
    assert t.counts["double"] == 1 and len(t.names) == 2
    t.unpatch_all()
    assert module.double is double and table["a"] is double and Book.__dict__["size"].__name__ == "size"
    assert not hasattr(Book.__dict__["size"], "__wrapped__")


def test_layer_probe_wraps_program_functions_and_restores_them(tmp_path):
    import matchbook.cli as cli
    import matchbook.experiments as experiments
    from layers import LayerProbe

    originals = (cli.main, cli.build_parser, dict(experiments.RUNNERS))
    t = Tracer()
    probe = LayerProbe(t)
    probe.install()
    assert probe.missing == []
    try:
        assert cli.main(["exp1", "--out", str(tmp_path / "out.json")]) == 0
    finally:
        probe.uninstall()
    assert (cli.main, cli.build_parser, experiments.RUNNERS) == originals
    m = probe.pass_metrics(0, len(t.names))
    assert m["dynamics.step.calls"] == 1 and m["experiments.run_schedule.calls"] == 1
    assert m["cli.build_parser.s"] > 0 and m["experiments.report.to_json.s"] > 0
    assert m["valuation.effective_utility.calls"] >= 1
    assert 0 <= m["cli.main.self_s"] < sum(t.duration_s(i) for i, n in enumerate(t.names) if n == "cli.main")


# -- order statistics ------------------------------------------------------------------


def test_tail_uses_the_target_when_ten_samples_lie_beyond_it():
    values = [float(v) for v in range(1000, 0, -1)]
    assert tail(values, 99.0) == (99.0, 990.0)


def test_tail_steps_down_until_ten_samples_lie_beyond():
    values = [float(v) for v in range(1, 101)]
    assert tail(values, 99.0) == (90.0, 90.0)
    assert tail(values[:30], 75.0) == (50.0, 15.0)


def test_tail_falls_back_to_the_median_on_few_samples():
    values = [float(v) for v in range(1, 16)]
    assert tail(values, 75.0) == (50.0, percentile(values, 50.0)) == (50.0, 8.0)


def test_spread_uses_statistics_quantiles():
    values = [1.0, 2.0, 4.0, 8.0, 16.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (median, q1, q3, (q3 - q1) / median)


def test_parse_importtime_sums_the_outermost_matching_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.stats._a",
        "import time:        50 |        300 |     scipy",
        "import time:        10 |        500 |   matchbook.population",
        "import time:         5 |        600 | matchbook",
        "import time:         5 |        700 | matchbook.cli",
        "import time:         1 |          1 | matchbookish",
    ])
    assert parse_importtime(stderr, "matchbook") == pytest.approx(1300e-6)
    assert parse_importtime(stderr, "scipy") == pytest.approx(400e-6)
    assert parse_importtime(stderr, "numpy") == 0.0


# -- workload generation ---------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_inputs_are_a_function_of_the_seed(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)


def test_unknown_workload_and_negative_seed_are_rejected():
    with pytest.raises(ValueError):
        workloads.build("nope", 1)
    with pytest.raises(ValueError):
        workloads.build("book_io", -1)


def test_fixture_suite_covers_every_command_format_and_verdict():
    ops = workloads.build("fixture_suite", 3).ops
    cli = [op for op in ops if op.kind == "cli"]
    assert len(cli) == 20
    assert {op.args[0] for op in cli} == {"exp1", "exp2", "exp3", "exp4", "exp5", "appendix-a",
                                          "sweep", "cone"}
    assert {op.args[op.args.index("--format") + 1] for op in cli} == {"csv", "json"}
    verdicts = [op.args[0]["expected"] for op in ops if op.kind == "dual"]
    assert sorted(set(verdicts)) == sorted(workloads.DUAL_RESULTS)


@pytest.mark.parametrize("seed", range(5))
def test_dual_cases_clear_as_constructed(seed):
    from matchbook.book import PreferenceBook, entry_from_mapping
    from matchbook.dual import Counterparty, triple_coincidence
    from matchbook.valuation import CompensationRule

    def book(rows, owner):
        return PreferenceBook(tuple(entry_from_mapping(r) for r in rows), owner)

    for op in workloads.build("fixture_suite", seed).ops:
        if op.kind != "dual":
            continue
        case = op.args[0]
        assert 2 <= len(case["f_rows"]) <= 5 and 2 <= len(case["m_rows"]) <= 5
        m = Counterparty("M", book(case["m_rows"], "M"), case["m_threshold"], case["c_max"])
        outcome = triple_coincidence(book(case["f_rows"], "F"), case["f_threshold"], m,
                                     case["c_required"], CompensationRule(*case["rule"]))
        assert outcome.result.value == case["expected"]


def test_population_sweep_ops_use_distinct_populations():
    import json

    w = workloads.build("population_sweep", 0)
    configs = [json.loads(text) for text in w.inputs.values()]
    assert len({c["population"]["seed"] for c in configs}) == len(configs) == len(w.ops)
    assert all(c["grid"] == workloads.SWEEP_GRID for c in configs)
    assert all(c["population"]["n_candidates"] == workloads.SWEEP_ROWS for c in configs)


def test_end_to_end_times_are_scaled_to_the_reference_host():
    from metrics import CALIBRATION_REF_S
    from run import end_to_end

    raw = {"op_times_s": [0.1, 0.2, 0.3], "walls_s": {"untraced": [0.6, 0.8]},
           "calibration_s": [2 * CALIBRATION_REF_S] * 3, "peak_rss_mb": 100.0,
           "attempted": 4, "failed": 1}
    metrics, meta = end_to_end(raw, [4.0, 1.0, 3.0], 99.0)
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["wall_s"] == pytest.approx(0.35)  # host twice as slow as the reference
    assert value["op_p50_ms"] == pytest.approx(100.0)
    assert value["ops_per_s"] == pytest.approx(10.0)
    assert value["setup_s"] == 3.0  # set-up times arrive scaled
    assert value["peak_rss_mb"] == 100.0 and value["success_rate"] == 0.75
    assert meta["op_tail_percentile"] == 50.0 and meta["error_rate"] == 0.25
