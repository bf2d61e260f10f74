"""Which program functions the traced run wraps, and the per-layer metrics
computed from one traced pass.

Each entry names the site a caller looks the function up at: the module
that imported it (``matchbook.experiments.generate`` is what the sweep
calls), the class (``PreferenceBook.best_bid``), or the runner table
(``matchbook.experiments.RUNNERS``, the dict the CLI indexes).  Nothing in
``src/`` is changed; the originals are restored after every traced pass.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Any

from spans import Tracer

#: (module[:attribute path], function, span name).  ``*`` wraps every value
#: of a dict.
SPAN_SITES = (
    ("matchbook.experiments", "generate", "population.generate"),
    ("matchbook.cli", "generate", "population.generate"),
    ("matchbook.cli", "cone_volume", "population.cone_volume"),
    ("matchbook.book:PreferenceBook", "best_bid", "book.best_bid"),
    ("matchbook.book:PreferenceBook", "metrics", "book.metrics"),
    ("matchbook.book:PreferenceBook", "v_uncond", "book.v_uncond"),
    ("matchbook.cli", "book_to_csv", "book.book_to_csv"),
    ("matchbook.cli", "book_to_json", "book.book_to_json"),
    ("matchbook.book", "book_from_csv", "book.book_from_csv"),
    ("matchbook.book", "book_from_json", "book.book_from_json"),
    ("matchbook.experiments", "step", "dynamics.step"),
    ("matchbook.experiments", "apply_shock", "dynamics.apply_shock"),
    ("matchbook.cli", "records_to_csv", "dynamics.records_to_csv"),
    ("matchbook.experiments", "run_schedule", "experiments.run_schedule"),
    ("matchbook.cli", "run_sweep", "experiments.run_sweep"),
    ("matchbook.cli", "load_fixture", "experiments.config"),
    ("matchbook.cli", "merge_config", "experiments.config"),
    ("matchbook.cli", "config_from_mapping", "experiments.config"),
    ("matchbook.experiments:RUNNERS", "*", "experiments.runner"),
    ("matchbook.experiments:ExperimentReport", "to_json", "experiments.report.to_json"),
    ("matchbook.dual", "triple_coincidence", "dual.triple_coincidence"),
    ("matchbook.cli", "build_parser", "cli.build_parser"),
    ("matchbook.cli", "main", "cli.main"),
)

#: Called once per book row: counted, never spanned.
COUNT_SITES = (
    ("matchbook.book", "effective_utility", "valuation.effective_utility"),
    ("matchbook.experiments", "effective_utility", "valuation.effective_utility"),
)

#: Per-layer metric names and units, in report order.  The trace run adds
#: the setup.* and trace.* entries from outside the traced passes.
UNITS = {
    "population.generate.calls": "count",
    "population.generate.s": "s",
    "population.generate.distinct_ratio": "ratio",
    "population.cone_volume.calls": "count",
    "population.cone_volume.s": "s",
    "book.best_bid.calls": "count",
    "book.best_bid.self_s": "s",
    "book.rows_scanned": "count",
    "book.metrics.calls": "count",
    "book.metrics.self_s": "s",
    "book.metrics.distinct_ratio": "ratio",
    "book.v_uncond.s": "s",
    "book.book_to_csv.s": "s",
    "book.book_from_csv.s": "s",
    "book.book_to_json.s": "s",
    "book.book_from_json.s": "s",
    "book.bytes": "bytes",
    "valuation.effective_utility.calls": "count",
    "dynamics.step.calls": "count",
    "dynamics.step.self_s": "s",
    "dynamics.apply_shock.calls": "count",
    "dynamics.records_to_csv.s": "s",
    "experiments.run_schedule.calls": "count",
    "experiments.run_schedule.self_s": "s",
    "experiments.steps_per_schedule": "ratio",
    "experiments.run_sweep.self_s": "s",
    "experiments.config.s": "s",
    "experiments.runner.self_s": "s",
    "experiments.report.to_json.s": "s",
    "dual.triple_coincidence.calls": "count",
    "dual.triple_coincidence.s": "s",
    "dual.matched_ratio": "ratio",
    "cli.build_parser.s": "s",
    "cli.main.self_s": "s",
    "setup.import.matchbook_s": "s",
    "setup.import.scipy_stats_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _resolve(site: str) -> Any:
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    for part in filter(None, path.split(".")):
        owner = getattr(owner, part)
    return owner


class LayerProbe:
    """Installs the wrappers on a :class:`Tracer` and keeps the per-pass
    facts a span cannot hold: distinct inputs, rows scanned, bytes moved."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._reset()

    def _reset(self) -> None:
        self.populations: set = set()
        self.metric_keys: set = set()
        # Books stay referenced for the pass so that an id() is never reused.
        self._books: dict[int, Any] = {}
        self.rows_scanned = 0
        self.io_bytes = 0
        self.matched = 0

    # hooks --------------------------------------------------------------------------

    def _on_generate(self, config, *_a, **_k) -> None:
        self.populations.add(config)

    def _on_best_bid(self, book, *_a, **_k) -> None:
        self.rows_scanned += len(book.entries)

    def _on_metrics(self, book, rule, ask=None) -> None:
        self._books[id(book)] = book
        self.metric_keys.add((id(book), rule, ask))

    def _on_text(self, text, *_a, **_k) -> None:
        self.io_bytes += len(text)

    def _on_match(self, outcome) -> None:
        self.matched += outcome.result.value == "matched"

    def install(self) -> None:
        tracer = self.tracer
        hooks = {
            "population.generate": {"on_call": self._on_generate},
            "book.best_bid": {"on_call": self._on_best_bid},
            "book.metrics": {"on_call": self._on_metrics},
            "book.book_from_csv": {"on_call": self._on_text},
            "book.book_from_json": {"on_call": self._on_text},
            "book.book_to_csv": {"on_result": self._on_text},
            "book.book_to_json": {"on_result": self._on_text},
            "dual.triple_coincidence": {"on_result": self._on_match},
        }
        self.missing = []
        for site, attr, name in SPAN_SITES + COUNT_SITES:
            try:
                owner = _resolve(site)
                keys = list(owner) if attr == "*" else [attr]
                for key in keys:
                    fn = owner[key] if isinstance(owner, dict) else getattr(owner, key)
                    if (site, attr, name) in COUNT_SITES:
                        wrapped = tracer.count_only(fn, name)
                    else:
                        wrapped = tracer.wrap(fn, name, **hooks.get(name, {}))
                    tracer.patch(owner, key, wrapped)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{site}.{attr}")

    def uninstall(self) -> None:
        self.tracer.unpatch_all()

    def pass_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of the spans ``first..last-1`` (one pass) and of
        the counts gathered since the previous call."""
        tracer = self.tracer
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, self_s in zip(range(first, last), tracer.self_times_s(first, last)):
            total[tracer.names[i]] += tracer.duration_s(i)
            own[tracer.names[i]] += self_s
        calls = tracer.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m = {
            "population.generate.calls": calls["population.generate"],
            "population.generate.s": total["population.generate"],
            "population.generate.distinct_ratio":
                ratio(len(self.populations), calls["population.generate"]),
            "population.cone_volume.calls": calls["population.cone_volume"],
            "population.cone_volume.s": total["population.cone_volume"],
            "book.best_bid.calls": calls["book.best_bid"],
            "book.best_bid.self_s": own["book.best_bid"],
            "book.rows_scanned": self.rows_scanned,
            "book.metrics.calls": calls["book.metrics"],
            "book.metrics.self_s": own["book.metrics"],
            "book.metrics.distinct_ratio": ratio(len(self.metric_keys), calls["book.metrics"]),
            "book.v_uncond.s": total["book.v_uncond"],
            "book.book_to_csv.s": total["book.book_to_csv"],
            "book.book_from_csv.s": total["book.book_from_csv"],
            "book.book_to_json.s": total["book.book_to_json"],
            "book.book_from_json.s": total["book.book_from_json"],
            "book.bytes": self.io_bytes,
            "valuation.effective_utility.calls": calls["valuation.effective_utility"],
            "dynamics.step.calls": calls["dynamics.step"],
            "dynamics.step.self_s": own["dynamics.step"],
            "dynamics.apply_shock.calls": calls["dynamics.apply_shock"],
            "dynamics.records_to_csv.s": total["dynamics.records_to_csv"],
            "experiments.run_schedule.calls": calls["experiments.run_schedule"],
            "experiments.run_schedule.self_s": own["experiments.run_schedule"],
            "experiments.steps_per_schedule":
                ratio(calls["dynamics.step"], calls["experiments.run_schedule"]),
            "experiments.run_sweep.self_s": own["experiments.run_sweep"],
            "experiments.config.s": total["experiments.config"],
            "experiments.runner.self_s": own["experiments.runner"],
            "experiments.report.to_json.s": total["experiments.report.to_json"],
            "dual.triple_coincidence.calls": calls["dual.triple_coincidence"],
            "dual.triple_coincidence.s": total["dual.triple_coincidence"],
            "dual.matched_ratio": ratio(self.matched, calls["dual.triple_coincidence"]),
            "cli.build_parser.s": total["cli.build_parser"],
            "cli.main.self_s": own["cli.main"],
        }
        calls.clear()
        self._reset()
        return m
