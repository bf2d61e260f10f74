"""Runs one workload in this process and prints its raw measurements as one
JSON line.  ``run.py`` starts it in a fresh interpreter with ``src`` on
``PYTHONPATH`` and one BLAS/OpenMP thread; it is not meant to be run by hand.

Modes:
  setup   import matchbook.cli, run the first op once, print the wall-clock
          time it finished and this process's calibration loop times
  run     warm up with the first op, then run whole passes for --seconds;
          with --trace 1, passes alternate between untraced and traced
  record  run one pass and print every op's digest (see record.py)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import workloads
from metrics import CALIBRATION_EVERY_S, calibrate
from workloads import Op, Workload

DIGESTS = Path(__file__).with_name("digests.json")


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


class Runner:
    """Executes ops against the imported program and checks each result."""

    def __init__(self, workload: Workload, scratch: Path) -> None:
        import matchbook.book
        import matchbook.cli
        import matchbook.dual
        import matchbook.valuation

        self.mb = matchbook
        self.workload = workload
        self.scratch = scratch
        self.book = None  # the book the last load op returned
        self.dual_inputs = {op.label: self._dual_inputs(op.args[0])
                            for op in workload.ops if op.kind == "dual"}
        for name, text in workload.inputs.items():
            (scratch / name).write_text(text, encoding="utf-8")

    def _dual_inputs(self, case: dict) -> tuple:
        book, dual, valuation = self.mb.book, self.mb.dual, self.mb.valuation

        def make(rows: list[dict], owner: str):
            return book.PreferenceBook(tuple(book.entry_from_mapping(r) for r in rows), owner)

        rule = valuation.CompensationRule(*case["rule"])
        m = dual.Counterparty("M", make(case["m_rows"], "M"), case["m_threshold"], case["c_max"])
        return make(case["f_rows"], "F"), case["f_threshold"], m, case["c_required"], rule

    def _path(self, name: str) -> str:
        return str(self.scratch / name)

    def call(self, op: Op) -> Any:
        """The op itself: the only code inside the timed region."""
        mb = self.mb
        if op.kind == "cli":
            argv = [self._path(a) if a in op.outputs or a in self.workload.inputs else a
                    for a in op.args]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = mb.cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad arguments this way
                    code = exc.code
            return code, out.getvalue()
        if op.kind in ("load_csv", "load_json"):
            load = mb.book.book_from_csv if op.kind == "load_csv" else mb.book.book_from_json
            self.book = load(Path(self._path(op.args[0])).read_text(encoding="utf-8"))
            return self.book
        if op.kind == "best_bid":
            return self.book.best_bid(mb.valuation.CompensationRule(*op.args))
        if op.kind == "dual":
            return mb.dual.triple_coincidence(*self.dual_inputs[op.label])
        raise ValueError(f"unknown op kind {op.kind!r}")

    def check(self, op: Op, result: Any) -> tuple[str, str | None]:
        """The op's output digest, and why it is wrong (None if it is not)."""
        mb = self.mb
        if op.kind == "cli":
            code, stdout = result
            files = []
            for name in op.outputs:
                path = Path(self._path(name))
                files.append(path.read_bytes() if path.is_file() else b"<missing>")
            problem = None if code == workloads.EXPECTED_EXIT else f"exit code {code}"
            return digest(str(code).encode(), stdout.encode(), *files), problem
        if op.kind in ("load_csv", "load_json"):
            # A loaded book re-serializes to the generated CSV, whichever file it came from.
            text = mb.book.book_to_csv(result).encode()
            same = text == Path(self._path("book.csv")).read_bytes()
            return digest(text), None if same else "loaded book differs from the generated CSV"
        if op.kind == "best_bid":
            return digest(result.entry.id.encode(), repr(result.utility).encode()), None
        if op.kind == "dual":
            expected = op.args[0]["expected"]
            problem = None if result.result.value == expected else \
                f"verdict {result.result.value}, expected {expected}"
            return digest(repr(result).encode()), problem
        raise ValueError(f"unknown op kind {op.kind!r}")


class Failures:
    def __init__(self, recorded: list[str] | None) -> None:
        self.recorded = recorded
        self.first_pass: dict[str, str] = {}
        self.count = 0
        self.messages: list[str] = []

    def judge(self, index: int, op: Op, result: Any, error: BaseException | None,
              runner: Runner) -> None:
        if error is None:
            value, problem = runner.check(op, result)
            if problem is None and self.recorded is not None and value != self.recorded[index]:
                problem = f"digest {value} != recorded {self.recorded[index]}"
            if problem is None and self.first_pass.setdefault(op.label, value) != value:
                problem = f"digest {value} differs from the first pass"
        else:
            problem = f"{type(error).__name__}: {error}"
        if problem is not None:
            self.count += 1
            if len(self.messages) < 10:
                self.messages.append(f"{op.label}: {problem}")


def timed(runner: Runner, op: Op) -> tuple[Any, BaseException | None, float]:
    if op.kind.startswith("load_"):
        runner.book = None  # free the previous book outside the timed region
    start = time.perf_counter()
    try:
        result, error = runner.call(op), None
    except Exception as exc:  # a failing op is counted, not fatal to the run
        result, error = None, exc
    return result, error, time.perf_counter() - start


def measure(workload: Workload, runner: Runner, seconds: float, trace: bool,
            recorded: list[str] | None, span_path: Path | None) -> dict:
    failures = Failures(recorded)
    tracer = probe = None
    if trace:
        from layers import LayerProbe
        from spans import Tracer
        tracer = Tracer()
        probe = LayerProbe(tracer)

    # Warm-up: the first op, untimed, so lazy imports and caches are settled.
    timed(runner, workload.ops[0])

    op_times: list[float] = []
    loop_times = [calibrate()]
    last_calibration = time.perf_counter()
    walls = {"untraced": [], "traced": []}
    layer_passes: list[dict] = []
    attempted = 0
    start = time.perf_counter()
    passes = 0
    min_passes = workloads.MIN_PASSES * (2 if trace else 1)
    while passes < min_passes or time.perf_counter() - start < seconds:
        traced = trace and passes % 2 == 1
        if traced:
            probe.install()
            first = len(tracer.names)
            root = tracer.open("pass")
        wall = 0.0
        for index, op in enumerate(workload.ops):
            if time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
                loop_times.append(calibrate())
                last_calibration = time.perf_counter()
            if traced:
                span = tracer.open(f"op:{op.label}")
            result, error, elapsed = timed(runner, op)
            if traced:
                tracer.close(span)
                tracer.enabled = False
            failures.judge(index, op, result, error, runner)
            if traced:
                tracer.enabled = True
            wall += elapsed
            attempted += 1
            if not traced:
                op_times.append(elapsed)
        if traced:
            tracer.close(root)
            probe.uninstall()
            layer_passes.append(probe.pass_metrics(first, len(tracer.names)))
        walls["traced" if traced else "untraced"].append(wall)
        passes += 1

    result = {
        "attempted": attempted,
        "failed": failures.count,
        "failures": failures.messages,
        "digests": "recorded" if recorded is not None else "first pass only",
        "passes": passes,
        "ops_per_pass": len(workload.ops),
        "op_times_s": op_times,
        "walls_s": walls,
        "calibration_s": loop_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["layer_passes"] = layer_passes
        result["unpatched_sites"] = probe.missing
        if span_path is not None:
            tracer.write_jsonl(str(span_path))
            result["spans"] = str(span_path)
    return result


def record(workload: Workload, runner: Runner) -> list[str]:
    values = []
    for op in workload.ops:
        result, error, _ = timed(runner, op)
        if error is not None:
            raise RuntimeError(f"{op.label} raised {error!r}")
        value, problem = runner.check(op, result)
        if problem is not None:
            raise RuntimeError(f"{op.label}: {problem}")
        values.append(value)
    return values


def recorded_digests(workload: Workload) -> list[str] | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    values = table.get(workload.name, {}).get(str(workload.seed))
    return values if values is not None and len(values) == len(workload.ops) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "record"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True, help="directory for temporary files")
    parser.add_argument("--spans", help="write the traced run's spans here (JSONL)")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch))
    try:
        runner = Runner(workload, scratch)
        if args.mode == "setup":
            _, error, _ = timed(runner, workload.ops[0])
            if error is not None:
                raise error
            done = time.time()
            print(json.dumps({"done": done, "calibration_s": [calibrate() for _ in range(3)]}))
            return 0
        if args.mode == "record":
            print(json.dumps(record(workload, runner)))
            return 0
        spans = Path(args.spans) if args.spans else None
        result = measure(workload, runner, args.seconds, bool(args.trace),
                         recorded_digests(workload), spans)
        import numpy
        import scipy

        result.update(matchbook_file=runner.mb.__file__, numpy=numpy.__version__,
                      scipy=scipy.__version__)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
