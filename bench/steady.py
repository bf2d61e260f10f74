"""Steadiness check: run one workload on several seeds and compare each
metric's spread with the bound in BENCHMARK.json.

    python3 bench/steady.py --workload book_io --seeds 0-9
    python3 bench/steady.py --workload all --seeds 0-9 --trace 0

Run it from the root of a checkout, like run.py.  For each metric it prints
the median, the first and third quartiles (``statistics.quantiles(n=4)``),
the spread (third minus first quartile, over the median) and the bound.  A
spread within a third of its bound is steady; ``setup_s`` is reported but
not held to its bound, because set-up is compared by its median only.
Exits 1 if any run fails or reports incorrect output, or a spread exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from metrics import spread  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run a workload on several seeds and report spreads.")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"), help="e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output\n{proc.stdout}", file=sys.stderr)
                ok = False
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{name}: {len(args.seeds)} seeds")
        print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric, series in values.items():
            median, q1, q3, rel = spread(series)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "steady" if rel <= bound / 3 else "within bound" if rel <= bound else "TOO WIDE"
                if metric != "setup_s" and rel > bound:
                    ok = False
            print(f"{metric:40} {median:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
