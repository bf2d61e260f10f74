"""Record the per-op output digests that run.py compares every op against.

    python3 bench/record.py --seeds 0-31

Run it from the root of a checkout whose outputs are known good.  It runs one
pass of every workload per seed and rewrites bench/digests.json.  A run on a
seed with no recorded digests still checks that every pass repeats the first
one byte for byte, but cannot tell whether the first pass was right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import worker_env  # noqa: E402
from steady import seed_range  # noqa: E402
from worker import DIGESTS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record output digests for run.py to check.")
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    args = parser.parse_args(argv)
    root = Path.cwd()
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    table: dict[str, dict[str, list[str]]] = {}
    try:
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "worker.py"), "--mode", "record", "--workload", name,
                     "--seed", str(seed), "--scratch", str(scratch)],
                    cwd=root, env=worker_env(root), capture_output=True, text=True, timeout=300)
                if proc.returncode != 0:
                    print(f"{name} seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = json.loads(proc.stdout.strip().splitlines()[-1])
                print(f"{name} seed {seed}: {len(table[name][str(seed)])} digests", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # One line per (workload, seed) keeps the file reviewable.
    lines = []
    for name, seeds in table.items():
        rows = ",\n".join(f'    "{seed}": {json.dumps(values)}' for seed, values in seeds.items())
        lines.append(f'  "{name}": {{\n{rows}\n  }}')
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
