"""matchbook benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload fixture_suite --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/`` of that checkout.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it holds the run's provenance: versions,
source digest, seed, sample counts and any output mismatches.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from layers import UNITS  # noqa: E402
from metrics import host_scale, percentile, tail  # noqa: E402

SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT_S = 150


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(root: Path, scratch: Path, mode: str, args: argparse.Namespace,
               extra: list[str] = ()) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch), *extra]
    proc = subprocess.run(cmd, cwd=root, env=worker_env(root), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_times(root: Path, scratch: Path, args: argparse.Namespace) -> list[float]:
    """Fresh interpreter: import matchbook.cli and finish one warm-up op.
    Each time is scaled by the calibration loop run in that same process,
    since the processes of one run may land on cores of different speed."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.time()
        proc = run_worker(root, scratch, "setup", args)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((report["done"] - start) * host_scale(report["calibration_s"]))
    return times


def parse_importtime(stderr: str, prefix: str) -> float:
    """Seconds spent importing modules named ``prefix*``, from ``python -X
    importtime`` output: the summed cumulative time of the outermost such
    entries.  ``from scipy import stats`` has no ``scipy.stats`` entry of its
    own, so its cost is that of the outermost ``scipy*`` entries."""
    entries = []
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        module = name.lstrip()
        if module == prefix or module.startswith(prefix + "."):
            entries.append((len(name) - len(module), int(fields[1])))
    if not entries:
        return 0.0
    outermost = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == outermost) * 1e-6


def import_times(root: Path) -> tuple[list[float], list[float]]:
    """Import times of matchbook and scipy, each scaled by a calibration
    loop run in the importing process after the import."""
    code = ("import matchbook.cli, json, sys; sys.path.insert(0, sys.argv[1]); "
            "from metrics import calibrate; print(json.dumps([calibrate() for _ in range(3)]))")
    matchbook_s, scipy_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code, str(BENCH)],
                              cwd=root, env=worker_env(root), capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing matchbook.cli failed:\n{proc.stderr[-2000:]}")
        scale = host_scale(json.loads(proc.stdout.strip().splitlines()[-1]))
        matchbook_s.append(parse_importtime(proc.stderr, "matchbook") * scale)
        scipy_s.append(parse_importtime(proc.stderr, "scipy") * scale)
    return matchbook_s, scipy_s


def end_to_end(raw: dict, setup: list[float], tail_pct: float) -> tuple[dict, dict]:
    """End-to-end metrics, times in reference seconds (see metrics.CALIBRATION_REF_S)."""
    scale = host_scale(raw["calibration_s"])
    times = raw["op_times_s"]
    walls = raw["walls_s"]["untraced"]
    pct, tail_s = tail(times, tail_pct)
    values = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls) * scale, "s", len(walls)),
        "ops_per_s": (len(times) / sum(times) / scale, "1/s", len(times)),
        "op_p50_ms": (percentile(times, 50.0) * 1e3 * scale, "ms", len(times)),
        "op_tail_ms": (tail_s * 1e3 * scale, "ms", len(times)),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1),
        "success_rate": ((raw["attempted"] - raw["failed"]) / raw["attempted"], "ratio",
                         raw["attempted"]),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
    samples = {k: n for k, (_, _, n) in values.items()}
    return metrics, {
        "samples": samples, "op_tail_percentile": pct, "error_rate": raw["failed"] / raw["attempted"],
        "host_scale": scale, "calibration_loops": len(raw["calibration_s"]), "setup_runs_s": setup,
        "unscaled": {"wall_s": statistics.median(walls), "op_p50_ms": percentile(times, 50.0) * 1e3,
                     "op_tail_ms": tail_s * 1e3},
    }


def per_layer(raw: dict, imports: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """Per-layer metrics; times in reference seconds, like the end-to-end ones."""
    scale = host_scale(raw["calibration_s"])
    passes = raw["layer_passes"]
    values = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    values = {name: v * scale if UNITS[name] == "s" else v for name, v in values.items()}
    values["setup.import.matchbook_s"] = statistics.median(imports[0])
    values["setup.import.scipy_stats_s"] = statistics.median(imports[1])
    walls = raw["walls_s"]
    values["trace.overhead_ratio"] = statistics.median(walls["traced"]) / statistics.median(walls["untraced"])
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    samples = {name: len(passes) for name in UNITS}
    samples["setup.import.matchbook_s"] = samples["setup.import.scipy_stats_s"] = len(imports[0])
    return metrics, {"samples": samples, "unpatched_sites": raw["unpatched_sites"],
                     "spans": raw.get("spans"), "host_scale": scale}


def provenance(root: Path, args: argparse.Namespace) -> dict:
    sha = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one matchbook benchmark workload.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "matchbook" / "cli.py").is_file():
        print(f"error: {root} has no src/matchbook; run from the root of a matchbook checkout",
              file=sys.stderr)
        return 2

    out = root / ".bench_out"
    scratch = root / ".bench_tmp"
    out.mkdir(exist_ok=True)
    scratch.mkdir(exist_ok=True)
    try:
        meta = provenance(root, args)
        setup = None if args.trace else setup_times(root, scratch, args)
        imports = import_times(root) if args.trace else None
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        proc = run_worker(root, scratch, "run", args, ["--spans", str(spans)] if args.trace else [])
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    expected_src = (root / "src" / "matchbook").resolve()
    if Path(raw["matchbook_file"]).resolve().parent != expected_src:
        print(f"error: benchmarked {raw['matchbook_file']}, not {expected_src}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, detail = per_layer(raw, imports)
    else:
        metrics, detail = end_to_end(raw, setup, workloads.TAIL_PCT[args.workload])
    meta.update(detail)
    meta.update({k: raw[k] for k in ("numpy", "scipy", "passes", "ops_per_pass", "digests",
                                     "failures")})
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
