"""Seeded workload generation.

Every input the program receives is made here from the workload seed and
nothing else: CLI argument lists, config files, and the rows of the small
books handed to ``triple_coincidence``.  This module does not import
matchbook, so the inputs cannot depend on the code under test.

An op is one closed-loop request: the next op starts only after the previous
one returned.  A pass is the workload's fixed op list, run once.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("fixture_suite", "population_sweep", "book_io")

#: Tail percentile reported as op_tail_ms, per workload: the highest one with
#: at least ten samples beyond it at the sample count a baseline run collects.
#: Fixing it per workload keeps runs comparable when a faster program
#: collects more samples; a run with too few samples steps down the ladder.
TAIL_PCT = {"fixture_suite": 99.0, "population_sweep": 75.0, "book_io": 75.0}

#: Every op must exit with this code; the inputs are chosen in-domain.
EXPECTED_EXIT = 0

#: Sweep population size and the row count of the generated I/O book.
SWEEP_ROWS = 10_000
IO_ROWS = 100_000
SWEEP_HORIZON = 12
BEST_BIDS_PER_LOAD = 3

#: Passes a run makes at least, however long they take: enough samples for
#: each workload's TAIL_PCT to keep ten samples beyond it.
MIN_PASSES = 4


@dataclass(frozen=True)
class Op:
    """One request.

    ``kind`` is ``cli`` (``args`` is an argv list for ``cli.main``),
    ``load_csv``/``load_json`` (``args`` is the file to load), ``best_bid``
    (``args`` is ``(elasticity, cap)``, applied to the book the last load
    op returned) or ``dual`` (``args`` is a :func:`dual_case`
    mapping).  Paths are relative to the run's scratch directory.
    """

    label: str
    kind: str
    args: tuple
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple[Op, ...]
    inputs: dict[str, str] = field(default_factory=dict)


def build(name: str, seed: int) -> Workload:
    """The op list and input files of workload ``name`` for ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(f"{name}:{seed}")
    return {
        "fixture_suite": _fixture_suite,
        "population_sweep": _population_sweep,
        "book_io": _book_io,
    }[name](rng, seed)


def _jitter(rng: random.Random, value: float, rel: float = 0.05) -> float:
    """In-domain perturbation: value scaled by a factor within 1 +- rel."""
    return round(value * (1.0 + rng.uniform(-rel, rel)), 4)


# -- fixture_suite ------------------------------------------------------------------

#: Constants of the checked-in fixtures that the suite perturbs.  Thresholds
#: stay below 1 after a 5% perturbation, so every override remains valid.
_FIXTURE_OVERRIDES = {
    "exp1": {"v_uncond": 95, "bid": 60, "c": 500, "elasticity": 0.05, "cap": 20, "T": 0.9},
    "exp2": {"v_uncond": 90, "v_reach": 70},
    "exp3": {"v_uncond": 90, "bid": 94, "T": 0.95},
    "exp4": {"v_uncond": 95, "T": 0.8, "v_a": 85, "effort_a": 10, "v_b": 75,
             "effort_b": 50, "base_high": 200, "base_low": 30},
    "exp5": {"partner": 75, "ask": 90, "commit_threshold": 0.8, "shock_factor": 1.1},
    "appendix-a": {"elasticity": 0.02, "T": 0.8},
    "sweep": {"v_uncond": 90, "bid": 70},
}
_CONE_PROFILES = ("uniform", "linear-cone", "beta:2,8")


def _fixture_suite(rng: random.Random, seed: int) -> Workload:
    ops: list[Op] = []
    for command, constants in _FIXTURE_OVERRIDES.items():
        overrides = []
        for key, value in constants.items():
            overrides += ["--override", f"{key}={_jitter(rng, value)!r}"]
        for fmt in ("csv", "json"):
            out = f"{command}.{fmt}"
            ops.append(Op(f"{command}.{fmt}", "cli",
                          (command, *overrides, "--format", fmt, "--out", out), (out,)))
    for profile in _CONE_PROFILES:
        h0 = round(rng.uniform(0.1, 0.9), 4)
        for fmt in ("csv", "json"):
            out = f"cone-{profile.replace(':', '-')}.{fmt}"
            ops.append(Op(f"cone.{profile}.{fmt}", "cli",
                          ("cone", "--profile", profile, "--h0", repr(h0), "--format", fmt,
                           "--out", out), (out,)))
    for i, result in enumerate(DUAL_RESULTS * 2):
        ops.append(Op(f"dual.{result}.{i // len(DUAL_RESULTS)}", "dual",
                      (dual_case(rng, result, drought=i >= len(DUAL_RESULTS)),)))
    return Workload("fixture_suite", seed, tuple(ops))


#: The four clearing verdicts, by their ``MatchResult`` values.
DUAL_RESULTS = ("matched", "f_side_hold", "m_side_hold", "circuit_breaker")

# Books put a hypothetical ideal at 100 and liquid rows in [20, 80], and the
# compensation cap is at most 10, so every theta lies in [0.2, 0.9]: a
# threshold of 0.95 always holds and one of 0.1 always passes.
_HIGH_T, _LOW_T = 0.95, 0.1


def _book_rows(rng: random.Random, liquid: bool) -> list[dict]:
    rows = [{"id": "ideal", "v_intrinsic": 100.0, "c_offer": 0.0, "status": "hypothetical"}]
    statuses = ["liquid"] if liquid else ["lockup"]
    statuses += [rng.choice(("liquid", "lockup", "hypothetical") if liquid else ("lockup", "hypothetical"))
                 for _ in range(rng.randint(0, 3))]
    for i, status in enumerate(statuses):
        rows.append({"id": f"r{i}", "v_intrinsic": round(rng.uniform(20.0, 80.0), 3),
                     "c_offer": round(rng.uniform(0.0, 300.0), 3), "status": status})
    return rows


def dual_case(rng: random.Random, result: str, drought: bool = False) -> dict:
    """A 2-5-row book pair whose clearing verdict is ``result`` by construction.

    With ``drought`` the holding side of a hold verdict has no liquid row;
    for the other verdicts it only varies the draw.
    """
    c_max = round(rng.uniform(50.0, 500.0), 3)
    if result == "circuit_breaker":
        c_required = round(c_max * rng.uniform(1.1, 2.0), 3)
    else:
        c_required = round(c_max * rng.uniform(0.0, 0.9), 3)
    return {
        "expected": result,
        "rule": (round(rng.uniform(0.01, 0.1), 4), round(rng.uniform(1.0, 10.0), 3)),
        "f_rows": _book_rows(rng, liquid=not (drought and result == "f_side_hold")),
        "f_threshold": _HIGH_T if result == "f_side_hold" and not drought else _LOW_T,
        "m_rows": _book_rows(rng, liquid=not (drought and result == "m_side_hold")),
        "m_threshold": _HIGH_T if result == "m_side_hold" and not drought else _LOW_T,
        "c_max": c_max,
        "c_required": c_required,
    }


# -- population_sweep ------------------------------------------------------------------

#: lambda x cap.  With cap 50 the best bid's theta is above 1, so those points
#: execute on the first step.  With cap 0 theta is the best liquid value over
#: the ask, below 1 because reach_slope = 1 makes the top rows all but never
#: liquid: lambda = 1 executes on the second step and lambda = 0 holds to the
#: horizon.  The step count per sweep therefore does not depend on the seed.
SWEEP_GRID = {"lambda": [0.0, 1.0], "cap": [0.0, 50.0]}


def _population(rng: random.Random, n: int, alpha: float, beta: float, reach_slope: float) -> dict:
    # Only the generator seed varies: the shape parameters set how many rows
    # are liquid, and with them the cost of every best_bid, so they stay fixed.
    return {
        "n_candidates": n,
        "beta_alpha": alpha,
        "beta_beta": beta,
        "reach_slope": reach_slope,
        "comp_low": 0.5,
        "comp_high": 1.5,
        "comp_scale": 10.0,
        "seed": rng.randrange(2**31),
    }


def _population_sweep(rng: random.Random, seed: int) -> Workload:
    ops, inputs = [], {}
    for i, fmt in enumerate(("csv", "json")):
        config = {
            "population": _population(rng, SWEEP_ROWS, 8.0, 2.0, 1.0),
            "overrides": {"T0": 1.0, "elasticity": 0.05, "horizon": SWEEP_HORIZON,
                          "shock_factor": _jitter(rng, 1.1)},
            "grid": SWEEP_GRID,
        }
        name, out = f"sweep-{i}.json", f"rows-{i}.{fmt}"
        inputs[name] = json.dumps(config, indent=2) + "\n"
        ops.append(Op(f"sweep.{i}.{fmt}", "cli",
                      ("sweep", "--config", name, "--format", fmt, "--out", out), (out,)))
    return Workload("population_sweep", seed, tuple(ops), inputs)


# -- book_io ---------------------------------------------------------------------------


def _book_io(rng: random.Random, seed: int) -> Workload:
    config = {"population": _population(rng, IO_ROWS, 2.0, 8.0, 0.8)}
    ops = [
        Op(f"gen.{fmt}", "cli", ("gen", "--config", "gen.json", "--format", fmt, "--out", f"book.{fmt}"),
           (f"book.{fmt}", f"book.{fmt}.meta.json"))
        for fmt in ("csv", "json")
    ]
    for fmt in ("csv", "json"):
        ops.append(Op(f"book_from_{fmt}", f"load_{fmt}", (f"book.{fmt}",)))
        # A loaded book is queried more than once, under different rules.
        for i in range(BEST_BIDS_PER_LOAD):
            rule = (round(rng.uniform(0.02, 0.08), 4), round(rng.uniform(5.0, 30.0), 3))
            ops.append(Op(f"best_bid.{fmt}.{i}", "best_bid", rule))
    return Workload("book_io", seed, tuple(ops), {"gen.json": json.dumps(config, indent=2) + "\n"})
