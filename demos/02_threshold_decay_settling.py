"""Settling: execution driven by threshold decay, not spread closure.

A constant bid sits 22% below the ask.  Nothing about the book improves;
the agent's willingness threshold decays with inventory age until the
standing ratio clears it.  The book is one snapshot, so its metrics are
computed once and every step compares them with the threshold.
"""

from matchbook import (
    CandidateEntry,
    CompensationRule,
    DecaySchedule,
    Decision,
    LiquidityStatus,
    PreferenceBook,
    SETTLING_TABLE,
    records_to_csv,
    run_schedule,
    step,
)

book = PreferenceBook(
    entries=(
        CandidateEntry("ideal", 90.0, 0.0, LiquidityStatus.HYPOTHETICAL),
        CandidateEntry("candidate", 70.0, 0.0, LiquidityStatus.LIQUID),
    ),
    owner_id="F",
)
rule = CompensationRule(elasticity=0.05, cap=20.0)
metrics = book.metrics(rule)

print("== tabulated decay ==")
records = []
for t in range(1, 6):
    record = step(metrics, SETTLING_TABLE, t)
    records.append(record)
    print(
        f"t{t}: theta {record.theta:.4f} vs T {record.threshold:.2f}"
        f" -> {record.decision.value.upper()}"
    )
    if record.decision is Decision.EXECUTE:
        break

commit = records[-1]
print(f"\nexecuted at t={commit.t}, committed threshold {commit.threshold}")
print(f"theta never moved; only T did. Slippage locked in: {commit.slippage}")

print("\n== the same run as a record stream (CSV) ==")
print(records_to_csv(records))

print("== parametric decay reaches the same place ==")
schedule = DecaySchedule(t0=0.95, rate=0.06, floor=0.70)
commit = run_schedule(metrics, schedule, horizon=29)[-1]
if commit.decision is Decision.EXECUTE:
    print(f"exponential schedule executes at t={commit.t} (T={commit.threshold:.4f})")
