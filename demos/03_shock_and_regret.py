"""Immediate fills, post-execution shocks, regret, lock-in, impulse orders.

High-quality bids clear instantly (theta > 1 beats any threshold).  After a
lower-quality execution, an upward repricing of the internal ask drags theta
below the committed threshold: regret, the psychological form of slippage.
Lock-in explains why the match survives it anyway.
"""

from matchbook import (
    CandidateEntry,
    CompensationRule,
    LiquidityStatus,
    PreferenceBook,
    TableSchedule,
    apply_shock,
    decide,
    impulse_adjust,
    lock_in_threshold,
    reprice,
    step,
)

rule = CompensationRule(elasticity=0.05, cap=20.0)

print("== a marketable bid ==")
book = PreferenceBook(
    entries=(
        CandidateEntry("ideal", 90.0, 0.0, LiquidityStatus.HYPOTHETICAL),
        CandidateEntry("star", 94.0, 0.0, LiquidityStatus.LIQUID),
    ),
    owner_id="F",
)
# The ask is pinned at 90: the arriving bid must not become the ask.
record = step(book.metrics(rule, ask=90.0), TableSchedule(points=((1, 0.95),)), 1)
print(f"theta {record.theta:.4f} >= T {record.threshold} -> {record.decision.value}: instant fill")

print("\n== a settled match, then a peer-comparison shock ==")
book = PreferenceBook(
    entries=(
        CandidateEntry("ideal", 90.0, 0.0, LiquidityStatus.HYPOTHETICAL),
        CandidateEntry("partner", 75.0, 0.0, LiquidityStatus.LIQUID),
    ),
    owner_id="F",
)
commit = step(book.metrics(rule), TableSchedule(points=((1, 0.80),)), 1)
print(f"executed: theta {commit.theta:.4f} at threshold {commit.threshold}")

shocked_ask = reprice(90.0, 1.10)
post = apply_shock(commit, shocked_ask)
print(f"shock: ask 90 -> {shocked_ask}, theta -> {post.theta:.4f}")
print(f"regret (theta below committed {post.threshold}): {post.theta < post.threshold}")

print("\n== lock-in keeps the match despite regret ==")
exit_T = lock_in_threshold(commit.threshold, kappa=0.15)
print(f"exit threshold {exit_T:.2f}; theta {post.theta:.2f} is below it, yet the")
print(f"commitment stands as decision {commit.decision.value!r}: exit is sticky, not automatic")

print("\n== a counter-shock clears regret ==")
recovered = apply_shock(commit, 88.0)
regret = recovered.theta < recovered.threshold
print(f"ask repriced down to 88: theta {recovered.theta:.4f}, regret {regret}")

print("\n== impulse orders: the threshold side can also jump ==")
T = 0.95
theta = 0.78
print(f"theta {theta} vs T {T}: {decide(theta, T).value}")
dropped = impulse_adjust(T, delta_emotion=0.20)
print(f"after an impulse drop to {dropped:.2f}: {decide(theta, dropped).value}")
