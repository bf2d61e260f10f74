"""Spreads and clipped compensation.

Walks the scalar core: how a candidate book's internal ask and best bid
define a spread, what a transfer buys under the clipped-linear rule, and why
a wide enough spread is unbridgeable by money alone.
"""

import math

from matchbook import (
    INFEASIBLE,
    CompensationRule,
    compensation_utility,
    effective_utility,
    market_to_book,
    required_transfer,
    slippage,
    spread,
)

ask = 95.0   # the internal reservation value: the tier believed attainable
bid = 60.0   # the best candidate actually willing to match

print("== the structural spread ==")
print(f"ask {ask}, bid {bid}, spread {spread(ask, bid)}")
print(f"market-to-book ratio: {market_to_book(bid, ask):.4f}")

print("\n== money buys utility, up to a cap ==")
rule = CompensationRule(elasticity=0.05, cap=20.0)
for transfer in (0, 100, 200, 400, 500, 1000):
    h = compensation_utility(transfer, rule)
    u = effective_utility(bid, transfer, rule)
    print(f"transfer {transfer:>5}k -> +{h:>4.1f} utility -> effective bid {u:.1f}")

print("\nEven an unbounded transfer stops mattering at the cap:")
print(f"effective bid at 10^6 k: {effective_utility(bid, 1e6, rule):.1f}")

print("\n== the regime threshold ==")
gap = spread(ask, bid)
print(f"utility gap to the ask tier: {gap}")
needed = required_transfer(gap, rule)
if needed == INFEASIBLE:
    print(f"gap {gap} exceeds the {rule.cap}-point cap: no finite transfer closes it")

small_gap = 10.0
print(f"a {small_gap}-point gap, in contrast, costs {required_transfer(small_gap, rule):.0f}k")

print("\n== what execution below the ask leaves behind ==")
executed = effective_utility(bid, 500, rule)
print(f"executing at {executed:.0f} against ask {ask} leaves slippage {slippage(ask, executed):.1f}")

print("\nA pure-linear regime (no cap) behaves differently:")
linear = CompensationRule(elasticity=0.05, cap=math.inf)
print(f"required transfer for the full {gap}-point gap: {required_transfer(gap, linear):.0f}k")
