"""Scalar valuation arithmetic shared by every other module.

Conventions
-----------
* Valuations live on an abstract 0-100 utility scale and are plain floats.
* Money is denominated in thousands of currency units ("k"), so an
  elasticity of 0.05 means one thousand buys 0.05 utility points.
* Compensation enters utility through a clipped-linear rule
  ``h(c) = min(c * elasticity, cap)``: transfers buy utility linearly up to
  a hard cap, beyond which more money adds nothing.  The cap is what makes
  large spreads unbridgeable by payment alone.

The inverse question "how much money closes a given utility gap" has no
finite answer once the gap exceeds the cap; :func:`required_transfer`
returns :data:`INFEASIBLE` (``math.inf``) for that case rather than raising,
because infeasibility is an ordinary outcome of the model, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveAsk

Valuation = float
Money = float

#: Sentinel for "no finite transfer achieves this": ordinary float infinity,
#: so it composes with min()/comparisons at call sites.
INFEASIBLE: float = math.inf


@dataclass(frozen=True)
class CompensationRule:
    """Clipped-linear conversion from money to utility points.

    elasticity: utility points bought per money unit (>= 0, finite).
    cap: ceiling on utility purchasable by any transfer (>= 0, may be
        ``math.inf`` for a pure-linear regime).
    """

    elasticity: float
    cap: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.elasticity) or self.elasticity < 0:
            raise ValueError(f"elasticity must be finite and >= 0, got {self.elasticity}")
        if math.isnan(self.cap) or self.cap < 0:
            raise ValueError(f"cap must be >= 0 (inf allowed), got {self.cap}")


def spread(v_uncond: Valuation, v_reach: Valuation) -> float:
    """Internal preference differential: the bid-ask spread of the book.

    Negative values are legal and meaningful: a marketable bid prices above
    the internal ask.
    """
    return v_uncond - v_reach


def market_to_book(v_reach: Valuation, v_uncond: Valuation) -> float:
    """Ratio of the best bid to the internal ask.

    Raises NonPositiveAsk when the ask is not strictly positive (or is NaN),
    which signals an ill-formed book rather than a tight market, and
    OverflowError when the ratio is not finite: an infinite theta would pass
    every threshold.
    """
    if not v_uncond > 0:  # NaN fails too
        raise NonPositiveAsk(f"internal ask must be > 0, got {v_uncond}")
    theta = v_reach / v_uncond
    if not math.isfinite(theta):
        raise OverflowError(f"theta = {v_reach!r} / {v_uncond!r} is not finite")
    return theta


def compensation_utility(c: Money, rule: CompensationRule) -> float:
    """Utility bought by a transfer of ``c`` under the clipped-linear rule."""
    if not c >= 0:  # NaN fails too
        raise ValueError(f"transfer must be >= 0, got {c}")
    if c == math.inf:  # inf * 0 is NaN; at zero elasticity no transfer buys utility
        return rule.cap if rule.elasticity else 0.0
    return min(c * rule.elasticity, rule.cap)


def effective_utility(v: Valuation, c: Money, rule: CompensationRule) -> float:
    """Intrinsic value plus clipped compensation utility."""
    return v + compensation_utility(c, rule)


def regime_threshold(v_uncond: Valuation, v_intrinsic: Valuation) -> float:
    """Utility gap a transfer must close to lift a candidate to the ask tier."""
    return v_uncond - v_intrinsic


def required_transfer(utility_gap: float, rule: CompensationRule) -> Money:
    """Smallest transfer whose clipped utility equals ``utility_gap``.

    Returns INFEASIBLE when the gap exceeds the cap (no finite transfer can
    close it) or when elasticity is zero and the gap is positive.  Exactly
    inverse to :func:`compensation_utility` on [0, cap].
    """
    if not utility_gap >= 0:  # NaN fails too
        raise ValueError(f"utility gap must be >= 0, got {utility_gap}")
    if utility_gap == 0:
        return 0.0
    if utility_gap > rule.cap:
        return INFEASIBLE
    if rule.elasticity == 0:
        return INFEASIBLE
    return utility_gap / rule.elasticity


def slippage(v_uncond: Valuation, u_executed: float) -> float:
    """Gap between the internal ask and the utility actually executed at."""
    return v_uncond - u_executed
