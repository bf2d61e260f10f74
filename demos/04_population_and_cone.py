"""Population scarcity: the seeded generator, the five buckets, and the
cone-volume integral.

The generator's Beta(2, 8) value distribution makes high tiers rare, and
reachability falls with value, so the liquid pool thins out exactly where
demand concentrates.  The cone volume quantifies it: raising a status cutoff
linearly collapses the candidate volume super-linearly.
"""

import numpy as np

from matchbook import (
    Bucket,
    BUCKET_PRESSURE,
    CompensationRule,
    DensityProfile,
    LiquidityStatus,
    PopulationConfig,
    classify_bucket,
    cone_volume,
    generate,
)

config = PopulationConfig(n_candidates=10_000, seed=42)
book = generate(config)
values = np.array([e.v_intrinsic for e in book.entries])
liquid = np.array([e.status is LiquidityStatus.LIQUID for e in book.entries])

print(f"== generated market (n={config.n_candidates}, seed={config.seed}) ==")
print(f"mean value {values.mean():.2f}, liquid fraction {liquid.mean():.3f}")

print("\n== the five buckets ==")
for bucket in Bucket:
    mask = np.array([classify_bucket(v) is bucket for v in values])
    count = int(mask.sum())
    rate = f"{liquid[mask].mean():.3f}" if count else "  n/a"
    print(
        f"{bucket.name:<9} count {count:>5}  liquid rate {rate}   [{BUCKET_PRESSURE[bucket]}]"
    )
print("\nScarcity and illiquidity compound: the premium tiers are nearly empty,")
print("and what exists there is the least likely to be reachable.")

print("\n== best bid of the generated book ==")
rule = CompensationRule(elasticity=0.05, cap=20.0)
metrics = book.metrics(rule)
best = metrics.bid  # the bid the snapshot was priced from
print(f"ask {book.v_uncond():.2f}, best bid {best.entry.v_intrinsic:.2f} "
      f"(effective {best.utility:.2f}), theta {metrics.theta:.4f}")

print("\n== cone volumes: how fast the pool collapses ==")
for profile in (DensityProfile.linear_cone(), DensityProfile.beta(2, 8)):
    full = cone_volume(profile, 0.0)
    print(f"profile {profile.name}:")
    for h0 in (0.0, 0.25, 0.5, 0.75, 0.9):
        vol = cone_volume(profile, h0)
        share = vol / full
        print(
            f"  cutoff {h0:.2f}: volume {vol:.4f}"
            f"  remaining share {share:6.2%}  (linear would leave {1 - h0:6.2%})"
        )
