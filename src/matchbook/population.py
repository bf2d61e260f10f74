"""Population structure: the seeded market generator, the five supply-demand
buckets, and the cone-volume scarcity integral.

The generator draws intrinsic values from a Beta distribution scaled to
0-100 (right-skewed: high tiers are rare), makes reachability decay linearly
in value (the better the candidate, the less likely they are liquid), and
correlates compensation capacity with value plus noise.  Everything is a
pure function of the config, seed included.

Scarcity geometry: picture the population as a solid of revolution whose
radius at height h is sqrt(g(h)) for a density profile g.  The candidate
volume above a cutoff h0 is pi * integral of g from h0 to 1, which collapses
super-linearly in h0 for any decreasing profile — raising standards linearly
shrinks the reachable pool much faster than linearly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from .book import STATUSES, LiquidityStatus, PreferenceBook
from .errors import InvalidConfig, OutOfRange


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the market generator.

    Values are drawn as 100 * Beta(beta_alpha, beta_beta); an entry is liquid
    with probability 1 - reach_slope * v / 100; compensation offers are
    v * Uniform(comp_low, comp_high) * comp_scale.
    """

    n_candidates: int = 10_000
    beta_alpha: float = 2.0
    beta_beta: float = 8.0
    reach_slope: float = 0.8
    comp_low: float = 0.5
    comp_high: float = 1.5
    comp_scale: float = 10.0
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("n_candidates", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise InvalidConfig(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("beta_alpha", "beta_beta", "reach_slope", "comp_low", "comp_high", "comp_scale"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_candidates < 1:
            raise InvalidConfig(f"n_candidates must be >= 1, got {self.n_candidates}")
        if self.beta_alpha <= 0 or self.beta_beta <= 0:
            raise InvalidConfig("beta shape parameters must be > 0")
        if not 0 <= self.reach_slope <= 1:
            raise InvalidConfig(f"reach_slope must lie in [0, 1], got {self.reach_slope}")
        if self.comp_low > self.comp_high:
            raise InvalidConfig("comp_low must not exceed comp_high")
        if self.comp_low < 0 or self.comp_scale < 0:
            raise InvalidConfig("compensation parameters must be >= 0")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be an unsigned integer, got {self.seed}")


def generate(config: PopulationConfig) -> PreferenceBook:
    """Draw a candidate book; byte-identical across runs for equal configs."""
    n = config.n_candidates
    rng = np.random.default_rng(config.seed)
    values = rng.beta(config.beta_alpha, config.beta_beta, size=n) * 100.0
    reach_prob = 1.0 - config.reach_slope * (values / 100.0)
    liquid = rng.random(n) < reach_prob
    with np.errstate(over="ignore"):  # an offer that overflows to inf is rejected below
        offers = values * rng.uniform(config.comp_low, config.comp_high, size=n) * config.comp_scale

    codes = np.where(liquid, STATUSES.index(LiquidityStatus.LIQUID),
                     STATUSES.index(LiquidityStatus.HYPOTHETICAL))
    width = len(str(n - 1))
    ids = ["c" + str(i).zfill(width) for i in range(n)]
    try:
        return PreferenceBook.from_columns(ids, values, offers, codes, owner_id="population")
    except ValueError as exc:  # e.g. offers that overflow to inf
        raise InvalidConfig(f"population config draws an invalid book: {exc}") from exc


def population_metadata(config: PopulationConfig) -> str:
    """Sidecar record (config echo, seed included) for dataset reproducibility."""
    return json.dumps({"population": asdict(config)}, indent=2) + "\n"


# -- prior buckets --------------------------------------------------------------


class Bucket(IntEnum):
    """Heuristic supply-demand tiers over the 0-100 value scale."""

    INVISIBLE = 1
    PROVIDER = 2
    MATCH = 3
    PREMIUM = 4
    IDOL = 5


#: Descriptive demand/supply pressure per bucket.  Never used computationally;
#: carried so reports can label tiers.
BUCKET_PRESSURE: dict[Bucket, str] = {
    Bucket.INVISIBLE: "demand/supply -> 0",
    Bucket.PROVIDER: "demand/supply < 1 (buyer's market)",
    Bucket.MATCH: "demand/supply ~ 1 (balanced)",
    Bucket.PREMIUM: "demand/supply > 1 (seller's market)",
    Bucket.IDOL: "demand/supply -> inf (monopoly)",
}

_BUCKET_EDGES = (50.0, 70.0, 85.0, 95.0)


def classify_bucket(v: float) -> Bucket:
    """Map a value to its tier; intervals are half-open on the left,
    [0,50), [50,70), [70,85), [85,95), [95,100]."""
    if not 0 <= v <= 100:
        raise OutOfRange(f"value must lie in [0, 100], got {v}")
    for bucket, edge in zip(Bucket, _BUCKET_EDGES):
        if v < edge:
            return bucket
    return Bucket.IDOL


# -- scarcity geometry -----------------------------------------------------------


@dataclass(frozen=True)
class DensityProfile:
    """Population density g(h) over status height h in [0, 1].

    The solid-of-revolution radius is sqrt(g(h)), so cross-section area is
    pi * g(h) and volumes reduce to integrals of g.
    """

    name: str
    g: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def uniform(cls) -> "DensityProfile":
        return cls("uniform", lambda h: np.ones_like(np.asarray(h, dtype=float)))

    @classmethod
    def linear_cone(cls) -> "DensityProfile":
        # radius 1 - h: the classic cone (volume pi/3 over the full height).
        return cls("linear-cone", lambda h: (1.0 - np.asarray(h, dtype=float)) ** 2)

    @classmethod
    def beta(cls, alpha: float, beta: float) -> "DensityProfile":
        if alpha <= 0 or beta <= 0:
            raise InvalidConfig("beta profile shape parameters must be > 0")
        from scipy import stats  # its only user: importing matchbook stays scipy-free

        dist = stats.beta(alpha, beta)
        return cls(f"beta:{alpha:g},{beta:g}", lambda h: dist.pdf(np.asarray(h, dtype=float)))

    @classmethod
    def tabulated(cls, heights: np.ndarray, densities: np.ndarray) -> "DensityProfile":
        heights = np.asarray(heights, dtype=float)
        densities = np.asarray(densities, dtype=float)
        if heights.ndim != 1 or heights.shape != densities.shape or heights.size < 2:
            raise InvalidConfig("tabulated profile needs matching 1-d grids of length >= 2")
        if np.any(densities < 0):
            raise InvalidConfig("densities must be >= 0")
        return cls("tabulated", lambda h: np.interp(np.asarray(h, dtype=float), heights, densities))


def cone_volume(profile: DensityProfile, h0: float, steps: int) -> float:
    """Candidate volume above height h0: pi * trapezoid of g on [h0, 1].

    Composite trapezoid on a uniform grid of ``steps`` intervals; chosen over
    higher-order schemes because profiles may be tabulated.
    """
    if not 0 <= h0 <= 1:
        raise OutOfRange(f"h0 must lie in [0, 1], got {h0}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if h0 == 1.0:
        return 0.0
    ts = np.linspace(h0, 1.0, steps + 1)
    return math.pi * float(np.trapezoid(profile.g(ts), ts))
