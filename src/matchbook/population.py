"""Population structure: the seeded market generator, the five supply-demand
buckets, and the cone-volume scarcity integral.

The generator draws intrinsic values from a Beta distribution scaled to
0-100 (right-skewed: high tiers are rare), makes reachability decay linearly
in value (the better the candidate, the less likely they are liquid), and
correlates compensation capacity with value plus noise.  Everything is a
pure function of the config, seed included.  As offers grow with value, the
share of a liquid row's gap to the ask its transfer closes, min(c * eps, cap)
/ (ask - v), has a median that never falls from bucket to bucket of 5 rows or
more on generated books (buckets of 3 can reverse it).

Scarcity geometry: picture the population as a solid of revolution whose
radius at height h is sqrt(g(h)) for a density profile g.  The candidate
volume above a cutoff h0 is pi * integral of g from h0 to 1, which collapses
super-linearly in h0 for any decreasing profile — raising standards linearly
shrinks the reachable pool much faster than linearly.
"""

from __future__ import annotations

import contextvars
import json
import math
import threading
from dataclasses import asdict, dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from .book import MAX_ROWS, PreferenceBook
from .errors import InvalidConfig, quoted


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
        booleans = [name for name, value in asdict(self).items() if isinstance(value, bool)]
        if booleans:  # float(True) is 1.0
            raise InvalidConfig(f"population parameters are numbers, not booleans: {', '.join(booleans)}")
        for name in ("n_candidates", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise InvalidConfig(f"{name} must be an integer, got {quoted(getattr(self, name))}")
        for name in ("beta_alpha", "beta_beta", "reach_slope", "comp_low", "comp_high", "comp_scale"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 1 <= self.n_candidates <= MAX_ROWS:
            raise InvalidConfig(f"n_candidates must lie in [1, {MAX_ROWS}], got {quoted(self.n_candidates)}")
        if self.beta_alpha <= 0 or self.beta_beta <= 0:
            raise InvalidConfig("beta shape parameters must be > 0")
        if not 0 <= self.reach_slope <= 1:
            raise InvalidConfig(f"reach_slope must lie in [0, 1], got {quoted(self.reach_slope)}")
        if self.comp_low > self.comp_high:
            raise InvalidConfig("comp_low must not exceed comp_high")
        if self.comp_low < 0 or self.comp_scale < 0:
            raise InvalidConfig("compensation parameters must be >= 0")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be an unsigned integer, got {quoted(self.seed)}")


def generate(config: PopulationConfig) -> PreferenceBook:
    """Draw a candidate book; byte-identical across runs for equal configs."""
    n = config.n_candidates
    rng = np.random.default_rng(config.seed)
    values = rng.beta(config.beta_alpha, config.beta_beta, size=n) * 100.0
    reach_prob = 1.0 - config.reach_slope * (values / 100.0)
    liquid = rng.random(n) < reach_prob
    with np.errstate(over="ignore"):  # an offer that overflows to inf is rejected below
        offers = values * rng.uniform(config.comp_low, config.comp_high, size=n) * config.comp_scale

    # The book names its rows by number and builds the names when first read.
    return PreferenceBook._numbered(values, offers, liquid, owner_id="population")


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
        raise ValueError(f"value must lie in [0, 100], got {v}")
    for bucket, edge in zip(Bucket, _BUCKET_EDGES):
        if v < edge:
            return bucket
    return Bucket.IDOL


# -- scarcity geometry -----------------------------------------------------------


@dataclass(frozen=True)
class DensityProfile:
    """Population density g(h) over status height h in [0, 1].

    The solid-of-revolution radius is sqrt(g(h)), so cross-section area is
    pi * g(h) and volumes reduce to integrals of g.  g must be pointwise, each
    output a function of its own input only: cone_volume samples it in
    blocks of the grid.
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
        if not (0 < alpha < math.inf and 0 < beta < math.inf):  # NaN fails both
            raise InvalidConfig(f"beta profile shapes must be finite and > 0, got {alpha}, {beta}")
        # Beside a shape of 1, Boost computes B(alpha, beta) as the other
        # shape's reciprocal at h = 1 (beta == 1) or h = 0 (alpha == 1), and
        # where that overflows it throws a C++ exception SciPy does not catch:
        # the process aborts.  Every grid of cone_volume holds h = 1.
        if (beta == 1 and 1 / alpha == math.inf) or (alpha == 1 and 1 / beta == math.inf):
            raise InvalidConfig(
                f"beta profile shapes {alpha}, {beta}: beside a shape of 1 the other must be at "
                "least 1/DBL_MAX (about 5.6e-309), or SciPy's Beta density aborts"
            )
        name = f"beta:{alpha:g},{beta:g}"
        # SciPy's only user, imported here so importing matchbook stays
        # scipy-free.  stats.beta.pdf ends in the private Boost ufunc
        # scipy.special._ufuncs._beta_pdf, and scipy.stats costs about 1 s and
        # 45 MB to import, so g calls the ufunc as beta_gen._pdf does and
        # masks as beta.pdf does, pointwise: 0.0 outside [0, 1], NaN for NaN.
        # tests/test_population.py::TestBetaDensity guards the name and checks
        # g against stats.beta.pdf bit for bit.
        try:
            from scipy.special._ufuncs import _beta_pdf
        except ImportError:  # a SciPy that does not export it
            from scipy import stats

            return cls(name, lambda h: stats.beta.pdf(np.asarray(h, dtype=float), alpha, beta))

        def g(h: np.ndarray) -> np.ndarray:
            x = np.asarray(h, dtype=float)
            inside = (0.0 <= x) & (x <= 1.0)
            out = np.where(np.isnan(x), np.nan, 0.0)
            with np.errstate(over="ignore"):
                out[inside] = _beta_pdf(x[inside], alpha, beta)
            return out[()] if out.ndim == 0 else out

        return cls(name, g)


def _in_halves(fill: Callable[[int, int], None], n: int) -> None:
    """fill(0, n // 2) on a helper thread, in a copy of the caller's context
    (numpy's errstate with it), while the calling thread runs fill(n // 2, n).
    The helper is joined before this returns or raises; an exception from
    either half is raised here, the first half's when both raise."""
    mid = n // 2
    errors: list[BaseException] = []

    def first_half() -> None:
        try:
            fill(0, mid)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(first_half,))
    helper.start()
    try:
        fill(mid, n)
    finally:
        helper.join()
        if errors:
            raise errors[0]


#: Trapezoid intervals of the cone integral, and the most intervals one block
#: of a half builds and integrates at once: 12 501 points of 8 bytes stay
#: below glibc's 128 KiB mmap threshold, so a block's arrays reuse the heap.
_CONE_STEPS = 100_000
_CONE_BLOCK = 12_500


def cone_volume(profile: DensityProfile, h0: float) -> float:
    """Candidate volume above height h0: pi * trapezoid of g on [h0, 1].

    Composite trapezoid on a uniform grid of ``_CONE_STEPS`` intervals: it
    needs only samples of g, so one scheme serves every profile.  Two threads,
    whose loops release the interpreter lock, each fill half of np.trapezoid's
    terms d * (y1 + y0) / 2.0, block by block of ``_CONE_BLOCK`` intervals;
    one pairwise sum adds them, bit for bit.  Each block makes its own grid
    points with np.linspace's arithmetic, so no array of the whole grid is
    ever made.
    """
    if not 0 <= h0 <= 1:
        raise ValueError(f"h0 must lie in [0, 1], got {h0}")
    if h0 == 1.0:
        return 0.0
    step, terms = (1.0 - h0) / _CONE_STEPS, np.empty(_CONE_STEPS)

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, _CONE_BLOCK):
            stop = min(start + _CONE_BLOCK, hi)
            x = np.arange(start, stop + 1, dtype=float)  # neighbouring blocks share a point
            x *= step
            x += h0
            if stop == _CONE_STEPS:
                x[-1] = 1.0  # as np.linspace sets its endpoint
            y = profile.g(x)  # SciPy's Beta density may raise OverflowError
            out = terms[start:stop]
            np.add(y[1:], y[:-1], out=out)
            out *= np.subtract(x[1:], x[:-1])
            out /= 2.0

    # Near h0 = 1 the grid repeats points: a zero width times an infinite
    # density is NaN, which the caller refuses, so numpy need not warn of it.
    with np.errstate(invalid="ignore"):
        _in_halves(fill, _CONE_STEPS)
    return math.pi * float(terms.sum())
