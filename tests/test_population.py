import copy
import math
import re
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from matchbook import (
    BUCKET_PRESSURE,
    Bucket,
    CompensationRule,
    DensityProfile,
    InvalidConfig,
    LiquidityStatus,
    PopulationConfig,
    book_from_csv,
    book_from_json,
    book_to_csv,
    book_to_json,
    classify_bucket,
    cone_volume,
    effective_utility,
    generate,
)
from matchbook import book as book_module
from matchbook.book import MAX_ROWS
from matchbook.cli import _parse_profile
from matchbook.experiments import config_from_mapping, run_sweep
from matchbook.population import _CONE_BLOCK, _CONE_STEPS, _in_halves, population_metadata


def values_and_liquidity(book):
    vs = np.array([e.v_intrinsic for e in book.entries])
    liquid = np.array([e.status is LiquidityStatus.LIQUID for e in book.entries])
    return vs, liquid


def reference_ids(n):
    return tuple("c" + str(i).zfill(len(str(n - 1))) for i in range(n))


RULE = CompensationRule(elasticity=0.05, cap=20.0)

#: Each pair is the last size of one id width and the first of the next.
WIDTH_BOUNDARIES = [1, 2, 10, 11, 100, 101, 1000, 1001]

#: Round trips that must give back a book equal to a generated one.
ROUND_TRIPS = {
    "csv": lambda book: book_from_csv(book_to_csv(book), owner_id=book.owner_id),
    "json": lambda book: book_from_json(book_to_json(book), owner_id=book.owner_id),
    "pickle": lambda book: pickle.loads(pickle.dumps(book)),
    "deepcopy": copy.deepcopy,
}


class TestGeneratedIds:
    """A generated book names its rows by number and builds the names only
    when they are read."""

    @pytest.fixture
    def formatted(self, monkeypatch):
        """The row counts the name formatter was called with."""
        calls = []
        formatter = book_module._ids

        def counting(n):
            calls.append(n)
            return formatter(n)

        monkeypatch.setattr(book_module, "_ids", counting)
        return calls

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize("n", WIDTH_BOUNDARIES)
    def test_best_bid_names_its_row(self, n, read_first):
        book = generate(PopulationConfig(n_candidates=n, reach_slope=0.0, seed=n))
        if read_first:
            assert book.ids == reference_ids(n)
        best = book.best_bid(RULE)
        utilities = [effective_utility(e.v_intrinsic, e.c_offer, RULE) for e in book.entries]
        k = utilities.index(max(utilities))
        assert best.entry == book.entries[k]
        assert best.entry.id == book.ids[k] == reference_ids(n)[k]

    @pytest.mark.parametrize("n", WIDTH_BOUNDARIES)
    def test_rows_by_index_match_ids(self, n):
        book = generate(PopulationConfig(n_candidates=n, seed=n))
        names = [book.entries[i].id for i in (0, n - 1, -1, -n)]
        assert names == [book.ids[i] for i in (0, n - 1, -1, -n)]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                book.entries[i]

    @pytest.mark.parametrize("trip", ROUND_TRIPS, ids=str)
    def test_equal_and_hash_equal_to_a_round_trip(self, trip):
        config = PopulationConfig(n_candidates=101, seed=3)
        other = ROUND_TRIPS[trip](generate(config))
        assert other.ids == reference_ids(101)
        # Fresh books, so that each comparison meets names not yet built.
        assert generate(config) == other and other == generate(config)
        assert hash(generate(config)) == hash(other)

    def test_queries_leave_the_names_unbuilt(self, formatted):
        book = generate(PopulationConfig(n_candidates=1000, seed=5))
        assert repr(book).startswith("PreferenceBook(owner_id='population', rows=1000, liquid=")
        assert len(book.entries) == 1000
        book.best_bid(RULE)
        book.metrics(RULE)
        book.metrics(RULE, ask=150.0)
        assert formatted == []
        assert book.ids == reference_ids(1000)
        assert book.ids is book.ids
        assert formatted == [1000]

    def test_population_sweep_leaves_the_names_unbuilt(self, formatted):
        data = {"population": {"n_candidates": 1000}, "overrides": {"T0": 0.5, "shock_factor": 1.1},
                "grid": {"cap": [0.0, 50.0], "reach_slope": [0.2, 0.8]}}
        rows = run_sweep(config_from_mapping("sweep", data))
        assert len(rows) == 4
        assert formatted == []


#: A PopulationConfig input outside its domain, and the words it is refused in.
POPULATION_REFUSALS = [
    ({"beta_alpha": math.nan}, "beta_alpha must be finite, got nan"),
    ({"beta_beta": math.inf}, "beta_beta must be finite, got inf"),
    ({"reach_slope": math.nan}, "reach_slope must be finite, got nan"),
    ({"comp_low": -math.inf}, "comp_low must be finite, got -inf"),
    ({"comp_high": math.inf}, "comp_high must be finite, got inf"),
    ({"comp_scale": math.inf}, "comp_scale must be finite, got inf"),
    ({"n_candidates": 10.5}, "n_candidates must be an integer, got 10.5"),
    ({"n_candidates": 10.0}, "n_candidates must be an integer, got 10.0"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True, "reach_slope": False}, "population parameters are numbers, not booleans: reach_slope, seed"),
    ({"comp_low": -1.0}, "compensation parameters must be >= 0"),
    ({"comp_scale": -1.0}, "compensation parameters must be >= 0"),
]


class TestGenerate:
    def test_same_seed_same_book(self):
        cfg = PopulationConfig(n_candidates=2000, seed=99)
        assert book_to_csv(generate(cfg)) == book_to_csv(generate(cfg))

    def test_different_seeds_differ(self):
        a = generate(PopulationConfig(n_candidates=2000, seed=1))
        b = generate(PopulationConfig(n_candidates=2000, seed=2))
        assert book_to_csv(a) != book_to_csv(b)

    def test_sample_mean_matches_distribution(self):
        # Beta(2, 8) has mean 0.2, so values scaled to 0-100 average 20;
        # +-1 is a generous multiple of the standard error at n=1e4.
        for seed in (42, 7, 123):
            vs, _ = values_and_liquidity(generate(PopulationConfig(seed=seed)))
            assert 19 <= vs.mean() <= 21

    def test_liquid_fraction(self):
        # E[1 - 0.8 * V/100] = 1 - 0.8 * 0.2 = 0.84; the 1e6-sample check
        # below pins the same expectation at tighter error.
        _, liquid = values_and_liquidity(generate(PopulationConfig(seed=42)))
        assert 0.83 <= liquid.mean() <= 0.85

    def test_liquid_fraction_large_sample(self):
        cfg = PopulationConfig(n_candidates=200_000, seed=7)
        vs, liquid = values_and_liquidity(generate(cfg))
        assert liquid.mean() == pytest.approx(0.84, abs=0.004)
        assert vs.mean() == pytest.approx(20.0, abs=0.2)

    def test_zero_reach_slope_makes_everyone_liquid(self):
        cfg = PopulationConfig(n_candidates=500, reach_slope=0.0, seed=3)
        _, liquid = values_and_liquidity(generate(cfg))
        assert liquid.all()

    def test_distributional_fidelity_ks(self):
        cfg = PopulationConfig(n_candidates=100_000, seed=42)
        vs, _ = values_and_liquidity(generate(cfg))
        ks = stats.kstest(vs / 100.0, stats.beta(2, 8).cdf)
        assert ks.statistic < 0.01

    def test_offers_scale_with_value(self):
        cfg = PopulationConfig(n_candidates=5000, seed=11)
        book = generate(cfg)
        for e in book.entries:
            assert 0.5 * 10 * e.v_intrinsic <= e.c_offer <= 1.5 * 10 * e.v_intrinsic

    def test_reachability_antitone_in_value(self):
        # Liquid rates must fall across occupied buckets; sparse top tiers
        # (fewer than 30 draws) carry no statistical signal and are skipped.
        vs, liquid = values_and_liquidity(
            generate(PopulationConfig(n_candidates=100_000, seed=42))
        )
        buckets = np.digitize(vs, (50, 70, 85, 95))
        rates = []
        for b in range(5):
            mask = buckets == b
            if mask.sum() >= 30:
                rates.append(liquid[mask].mean())
        assert len(rates) >= 2
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidConfig):
            PopulationConfig(n_candidates=0)
        with pytest.raises(InvalidConfig):
            PopulationConfig(beta_alpha=0.0)
        with pytest.raises(InvalidConfig):
            PopulationConfig(reach_slope=1.5)
        with pytest.raises(InvalidConfig):
            PopulationConfig(comp_low=2.0, comp_high=1.0)
        with pytest.raises(InvalidConfig):
            PopulationConfig(seed=-1)

    @pytest.mark.parametrize("bad, words", POPULATION_REFUSALS, ids=[str(bad) for bad, _ in POPULATION_REFUSALS])
    def test_non_finite_or_fractional_parameters_rejected(self, bad, words):
        with pytest.raises(InvalidConfig, match=f"^{re.escape(words)}$"):
            PopulationConfig(**bad)

    def test_size_cap(self):
        assert PopulationConfig(n_candidates=MAX_ROWS).n_candidates == MAX_ROWS
        # 10**5000 has more digits than int() prints: the refusal names its bits.
        for n in (MAX_ROWS + 1, 10**15, 10**5000):
            with pytest.raises(InvalidConfig, match="n_candidates"):
                PopulationConfig(n_candidates=n)

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 100_000, 100_001])
    def test_ids_at_width_boundaries(self, n):
        assert generate(PopulationConfig(n_candidates=n)).ids == reference_ids(n)

    @given(n=st.integers(1, 20_000))
    @settings(max_examples=50, deadline=None)
    def test_ids_match_zero_padded_counter(self, n):
        assert generate(PopulationConfig(n_candidates=n, seed=n)).ids == reference_ids(n)

    def test_overflowing_offers_are_a_value_error(self):
        with pytest.raises(ValueError, match="c_offer must be finite"):
            generate(PopulationConfig(n_candidates=20, comp_scale=1e308))

    def test_metadata_sidecar_echoes_config(self):
        cfg = PopulationConfig(n_candidates=10, seed=5)
        text = population_metadata(cfg)
        assert '"seed": 5' in text and '"n_candidates": 10' in text


class TestClassifyBucket:
    def test_tier_examples(self):
        assert classify_bucket(40) is Bucket.INVISIBLE
        assert classify_bucket(78) is Bucket.MATCH
        assert classify_bucket(95) is Bucket.IDOL

    def test_boundaries_half_open(self):
        assert classify_bucket(0) is Bucket.INVISIBLE
        assert classify_bucket(50) is Bucket.PROVIDER
        assert classify_bucket(70) is Bucket.MATCH
        assert classify_bucket(85) is Bucket.PREMIUM
        assert classify_bucket(100) is Bucket.IDOL

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"value must lie in \[0, 100\], got -0\.1"):
            classify_bucket(-0.1)
        with pytest.raises(ValueError, match=r"value must lie in \[0, 100\], got 100\.1"):
            classify_bucket(100.1)

    def test_total_and_monotone(self):
        grid = np.linspace(0, 100, 2001)
        buckets = [classify_bucket(v) for v in grid]
        assert all(a <= b for a, b in zip(buckets, buckets[1:]))

    def test_pressure_metadata_covers_all_tiers(self):
        assert set(BUCKET_PRESSURE) == set(Bucket)


class TestConeVolume:
    def test_uniform_half(self):
        assert cone_volume(DensityProfile.uniform(), 0.5) == pytest.approx(
            math.pi / 2, abs=1e-9
        )

    def test_linear_cone_full(self):
        vol = cone_volume(DensityProfile.linear_cone(), 0.0)
        assert vol == pytest.approx(math.pi / 3, abs=1e-6)

    def test_beta_profile_against_closed_form(self):
        # The normalized density integrates to the survival function, so the
        # quadrature can be checked against an independent closed form.
        profile = DensityProfile.beta(2, 8)
        vol = cone_volume(profile, 0.5)
        assert vol == pytest.approx(math.pi * stats.beta(2, 8).sf(0.5), abs=1e-9)

    def test_zero_above_the_top(self):
        for profile in (DensityProfile.uniform(), DensityProfile.beta(2, 8)):
            assert cone_volume(profile, 1.0) == 0.0

    def test_non_increasing_in_cutoff(self):
        profile = DensityProfile.beta(2, 8)
        vols = [cone_volume(profile, h0) for h0 in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(vols, vols[1:]))

    def test_superlinear_scarcity(self):
        # Raising the cutoff by x removes more than fraction x of the volume
        # for decreasing profiles: the pool collapses super-linearly.
        for profile in (DensityProfile.linear_cone(), DensityProfile.beta(2, 8)):
            full = cone_volume(profile, 0.0)
            for h0 in np.arange(0.1, 0.95, 0.1):
                ratio = cone_volume(profile, float(h0)) / full
                assert ratio < 1 - h0

    def test_linear_cone_ratio_is_cubic(self):
        profile = DensityProfile.linear_cone()
        full = cone_volume(profile, 0.0)
        for h0 in (0.2, 0.5, 0.8):
            ratio = cone_volume(profile, h0) / full
            assert ratio == pytest.approx((1 - h0) ** 3, abs=1e-6)

    def test_domain_checks(self):
        with pytest.raises(ValueError, match=r"h0 must lie in \[0, 1\], got -0\.1"):
            cone_volume(DensityProfile.uniform(), -0.1)
        with pytest.raises(InvalidConfig):
            DensityProfile.beta(0.0, 8)

    @pytest.mark.parametrize(
        "shapes", [(math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (2.0, math.inf)], ids=str
    )
    def test_beta_shapes_must_be_finite_and_positive(self, shapes):
        with pytest.raises(InvalidConfig, match="finite and > 0"):
            DensityProfile.beta(*shapes)

    @pytest.mark.parametrize("tiny", [5e-324, 1e-320, 2.0**-1024], ids=repr)
    def test_tiny_shape_beside_one_is_refused(self, tiny):
        # 1/tiny overflows, and Boost's Beta density would abort the process
        # at h = 1 (beta == 1) or h = 0 (alpha == 1).
        for shapes in ((tiny, 1.0), (1.0, tiny)):
            with pytest.raises(InvalidConfig, match="beside a shape of 1"):
                DensityProfile.beta(*shapes)

    def test_least_shape_beside_one_is_its_density(self):
        # The next float above 2**-1024 has a finite reciprocal.
        least = math.nextafter(2.0**-1024, 1.0)
        assert DensityProfile.beta(least, 1.0).g(1.0) == DensityProfile.beta(1.0, least).g(0.0) == least
        assert DensityProfile.beta(1e-320, math.nextafter(1.0, 2.0)).g(1.0) == 0.0

    def test_density_overflow_raises_overflow_error(self):
        # SciPy raises OverflowError evaluating this density near h = 0.
        profile = DensityProfile.beta(5e-324, 1.7976931348623157e308)
        with pytest.raises(OverflowError):
            cone_volume(profile, 5e-324)


#: Beta shapes below, at and above 1, and at the ends of the float range.
BETA_SHAPES = (0.5, 1.0, 2.0, 8.0, 1e-300, 1e300)

#: Density points: the support's ends with both zeros, subnormals, interior
#: points, points outside [0, 1], the infinities and NaN.
BETA_POINTS = np.array(
    [0.0, -0.0, 1.0, 5e-324, -5e-324, 1e-300, 0.25, 0.5, 1 - 2**-53, 1 + 2**-52,
     -0.5, 1.5, -1e300, math.inf, -math.inf, math.nan]
)

#: NaN, both zeros, both ends, interior points and points outside [0, 1]: its
#: prefixes, read forwards and backwards, are odd and even arrays of every
#: size from 0 up, with odd and even counts of in-domain points.
MIXED_POINTS = np.array([math.nan, -0.0, 0.0, 1.0, 0.25, -0.5, 0.5, 1.5, 1 - 2**-53, math.nan, 0.75])


def density_outcome(pdf, x):
    """What a density gives at x: its type and bit pattern, or the exception it raises."""
    try:
        result = pdf(x)
    except OverflowError:
        return OverflowError
    return type(result), np.asarray(result).view(np.uint64).tolist()


class TestBetaDensity:
    """DensityProfile.beta's g calls scipy.special._ufuncs._beta_pdf, the
    private Boost ufunc behind stats.beta.pdf, and must give stats.beta.pdf's
    values bit for bit: signed zeros, NaN and OverflowError included."""

    @pytest.mark.parametrize("b", BETA_SHAPES, ids=repr)
    @pytest.mark.parametrize("a", BETA_SHAPES, ids=repr)
    def test_density_matches_scipy_stats_bit_for_bit(self, a, b):
        g, pdf = DensityProfile.beta(a, b).g, stats.beta(a, b).pdf
        assert density_outcome(g, BETA_POINTS) == density_outcome(pdf, BETA_POINTS)
        for x in BETA_POINTS:
            assert density_outcome(g, x) == density_outcome(pdf, x), x

    def test_takes_the_ufunc_not_scipy_stats(self, monkeypatch):
        monkeypatch.setattr(stats.beta, "pdf", lambda *args: pytest.fail("g called stats.beta.pdf"))
        assert DensityProfile.beta(2, 8).g(0.5) == pytest.approx(0.28125)  # 72 * 0.5 * 0.5**7

    def test_falls_back_to_scipy_stats_without_the_ufunc(self, monkeypatch):
        import scipy.special._ufuncs

        monkeypatch.delattr(scipy.special._ufuncs, "_beta_pdf")
        profile = DensityProfile.beta(2, 8)
        monkeypatch.undo()
        expected, calls, pdf = density_outcome(stats.beta(2, 8).pdf, BETA_POINTS), [], stats.beta.pdf
        monkeypatch.setattr(stats.beta, "pdf", lambda *args: calls.append(args) or pdf(*args))
        assert density_outcome(profile.g, BETA_POINTS) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("reverse", [False, True], ids=["forwards", "backwards"])
    @pytest.mark.parametrize("size", range(len(MIXED_POINTS) + 1))
    @pytest.mark.parametrize("shapes", [(2.0, 8.0), (0.5, 0.5)], ids=repr)
    def test_mixed_points_match_scipy_stats(self, shapes, size, reverse):
        x = MIXED_POINTS[:size][::-1] if reverse else MIXED_POINTS[:size]
        g, pdf = DensityProfile.beta(*shapes).g, stats.beta(*shapes).pdf
        assert g(x).shape == x.shape
        assert density_outcome(g, x) == density_outcome(pdf, x)


def cone_outcome(volume, profile, h0):
    """What a cone volume gives: the repr of its value, so that inf and NaN
    compare, or the type of the exception it raises."""
    try:
        return repr(volume(profile, h0))
    except (OverflowError, RuntimeWarning) as exc:  # RuntimeWarning: an error under pytest
        return type(exc)


def serial_cone(profile, h0):
    """The cone volume as one serial np.trapezoid over cone_volume's grid:
    the reference that the two-thread split must equal bit for bit."""
    if h0 == 1.0:
        return 0.0
    ts = np.linspace(h0, 1.0, _CONE_STEPS + 1)
    with np.errstate(invalid="ignore"):  # as in cone_volume: a repeated point's 0 * inf is NaN
        return math.pi * float(np.trapezoid(profile.g(ts), ts))


#: Profiles, as ``cone --profile`` spells them, whose cone volume is checked
#: against the serial reference.
HALVES_PROFILES = ["uniform", "linear-cone", "beta:2,8", "beta:0.5,2", "beta:2,0.5", "beta:0.5,0.5"]


class First(Exception):
    pass


class Second(Exception):
    pass


def raising_profile(first, second):
    """A density that raises ``first`` on the grid's first half and ``second``
    on its second (from h0 = 0, the second half starts at h = 0.5); None
    computes instead."""

    def g(h):
        error = first if h[0] < 0.5 else second
        if error is not None:
            raise error
        return np.ones_like(h)

    return DensityProfile("t", g)


class TestConeVolumeHalves:
    """cone_volume fills its interval terms in two halves, the first on a
    helper thread, and must equal one serial np.trapezoid bit for bit."""

    @pytest.mark.parametrize("name", HALVES_PROFILES)
    @given(h0=st.floats(0.0, 1.0))
    @example(h0=0.0)
    @example(h0=5e-324)
    @example(h0=0.5)
    @example(h0=1 - 2**-53)
    @settings(max_examples=15, deadline=None)
    def test_equals_serial_trapezoid(self, name, h0):
        profile = _parse_profile(name)
        assert cone_outcome(cone_volume, profile, h0) == cone_outcome(serial_cone, profile, h0)

    @pytest.mark.parametrize("name", HALVES_PROFILES[2:])
    def test_scipy_stats_fallback_equals_serial_trapezoid(self, name, monkeypatch):
        # stats.beta.pdf, which g falls back to, runs on both threads at once.
        import scipy.special._ufuncs

        monkeypatch.delattr(scipy.special._ufuncs, "_beta_pdf")
        profile = _parse_profile(name)
        monkeypatch.undo()
        calls, pdf = [], stats.beta.pdf
        monkeypatch.setattr(stats.beta, "pdf", lambda *args: calls.append(args) or pdf(*args))
        for h0 in (0.0, 5e-324, 0.1, 0.5, 0.9999, 1 - 2**-53):
            assert cone_outcome(cone_volume, profile, h0) == cone_outcome(serial_cone, profile, h0), h0
        assert calls

    @pytest.mark.parametrize(
        "first, second, error", [(First, Second, First), (None, Second, Second), (First, None, First)],
        ids=["both", "calling-thread", "helper"],
    )
    def test_first_halfs_exception_wins_and_no_thread_outlives_it(self, first, second, error):
        before = threading.active_count()
        with pytest.raises(error):
            cone_volume(raising_profile(first, second), 0.0)
        assert threading.active_count() == before
        assert cone_volume(raising_profile(None, None), 0.0) == math.pi
        assert threading.active_count() == before

    def test_helper_keeps_the_callers_errstate(self):
        # exp(1000) overflows below h = 0.5 only: in the helper's half.
        profile = DensityProfile("t", lambda h: np.exp(np.where(h < 0.5, 1000.0, 0.0)))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            cone_volume(profile, 0.0)
        with np.errstate(over="ignore"):
            assert cone_volume(profile, 0.0) == math.inf


class TestConeVolumeBlocks:
    """Each half builds and integrates its grid in blocks of _CONE_BLOCK
    intervals, with np.linspace's own arithmetic and no whole-grid array."""

    @given(h0=st.floats(0.0, 1.0, exclude_max=True))
    @example(h0=0.0)
    @example(h0=5e-324)
    @example(h0=0.5)
    @example(h0=1 - 2**-53)  # the grid repeats points
    @settings(max_examples=15, deadline=None)
    def test_blocks_are_slices_of_the_linspace_grid(self, h0):
        calls = []

        def g(h):
            calls.append((threading.get_ident(), h.copy()))
            return np.ones_like(h)

        cone_volume(DensityProfile("t", g), h0)
        grid = np.linspace(h0, 1.0, _CONE_STEPS + 1).view(np.uint64)
        caller, mid = threading.get_ident(), _CONE_STEPS // 2
        (helper,) = {ident for ident, _ in calls} - {caller}
        # In each thread's call order, a block starts on the point its predecessor ended on.
        ends = {helper: 0, caller: mid}
        for ident, h in calls:
            assert h.size <= _CONE_BLOCK + 1
            assert np.array_equal(h.view(np.uint64), grid[ends[ident]:ends[ident] + h.size])
            ends[ident] += h.size - 1
        assert ends == {helper: mid, caller: _CONE_STEPS}

    def test_peak_memory_stays_below_the_whole_grid_arrays(self):
        # The terms buffer is 0.8 MB; whole-grid points, density and widths peaked at 3.9 MB.
        profile = DensityProfile.beta(2, 8)
        cone_volume(profile, 0.5)
        tracemalloc.start()
        try:
            cone_volume(profile, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_500_000


class TestInHalves:
    """_in_halves runs fill(0, n // 2) on a helper thread and fill(n // 2, n)
    on the calling thread."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 100_000])
    def test_fills_both_halves_once(self, n):
        calls = []
        _in_halves(lambda lo, hi: calls.append((lo, hi)), n)
        assert sorted(calls) == [(0, n // 2), (n // 2, n)]

    def test_first_halfs_exception_wins(self):
        def fill_raising(first, second):
            def fill(lo, hi):
                error = first if lo == 0 else second
                if error is not None:
                    raise error
            return fill

        # Both halves raise, then only the caller's, then only the helper's.
        for first, second, error in [(First, Second, First), (None, Second, Second), (First, None, First)]:
            with pytest.raises(error):
                _in_halves(fill_raising(first, second), 2)

    def test_helper_keeps_the_callers_errstate(self):
        # exp(1000) overflows in the helper's half only.
        x, out = np.array([1000.0, 0.0]), np.empty(2)

        def fill(lo, hi):
            np.exp(x[lo:hi], out=out[lo:hi])

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _in_halves(fill, 2)
        with np.errstate(over="ignore"):
            _in_halves(fill, 2)
        assert out.tolist() == [math.inf, 1.0]
