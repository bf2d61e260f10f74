import math

import numpy as np
import pytest
from scipy import stats

from matchbook import (
    BUCKET_PRESSURE,
    Bucket,
    DensityProfile,
    InvalidConfig,
    LiquidityStatus,
    OutOfRange,
    PopulationConfig,
    book_to_csv,
    classify_bucket,
    cone_volume,
    generate,
)
from matchbook.population import population_metadata


def values_and_liquidity(book):
    vs = np.array([e.v_intrinsic for e in book.entries])
    liquid = np.array([e.status is LiquidityStatus.LIQUID for e in book.entries])
    return vs, liquid


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

    @pytest.mark.parametrize(
        "bad",
        [{"beta_alpha": math.nan}, {"beta_beta": math.inf}, {"reach_slope": math.nan},
         {"comp_low": -math.inf}, {"comp_high": math.inf}, {"comp_scale": math.inf},
         {"n_candidates": 10.5}, {"n_candidates": 10.0}, {"seed": 1.5}],
        ids=str,
    )
    def test_non_finite_or_fractional_parameters_rejected(self, bad):
        with pytest.raises(InvalidConfig):
            PopulationConfig(**bad)

    def test_overflowing_offers_are_a_config_error(self):
        with pytest.raises(InvalidConfig):
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
        with pytest.raises(OutOfRange):
            classify_bucket(-0.1)
        with pytest.raises(OutOfRange):
            classify_bucket(100.1)

    def test_total_and_monotone(self):
        grid = np.linspace(0, 100, 2001)
        buckets = [classify_bucket(v) for v in grid]
        assert all(a <= b for a, b in zip(buckets, buckets[1:]))

    def test_pressure_metadata_covers_all_tiers(self):
        assert set(BUCKET_PRESSURE) == set(Bucket)


class TestConeVolume:
    def test_uniform_half(self):
        assert cone_volume(DensityProfile.uniform(), 0.5, 10) == pytest.approx(
            math.pi / 2, abs=1e-9
        )

    def test_linear_cone_full(self):
        vol = cone_volume(DensityProfile.linear_cone(), 0.0, 100_000)
        assert vol == pytest.approx(math.pi / 3, abs=1e-6)

    def test_beta_profile_against_closed_form(self):
        # The normalized density integrates to the survival function, so the
        # quadrature can be checked against an independent closed form.
        profile = DensityProfile.beta(2, 8)
        vol = cone_volume(profile, 0.5, 100_000)
        assert vol == pytest.approx(math.pi * stats.beta(2, 8).sf(0.5), abs=1e-9)

    def test_zero_above_the_top(self):
        for profile in (DensityProfile.uniform(), DensityProfile.beta(2, 8)):
            assert cone_volume(profile, 1.0, 10) == 0.0

    def test_non_increasing_in_cutoff(self):
        profile = DensityProfile.beta(2, 8)
        vols = [cone_volume(profile, h0, 20_000) for h0 in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(vols, vols[1:]))

    def test_superlinear_scarcity(self):
        # Raising the cutoff by x removes more than fraction x of the volume
        # for decreasing profiles: the pool collapses super-linearly.
        for profile in (DensityProfile.linear_cone(), DensityProfile.beta(2, 8)):
            full = cone_volume(profile, 0.0, 100_000)
            for h0 in np.arange(0.1, 0.95, 0.1):
                ratio = cone_volume(profile, float(h0), 100_000) / full
                assert ratio < 1 - h0

    def test_linear_cone_ratio_is_cubic(self):
        profile = DensityProfile.linear_cone()
        full = cone_volume(profile, 0.0, 50_000)
        for h0 in (0.2, 0.5, 0.8):
            ratio = cone_volume(profile, h0, 50_000) / full
            assert ratio == pytest.approx((1 - h0) ** 3, abs=1e-6)

    def test_tabulated_profile(self):
        heights = np.linspace(0, 1, 101)
        profile = DensityProfile.tabulated(heights, 1.0 - heights)
        # g(h) = 1 - h integrates to (1 - h0)^2 / 2.
        assert cone_volume(profile, 0.0, 10_000) == pytest.approx(math.pi / 2, abs=1e-6)
        assert cone_volume(profile, 0.5, 10_000) == pytest.approx(math.pi / 8, abs=1e-6)

    def test_domain_checks(self):
        with pytest.raises(OutOfRange):
            cone_volume(DensityProfile.uniform(), -0.1, 10)
        with pytest.raises(ValueError):
            cone_volume(DensityProfile.uniform(), 0.5, 0)
        with pytest.raises(InvalidConfig):
            DensityProfile.beta(0.0, 8)
        with pytest.raises(InvalidConfig):
            DensityProfile.tabulated(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
