"""Tests for repro.defects.distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defects.distribution import (
    DefectDensity,
    LognormalComponent,
    ResistanceDistribution,
    default_bridge_distribution,
    default_open_distribution,
)


@pytest.fixture(scope="module")
def bridge_dist():
    return default_bridge_distribution()


@pytest.fixture(scope="module")
def open_dist():
    return default_open_distribution()


class TestComponentValidation:
    def test_negative_weight(self):
        with pytest.raises(ValueError):
            LognormalComponent(-0.1, 100.0, 1.0)

    def test_zero_median(self):
        with pytest.raises(ValueError):
            LognormalComponent(0.5, 0.0, 1.0)

    def test_empty_mixture(self):
        with pytest.raises(ValueError):
            ResistanceDistribution([])

    @pytest.mark.parametrize("field", ["weight", "median", "sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_named(self, field, bad):
        """A NaN median used to surface far away, as a DPM coverage
        error; an infinite sigma was accepted outright."""
        params = {"weight": 0.5, "median": 100.0, "sigma": 1.0}
        params[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LognormalComponent(**params)

    def test_weights_normalised(self):
        d = ResistanceDistribution([
            LognormalComponent(2.0, 100.0, 1.0),
            LognormalComponent(2.0, 1000.0, 1.0),
        ])
        assert sum(c.weight for c in d.components) == pytest.approx(1.0)


class TestCdf:
    def test_limits(self, bridge_dist):
        assert bridge_dist.cdf(0.0) == 0.0
        assert bridge_dist.cdf(1e12) == pytest.approx(1.0, abs=1e-6)

    @given(st.floats(min_value=0.1, max_value=1e8),
           st.floats(min_value=1.01, max_value=100.0))
    @settings(max_examples=60)
    def test_monotone(self, r, factor):
        d = default_bridge_distribution()
        assert d.cdf(r * factor) >= d.cdf(r)

    def test_band_probability(self, bridge_dist):
        p = bridge_dist.band_probability(10.0, 1e3)
        assert 0.0 < p < 1.0
        assert p == pytest.approx(bridge_dist.cdf(1e3) - bridge_dist.cdf(10.0))

    def test_band_validation(self, bridge_dist):
        with pytest.raises(ValueError):
            bridge_dist.band_probability(100.0, 10.0)

    def test_pdf_integrates_to_cdf(self, bridge_dist):
        """Numeric integral of pdf over a band matches the cdf diff."""
        grid = np.logspace(1, 3, 2000)
        total = np.trapezoid([bridge_dist.pdf(r) for r in grid], grid)
        assert total == pytest.approx(bridge_dist.band_probability(10, 1e3),
                                      rel=0.01)


class TestShapes:
    def test_bridges_mostly_low_ohmic(self, bridge_dist):
        """The fab-shape assumption behind Table 1's defect coverage."""
        assert bridge_dist.cdf(500.0) > 0.6
        assert bridge_dist.band_probability(30e3, 1e12) < 0.1

    def test_opens_reach_megohms(self, open_dist):
        """Figure 8's relevant range must carry real probability."""
        assert open_dist.band_probability(1.5e6, 1e12) > 0.02

    def test_sampling_matches_cdf(self, bridge_dist):
        rng = np.random.default_rng(1)
        samples = bridge_dist.sample(rng, 20000)
        empirical = float(np.mean(samples <= 1e3))
        assert empirical == pytest.approx(bridge_dist.cdf(1e3), abs=0.02)

    def test_sampling_deterministic_with_seed(self, open_dist):
        a = open_dist.sample(np.random.default_rng(7), 10)
        b = open_dist.sample(np.random.default_rng(7), 10)
        assert np.allclose(a, b)


class TestQuantileGrid:
    def test_grid_covers_bulk(self, bridge_dist):
        grid = bridge_dist.quantile_grid(32)
        assert len(grid) == 32
        assert bridge_dist.cdf(grid[0]) < 0.01
        assert bridge_dist.cdf(grid[-1]) > 0.99

    def test_grid_sorted(self, open_dist):
        grid = open_dist.quantile_grid(16)
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_grid_rejected(self, bridge_dist, n):
        """``n=0`` used to reach the integrator as a bare IndexError."""
        with pytest.raises(ValueError, match="n >= 1"):
            bridge_dist.quantile_grid(n)

    def test_single_point_grid(self, bridge_dist):
        assert len(bridge_dist.quantile_grid(1)) == 1


class TestDefectDensity:
    def test_yield_formula(self):
        d = DefectDensity(d0_per_cm2=1.0)
        area_um2 = 1e8  # 1 cm^2
        assert d.yield_fraction(area_um2) == pytest.approx(math.exp(-1.0))

    def test_defects_per_chip_linear_in_area(self):
        d = DefectDensity(d0_per_cm2=2.0)
        assert d.defects_per_chip(2e6) == pytest.approx(
            2.0 * d.defects_per_chip(1e6))

    def test_validation(self):
        with pytest.raises(ValueError):
            DefectDensity(d0_per_cm2=0.0)
        with pytest.raises(ValueError):
            DefectDensity(bridge_fraction=1.5)
        with pytest.raises(ValueError):
            DefectDensity().defects_per_chip(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_density_named(self, bad):
        """NaN used to surface as a yield error, inf as a 0.0 yield."""
        with pytest.raises(ValueError, match="d0_per_cm2 must be finite"):
            DefectDensity(d0_per_cm2=bad)
