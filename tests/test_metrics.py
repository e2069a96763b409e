"""Distances, error propagation, heatmaps and spread."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sectorspace.errors import AnalysisError
from sectorspace.metrics import (
    average_distance_to_barycenter,
    distance_series,
    distance_with_error,
    euclidean_distance,
    heatmap_grid,
    heatmap_slice,
    spread_series,
)
from sectorspace.pca import BarycenterPoint, barycenter, fit_on_profiles, project
from sectorspace.profiles import group_profiles, share_matrix

from conftest import make_investor, make_profiles, stack_profiles

ROOT_HALF = 0.7071067811865476


def point(coords, sigma=None, year=2010, weight=1.0):
    coords = np.asarray(coords, dtype=float)
    sigma = np.zeros_like(coords) if sigma is None else np.asarray(sigma, float)
    return BarycenterPoint(year=year, coords=coords, weight=weight, sigma=sigma)


class TestEuclideanDistance:
    def test_identity(self):
        x = np.array([0.2, 0.5, 0.3])
        assert euclidean_distance(x, x) == 0.0

    def test_unit_vectors(self):
        assert euclidean_distance(np.eye(3)[0], np.eye(3)[1]) == pytest.approx(
            np.sqrt(2.0), abs=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        x, y = rng.random(27), rng.random(27)
        oracle = np.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
        assert euclidean_distance(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(AnalysisError):
            euclidean_distance(np.zeros(3), np.zeros(4))


@settings(deadline=None, max_examples=200)
@given(arrays(np.float64, (3, 6), elements=st.floats(-1e3, 1e3)))
def test_metric_axioms(triple):
    x, y, z = triple
    dxy = euclidean_distance(x, y)
    assert dxy >= 0
    assert dxy == pytest.approx(euclidean_distance(y, x), abs=1e-9)
    assert euclidean_distance(x, x) == 0.0
    assert dxy <= euclidean_distance(x, z) + euclidean_distance(z, y) + 1e-9


class TestDistanceWithError:
    def test_zero_sigmas(self):
        d, sigma = distance_with_error(point([1, 0]), point([0, 1]))
        assert d == pytest.approx(np.sqrt(2.0))
        assert sigma == 0.0

    def test_one_dimensional_case(self):
        d, sigma = distance_with_error(point([3.0], sigma=[0.1]),
                                       point([0.0], sigma=[0.2]))
        assert d == 3.0
        assert sigma == pytest.approx(np.sqrt(0.01 + 0.04), abs=1e-12)
        assert sigma == pytest.approx(0.22360679774997896, abs=1e-12)

    def test_degenerate_zero_distance_bound(self, caplog):
        with caplog.at_level("WARNING"):
            d, sigma = distance_with_error(point([1, 2], sigma=[0.1, 0.2]),
                                           point([1, 2], sigma=[0.2, 0.1]))
        assert d == 0.0
        assert sigma == pytest.approx(np.sqrt(0.01 + 0.04 + 0.04 + 0.01), abs=1e-12)
        assert "degenerate" in caplog.text

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(32)
        a = point(rng.random(5) + 1.0, sigma=0.05 * rng.random(5))
        b = point(-rng.random(5) - 1.0, sigma=0.05 * rng.random(5))
        _, sigma = distance_with_error(a, b)

        draws = 100_000
        xs = a.coords + a.sigma * rng.standard_normal((draws, 5))
        ys = b.coords + b.sigma * rng.standard_normal((draws, 5))
        sample = np.linalg.norm(xs - ys, axis=1)
        mc_sigma = sample.std(ddof=1)
        mc_se = mc_sigma / np.sqrt(2.0 * (draws - 1))
        assert abs(sigma - mc_sigma) < 3.0 * mc_se

    def test_translation_invariance(self):
        rng = np.random.default_rng(33)
        a = point(rng.random(4), sigma=rng.random(4) * 0.1)
        b = point(rng.random(4), sigma=rng.random(4) * 0.1)
        shift = rng.random(4) * 10
        shifted = distance_with_error(point(a.coords + shift, sigma=a.sigma),
                                      point(b.coords + shift, sigma=b.sigma))
        assert shifted == pytest.approx(distance_with_error(a, b), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(AnalysisError):
            distance_with_error(point([1, 2]), point([1, 2, 3]))


class TestDistanceSeries:
    @staticmethod
    def two_group_profiles():
        investors = {
            "acc0": make_investor("acc0", "accelerator"),
            "vc0": make_investor("vc0", "vc"),
            "vc1": make_investor("vc1", "vc"),
        }
        tables = []
        for year in (2010, 2011, 2012):
            tables.append(make_profiles(
                np.array([[1.0, 0.0], [0.8, 0.2]]), year=year,
                investor_ids=["vc0", "vc1"]))
            if year != 2011:  # gap year for the accelerator
                tables.append(make_profiles(
                    np.array([[0.0, 1.0]]), year=year, investor_ids=["acc0"]))
        return stack_profiles(tables), investors

    @staticmethod
    def vc_vs_accelerator(profiles, investors):
        return distance_series(group_profiles(profiles, "vc", investors),
                               group_profiles(profiles, "accelerator", investors),
                               "type:vc", "type:accelerator")

    def test_same_group_all_zero(self):
        profiles, investors = self.two_group_profiles()
        vc = group_profiles(profiles, "vc", investors)
        series = distance_series(vc, vc, "type:vc", "type:vc")
        assert series.years == (2010, 2011, 2012)
        np.testing.assert_array_equal(series.distances, 0.0)

    def test_empty_years_omitted(self):
        series = self.vc_vs_accelerator(*self.two_group_profiles())
        assert (series.label_a, series.label_b) == ("type:vc", "type:accelerator")
        assert series.years == (2010, 2012)
        assert all(d > 0 for d in series.distances)

    def test_no_common_year_is_error(self):
        vc = make_profiles(np.eye(2), year=2012, investor_ids=["vc0", "vc1"])
        accelerator = make_profiles(np.array([[0.0, 1.0]]), year=2010, investor_ids=["acc0"])
        with pytest.raises(AnalysisError, match="vc and acc share no active year"):
            distance_series(vc, accelerator, "vc", "acc")

    def test_minimum_year(self):
        profiles, investors = self.two_group_profiles()
        # move the 2012 vc block onto the accelerator so 2012 is the minimum
        moved = (profiles.years == 2012) & np.char.startswith(profiles.investor_ids, "vc")
        profiles = stack_profiles([
            profiles.take(~moved),
            make_profiles(np.array([[0.1, 0.9], [0.0, 1.0]]), year=2012,
                          investor_ids=["vc0", "vc1"]),
        ])
        series = self.vc_vs_accelerator(profiles, investors)
        assert series.minimum_year() == 2012


class TestHeatmap:
    @staticmethod
    def spread_profiles(n=40, years=(2010, 2011), seed=34):
        rng = np.random.default_rng(seed)
        tables = []
        for year in years:
            raw = rng.random((n, 4)) + 0.05
            shares = raw / raw.sum(axis=1, keepdims=True)
            tables.append(make_profiles(shares, year=year,
                                        investor_ids=[f"i{k:03d}" for k in range(n)]))
        return stack_profiles(tables)

    def test_single_investor_single_cell(self):
        profiles = self.spread_profiles()
        model = fit_on_profiles(profiles, 2)
        grid = heatmap_grid(profiles, model, n_x=8, n_y=8)
        one = heatmap_slice(profiles.take(slice(1)), model, grid.x_edges, grid.y_edges)
        assert one.sum() == 1
        assert (one > 0).sum() == 1

    def test_counts_conserved_per_year(self):
        profiles = self.spread_profiles()
        model = fit_on_profiles(profiles, 2)
        for n_x, n_y in ((5, 7), (30, 30)):
            grid = heatmap_grid(profiles, model, n_x=n_x, n_y=n_y)
            for year, counts in grid.counts.items():
                assert counts.sum() == sum(1 for y in profiles.years if y == year)

    def test_out_of_range_points_clamp(self):
        profiles = self.spread_profiles()
        model = fit_on_profiles(profiles, 2)
        grid = heatmap_grid(profiles, model, n_x=6, n_y=6)
        points = project(model, share_matrix(profiles))
        outside = ((points[:, 0] < grid.x_edges[0]) | (points[:, 0] > grid.x_edges[-1])
                   | (points[:, 1] < grid.y_edges[0]) | (points[:, 1] > grid.y_edges[-1]))
        assert outside.any()  # the edges sit on the 1st and 99th percentiles
        total = sum(c.sum() for c in grid.counts.values())
        assert total == len(profiles)

    def test_degenerate_edges_error(self):
        model = fit_on_profiles(self.spread_profiles(), 2)
        profiles = stack_profiles([
            make_profiles(np.tile([0.5, 0.5, 0.5, 0.5], (4, 1)), year=2010),
            make_profiles(np.tile([0.5, 0.5, 0.5, 0.5], (4, 1)), year=2011),
        ])
        with pytest.raises(AnalysisError, match="degenerate"):
            heatmap_grid(profiles, model, n_x=5, n_y=5)

    def test_min_bins(self):
        profiles = self.spread_profiles()
        model = fit_on_profiles(profiles, 2)
        grid = heatmap_grid(profiles, model, n_x=4, n_y=4)
        with pytest.raises(AnalysisError, match="2 bins"):
            heatmap_slice(profiles, model, grid.x_edges[:2], grid.y_edges)

    def test_max_cell_share(self):
        profiles = self.spread_profiles()
        model = fit_on_profiles(profiles, 2)
        grid = heatmap_grid(profiles, model, n_x=6, n_y=6)
        share = grid.max_cell_share(2010)
        assert 0 < share <= 1


class TestSpread:
    def test_identical_investors_zero_spread(self):
        profiles = make_profiles(np.tile([0.25, 0.75], (5, 1)))
        mean, sigma = average_distance_to_barycenter(profiles)
        assert mean == 0.0
        assert sigma == 0.0

    def test_two_unit_vectors(self):
        mean, sigma = average_distance_to_barycenter(make_profiles(np.eye(2)))
        assert mean == pytest.approx(ROOT_HALF, abs=1e-12)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_investors(self):
        with pytest.raises(AnalysisError):
            average_distance_to_barycenter(make_profiles(np.array([[1.0, 0.0]])))

    def test_equal_weights_match_naive_mean(self):
        rng = np.random.default_rng(35)
        raw = rng.random((9, 4))
        shares = raw / raw.sum(axis=1, keepdims=True)
        profiles = make_profiles(shares)
        mean, _ = average_distance_to_barycenter(profiles)
        center = barycenter(profiles).coords
        naive = np.mean([np.linalg.norm(s - center) for s in shares])
        assert mean == pytest.approx(naive, abs=1e-12)

    def test_weights_do_not_rescale_individual_terms(self):
        # heavier investors move the barycenter but still count once each
        shares = np.array([[1.0, 0.0], [0.0, 1.0]])
        profiles = make_profiles(shares, weights=[9.0, 1.0])
        center = barycenter(profiles).coords
        np.testing.assert_allclose(center, [0.9, 0.1], atol=1e-12)
        mean, _ = average_distance_to_barycenter(profiles)
        expected = np.mean([
            np.linalg.norm(shares[0] - center), np.linalg.norm(shares[1] - center)])
        assert mean == pytest.approx(expected, abs=1e-12)

    def test_series_skips_thin_years(self):
        profiles = stack_profiles([
            make_profiles(np.eye(2), year=2010),
            make_profiles(np.array([[0.5, 0.5]]), year=2011),
            make_profiles(np.eye(2), year=2012),
        ])
        series = spread_series(profiles)
        assert [year for year, _, _ in series] == [2010, 2012]
        for _, mean, _ in series:
            assert mean == pytest.approx(ROOT_HALF, abs=1e-12)
