"""Standardization, principal axes, barycenters and trajectories."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sectorspace.errors import AnalysisError
from sectorspace.ingest import StageClass
from sectorspace.pca import (
    apply_standardization,
    barycenter,
    barycenter_trajectory,
    fit_on_profiles,
    fit_pca,
    fit_pca_model,
    project,
    project_sigma,
    sector_positions,
    standardize,
)

from conftest import make_profiles, stack_profiles

ROOT_HALF = 0.7071067811865476


class TestStandardize:
    def test_two_point_column(self):
        out, params = standardize(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out, [[-ROOT_HALF], [ROOT_HALF]], atol=1e-15)
        assert params.means[0] == 2.0
        assert params.stds[0] == pytest.approx(np.sqrt(2.0))
        assert params.constant_columns == frozenset()

    def test_constant_column_flagged_and_zeroed(self):
        matrix = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        out, params = standardize(matrix)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        assert params.constant_columns == frozenset({0})
        assert params.stds[0] == 0.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((40, 7))
        out, _ = standardize(matrix)
        for j in range(7):
            mean = sum(matrix[:, j]) / 40
            var = sum((v - mean) ** 2 for v in matrix[:, j]) / 39
            np.testing.assert_allclose(
                out[:, j], (matrix[:, j] - mean) / np.sqrt(var), atol=1e-12)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(AnalysisError):
            standardize(np.ones((1, 3)))

    def test_apply_standardization_round_trip(self):
        rng = np.random.default_rng(4)
        matrix = rng.random((10, 3))
        out, params = standardize(matrix)
        np.testing.assert_allclose(apply_standardization(matrix, params), out, atol=1e-12)
        with pytest.raises(AnalysisError, match="dimension mismatch"):
            apply_standardization(np.ones(4), params)


class TestFitPCA:
    def test_perfectly_correlated_pair(self):
        rng = np.random.default_rng(5)
        x = rng.random(30)
        matrix = np.column_stack([x, 2.0 * x + 3.0])
        model = fit_pca_model(matrix, 2)
        np.testing.assert_allclose(np.abs(model.axes[0]), ROOT_HALF, atol=1e-10)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-10)

    def test_trace_identity(self):
        rng = np.random.default_rng(6)
        model = fit_pca_model(rng.random((50, 9)), 9)
        assert model.explained_variance.sum() == pytest.approx(
            model.total_variance, abs=1e-8)

    def test_column_means_project_to_origin(self):
        rng = np.random.default_rng(7)
        matrix = rng.random((30, 6))
        model = fit_pca_model(matrix, 3)
        np.testing.assert_allclose(
            project(model, matrix.mean(axis=0)), 0.0, atol=1e-10)

    def test_unit_step_along_axis_gives_unit_coordinate(self):
        rng = np.random.default_rng(8)
        matrix = rng.random((30, 6))
        model = fit_pca_model(matrix, 3)
        probe = model.params.means + model.params.stds * model.axes[0]
        np.testing.assert_allclose(project(model, probe), [1.0, 0.0, 0.0], atol=1e-10)

    def test_projection_matches_dot_product_oracle(self):
        rng = np.random.default_rng(9)
        matrix = rng.random((25, 5))
        model = fit_pca_model(matrix, 4)
        standardized = apply_standardization(matrix, model.params)
        coords = project(model, matrix)
        for i in range(25):
            for a in range(4):
                assert coords[i, a] == pytest.approx(
                    float(np.dot(standardized[i], model.axes[a])), abs=1e-10)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(10)
        matrix = rng.random((40, 6))
        model = fit_pca_model(matrix, 6)
        standardized = apply_standardization(matrix, model.params)
        recovered = project(model, matrix) @ model.axes
        np.testing.assert_allclose(recovered, standardized, atol=1e-8)

    def test_component_bounds(self):
        rng = np.random.default_rng(11)
        standardized, params = standardize(rng.random((10, 4)))
        for bad in (0, 5):
            with pytest.raises(AnalysisError):
                fit_pca(standardized, bad, params)

    def test_fit_keeps_the_params_it_is_given(self):
        rng = np.random.default_rng(12)
        matrix = rng.random((10, 4))
        standardized, params = standardize(matrix)
        model = fit_pca(standardized, 2, params)
        assert model.params is params
        np.testing.assert_allclose(project(model, matrix), standardized @ model.axes.T,
                                   atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(arrays(np.float64, st.tuples(st.integers(5, 20), st.integers(2, 8)),
              elements=st.floats(-50, 50)))
def test_axes_always_orthonormal(matrix):
    if np.ptp(matrix, axis=0).max() == 0:
        return  # all-constant matrix has no axes to test
    model = fit_pca_model(matrix, min(matrix.shape[1], 3))
    gram = model.axes @ model.axes.T
    np.testing.assert_allclose(gram, np.eye(model.n_components), atol=1e-8)
    assert np.all(np.diff(model.explained_variance) <= 1e-12)
    assert np.all(model.explained_variance >= 0)


class TestSectorPositions:
    def test_one_position_per_sector(self):
        rng = np.random.default_rng(13)
        model = fit_pca_model(rng.random((20, 4)), 2)
        positions = sector_positions(model, ["a", "b", "c", "d"])
        assert [tag for tag, _, _ in positions] == ["a", "b", "c", "d"]
        for j, (_, x, y) in enumerate(positions):
            assert x == model.axes[0, j] and y == model.axes[1, j]

    def test_constant_sector_loads_zero(self):
        rng = np.random.default_rng(14)
        matrix = rng.random((30, 4))
        matrix[:, 2] = 0.25
        model = fit_pca_model(matrix, 2)
        _, x, y = sector_positions(model, ["a", "b", "c", "d"])[2]
        assert abs(x) < 1e-8 and abs(y) < 1e-8

    def test_deterministic_signs(self):
        rng = np.random.default_rng(15)
        matrix = rng.random((20, 5))
        a = fit_pca_model(matrix, 2)
        b = fit_pca_model(matrix.copy(), 2)
        np.testing.assert_array_equal(a.axes, b.axes)
        for row in a.axes:
            assert row[np.argmax(np.abs(row))] > 0

    def test_dimension_checks(self):
        rng = np.random.default_rng(16)
        model = fit_pca_model(rng.random((20, 4)), 2)
        with pytest.raises(AnalysisError):
            sector_positions(model, ["a", "b"])
        one_d = fit_pca_model(rng.random((20, 4)), 1)
        with pytest.raises(AnalysisError):
            sector_positions(one_d, ["a", "b", "c", "d"])


class TestBarycenter:
    def test_two_unit_vectors_average(self):
        profiles = make_profiles(np.eye(2))
        point = barycenter(profiles)
        np.testing.assert_allclose(point.coords, [0.5, 0.5], atol=1e-15)
        assert point.weight == 2.0

    def test_round_weighting(self):
        profiles = make_profiles(np.eye(2), weights=[3.0, 1.0])
        point = barycenter(profiles)
        np.testing.assert_allclose(point.coords, [0.75, 0.25], atol=1e-15)
        assert point.weight == 4.0

    def test_matches_per_round_accumulation_oracle(self):
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 6, size=(12, 5)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        shares = counts / counts.sum(axis=1, keepdims=True)
        point = barycenter(make_profiles(shares, weights=counts.sum(axis=1)))
        oracle = counts.sum(axis=0) / counts.sum()
        np.testing.assert_allclose(point.coords, oracle, atol=1e-12)

    def test_sigma_formula(self):
        shares = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        weights = np.array([2.0, 1.0, 1.0])
        point = barycenter(make_profiles(shares, weights=weights))
        total = weights.sum()
        coords = weights @ shares / total
        expected = np.sqrt(
            weights @ (shares - coords) ** 2 / (total * (total - 1.0)))
        np.testing.assert_allclose(point.sigma, expected, atol=1e-15)

    def test_convexity(self):
        rng = np.random.default_rng(18)
        raw = rng.random((9, 4))
        shares = raw / raw.sum(axis=1, keepdims=True)
        point = barycenter(make_profiles(shares, weights=rng.integers(1, 9, 9)))
        assert np.all(point.coords >= shares.min(axis=0) - 1e-12)
        assert np.all(point.coords <= shares.max(axis=0) + 1e-12)
        assert point.coords.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(19)
        raw = rng.random((8, 3))
        shares = raw / raw.sum(axis=1, keepdims=True)
        profiles = make_profiles(shares, weights=rng.integers(1, 7, 8))
        forward = barycenter(profiles)
        backward = barycenter(profiles.take(slice(None, None, -1)))
        np.testing.assert_allclose(forward.coords, backward.coords, atol=1e-12)
        np.testing.assert_allclose(forward.sigma, backward.sigma, atol=1e-12)

    def test_scale_robustness(self):
        rng = np.random.default_rng(20)
        raw = rng.random((6, 3))
        shares = raw / raw.sum(axis=1, keepdims=True)
        weights = rng.integers(1, 5, 6).astype(float)
        base = barycenter(make_profiles(shares, weights=weights))
        scaled = barycenter(make_profiles(shares, weights=weights * 7.0))
        np.testing.assert_allclose(scaled.coords, base.coords, atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(AnalysisError):
            barycenter(make_profiles(np.eye(2)).take(slice(0, 0)))
        mixed = stack_profiles([make_profiles(np.eye(2), year=2010),
                                     make_profiles(np.eye(2), year=2011)])
        with pytest.raises(AnalysisError, match="multiple years"):
            barycenter(mixed)


class TestTrajectory:
    @staticmethod
    def drifting_profiles(years=range(2005, 2012), n=20, noise=0.02, seed=21):
        rng = np.random.default_rng(seed)
        tables = []
        for t, year in enumerate(years):
            alpha = t / (len(years) - 1)
            base = np.array([1.0 - alpha, alpha, 0.35])
            raw = np.clip(base + noise * rng.standard_normal((n, 3)), 1e-3, None)
            shares = raw / raw.sum(axis=1, keepdims=True)
            tables.append(make_profiles(
                shares, year=year,
                investor_ids=[f"inv{i:03d}" for i in range(n)]))
        return stack_profiles(tables)

    def test_single_year_composes_project_and_barycenter(self):
        profiles = self.drifting_profiles(years=[2010, 2011])
        model = fit_on_profiles(profiles, 2)
        one_year = profiles.take(profiles.years == 2010)
        points = barycenter_trajectory(one_year, model)
        assert len(points) == 1
        center = barycenter(one_year)
        np.testing.assert_allclose(points[0].coords, project(model, center.coords),
                                   atol=1e-12)
        np.testing.assert_allclose(points[0].sigma, project_sigma(model, center.sigma),
                                   atol=1e-12)

    def test_stage_selection(self):
        # a stage view is its own table, and its trajectory reads its rows alone
        base = make_profiles(np.eye(2), year=2010)
        seed = make_profiles(np.array([[1.0, 0.0]]), year=2010, stage=StageClass.SEED)
        model = fit_on_profiles(
            stack_profiles([base, make_profiles(np.eye(2), year=2011)]), 2)
        all_points = barycenter_trajectory(base, model)
        seed_points = barycenter_trajectory(seed, model)
        assert len(all_points) == len(seed_points) == 1
        np.testing.assert_allclose(seed_points[0].coords, project(model, np.array([1.0, 0.0])),
                                   atol=1e-12)
        assert not np.allclose(seed_points[0].coords, all_points[0].coords)
        with pytest.raises(AnalysisError, match="no profiles"):
            barycenter_trajectory(seed.take(slice(0, 0)), model)

    def test_monotone_drift(self):
        profiles = self.drifting_profiles()
        model = fit_on_profiles(profiles, 2)
        points = barycenter_trajectory(profiles, model)
        assert [p.year for p in points] == list(range(2005, 2012))
        xs = np.array([p.coords[0] for p in points])
        steps = np.diff(xs)
        assert np.all(steps > 0) or np.all(steps < 0)


class TestProjectSigma:
    def test_zero_in_zero_out(self):
        rng = np.random.default_rng(22)
        model = fit_pca_model(rng.random((15, 4)), 2)
        np.testing.assert_array_equal(project_sigma(model, np.zeros(4)), 0.0)

    def test_matches_manual_formula(self):
        rng = np.random.default_rng(23)
        model = fit_pca_model(rng.random((15, 4)), 2)
        sigma = rng.random(4)
        expected = np.sqrt(
            ((model.axes / model.params.stds) ** 2) @ sigma**2)
        np.testing.assert_allclose(project_sigma(model, sigma), expected, atol=1e-12)

    def test_constant_columns_contribute_nothing(self):
        rng = np.random.default_rng(24)
        matrix = rng.random((15, 4))
        matrix[:, 1] = 3.0
        model = fit_pca_model(matrix, 2)
        with_noise = project_sigma(model, np.array([0.1, 99.0, 0.1, 0.1]))
        without = project_sigma(model, np.array([0.1, 0.0, 0.1, 0.1]))
        np.testing.assert_allclose(with_noise, without, atol=1e-15)
