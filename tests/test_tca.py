"""Tensor assembly, CP-ALS fitting, similarity and rank selection."""
from __future__ import annotations

import numpy as np
import pytest

from sectorspace.errors import AnalysisError
from sectorspace.synth import generate_cp_tensor
from sectorspace.tca import (
    CPModel,
    _restart_seed,
    build_tensor,
    canonicalize,
    cp_als,
    emerging_component,
    factor_match_score,
    khatri_rao,
    model_similarity,
    rank_scan,
    reconstruction_error,
    select_rank,
    top_investors,
)

from conftest import make_investor, make_profiles

ROOT_HALF = 0.7071067811865476


def random_unit_columns(rng, rows, rank):
    m = rng.standard_normal((rows, rank))
    return m / np.linalg.norm(m, axis=0)


def random_model(seed, n=50, s=10, k=8, rank=2):
    rng = np.random.default_rng(seed)
    return CPModel(
        rank=rank,
        investor_factors=random_unit_columns(rng, n, rank),
        sector_factors=random_unit_columns(rng, s, rank),
        temporal_factors=random_unit_columns(rng, k, rank),
        component_weights=np.sort(rng.random(rank) + 0.5)[::-1],
        seed=seed,
    )


class TestBuildTensor:
    def test_2x2x2_index_bookkeeping(self):
        profiles = (
            make_profiles(np.array([[2.0, 0.0], [0.0, 1.0]]), year=2010,
                          sectors=("A", "B"), investor_ids=["i1", "i2"])
            + make_profiles(np.array([[0.0, 3.0], [1.0, 0.0]]), year=2011,
                            sectors=("A", "B"), investor_ids=["i1", "i2"])
        )
        tensor = build_tensor(profiles, range(2010, 2012), ("A", "B"))
        assert tensor.shape == (2, 2, 2)
        assert tensor.investor_ids == ("i1", "i2")
        assert tensor.years == (2010, 2011)
        # standardizing 2 rows maps the larger count to +1/sqrt(2)
        expected_2010 = np.array([[ROOT_HALF, -ROOT_HALF], [-ROOT_HALF, ROOT_HALF]])
        np.testing.assert_allclose(tensor.values[:, :, 0], expected_2010, atol=1e-12)
        np.testing.assert_allclose(tensor.values[:, :, 1], -expected_2010, atol=1e-12)

    def test_constant_fiber_zeroed_and_flagged(self):
        profiles = (
            make_profiles(np.array([[1.0, 1.0], [1.0, 2.0]]), year=2010,
                          sectors=("A", "B"), investor_ids=["i1", "i2"])
            + make_profiles(np.array([[1.0, 0.0], [0.0, 1.0]]), year=2011,
                            sectors=("A", "B"), investor_ids=["i1", "i2"])
        )
        tensor = build_tensor(profiles, range(2010, 2012), ("A", "B"))
        np.testing.assert_array_equal(tensor.values[:, 0, 0], 0.0)
        assert 0 in tensor.standardization[0].constant_columns

    def test_slice_standardization_against_two_pass_oracle(self):
        rng = np.random.default_rng(40)
        profiles = []
        for year in (2008, 2009, 2010):
            counts = rng.integers(0, 5, size=(15, 4)).astype(float)
            counts[counts.sum(axis=1) == 0, 0] = 1
            shares = counts / counts.sum(axis=1, keepdims=True)
            profiles.extend(make_profiles(shares, year=year,
                                          weights=counts.sum(axis=1),
                                          investor_ids=[f"i{j:02d}" for j in range(15)]))
        tensor = build_tensor(profiles, range(2008, 2011), tuple(f"S{j:02d}" for j in range(4)))
        for k in range(3):
            slab = tensor.values[:, :, k]
            np.testing.assert_allclose(slab.mean(axis=0), 0.0, atol=1e-9)
            stds = slab.std(axis=0, ddof=1)
            for j, std in enumerate(stds):
                if j not in tensor.standardization[k].constant_columns:
                    assert std == pytest.approx(1.0, abs=1e-9)

    def test_inactive_investor_year_contributes_zero_row(self):
        profiles = (
            make_profiles(np.array([[1.0, 0.0]]), year=2010,
                          sectors=("A", "B"), investor_ids=["lone"])
            + make_profiles(np.array([[1.0, 0.0], [0.0, 1.0]]), year=2011,
                            sectors=("A", "B"), investor_ids=["i1", "i2"])
        )
        tensor = build_tensor(profiles, range(2010, 2012), ("A", "B"))
        assert tensor.shape == (3, 2, 2)
        assert set(tensor.investor_ids) == {"lone", "i1", "i2"}

    def test_needs_two_years_and_two_investors(self):
        profiles = make_profiles(np.eye(2), year=2010, sectors=("A", "B"))
        with pytest.raises(AnalysisError, match="2 years"):
            build_tensor(profiles, range(2010, 2011), ("A", "B"))
        lone = make_profiles(np.array([[1.0, 0.0]]), year=2010, sectors=("A", "B"))
        with pytest.raises(AnalysisError, match="2 investors"):
            build_tensor(lone, range(2010, 2012), ("A", "B"))


def test_khatri_rao_columns():
    rng = np.random.default_rng(41)
    x, y = rng.random((4, 3)), rng.random((5, 3))
    kr = khatri_rao(x, y)
    assert kr.shape == (20, 3)
    for r in range(3):
        np.testing.assert_allclose(kr[:, r], np.kron(x[:, r], y[:, r]), atol=1e-15)


class TestCPALS:
    def test_exact_rank_one_recovery(self):
        tensor, truth = generate_cp_tensor(12, 6, 5, 1, noise=0.0, seed=42)
        model = cp_als(tensor, 1, seed=3)
        assert reconstruction_error(model, tensor) < 1e-6
        for got, planted in zip(model.factors, truth.cp_model().factors):
            cosine = abs(float(got[:, 0] @ planted[:, 0]))
            assert cosine > 1 - 1e-6

    def test_exact_rank_three_best_of_five(self):
        tensor, _ = generate_cp_tensor(20, 8, 6, 3, noise=0.0, seed=43)
        errors = [
            reconstruction_error(cp_als(tensor, 3, seed=_restart_seed(0, 3, j),
                                        tol=1e-9, max_iter=2000), tensor)
            for j in range(5)
        ]
        assert min(errors) < 1e-4

    def test_same_seed_bit_identical(self):
        tensor, _ = generate_cp_tensor(15, 6, 4, 2, noise=0.05, seed=44)
        a = cp_als(tensor, 2, seed=7)
        b = cp_als(tensor, 2, seed=7)
        for fa, fb in zip(a.factors, b.factors):
            assert fa.tobytes() == fb.tobytes()
        assert a.component_weights.tobytes() == b.component_weights.tobytes()
        assert a.error_history.tobytes() == b.error_history.tobytes()

    def test_canonical_form(self):
        tensor, _ = generate_cp_tensor(15, 6, 4, 3, noise=0.05, seed=45)
        model = cp_als(tensor, 3, seed=1)
        assert np.all(np.diff(model.component_weights) <= 0)
        for factor in model.factors:
            np.testing.assert_allclose(np.linalg.norm(factor, axis=0), 1.0, atol=1e-12)
        for factor in (model.investor_factors, model.sector_factors):
            for r in range(3):
                col = factor[:, r]
                assert col[np.argmax(np.abs(col))] > 0

    def test_als_objective_monotone(self):
        tensor, _ = generate_cp_tensor(20, 6, 5, 2, noise=0.1, seed=46)
        model = cp_als(tensor, 2, seed=2)
        assert np.all(np.diff(model.error_history) <= 1e-9)

    def test_parameter_validation(self):
        tensor, _ = generate_cp_tensor(8, 4, 3, 1, seed=47)
        with pytest.raises(AnalysisError, match="rank"):
            cp_als(tensor, 0, seed=0)
        with pytest.raises(AnalysisError, match="rank"):
            cp_als(tensor, 9, seed=0)
        with pytest.raises(AnalysisError, match="tol"):
            cp_als(tensor, 1, seed=0, tol=0.0)
        with pytest.raises(AnalysisError, match="all-zero"):
            cp_als(np.zeros((4, 3, 2)), 1, seed=0)

    def test_cp_scaling_indeterminacy(self):
        tensor, _ = generate_cp_tensor(10, 5, 4, 2, noise=0.0, seed=48)
        model = cp_als(tensor, 2, seed=5)
        w = model.component_weights
        a = model.investor_factors * (w ** (1 / 3))
        b = model.sector_factors * (w ** (1 / 3))
        c = model.temporal_factors * (w ** (1 / 3))
        alpha, beta = 3.7, 0.4
        rescaled = canonicalize(a * alpha, b * beta, c / (alpha * beta))
        original = canonicalize(a.copy(), b.copy(), c.copy())
        for got, base in zip(rescaled, original):
            np.testing.assert_allclose(got, base, atol=1e-12)


class TestReconstructionError:
    def test_exact_model_scores_zero(self):
        tensor, truth = generate_cp_tensor(10, 5, 4, 2, noise=0.0, seed=49)
        assert reconstruction_error(truth.cp_model(), tensor) < 1e-12

    def test_zero_model_scores_one(self):
        tensor, truth = generate_cp_tensor(10, 5, 4, 2, noise=0.0, seed=50)
        silent = CPModel(
            rank=2,
            investor_factors=truth.cp_model().investor_factors,
            sector_factors=truth.cp_model().sector_factors,
            temporal_factors=truth.cp_model().temporal_factors,
            component_weights=np.zeros(2),
            seed=0,
        )
        assert reconstruction_error(silent, tensor) == pytest.approx(1.0, abs=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(51)
        tensor = rng.standard_normal((4, 3, 2))
        model = random_model(52, n=4, s=3, k=2, rank=2)
        a, b, c = model.factors
        w = model.component_weights
        residual = 0.0
        total = 0.0
        for i in range(4):
            for j in range(3):
                for k in range(2):
                    approx = sum(w[r] * a[i, r] * b[j, r] * c[k, r] for r in range(2))
                    residual += (tensor[i, j, k] - approx) ** 2
                    total += tensor[i, j, k] ** 2
        oracle = np.sqrt(residual / total)
        assert reconstruction_error(model, tensor) == pytest.approx(oracle, abs=1e-10)

    def test_shape_and_zero_norm_checks(self):
        model = random_model(53, n=4, s=3, k=2)
        with pytest.raises(AnalysisError, match="shapes"):
            reconstruction_error(model, np.zeros((5, 3, 2)))
        with pytest.raises(AnalysisError, match="zero-norm"):
            reconstruction_error(model, np.zeros((4, 3, 2)))


class TestSimilarity:
    def test_self_similarity(self):
        model = random_model(54)
        assert model_similarity([model, model]) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_to_permutation_and_paired_sign_flips(self):
        model = random_model(55, rank=3)
        perm = [2, 0, 1]
        flips = np.array([1.0, -1.0, -1.0])
        twin = CPModel(
            rank=3,
            investor_factors=model.investor_factors[:, perm] * flips,
            sector_factors=model.sector_factors[:, perm] * flips,
            temporal_factors=model.temporal_factors[:, perm],
            component_weights=model.component_weights[perm],
            seed=1,
        )
        assert factor_match_score(model, twin) == pytest.approx(1.0, abs=1e-12)

    def test_independent_random_models_score_low(self):
        scores = [
            factor_match_score(random_model(2 * i), random_model(2 * i + 1))
            for i in range(40)
        ]
        assert np.mean(scores) < 0.5

    def test_bounds_and_rank_check(self):
        scores = [
            factor_match_score(random_model(100 + i), random_model(200 + i))
            for i in range(10)
        ]
        assert all(0.0 <= s <= 1.0 for s in scores)
        with pytest.raises(AnalysisError, match="equal rank"):
            factor_match_score(random_model(1, rank=2), random_model(2, rank=3))
        with pytest.raises(AnalysisError, match="at least 2"):
            model_similarity([random_model(3)])


class TestSelectRank:
    def test_largest_drop_wins(self):
        ranks = (1, 2, 3, 4)
        errors = {1: 0.7, 2: 0.2, 3: 0.18, 4: 0.17}
        sims = {1: 1.0, 2: 0.95, 3: 0.9, 4: 0.4}
        assert select_rank(ranks, errors, sims) == 2

    def test_similarity_gate_excludes_candidates(self):
        ranks = (1, 2, 3)
        errors = {1: 0.7, 2: 0.2, 3: 0.18}
        sims = {1: 0.9, 2: 0.5, 3: 0.9}
        assert select_rank(ranks, errors, sims) == 1

    def test_first_rank_measured_against_empty_model(self):
        assert select_rank((1,), {1: 0.05}, {1: 0.9}) == 1
        # a huge first drop beats later refinements
        ranks = (1, 2, 3)
        errors = {1: 0.1, 2: 0.05, 3: 0.04}
        sims = {1: 1.0, 2: 1.0, 3: 1.0}
        assert select_rank(ranks, errors, sims) == 1

    def test_nothing_above_threshold(self):
        with pytest.raises(AnalysisError, match="similarity"):
            select_rank((1, 2), {1: 0.5, 2: 0.2}, {1: 0.1, 2: 0.2})


@pytest.fixture(scope="module")
def planted_scan():
    tensor, _ = generate_cp_tensor(40, 8, 6, 2, noise=0.02, seed=0)
    return rank_scan(tensor, range(1, 6), restarts=4, seed=0,
                     tol=1e-7, max_iter=2000)


class TestRankScan:
    def test_planted_rank_recovered(self, planted_scan):
        assert planted_scan.chosen_rank == 2

    def test_error_curve_monotone_within_restart_noise(self, planted_scan):
        ranks = planted_scan.ranks
        for low, high in zip(ranks, ranks[1:]):
            slack = 2.0 * max(planted_scan.restart_errors[low].std(),
                              planted_scan.restart_errors[high].std())
            assert planted_scan.best_error[high] <= planted_scan.best_error[low] + slack

    def test_similarity_high_at_true_rank_degrades_past_it(self, planted_scan):
        assert planted_scan.similarity[2] > 0.95
        assert planted_scan.similarity[5] < 0.5

    def test_diagnostics_complete(self, planted_scan):
        assert planted_scan.ranks == (1, 2, 3, 4, 5)
        for r in planted_scan.ranks:
            assert planted_scan.restart_errors[r].shape == (4,)
            assert planted_scan.best_models[r].rank == r
            assert planted_scan.best_error[r] == pytest.approx(
                planted_scan.restart_errors[r].min())

    def test_parameter_validation(self):
        tensor, _ = generate_cp_tensor(8, 4, 3, 1, seed=56)
        with pytest.raises(AnalysisError, match="empty rank"):
            rank_scan(tensor, [], restarts=3)
        with pytest.raises(AnalysisError, match="2 restarts"):
            rank_scan(tensor, [1], restarts=1)


class TestTopInvestors:
    @staticmethod
    def labeled_model():
        investor_ids = ("aaa", "bbb", "ccc", "ddd")
        factors = np.array([
            [0.9, 0.1],
            [0.3, 0.1],
            [0.3, 0.8],
            [0.1, 0.5],
        ])
        factors = factors / np.linalg.norm(factors, axis=0)
        return CPModel(
            rank=2,
            investor_factors=factors,
            sector_factors=random_unit_columns(np.random.default_rng(57), 3, 2),
            temporal_factors=random_unit_columns(np.random.default_rng(58), 4, 2),
            component_weights=np.array([2.0, 1.0]),
            seed=0,
            investor_ids=investor_ids,
            years=(2010, 2011, 2012, 2013),
        )

    def test_full_ranking_is_permutation(self):
        model = self.labeled_model()
        ranking = top_investors(model, 0, 4)
        assert sorted(iid for iid, _, _ in ranking) == ["aaa", "bbb", "ccc", "ddd"]
        values = [v for _, v, _ in ranking]
        assert values == sorted(values, reverse=True)

    def test_ties_break_lexicographically(self):
        ranking = top_investors(self.labeled_model(), 0, 3)
        assert [iid for iid, _, _ in ranking] == ["aaa", "bbb", "ccc"]

    def test_type_labels_attached(self):
        investors = {"aaa": make_investor("aaa", "accelerator")}
        ranking = top_investors(self.labeled_model(), 1, 2, investors)
        assert ranking[0][0] == "ccc"
        assert ranking[0][2] == "unknown"
        labels = {iid: label for iid, _, label in top_investors(
            self.labeled_model(), 0, 4, investors)}
        assert labels["aaa"] == "accelerator"

    def test_oversized_k_truncates_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            ranking = top_investors(self.labeled_model(), 0, 99)
        assert len(ranking) == 4
        assert "truncating" in caplog.text

    def test_component_bounds(self):
        with pytest.raises(AnalysisError):
            top_investors(self.labeled_model(), 2, 1)
        anonymous = random_model(59)
        with pytest.raises(AnalysisError, match="investor index"):
            top_investors(anonymous, 0, 1)


class TestEmergingComponent:
    @staticmethod
    def two_phase_model():
        temporal = np.array([
            [0.8, 0.1],
            [0.7, 0.1],
            [0.2, 0.7],
            [0.1, 0.8],
        ])
        temporal = temporal / np.linalg.norm(temporal, axis=0)
        return CPModel(
            rank=2,
            investor_factors=random_unit_columns(np.random.default_rng(60), 5, 2),
            sector_factors=random_unit_columns(np.random.default_rng(61), 3, 2),
            temporal_factors=temporal,
            component_weights=np.array([1.5, 1.0]),
            seed=0,
            years=(2010, 2011, 2012, 2013),
        )

    def test_picks_late_rising_component(self):
        assert emerging_component(self.two_phase_model(), 2012) == 1

    def test_split_must_leave_both_sides(self):
        with pytest.raises(AnalysisError):
            emerging_component(self.two_phase_model(), 2009)
        with pytest.raises(AnalysisError):
            emerging_component(self.two_phase_model(), 2020)


def test_isolated_block_sector_stays_out_of_foreign_components():
    """A sector financed only by its own investor block barely loads elsewhere."""
    rng = np.random.default_rng(0)
    n, s, k = 30, 6, 5
    u_a = np.abs(rng.standard_normal(n))
    u_a[20:] = 0.0
    v_a = np.abs(rng.standard_normal(s))
    v_a[5] = 0.0
    w_a = np.abs(rng.standard_normal(k)) + 0.5
    u_b = np.zeros(n)
    u_b[20:] = np.abs(rng.standard_normal(10)) + 0.5
    v_b = np.zeros(s)
    v_b[5] = 1.0
    w_b = np.abs(rng.standard_normal(k)) + 0.5
    tensor = (
        np.einsum("i,j,k->ijk", u_a, v_a, w_a)
        + np.einsum("i,j,k->ijk", u_b, v_b, w_b)
        + 0.01 * rng.standard_normal((n, s, k))
    )
    models = [
        cp_als(tensor, 2, seed=_restart_seed(0, 2, j), tol=1e-9, max_iter=2000)
        for j in range(3)
    ]
    best = min(models, key=lambda m: reconstruction_error(m, tensor))
    loadings = np.abs(best.sector_factors[5])
    block_component = int(np.argmax(loadings))
    assert loadings[block_component] > 0.9
    assert loadings[1 - block_component] < 0.1
