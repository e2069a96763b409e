"""Tensor assembly, CP-ALS fitting, similarity and rank selection."""
from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorspace.errors import AnalysisError
from sectorspace.synth import generate_cp_tensor
from sectorspace.tca import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RIDGE_EPS,
    CPModel,
    _lu_inverse,
    _max_assignment,
    _restart_seed,
    _solve_factor,
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

from conftest import make_investor, make_profiles, stack_profiles

ROOT_HALF = 0.7071067811865476


def random_unit_columns(rng, rows, rank):
    m = rng.standard_normal((rows, rank))
    return m / np.linalg.norm(m, axis=0)


def assert_same_fit(got, expected):
    for fa, fb in zip(got.factors, expected.factors):
        assert fa.tobytes() == fb.tobytes()
    assert got.component_weights.tobytes() == expected.component_weights.tobytes()
    assert got.error_history.tobytes() == expected.error_history.tobytes()


def random_model(seed, n=50, s=10, k=8, rank=2):
    rng = np.random.default_rng(seed)
    return CPModel(
        rank=rank,
        investor_factors=random_unit_columns(rng, n, rank),
        sector_factors=random_unit_columns(rng, s, rank),
        temporal_factors=random_unit_columns(rng, k, rank),
        component_weights=np.sort(rng.random(rank) + 0.5)[::-1],
    )


class TestBuildTensor:
    def test_2x2x2_index_bookkeeping(self):
        profiles = stack_profiles([
            make_profiles(np.array([[2.0, 0.0], [0.0, 1.0]]), year=2010,
                          sectors=("A", "B"), investor_ids=["i1", "i2"]),
            make_profiles(np.array([[0.0, 3.0], [1.0, 0.0]]), year=2011,
                          sectors=("A", "B"), investor_ids=["i1", "i2"])
        ])
        tensor = build_tensor(profiles)
        assert tensor.shape == (2, 2, 2)
        assert tensor.investor_ids == ("i1", "i2")
        assert tensor.years == (2010, 2011)
        # standardizing 2 rows maps the larger count to +1/sqrt(2)
        expected_2010 = np.array([[ROOT_HALF, -ROOT_HALF], [-ROOT_HALF, ROOT_HALF]])
        np.testing.assert_allclose(tensor.values[:, :, 0], expected_2010, atol=1e-12)
        np.testing.assert_allclose(tensor.values[:, :, 1], -expected_2010, atol=1e-12)

    def test_constant_fiber_zeroed_and_flagged(self):
        profiles = stack_profiles([
            make_profiles(np.array([[1.0, 1.0], [1.0, 2.0]]), year=2010,
                          sectors=("A", "B"), investor_ids=["i1", "i2"]),
            make_profiles(np.array([[1.0, 0.0], [0.0, 1.0]]), year=2011,
                          sectors=("A", "B"), investor_ids=["i1", "i2"])
        ])
        tensor = build_tensor(profiles)
        # the raw 2010 column A is constant, so its slab column is all zero
        np.testing.assert_array_equal(tensor.values[:, 0, 0], 0.0)
        assert tensor.values[:, 1, 0].std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(tensor.values[:, :, 1].std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_slice_standardization_against_two_pass_oracle(self):
        rng = np.random.default_rng(40)
        tables, raw = [], []
        for year in (2008, 2009, 2010):
            counts = rng.integers(0, 5, size=(15, 4)).astype(float)
            counts[counts.sum(axis=1) == 0, 0] = 1
            shares = counts / counts.sum(axis=1, keepdims=True)
            tables.append(make_profiles(shares, year=year,
                                        weights=counts.sum(axis=1),
                                        investor_ids=[f"i{j:02d}" for j in range(15)]))
            raw.append(tables[-1].rounds)
        tensor = build_tensor(stack_profiles(tables))
        for k in range(3):
            slab = tensor.values[:, :, k]
            np.testing.assert_allclose(slab.mean(axis=0), 0.0, atol=1e-9)
            constant = np.ptp(raw[k], axis=0) == 0
            np.testing.assert_array_equal(slab[:, constant], 0.0)
            np.testing.assert_allclose(slab[:, ~constant].std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_inactive_investor_year_contributes_zero_row(self):
        profiles = stack_profiles([
            make_profiles(np.array([[1.0, 0.0]]), year=2010,
                          sectors=("A", "B"), investor_ids=["lone"]),
            make_profiles(np.array([[1.0, 0.0], [0.0, 1.0]]), year=2011,
                          sectors=("A", "B"), investor_ids=["i1", "i2"])
        ])
        tensor = build_tensor(profiles)
        assert tensor.shape == (3, 2, 2)
        assert set(tensor.investor_ids) == {"lone", "i1", "i2"}

    def test_needs_two_years_and_two_investors(self):
        profiles = make_profiles(np.eye(2), year=2010, sectors=("A", "B"))
        with pytest.raises(AnalysisError, match="2 years"):
            build_tensor(profiles)
        lone = stack_profiles([
            make_profiles(np.array([[1.0, 0.0]]), year=year, sectors=("A", "B"),
                          investor_ids=["lone"])
            for year in (2010, 2011)
        ])
        with pytest.raises(AnalysisError, match="2 investors"):
            build_tensor(lone)


def test_khatri_rao_columns():
    rng = np.random.default_rng(41)
    x, y = rng.random((4, 3)), rng.random((5, 3))
    kr = khatri_rao(x, y)
    assert kr.shape == (20, 3)
    for r in range(3):
        np.testing.assert_allclose(kr[:, r], np.kron(x[:, r], y[:, r]), atol=1e-15)


def reference_error_history(tensor, rank, seed, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                            extrapolate=True):
    """Error history of extrapolated CP-ALS, written for clarity: each factor
    update checks the Gram's condition number (ridge above 1e12) and
    LU-solves, with every Gram recomputed where it is used, and each update's
    MTTKRP takes its own Khatri-Rao product of its own unfolding. From sweep
    6 on, every even sweep tries ``X0 + sweep**(1/p) * (X - X0)`` (``p`` from
    2, up by 1 after 4 rejections in a row), scored by dense reconstruction
    and kept when its error is strictly below the sweep's. This is the fit
    that ``cp_als``'s Gram inverses, shared contraction and reused MTTKRP
    stand in for; ``extrapolate=False`` gives plain ALS."""
    norm_sq = float(np.sum(tensor * tensor))
    unfold = [np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1) for mode in range(3)]
    rng = np.random.default_rng(seed)
    a, b, c = (rng.uniform(-1.0, 1.0, size=(size, rank)) for size in tensor.shape)

    def update(unfolding, kr, gram):
        m = unfolding @ kr
        if np.linalg.cond(gram) > 1e12:
            gram = gram + RIDGE_EPS * np.eye(rank)
        return np.linalg.solve(gram, m.T).T, m

    errors = []
    prev_err_sq = None
    power, rejected = 2, 0
    for sweep in range(max_iter):
        before = a, b, c
        a, _ = update(unfold[0], khatri_rao(b, c), (b.T @ b) * (c.T @ c))
        b, _ = update(unfold[1], khatri_rao(a, c), (a.T @ a) * (c.T @ c))
        c, m_c = update(unfold[2], khatri_rao(a, b), (a.T @ a) * (b.T @ b))
        fit_sq = float(np.sum((a.T @ a) * (b.T @ b) * (c.T @ c)))
        err_sq = max(norm_sq - 2.0 * float(np.sum(c * m_c)) + fit_sq, 0.0)
        if extrapolate and sweep >= 6 and sweep % 2 == 0:
            jump = sweep ** (1.0 / power)
            point = [x0 + jump * (x - x0) for x0, x in zip(before, (a, b, c))]
            dense = np.einsum("ir,jr,kr->ijk", *point)
            point_err_sq = float(np.sum((tensor - dense) ** 2))
            if point_err_sq < err_sq:
                (a, b, c), err_sq, rejected = point, point_err_sq, 0
            else:
                rejected += 1
                if rejected == 4:
                    power, rejected = power + 1, 0
        errors.append(np.sqrt(err_sq / norm_sq))
        if prev_err_sq is not None and (abs(prev_err_sq - err_sq)
                                        < tol * max(prev_err_sq, np.finfo(float).tiny)):
            break
        prev_err_sq = err_sq
    return np.array(errors)


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
        assert_same_fit(cp_als(tensor, 2, seed=7), cp_als(tensor, 2, seed=7))

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
        for max_iter in (0, -1):
            with pytest.raises(AnalysisError, match="max_iter"):
                cp_als(tensor, 1, seed=0, max_iter=max_iter)

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_update(self, seed, rank):
        tensor, _ = generate_cp_tensor(20, 8, 6, 3, noise=0.05, seed=seed)
        expected = reference_error_history(tensor, rank, seed)
        # a capped fit stops in a swamp, where last-bit differences can move
        # the stopping sweep; only fits that converge are an oracle
        assert len(expected) < DEFAULT_MAX_ITER
        model = cp_als(tensor, rank, seed=seed)
        assert model.converged
        assert len(model.error_history) == len(expected)
        np.testing.assert_allclose(model.error_history, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_sweeps_before_the_first_extrapolation_are_plain_als(self, seed, rank):
        tensor, _ = generate_cp_tensor(20, 8, 6, 3, noise=0.05, seed=seed)
        plain = reference_error_history(tensor, rank, seed, max_iter=6, extrapolate=False)
        assert len(plain) == 6
        got = cp_als(tensor, rank, seed=seed).error_history
        np.testing.assert_allclose(got[:6], plain, rtol=0, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 5),
           noise=st.sampled_from([0.0, 0.05, 0.5]))
    def test_error_history_never_rises(self, seed, rank, noise):
        tensor, _ = generate_cp_tensor(15, 6, 5, 3, noise=noise, seed=seed)
        history = cp_als(tensor, rank, seed=seed, tol=1e-9, max_iter=300).error_history
        # the Gram identity rounds the squared error at ~1e-16 of the tensor's
        # squared norm, which near an exact fit is ~1e-8 of the error itself
        assert np.all(np.diff(history ** 2) <= 1e-13)

    def test_converged_flags_the_tol_stop(self):
        tensor, _ = generate_cp_tensor(15, 6, 4, 2, noise=0.05, seed=44)
        model = cp_als(tensor, 2, seed=7)
        assert model.converged
        assert len(model.error_history) < DEFAULT_MAX_ITER
        capped = cp_als(tensor, 2, seed=7, max_iter=3)
        assert not capped.converged
        assert len(capped.error_history) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_aborts_before_first_sweep(self, bad, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("an ALS sweep started")

        tensor, _ = generate_cp_tensor(8, 4, 3, 1, seed=47)
        tensor[2, 1, 0] = bad
        # every factor update of every sweep starts with this inverse
        monkeypatch.setattr("sectorspace.tca._lu_inverse", no_sweep)
        with pytest.raises(AnalysisError, match="non-finite"):
            cp_als(tensor, 1, seed=0)

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_lu_inverse_is_numpy_inverse(self, rank):
        """The gufunc the sweeps call gives np.linalg.inv's bits on Hadamard Grams."""
        rng = np.random.default_rng(rank)
        for _ in range(20):
            b = rng.uniform(-1.0, 1.0, size=(12, rank))
            c = rng.uniform(-1.0, 1.0, size=(14, rank))
            gram = (b.T @ b) * (c.T @ c)
            assert _lu_inverse(gram, signature="d->d").tobytes() == np.linalg.inv(gram).tobytes()

    def test_lu_inverse_of_singular_gram_is_nan(self):
        with np.errstate(all="ignore"):
            inverse = _lu_inverse(np.ones((3, 3)), signature="d->d")
        assert inverse.shape == (3, 3)
        assert np.isnan(inverse).all()

    def test_failed_inverse_takes_the_ridge(self, caplog, monkeypatch):
        """An inverse that comes back NaN is retried once, on the Gram plus the
        ridge, with one warning."""
        tensor, _ = generate_cp_tensor(15, 6, 4, 2, noise=0.05, seed=44)
        calls = []

        def nan_on_fifth(gram, **kwargs):
            calls.append(gram)
            inverse = np.linalg.inv(gram)
            return np.full_like(inverse, np.nan) if len(calls) == 5 else inverse

        monkeypatch.setattr("sectorspace.tca._lu_inverse", nan_on_fifth)
        with caplog.at_level("WARNING", logger="sectorspace.tca"):
            model = cp_als(tensor, 2, seed=7)
        assert len(self.ridge_warnings(caplog)) == 1
        assert len(calls) > 6
        assert calls[5].tobytes() == (calls[4] + RIDGE_EPS * np.eye(2)).tobytes()
        assert np.isfinite(model.error_history).all()

    def test_fit_through_singular_grams_warns_once_per_fit(self, caplog, monkeypatch):
        """A rank-2 fit of a 2-investor rank-1 tensor meets singular Grams in
        several updates; each fit warns once and gives the model that an
        inverse from np.linalg.inv, NaN where it raises, gives."""
        tensor = np.zeros((2, 4, 2))
        tensor[0, 0], tensor[1, 0] = 1.0, -1.0
        failed = []
        lu_inverse = _lu_inverse

        def counting(gram, **kwargs):
            inverse = lu_inverse(gram, **kwargs)
            if np.isnan(inverse).any():
                failed.append(np.linalg.cond(gram) > 1e12)
            return inverse

        monkeypatch.setattr("sectorspace.tca._lu_inverse", counting)
        with caplog.at_level("WARNING", logger="sectorspace.tca"):
            fits = [cp_als(tensor, 2, seed=seed) for seed in range(3)]
        assert len(self.ridge_warnings(caplog)) == 3
        assert len(failed) > 3 and all(failed)

        def reference(gram, **kwargs):
            try:
                return np.linalg.inv(gram)
            except np.linalg.LinAlgError:
                return np.full_like(gram, np.nan)

        monkeypatch.setattr("sectorspace.tca._lu_inverse", reference)
        for seed, fit in enumerate(fits):
            assert_same_fit(fit, cp_als(tensor, 2, seed=seed))

    @staticmethod
    def ridge_warnings(caplog):
        return [r for r in caplog.records if "rank-deficient ALS subproblem" in r.getMessage()]

    def test_singular_gram_gets_ridge_with_one_warning_per_fit(self, caplog):
        rng = np.random.default_rng(62)
        m = rng.standard_normal((4, 6)) @ rng.standard_normal((6, 2))
        singular = np.ones((2, 2))
        warned = [False]
        with caplog.at_level("WARNING", logger="sectorspace.tca"), np.errstate(all="ignore"):
            solutions = [_solve_factor(m, singular, warned) for _ in range(3)]
        assert len(self.ridge_warnings(caplog)) == 1
        ridged = singular + RIDGE_EPS * np.eye(2)
        for factor in solutions:
            assert np.isfinite(factor).all()
            np.testing.assert_allclose(factor @ ridged, m, atol=1e-4)

    def test_gram_singular_after_ridge_raises(self, caplog):
        # at 1e20 the ridge vanishes in rounding, so the Gram stays singular
        with caplog.at_level("WARNING", logger="sectorspace.tca"), np.errstate(all="ignore"):
            with pytest.raises(AnalysisError, match="stays singular after the ridge"):
                _solve_factor(np.ones((3, 2)), np.ones((2, 2)) * 1e20, [False])
        assert len(self.ridge_warnings(caplog)) == 1

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


class TestMaxAssignment:
    @staticmethod
    def scores(rng, size, tied):
        score = rng.random((size, size))
        # thirds make many equal entries, and so many optimal matchings
        return np.round(score * 3) / 3 if tied else score

    @staticmethod
    def matched_sum(score, cols):
        assert sorted(cols) == list(range(len(score)))
        return float(score[np.arange(len(score)), cols].sum())

    @pytest.mark.parametrize("size", range(1, 8))
    def test_matches_brute_force(self, size):
        rng = np.random.default_rng(70 + size)
        perms = np.array(list(itertools.permutations(range(size))))
        for trial in range(30):
            score = self.scores(rng, size, tied=trial % 3 == 0)
            best = score[np.arange(size), perms].sum(axis=1).max()
            assert self.matched_sum(score, _max_assignment(score)) == pytest.approx(
                best, rel=0, abs=1e-12)

    def test_matches_scipy_optimum(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(78)
        for size in (8, 12, 20, 30):
            for trial in range(6):
                score = self.scores(rng, size, tied=trial % 3 == 0)
                rows, cols = linear_sum_assignment(score, maximize=True)
                assert self.matched_sum(score, _max_assignment(score)) == pytest.approx(
                    float(score[rows, cols].sum()), rel=0, abs=1e-12)


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

    def test_non_finite_factors_rejected(self):
        model = random_model(4)
        broken = dataclasses.replace(model, sector_factors=model.sector_factors * np.nan)
        with pytest.raises(AnalysisError, match="finite factors"):
            factor_match_score(model, broken)


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
def planted_tensor():
    tensor, _ = generate_cp_tensor(40, 8, 6, 2, noise=0.02, seed=0)
    return tensor


@pytest.fixture(scope="module")
def planted_scan(planted_tensor):
    return rank_scan(planted_tensor, range(1, 6), restarts=4, seed=0,
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
            sweeps = planted_scan.restart_sweeps[r]
            assert sweeps.shape == (4,)
            assert ((sweeps >= 1) & (sweeps <= 2000)).all()
            converged = planted_scan.restart_converged[r]
            assert converged.dtype == bool and converged.shape == (4,)
            # only the tol test can stop a fit short of max_iter
            assert (converged | (sweeps == 2000)).all()
            best = int(np.argmin(planted_scan.restart_errors[r]))
            assert sweeps[best] == len(planted_scan.best_models[r].error_history)
            assert converged[best] == planted_scan.best_models[r].converged
            assert planted_scan.best_models[r].rank == r
            assert planted_scan.best_error[r] == pytest.approx(
                planted_scan.restart_errors[r].min())

    def test_best_error_matches_dense_reconstruction(self, planted_scan, planted_tensor):
        for r in planted_scan.ranks:
            dense = reconstruction_error(planted_scan.best_models[r], planted_tensor)
            assert planted_scan.best_error[r] == pytest.approx(dense, abs=1e-10)

    def test_parameter_validation(self):
        tensor, _ = generate_cp_tensor(8, 4, 3, 1, seed=56)
        with pytest.raises(AnalysisError, match="empty rank"):
            rank_scan(tensor, [], restarts=3)
        with pytest.raises(AnalysisError, match="2 restarts"):
            rank_scan(tensor, [1], restarts=1)
        with pytest.raises(AnalysisError, match="max_iter"):
            rank_scan(tensor, [1], restarts=2, max_iter=0)


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
