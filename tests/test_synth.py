"""Planted-truth generators: tensors, ecosystems, calibration."""
from __future__ import annotations

import json

import numpy as np
import pytest

from sectorspace.errors import AnalysisError
from sectorspace.ingest import load_dataset, validate_dataset
from sectorspace.pca import barycenter
from sectorspace.profiles import ProfileOptions, build_profiles, profiles_by_year
from sectorspace.synth import (
    SCENARIOS,
    ArchetypeSpec,
    ConcentrationSpec,
    ScenarioConfig,
    baseline_scenario,
    generate_cp_tensor,
    generate_ecosystem,
)
from sectorspace.tca import cp_als, factor_match_score, reconstruction_error

from conftest import rows

# chi-square critical value at alpha=0.01 for df=9
CHI2_CRIT_DF9 = 21.665994333461924


def load_ecosystem(files):
    return load_dataset(files.startups, files.rounds, files.investors, files.ontology)


class TestGenerateCPTensor:
    def test_rank_one_minors_vanish(self):
        tensor, _ = generate_cp_tensor(6, 5, 4, 1, noise=0.0, seed=1)
        for mode in range(3):
            unfolding = np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)
            for i in range(0, unfolding.shape[0] - 1, 2):
                for j in range(0, unfolding.shape[1] - 1, 3):
                    minor = (unfolding[i, j] * unfolding[i + 1, j + 1]
                             - unfolding[i, j + 1] * unfolding[i + 1, j])
                    assert abs(minor) < 1e-10 * max(1.0, np.abs(unfolding).max() ** 2)

    def test_noiseless_tensor_is_exactly_fittable(self):
        tensor, _ = generate_cp_tensor(15, 6, 5, 2, noise=0.0, seed=2)
        model = cp_als(tensor, 2, seed=0, tol=1e-12, max_iter=2000)
        assert reconstruction_error(model, tensor) < 1e-4

    def test_same_seed_identical(self):
        a, _ = generate_cp_tensor(10, 5, 4, 2, noise=0.3, seed=3)
        b, _ = generate_cp_tensor(10, 5, 4, 2, noise=0.3, seed=3)
        assert a.tobytes() == b.tobytes()

    def test_truth_is_canonical_and_matches_fit(self):
        tensor, truth = generate_cp_tensor(15, 6, 5, 2, noise=0.0, seed=4)
        assert np.all(np.diff(truth.cp_weights) <= 0)
        planted = truth.cp_model()
        for factor in planted.factors:
            np.testing.assert_allclose(np.linalg.norm(factor, axis=0), 1.0, atol=1e-12)
        assert reconstruction_error(planted, tensor) < 1e-12
        fitted = cp_als(tensor, 2, seed=9, tol=1e-12, max_iter=2000)
        assert factor_match_score(fitted, planted) > 0.999

    def test_invalid_shapes_rejected(self):
        with pytest.raises(AnalysisError, match="rank"):
            generate_cp_tensor(4, 3, 2, 5, seed=0)
        with pytest.raises(AnalysisError, match="rank"):
            generate_cp_tensor(4, 3, 2, 0, seed=0)
        with pytest.raises(AnalysisError, match="noise"):
            generate_cp_tensor(4, 3, 2, 1, noise=-0.1, seed=0)
        with pytest.raises(AnalysisError, match="weights"):
            generate_cp_tensor(4, 3, 2, 2, weights=np.ones(3), seed=0)


class TestScenarioValidation:
    def test_mixture_must_be_probability_vector(self):
        with pytest.raises(AnalysisError, match="probability"):
            ArchetypeSpec("bad", "vc", 5, np.array([0.5, 0.6]), 3.0)
        with pytest.raises(AnalysisError, match="probability"):
            ArchetypeSpec("bad", "vc", 5, np.array([-0.1, 1.1]), 3.0)
        with pytest.raises(AnalysisError, match="rate"):
            ArchetypeSpec("bad", "vc", 5, np.array([0.5, 0.5]), 0.0)

    def test_windows_must_overlap_years(self, tmp_path):
        arch = ArchetypeSpec("a", "vc", 3, np.array([0.5, 0.5]), 2.0,
                             active_window=range(1990, 1995))
        config = ScenarioConfig("bad", range(2010, 2014), 2, (arch,))
        with pytest.raises(AnalysisError, match="active window"):
            generate_ecosystem(config, tmp_path)

        concentrated = ScenarioConfig(
            "bad2", range(2010, 2014), 2,
            (ArchetypeSpec("a", "vc", 3, np.array([0.5, 0.5]), 2.0),),
            concentration=ConcentrationSpec(2000, 2002, 3.0),
        )
        with pytest.raises(AnalysisError, match="concentration window"):
            generate_ecosystem(concentrated, tmp_path)

    def test_rounds_per_startup_floor(self):
        arch = ArchetypeSpec("a", "vc", 3, np.array([0.5, 0.5]), 2.0)
        config = ScenarioConfig("bad", range(2010, 2012), 2, (arch,),
                                rounds_per_startup=0)
        with pytest.raises(AnalysisError, match="rounds_per_startup"):
            config.validate()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    config = baseline_scenario(seed=6, n_investors=12, rate=8.0)
    files, truth = generate_ecosystem(config, out)
    return config, files, truth


class TestGenerateEcosystem:
    def test_loads_with_zero_warnings(self, baseline):
        _, files, _ = baseline
        dataset = load_ecosystem(files)
        assert validate_dataset(dataset) == []

    def test_counts_are_consistent(self, baseline):
        config, files, truth = baseline
        dataset = load_ecosystem(files)
        assert len(dataset.investors) == config.n_investors
        assert len(dataset.startups) == len(dataset.rounds)  # one startup per round
        assert set(truth.archetype_of) == {i.investor_id for i in dataset.investors}

    def test_deterministic_bytes(self, tmp_path):
        config = baseline_scenario(seed=6, n_investors=8, rate=5.0)
        first, _ = generate_ecosystem(config, tmp_path / "a")
        second, _ = generate_ecosystem(config, tmp_path / "b")
        for name in ("startups", "rounds", "investors", "ontology", "truth"):
            assert getattr(first, name).read_bytes() == getattr(second, name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, _ = generate_ecosystem(baseline_scenario(seed=1, n_investors=8, rate=5.0),
                                  tmp_path / "a")
        b, _ = generate_ecosystem(baseline_scenario(seed=2, n_investors=8, rate=5.0),
                                  tmp_path / "b")
        assert a.rounds.read_bytes() != b.rounds.read_bytes()

    def test_truth_json_round_trip(self, baseline):
        _, files, truth = baseline
        payload = json.loads(files.truth.read_text(encoding="utf-8"))
        assert payload == truth.to_json()
        assert payload["kind"] == "baseline"

    def test_uniform_mixture_barycenter_within_three_sigma(self, baseline):
        """Yearly barycenters track the planted uniform mixture.

        The yardstick is the multinomial standard error of the pooled
        frequency, sqrt(p (1 - p) / N): investors share one mixture here, so
        the barycenter dispersion sigma measures strategy spread, not how
        far the pooled estimate can wander from the truth.
        """
        config, files, _ = baseline
        dataset = load_ecosystem(files)
        profiles = build_profiles(
            dataset, options=ProfileOptions(exclude_sectors=frozenset(),
                                            years=config.years))
        p = 1.0 / config.n_sectors
        for year_profiles in profiles_by_year(profiles).values():
            point = barycenter(year_profiles)
            se = np.sqrt(p * (1.0 - p) / point.weight)
            assert np.all(np.abs(point.coords - p) <= 3.0 * se)

    def test_chi_square_calibration(self, tmp_path):
        """Empirical sector draws of the uniform archetype stay under the
        alpha=0.01 critical value (df = n_sectors - 1 = 9)."""
        files, _ = generate_ecosystem(
            baseline_scenario(seed=5, n_investors=25, rate=45.0), tmp_path)
        dataset = load_ecosystem(files)
        sectors = dataset.ontology.parent_tags
        index = {tag: i for i, tag in enumerate(sectors)}
        counts = np.zeros(len(sectors))
        startup_by_id = {startup.startup_id: startup for startup in rows(dataset.startups)}
        for rnd in rows(dataset.rounds):
            startup = startup_by_id[rnd.startup_id]
            assert len(startup.tags) == 1
            counts[index[startup.tags[0]]] += 1
        assert counts.sum() >= 1e4  # calibration needs enough draws
        expected = counts.sum() / len(sectors)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT_DF9

    def test_many_to_one_pooling_respects_sector_and_year(self, tmp_path):
        config = baseline_scenario(seed=7, n_investors=10, rate=6.0)
        config = ScenarioConfig(
            name=config.name, years=config.years, n_sectors=config.n_sectors,
            archetypes=config.archetypes, drift=config.drift,
            concentration=config.concentration, noise=config.noise,
            rounds_per_startup=3, seed=config.seed,
        )
        files, _ = generate_ecosystem(config, tmp_path)
        dataset = load_ecosystem(files)
        assert len(dataset.startups) < len(dataset.rounds)
        startup_by_id = {startup.startup_id: startup for startup in rows(dataset.startups)}
        for rnd in rows(dataset.rounds):
            startup = startup_by_id[rnd.startup_id]
            assert rnd.announced_date.year == startup.founded_date.year
        per_startup = {}
        for rnd in rows(dataset.rounds):
            per_startup[rnd.startup_id] = per_startup.get(rnd.startup_id, 0) + 1
        assert max(per_startup.values()) <= 3


def test_scenario_registry_is_complete():
    assert set(SCENARIOS) == {
        "baseline", "convergence", "stage_offsets", "concentration", "emergence",
    }
    for name, factory in SCENARIOS.items():
        config = factory(seed=0)
        config.validate()
        assert config.name == name
