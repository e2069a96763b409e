"""Planted-truth generators: tensors, ecosystems, calibration."""
from __future__ import annotations

import dataclasses
import datetime as dt
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sectorspace.errors import AnalysisError
from sectorspace.ingest import (INVESTOR_COLUMNS, ROUND_COLUMNS, STARTUP_COLUMNS, StageClass,
                                load_dataset, validate_dataset)
from sectorspace.ontology import SectorOntology, dump_ontology
from sectorspace.pca import barycenter
from sectorspace.profiles import (ProfileOptions, SectorActivity, build_profiles,
                                  profiles_by_year)
from sectorspace.reports import write_rows
from sectorspace.synth import (
    CHOICE_ATOL,
    SCENARIOS,
    STAGE_AMOUNT_BASE,
    STAGE_LABELS,
    ArchetypeSpec,
    ConcentrationSpec,
    DriftSpec,
    PlantedTruth,
    ScenarioConfig,
    baseline_scenario,
    cents_text,
    convergence_scenario,
    generate_cp_tensor,
    generate_ecosystem,
    mixture_cdf,
    mixture_for,
    month_day_draws,
)
from sectorspace.tca import cp_als, factor_match_score, reconstruction_error

from conftest import rows

# chi-square critical value at alpha=0.01 for df=9
CHI2_CRIT_DF9 = 21.665994333461924


FILE_NAMES = ("startups.csv", "rounds.csv", "investors.csv", "ontology.json", "truth.json")


def load_ecosystem(files):
    return load_dataset(files.startups, files.rounds, files.investors, files.ontology)


def reference_ecosystem(config, out_dir):
    """Row-at-a-time oracle for :func:`generate_ecosystem`'s five files.

    It consumes the random stream in the documented draw order and formats
    each round as it is drawn, recomputing the mixture for every
    investor-year-stage.
    """
    out_dir.mkdir(parents=True)
    rng = np.random.default_rng(config.seed)
    sectors = tuple(f"Sector {i:02d}" for i in range(config.n_sectors))
    stage_order = list(StageClass)
    investor_rows, startup_rows, round_rows = [], [], []
    archetype_of, cohorts = {}, {}
    serial = 0
    investor_no = 0
    for arch in config.archetypes:
        stage_probs = np.array([arch.stage_weights.get(s, 0.0) for s in stage_order])
        stage_probs = stage_probs / stage_probs.sum()
        for _ in range(arch.count):
            investor_id = f"inv_{investor_no:05d}"
            investor_no += 1
            investor_rows.append([investor_id, f"{arch.name} {investor_no}", arch.type_label])
            archetype_of[investor_id] = arch.name
            cohorts.setdefault(arch.name, []).append(investor_id)
            for year in config.years:
                if arch.active_window is not None and year not in arch.active_window:
                    continue
                n_rounds = int(rng.poisson(arch.activity_rate))
                if n_rounds == 0:
                    continue
                stage_counts = rng.multinomial(n_rounds, stage_probs)
                for stage, n_stage in zip(stage_order, stage_counts):
                    if n_stage == 0:
                        continue
                    mixture = mixture_for(config, arch, stage, year)
                    drawn = rng.choice(config.n_sectors, size=n_stage, p=mixture)
                    months = rng.integers(1, 13, size=n_stage)
                    days = rng.integers(1, 29, size=n_stage)
                    amounts = STAGE_AMOUNT_BASE[stage] * rng.lognormal(0.0, 0.4, size=n_stage)
                    for j in range(n_stage):
                        startup_id = f"stp_{serial:06d}"
                        startup_rows.append([
                            startup_id, f"Startup {serial + 1}", "USA", "active",
                            dt.date(year, 1, 2).isoformat(), sectors[int(drawn[j])],
                        ])
                        round_rows.append([
                            f"rnd_{serial:06d}", startup_id,
                            dt.date(year, int(months[j]), int(days[j])).isoformat(),
                            STAGE_LABELS[stage], repr(round(float(amounts[j]), 2)),
                            investor_id,
                        ])
                        serial += 1
    write_rows(out_dir / "startups.csv", STARTUP_COLUMNS, startup_rows)
    write_rows(out_dir / "rounds.csv", ROUND_COLUMNS, round_rows)
    write_rows(out_dir / "investors.csv", INVESTOR_COLUMNS, investor_rows)
    dump_ontology(SectorOntology(parent_tags=sectors, version=f"synth-{config.name}"),
                  out_dir / "ontology.json")
    special = next((a.name for a in config.archetypes if a.type_label == "accelerator"), None)
    windows = [a.active_window[0] for a in config.archetypes if a.active_window is not None]
    concentration = config.concentration
    truth = PlantedTruth(
        kind=config.name, seed=config.seed, archetype_of=archetype_of,
        cohort_ids=tuple(cohorts.get(special, ())) if special else (),
        turn_year=config.drift.turn_year if config.drift else None,
        activation_year=min(windows, default=None),
        concentration_window=(concentration.start, concentration.peak) if concentration else None,
        concentration_year=concentration.peak if concentration else None,
        drift_direction=config.drift.direction if config.drift else None,
        sectors=sectors, years=tuple(config.years),
    )
    (out_dir / "truth.json").write_text(
        json.dumps(truth.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _scaled_convergence(factor):
    config = convergence_scenario(seed=0)
    return dataclasses.replace(config, archetypes=tuple(
        dataclasses.replace(a, count=a.count * factor) for a in config.archetypes))


ORACLE_CONFIGS = {
    **{f"{name}-{seed}": partial(factory, seed=seed)
       for name, factory in SCENARIOS.items() for seed in range(3)},
    "convergence-x3": partial(_scaled_convergence, 3),
    "every-other-year": partial(baseline_scenario, seed=0, years=range(2006, 2016, 2)),
    "no-rounds": partial(baseline_scenario, seed=0, n_investors=2, rate=1e-9),
}


@pytest.mark.parametrize("key", sorted(ORACLE_CONFIGS))
def test_files_match_row_at_a_time_reference(key, tmp_path):
    config = ORACLE_CONFIGS[key]()
    generate_ecosystem(config, tmp_path / "columnar")
    reference_ecosystem(config, tmp_path / "reference")
    for name in FILE_NAMES:
        assert (tmp_path / "columnar" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes(), name


@st.composite
def mixtures(draw):
    """Probability vectors over 1-15 sectors, some entries zero."""
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                            min_size=1, max_size=15).filter(any))
    return np.array(weights) / sum(weights)


@settings(deadline=None, max_examples=200)
@given(mixture=mixtures(), size=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_cdf_draws_match_generator_choice(mixture, size, seed):
    """Searching ``random`` draws in the CDF is ``choice``'s draw: same indices,
    same stream position afterwards."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = mixture_cdf(mixture).searchsorted(ours.random(size), side="right")
    chosen = theirs.choice(len(mixture), size, p=mixture)
    assert drawn.dtype == chosen.dtype
    assert drawn.tolist() == chosen.tolist()
    assert ours.random() == theirs.random()


@settings(deadline=None, max_examples=200)
@given(size=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_month_day_draws_match_two_integers_calls(size, seed):
    """One array-bounded draw is the months call followed by the days call:
    same values, same dtype, same stream position afterwards."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    months, days = month_day_draws(ours, size)
    want_months, want_days = theirs.integers(1, 13, size=size), theirs.integers(1, 29, size=size)
    assert months.dtype == days.dtype == want_months.dtype == want_days.dtype
    assert months.tolist() == want_months.tolist()
    assert days.tolist() == want_days.tolist()
    assert ours.random() == theirs.random()


@st.composite
def near_ties(draw):
    """The double nearest a half-cent k/100 + 0.005, moved up to 3 ulps either way."""
    x = (2 * draw(st.integers(0, 10**13)) + 1) / 200
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
amounts = st.one_of(
    near_ties(),
    st.sampled_from([0.0, -0.0, 0.125, 0.375, 2.675, 1e13, 1e15]),
    st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL),  # subnormals
    st.floats(1e12, 1e14),  # x * 100 on both sides of 1e15
    st.floats(1e14, allow_infinity=True),
    st.floats(1e4, 1e9),  # the lognormal amounts of the bundled scenarios
    st.floats(),
)


@settings(deadline=None, max_examples=300)
@given(values=st.lists(amounts, max_size=30))
@example(values=[-0.0, 0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, -1.5])
def test_cents_text_is_repr_of_round(values):
    assert cents_text(np.array(values, dtype=np.float64)) == [
        repr(round(x, 2)) for x in values]


@settings(deadline=None, max_examples=100)
@given(mixture=mixtures(), entry=st.integers(0, 14), negative=st.floats(1e-12, 1.0),
       off=st.floats(2 * CHOICE_ATOL, 0.5), sign=st.sampled_from([-1.0, 1.0]))
def test_cdf_refuses_what_choice_refuses(mixture, entry, negative, off, sign):
    with_negative = mixture.copy()
    with_negative[entry % len(mixture)] = -negative
    off_sum = mixture * (1.0 + sign * off)
    for bad in (with_negative, off_sum):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(bad), 3, p=bad)
        with pytest.raises(AnalysisError, match="probability vector"):
            mixture_cdf(bad)
    near = mixture * (1.0 + sign * off * CHOICE_ATOL)  # within half the tolerance
    np.random.default_rng(0).choice(len(near), 3, p=near)
    mixture_cdf(near)


def test_generate_ecosystem_prints_nothing(tmp_path, capsys):
    """The benchmark's set-up child runs this generator and sends its result
    as the whole of its stdout."""
    generate_ecosystem(baseline_scenario(seed=0, n_investors=3, rate=4.0), tmp_path)
    assert capsys.readouterr() == ("", "")


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


class TestScenarioValidation:
    def test_mixture_must_be_probability_vector(self):
        with pytest.raises(AnalysisError, match="probability"):
            ArchetypeSpec("bad", "vc", 5, np.array([0.5, 0.6]), 3.0)
        with pytest.raises(AnalysisError, match="probability"):
            ArchetypeSpec("bad", "vc", 5, np.array([-0.1, 1.1]), 3.0)
        with pytest.raises(AnalysisError, match="rate"):
            ArchetypeSpec("bad", "vc", 5, np.array([0.5, 0.5]), 0.0)

    @pytest.mark.parametrize("weights", [
        {},
        {StageClass.SEED: 0.0},
        {StageClass.SEED: 1.0, StageClass.SERIES_A: -0.5},
        {StageClass.SEED: float("nan")},
        {StageClass.SEED: float("inf")},
        {"seed": 1.0},
    ])
    def test_stage_weights_must_be_a_distribution(self, weights):
        with pytest.raises(AnalysisError, match="stage weights"):
            ArchetypeSpec("bad", "vc", 5, np.array([0.5, 0.5]), 3.0, stage_weights=weights)

    def test_type_label_must_pass_ingest(self):
        with pytest.raises(AnalysisError, match="investor type 'fund'"):
            ArchetypeSpec("bad", "fund", 5, np.array([0.5, 0.5]), 3.0)

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

    def test_vectors_must_have_one_entry_per_sector(self, tmp_path):
        offset = ArchetypeSpec("a", "vc", 3, np.array([0.5, 0.5]), 2.0,
                               stage_offsets={StageClass.SEED: np.zeros(3)})
        config = ScenarioConfig("bad", range(2010, 2014), 2, (offset,))
        with pytest.raises(AnalysisError, match="archetype 'a': stage offset"):
            generate_ecosystem(config, tmp_path)

        drifting = ScenarioConfig(
            "bad2", range(2010, 2014), 2,
            (ArchetypeSpec("a", "vc", 3, np.array([0.5, 0.5]), 2.0),),
            drift=DriftSpec(np.array([0.1, 0.0, -0.1]), 0.01),
        )
        with pytest.raises(AnalysisError, match="drift direction"):
            generate_ecosystem(drifting, tmp_path)


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
        startups = {rnd.startup_id for rnd in rows(dataset.rounds)}
        assert len(startups) == len(dataset.rounds)  # and no round shares one
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
            SectorActivity.from_dataset(dataset),
            options=ProfileOptions(exclude_sectors=frozenset(), years=config.years))
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


def test_scenario_registry_is_complete():
    assert set(SCENARIOS) == {
        "baseline", "convergence", "stage_offsets", "concentration", "emergence",
    }
    for name, factory in SCENARIOS.items():
        config = factory(seed=0)
        config.validate()
        assert config.name == name
