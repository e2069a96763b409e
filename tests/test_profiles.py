"""Strategy-vector construction: splitting, aggregation, grouping."""
from __future__ import annotations

import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorspace.errors import AnalysisError, StageError
from sectorspace.ingest import StageClass, ValidatedDataset, classify_stage
from sectorspace.profiles import (
    GroupSpec,
    InvestorYearProfile,
    ProfileOptions,
    SectorActivity,
    StrategyVector,
    build_profiles,
    group_profiles,
    share_matrix,
    split_round,
    stage_partition,
)

from conftest import (
    TAGS4,
    make_dataset,
    make_investor,
    make_ontology,
    make_round,
    make_startup,
)

NO_EXCLUDE = ProfileOptions(exclude_sectors=frozenset())


class TestSplitRound:
    def test_two_parents_half_each(self):
        rnd = make_round("r1", "s1", 2010, ["i1"], amount=500_000)
        shares = split_round(rnd, {"Alpha", "Beta"})
        assert shares == [("Alpha", 0.5, 250_000.0), ("Beta", 0.5, 250_000.0)]

    def test_three_parents_sums_back(self):
        rnd = make_round("r1", "s1", 2010, ["i1"], amount=300_000)
        shares = split_round(rnd, {"Alpha", "Beta", "Gamma"})
        assert all(w == pytest.approx(1 / 3) for _, w, _ in shares)
        assert sum(w for _, w, _ in shares) == pytest.approx(1.0, abs=1e-9)
        assert sum(a for _, _, a in shares) == pytest.approx(300_000.0, abs=1e-6)

    def test_empty_parent_set_routes_to_sink(self, caplog):
        rnd = make_round("r1", "s1", 2010, ["i1"])
        with caplog.at_level("WARNING"):
            assert split_round(rnd, set()) == []
        assert "r1" in caplog.text

    def test_unknown_amount_counts_rounds_only(self):
        rnd = make_round("r1", "s1", 2010, ["i1"], amount=None)
        assert split_round(rnd, {"Alpha"}) == [("Alpha", 1.0, 0.0)]


class TestBuildProfiles:
    def test_single_two_parent_round(self, small_ontology):
        dataset = make_dataset(
            [make_startup("s1", ["Alpha", "Beta"])],
            [make_round("r1", "s1", 2010, ["i1"])],
            [make_investor("i1")],
            small_ontology,
        )
        profiles = build_profiles(dataset, options=NO_EXCLUDE)
        assert len(profiles) == 1
        p = profiles[0]
        assert (p.investor_id, p.year) == ("i1", 2010)
        assert p.vector.sectors == TAGS4
        np.testing.assert_allclose(p.vector.rounds_by_sector, [0.5, 0.5, 0, 0])

    def test_inactive_years_are_absent(self, small_ontology):
        dataset = make_dataset(
            [make_startup("s1", ["Alpha"])],
            [make_round("r1", "s1", 2010, ["i1"]),
             make_round("r2", "s1", 2012, ["i1"])],
            [make_investor("i1")],
            small_ontology,
        )
        profiles = build_profiles(dataset, options=NO_EXCLUDE)
        assert [(p.investor_id, p.year) for p in profiles] == [("i1", 2010), ("i1", 2012)]

    def test_per_sector_totals_match_brute_force(self, small_ontology):
        rng = random.Random(7)
        startups = [
            make_startup(f"s{i}", rng.sample(TAGS4, rng.randint(1, 3)))
            for i in range(12)
        ]
        investors = [make_investor(f"i{j}") for j in range(5)]
        rounds = [
            make_round(f"r{k}", f"s{rng.randrange(12)}", rng.randint(2008, 2012),
                       rng.sample([inv.investor_id for inv in investors], rng.randint(1, 3)))
            for k in range(40)
        ]
        dataset = make_dataset(startups, rounds, investors, small_ontology)
        profiles = build_profiles(dataset, options=NO_EXCLUDE)

        expected = dict.fromkeys(TAGS4, 0.0)
        for rnd in rounds:
            tags = dataset.startup_by_id[rnd.startup_id].tags
            for tag in tags:
                expected[tag] += len(rnd.investor_ids) / len(tags)
        totals = np.sum([p.vector.rounds_by_sector for p in profiles], axis=0)
        np.testing.assert_allclose(totals, [expected[t] for t in TAGS4], atol=1e-9)

    def test_stage_filter_restricts(self, tiny_dataset):
        seed_only = build_profiles(
            tiny_dataset,
            options=ProfileOptions(exclude_sectors=frozenset(),
                                   stage_filter=StageClass.SEED),
        )
        assert [(p.investor_id, p.year) for p in seed_only] == [("i1", 2010)]
        assert all(p.stage_filter is StageClass.SEED for p in seed_only)

    def test_exclude_modes(self, small_ontology):
        dataset = make_dataset(
            [make_startup("s1", ["Alpha", "Beta"])],
            [make_round("r1", "s1", 2010, ["i1"])],
            [make_investor("i1")],
            small_ontology,
        )
        dropped = build_profiles(
            dataset, options=ProfileOptions(exclude_sectors=frozenset({"Beta"})))
        assert dropped[0].vector.sectors == ("Alpha", "Gamma", "Delta")
        np.testing.assert_allclose(dropped[0].vector.rounds_by_sector, [0.5, 0, 0])

        zeroed = build_profiles(
            dataset, options=ProfileOptions(exclude_sectors=frozenset({"Beta"}),
                                            exclude_mode="zero"))
        assert zeroed[0].vector.sectors == TAGS4
        np.testing.assert_allclose(zeroed[0].vector.rounds_by_sector, [0.5, 0, 0, 0])

    def test_years_window(self, tiny_dataset):
        profiles = build_profiles(
            tiny_dataset,
            options=ProfileOptions(exclude_sectors=frozenset(), years=range(2010, 2011)),
        )
        assert {p.year for p in profiles} == {2010}
        with pytest.raises(AnalysisError, match="empty years"):
            build_profiles(tiny_dataset,
                           options=ProfileOptions(years=range(2010, 2010)))

    def test_strict_stage_raises_on_junk(self, small_ontology):
        dataset = make_dataset(
            [make_startup("s1", ["Alpha"])],
            [make_round("r1", "s1", 2010, ["i1"], stage="mystery")],
            [make_investor("i1")],
            small_ontology,
        )
        with pytest.raises(Exception, match="mystery"):
            build_profiles(dataset, options=ProfileOptions(strict_stage=True))

    def test_row_order_never_matters(self, tiny_dataset):
        reversed_dataset = ValidatedDataset(
            startups=tiny_dataset.startups[::-1],
            rounds=tiny_dataset.rounds[::-1],
            investors=tiny_dataset.investors[::-1],
            ontology=tiny_dataset.ontology,
        )
        a = build_profiles(tiny_dataset, options=NO_EXCLUDE)
        b = build_profiles(reversed_dataset, options=NO_EXCLUDE)
        assert [(p.investor_id, p.year) for p in a] == [(p.investor_id, p.year) for p in b]
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.vector.rounds_by_sector,
                                          pb.vector.rounds_by_sector)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_mass_conservation(data):
    """Total profile mass equals total (investor, round) participations."""
    ontology = make_ontology()
    n_startups = data.draw(st.integers(1, 8))
    startups = [
        make_startup(f"s{i}", data.draw(st.sets(st.sampled_from(TAGS4), min_size=1)))
        for i in range(n_startups)
    ]
    investors = [make_investor(f"i{j}") for j in range(4)]
    rounds = [
        make_round(
            f"r{k}",
            f"s{data.draw(st.integers(0, n_startups - 1))}",
            data.draw(st.integers(2005, 2015)),
            data.draw(st.sets(st.sampled_from([i.investor_id for i in investors]),
                              min_size=1)),
        )
        for k in range(data.draw(st.integers(1, 15)))
    ]
    dataset = make_dataset(startups, rounds, investors, ontology)
    profiles = build_profiles(dataset, options=NO_EXCLUDE)
    total = sum(p.vector.n_rounds for p in profiles)
    assert total == pytest.approx(sum(len(r.investor_ids) for r in rounds), abs=1e-9)


def reference_profiles(dataset, options):
    """Round-by-round accumulation, kept as the oracle for the array path."""
    ontology = dataset.ontology
    sectors = options.effective_sectors(ontology)
    sector_index = {tag: i for i, tag in enumerate(sectors)}
    acc = {}
    for rnd in dataset.rounds:
        year = rnd.announced_date.year
        if year not in options.years:
            continue
        if options.stage_filter is not None:
            stage = classify_stage(rnd.stage_label, strict=options.strict_stage)
            if stage is not options.stage_filter:
                continue
        elif options.strict_stage:
            classify_stage(rnd.stage_label, strict=True)
        parents, _ = ontology.resolve(dataset.startup_by_id[rnd.startup_id].tags)
        parents = sorted(parents)
        if not parents:
            continue
        k = len(parents)
        amount = rnd.amount_usd or 0.0
        participation = 1.0
        for investor_id in rnd.investor_ids:
            rounds_vec, amount_vec = acc.setdefault(
                (investor_id, year), (np.zeros(len(sectors)), np.zeros(len(sectors))))
            for tag in parents:
                idx = sector_index.get(tag)
                if idx is None:
                    continue
                if options.exclude_mode == "zero" and tag in options.exclude_sectors:
                    continue
                rounds_vec[idx] += participation / k
                amount_vec[idx] += participation * amount / k
    return [
        InvestorYearProfile(iid, year, options.stage_filter,
                            StrategyVector(sectors, *acc[(iid, year)]))
        for iid, year in sorted(acc) if acc[(iid, year)][0].sum() > 0
    ]


def assert_same_profiles(got, expected):
    assert [(p.investor_id, p.year, p.stage_filter) for p in got] == [
        (p.investor_id, p.year, p.stage_filter) for p in expected]
    for a, b in zip(got, expected):
        assert type(a.year) is int
        assert a.vector.sectors == b.vector.sectors
        assert a.vector.rounds_by_sector.tobytes() == b.vector.rounds_by_sector.tobytes()
        assert a.vector.amount_by_sector.tobytes() == b.vector.amount_by_sector.tobytes()


STAGE_LABELS = ["seed", "Series A", "series-b", "Series C", "series f", "pre-seed", "bridge"]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_slices_match_round_by_round_oracle(data):
    """Every view equals the round-by-round loop bit for bit."""
    ontology = make_ontology(child_map={"Platform": {"Alpha", "Gamma"}})
    tag_pool = list(TAGS4) + ["Platform", "Unknown"]  # "Unknown" has no parent
    n_startups = data.draw(st.integers(1, 6))
    startups = [make_startup(f"s{i}", data.draw(st.lists(st.sampled_from(tag_pool),
                                                         max_size=4)))
                for i in range(n_startups)]
    investor_ids = [f"i{j}" for j in range(4)]
    rounds = [
        make_round(
            f"r{k}", f"s{data.draw(st.integers(0, n_startups - 1))}",
            data.draw(st.integers(2005, 2012)),
            data.draw(st.lists(st.sampled_from(investor_ids), max_size=4)),
            stage=data.draw(st.sampled_from(STAGE_LABELS)),
            amount=data.draw(st.one_of(st.none(), st.floats(0, 1e9),
                                       st.sampled_from([1e6, 2.5e6, 123456.789]))),
        )
        for k in range(data.draw(st.integers(0, 30)))
    ]
    dataset = make_dataset(startups, rounds,
                           [make_investor(iid) for iid in investor_ids], ontology)
    first = data.draw(st.integers(2004, 2012))
    options = ProfileOptions(
        exclude_sectors=frozenset(data.draw(st.sets(st.sampled_from(
            list(TAGS4) + ["Nowhere"])))),
        exclude_mode=data.draw(st.sampled_from(["drop", "zero"])),
        stage_filter=data.draw(st.sampled_from([None, *StageClass])),
        years=range(first, data.draw(st.integers(first + 1, 2014))),
        strict_stage=data.draw(st.booleans()),
    )

    try:
        expected = reference_profiles(dataset, options)
    except StageError as exc:
        with pytest.raises(StageError, match=re.escape(str(exc))):
            build_profiles(dataset, options=options)
        return
    assert_same_profiles(build_profiles(dataset, options=options), expected)
    activity = SectorActivity.from_dataset(dataset)
    assert_same_profiles(build_profiles(activity, options=options), expected)
    parts = stage_partition(dataset, options=options)
    for stage in StageClass:
        assert_same_profiles(parts[stage], reference_profiles(
            dataset, replace(options, stage_filter=stage)))


def test_activity_rejects_another_ontology(tiny_dataset):
    activity = SectorActivity.from_dataset(tiny_dataset)
    with pytest.raises(AnalysisError, match="ontology"):
        build_profiles(activity, make_ontology(parent_tags=("Alpha", "Beta")))


def test_stage_partition_sums_to_unfiltered(tiny_dataset):
    unfiltered = build_profiles(tiny_dataset, options=NO_EXCLUDE)
    parts = stage_partition(tiny_dataset, options=NO_EXCLUDE)
    summed = {}
    for stage_profiles in parts.values():
        for p in stage_profiles:
            key = (p.investor_id, p.year)
            summed[key] = summed.get(key, 0) + p.vector.rounds_by_sector
    assert set(summed) == {(p.investor_id, p.year) for p in unfiltered}
    for p in unfiltered:
        np.testing.assert_allclose(
            summed[(p.investor_id, p.year)], p.vector.rounds_by_sector, atol=1e-9)


class TestGroupProfiles:
    def test_type_selector(self, tiny_dataset):
        profiles = build_profiles(tiny_dataset, options=NO_EXCLUDE)
        accel = group_profiles(profiles, GroupSpec(investor_type="accelerator"),
                               tiny_dataset.investor_by_id)
        assert {p.investor_id for p in accel} == {"i2"}

    def test_stage_selector_equals_filtered_build(self, tiny_dataset):
        parts = stage_partition(tiny_dataset, options=NO_EXCLUDE)
        pool = build_profiles(tiny_dataset, options=NO_EXCLUDE) + parts[StageClass.SEED]
        via_group = group_profiles(pool, GroupSpec(stage=StageClass.SEED))
        assert via_group == parts[StageClass.SEED]

    def test_unknown_label_rejected(self, tiny_dataset):
        profiles = build_profiles(tiny_dataset, options=NO_EXCLUDE)
        with pytest.raises(AnalysisError, match="sovereign_fund"):
            group_profiles(profiles, GroupSpec(investor_type="sovereign_fund"),
                           tiny_dataset.investor_by_id)
        with pytest.raises(AnalysisError, match="investor table"):
            group_profiles(profiles, GroupSpec(investor_type="vc"))

    def test_sizes_match_row_scan(self, tiny_dataset):
        profiles = build_profiles(tiny_dataset, options=NO_EXCLUDE)
        for type_label in ("vc", "accelerator"):
            got = group_profiles(profiles, GroupSpec(investor_type=type_label),
                                 tiny_dataset.investor_by_id)
            expected = [
                p for p in profiles
                if tiny_dataset.investor_by_id[p.investor_id].type_label == type_label
            ]
            assert got == expected

    def test_spec_is_exclusive(self):
        with pytest.raises(AnalysisError):
            GroupSpec(investor_type="vc", stage=StageClass.SEED)
        assert GroupSpec().label() == "all"
        assert GroupSpec(investor_type="vc").label() == "type:vc"
        assert GroupSpec(stage=StageClass.SEED).label() == "stage:seed"


def test_share_matrix_rows_sum_to_one(tiny_dataset):
    profiles = build_profiles(tiny_dataset, options=NO_EXCLUDE)
    matrix, labels = share_matrix(profiles)
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
    assert labels == [(p.investor_id, p.year) for p in profiles]
    with pytest.raises(AnalysisError):
        share_matrix([])
    idle = replace(profiles[0], vector=replace(profiles[0].vector,
                                               rounds_by_sector=np.zeros(len(TAGS4))))
    with pytest.raises(AnalysisError, match="all-zero strategy vector"):
        share_matrix(profiles + [idle])
