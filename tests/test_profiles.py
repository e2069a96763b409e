"""Profile-table construction: splitting, aggregation, grouping."""
from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorspace.errors import AnalysisError
from sectorspace.ingest import StageClass, classify_stage
from sectorspace.profiles import (
    STAGE_SLOTS,
    GroupSpec,
    ProfileOptions,
    ProfileTable,
    SectorActivity,
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
    rows,
    tiny_tables,
)

NO_EXCLUDE = ProfileOptions(exclude_sectors=frozenset())


@pytest.fixture
def tiny_activity(tiny_dataset):
    return SectorActivity.from_dataset(tiny_dataset)


class TestSplitRound:
    def test_two_parents_half_each(self):
        shares = split_round("r1", 500_000.0, {"Alpha", "Beta"})
        assert shares == [("Alpha", 0.5, 250_000.0), ("Beta", 0.5, 250_000.0)]

    def test_three_parents_sums_back(self):
        shares = split_round("r1", 300_000.0, {"Alpha", "Beta", "Gamma"})
        assert all(w == pytest.approx(1 / 3) for _, w, _ in shares)
        assert sum(w for _, w, _ in shares) == pytest.approx(1.0, abs=1e-9)
        assert sum(a for _, _, a in shares) == pytest.approx(300_000.0, abs=1e-6)

    def test_empty_parent_set_routes_to_sink(self, caplog):
        with caplog.at_level("WARNING"):
            assert split_round("r1", 1e6, set()) == []
        assert "r1" in caplog.text

    def test_unknown_amount_counts_rounds_only(self):
        assert split_round("r1", math.nan, {"Alpha"}) == [("Alpha", 1.0, 0.0)]


class TestBuildProfiles:
    def test_single_two_parent_round(self, small_ontology):
        dataset = make_dataset(
            [make_startup("s1", ["Alpha", "Beta"])],
            [make_round("r1", "s1", 2010, ["i1"])],
            [make_investor("i1")],
            small_ontology,
        )
        profiles = build_profiles(SectorActivity.from_dataset(dataset), options=NO_EXCLUDE)
        assert len(profiles) == 1
        assert labels(profiles) == [("i1", 2010)]
        assert profiles.sectors == TAGS4
        np.testing.assert_allclose(profiles.rounds[0], [0.5, 0.5, 0, 0])

    def test_inactive_years_are_absent(self, small_ontology):
        dataset = make_dataset(
            [make_startup("s1", ["Alpha"])],
            [make_round("r1", "s1", 2010, ["i1"]),
             make_round("r2", "s1", 2012, ["i1"])],
            [make_investor("i1")],
            small_ontology,
        )
        profiles = build_profiles(SectorActivity.from_dataset(dataset), options=NO_EXCLUDE)
        assert labels(profiles) == [("i1", 2010), ("i1", 2012)]

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
        profiles = build_profiles(SectorActivity.from_dataset(dataset), options=NO_EXCLUDE)

        tags_of = {startup.startup_id: startup.tags for startup in startups}
        expected = dict.fromkeys(TAGS4, 0.0)
        for rnd in rounds:
            tags = tags_of[rnd.startup_id]
            for tag in tags:
                expected[tag] += len(rnd.investor_ids) / len(tags)
        totals = np.zeros(len(TAGS4))
        for counts in profiles.rounds:
            totals += counts
        np.testing.assert_allclose(totals, [expected[t] for t in TAGS4], atol=1e-9)

    def test_stage_filter_restricts(self, tiny_activity):
        seed_only = build_profiles(
            tiny_activity,
            options=ProfileOptions(exclude_sectors=frozenset(),
                                   stage_filter=StageClass.SEED),
        )
        assert labels(seed_only) == [("i1", 2010)]
        assert seed_only.slots.tolist() == [STAGE_SLOTS[StageClass.SEED]]

    def test_exclude_modes(self, small_ontology):
        """An excluded sector's dimension is dropped; its share of the split is lost."""
        dataset = make_dataset(
            [make_startup("s1", ["Alpha", "Beta"])],
            [make_round("r1", "s1", 2010, ["i1"])],
            [make_investor("i1")],
            small_ontology,
        )
        dropped = build_profiles(SectorActivity.from_dataset(dataset),
                                 options=ProfileOptions(exclude_sectors=frozenset({"Beta"})))
        assert dropped.sectors == ("Alpha", "Gamma", "Delta")
        np.testing.assert_allclose(dropped.rounds[0], [0.5, 0, 0])

    def test_years_window(self, tiny_activity):
        profiles = build_profiles(
            tiny_activity,
            options=ProfileOptions(exclude_sectors=frozenset(), years=range(2010, 2011)),
        )
        assert set(profiles.years.tolist()) == {2010}
        with pytest.raises(AnalysisError, match="empty years"):
            build_profiles(tiny_activity,
                           options=ProfileOptions(years=range(2010, 2010)))

    def test_row_order_never_matters(self, tiny_dataset, tiny_activity):
        reversed_dataset = make_dataset(*(table[::-1] for table in tiny_tables()),
                                        tiny_dataset.ontology)
        a = build_profiles(tiny_activity, options=NO_EXCLUDE)
        b = build_profiles(SectorActivity.from_dataset(reversed_dataset), options=NO_EXCLUDE)
        assert_same_profiles(a, b)


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
    profiles = build_profiles(SectorActivity.from_dataset(dataset), options=NO_EXCLUDE)
    total = sum(float(counts.sum()) for counts in profiles.rounds)
    assert total == pytest.approx(sum(len(r.investor_ids) for r in rounds), abs=1e-9)


def reference_profiles(dataset, options):
    """Round-by-round accumulation, kept as the oracle for the array path."""
    ontology = dataset.ontology
    sectors = options.effective_sectors(ontology)
    sector_index = {tag: i for i, tag in enumerate(sectors)}
    startup_by_id = {startup.startup_id: startup for startup in rows(dataset.startups)}
    acc = {}
    for rnd in rows(dataset.rounds):
        year = rnd.announced_date.year
        if year not in options.years:
            continue
        if (options.stage_filter is not None
                and classify_stage(rnd.stage_label) is not options.stage_filter):
            continue
        parents, _ = ontology.resolve(startup_by_id[rnd.startup_id].tags)
        parents = sorted(parents)
        if not parents:
            continue
        k = len(parents)
        amount = rnd.amount_usd or 0.0
        for investor_id in rnd.investor_ids:
            rounds_vec, amount_vec = acc.setdefault(
                (investor_id, year), (np.zeros(len(sectors)), np.zeros(len(sectors))))
            for tag in parents:
                idx = sector_index.get(tag)
                if idx is None:
                    continue
                rounds_vec[idx] += 1.0 / k
                amount_vec[idx] += amount / k
    keys = [key for key in sorted(acc) if acc[key][0].sum() > 0]
    return ProfileTable(
        sectors=sectors,
        investor_ids=np.array([iid for iid, _ in keys], dtype=str),
        years=np.array([year for _, year in keys], dtype=int),
        slots=np.full(len(keys), STAGE_SLOTS[options.stage_filter]),
        rounds=np.array([acc[key][0] for key in keys]).reshape(len(keys), len(sectors)),
        amounts=np.array([acc[key][1] for key in keys]).reshape(len(keys), len(sectors)),
    )


def labels(profiles):
    return list(zip(profiles.investor_ids.tolist(), profiles.years.tolist()))


def assert_same_profiles(got, expected):
    """Same rows in the same order, every count and amount bit for bit."""
    assert got.sectors == expected.sectors
    assert labels(got) == labels(expected)
    assert got.years.dtype.kind == "i"
    assert got.slots.tolist() == expected.slots.tolist()
    for name in ("rounds", "amounts"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


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
            data.draw(st.lists(st.sampled_from(investor_ids), max_size=4, unique=True)),
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
        stage_filter=data.draw(st.sampled_from([None, *StageClass])),
        years=range(first, data.draw(st.integers(first + 1, 2014))),
    )

    activity = SectorActivity.from_dataset(dataset)
    assert_same_profiles(build_profiles(activity, options=options),
                         reference_profiles(dataset, options))
    parts = stage_partition(activity, options=options)
    for stage in StageClass:
        assert_same_profiles(parts[stage], reference_profiles(
            dataset, replace(options, stage_filter=stage)))


def test_stage_partition_sums_to_unfiltered(tiny_activity):
    unfiltered = build_profiles(tiny_activity, options=NO_EXCLUDE)
    parts = stage_partition(tiny_activity, options=NO_EXCLUDE)
    summed = {}
    for stage_profiles in parts.values():
        for key, counts in zip(labels(stage_profiles), stage_profiles.rounds):
            summed[key] = summed.get(key, 0) + counts
    assert set(summed) == set(labels(unfiltered))
    for key, counts in zip(labels(unfiltered), unfiltered.rounds):
        np.testing.assert_allclose(summed[key], counts, atol=1e-9)


class TestGroupProfiles:
    def test_type_selector(self, tiny_dataset, tiny_activity):
        profiles = build_profiles(tiny_activity, options=NO_EXCLUDE)
        accel = group_profiles(profiles, GroupSpec(investor_type="accelerator"),
                               tiny_dataset.investor_by_id)
        assert set(accel.investor_ids.tolist()) == {"i2"}

    def test_stage_selector_equals_filtered_build(self, tiny_activity):
        parts = stage_partition(tiny_activity, options=NO_EXCLUDE)
        pool = ProfileTable.concat([build_profiles(tiny_activity, options=NO_EXCLUDE),
                                    parts[StageClass.SEED]])
        via_group = group_profiles(pool, GroupSpec(stage=StageClass.SEED))
        assert_same_profiles(via_group, parts[StageClass.SEED])

    def test_unknown_label_rejected(self, tiny_dataset, tiny_activity):
        profiles = build_profiles(tiny_activity, options=NO_EXCLUDE)
        with pytest.raises(AnalysisError, match="sovereign_fund"):
            group_profiles(profiles, GroupSpec(investor_type="sovereign_fund"),
                           tiny_dataset.investor_by_id)
        with pytest.raises(AnalysisError, match="investor table"):
            group_profiles(profiles, GroupSpec(investor_type="vc"))

    def test_sizes_match_row_scan(self, tiny_dataset, tiny_activity):
        # stage rows in the pool never match a type selector
        profiles = ProfileTable.concat([
            build_profiles(tiny_activity, options=NO_EXCLUDE),
            *stage_partition(tiny_activity, options=NO_EXCLUDE).values()])
        for type_label in ("vc", "accelerator"):
            got = group_profiles(profiles, GroupSpec(investor_type=type_label),
                                 tiny_dataset.investor_by_id)
            expected = [
                row for row, (iid, slot) in enumerate(zip(profiles.investor_ids.tolist(),
                                                          profiles.slots.tolist()))
                if slot == 0 and tiny_dataset.investor_by_id[iid].type_label == type_label
            ]
            assert 0 < len(expected) < len(profiles)
            assert_same_profiles(got, profiles.take(expected))

    def test_spec_is_exclusive(self):
        with pytest.raises(AnalysisError):
            GroupSpec(investor_type="vc", stage=StageClass.SEED)
        assert GroupSpec().label() == "all"
        assert GroupSpec(investor_type="vc").label() == "type:vc"
        assert GroupSpec(stage=StageClass.SEED).label() == "stage:seed"


def test_share_matrix_rows_sum_to_one(tiny_activity):
    profiles = build_profiles(tiny_activity, options=NO_EXCLUDE)
    matrix = share_matrix(profiles)
    assert matrix.shape == profiles.rounds.shape
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(AnalysisError):
        share_matrix(profiles.take(slice(0, 0)))
    idle = replace(profiles.take([0]), rounds=np.zeros((1, len(TAGS4))))
    with pytest.raises(AnalysisError, match="all-zero strategy vector"):
        share_matrix(ProfileTable.concat([profiles, idle]))
