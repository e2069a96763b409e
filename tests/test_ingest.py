"""Loading, schema validation, filtering and stage classification."""
from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sectorspace.errors import IntegrityError, SchemaError, StageError
from sectorspace.ingest import (
    StageClass,
    StartupStatus,
    classify_stage,
    dump_dataset,
    filter_startups,
    load_dataset,
    validate_dataset,
)
from sectorspace.ontology import dump_ontology

from conftest import make_dataset, make_investor, make_round, make_startup

STARTUPS_HEADER = "startup_id,name,country_code,status,founded_date,tags\n"
ROUNDS_HEADER = "round_id,startup_id,announced_date,stage_label,amount_usd,investor_ids\n"
INVESTORS_HEADER = "investor_id,name,type_label\n"


def write_tables(tmp_path, startups, rounds, investors, ontology=None):
    paths = {
        "startups": tmp_path / "startups.csv",
        "rounds": tmp_path / "rounds.csv",
        "investors": tmp_path / "investors.csv",
    }
    paths["startups"].write_text(STARTUPS_HEADER + startups, encoding="utf-8")
    paths["rounds"].write_text(ROUNDS_HEADER + rounds, encoding="utf-8")
    paths["investors"].write_text(INVESTORS_HEADER + investors, encoding="utf-8")
    ontology_path = None
    if ontology is not None:
        ontology_path = tmp_path / "ontology.json"
        dump_ontology(ontology, ontology_path)
    return paths["startups"], paths["rounds"], paths["investors"], ontology_path


GOOD_STARTUPS = (
    "s1,One,USA,active,2005-01-10,Software\n"
    "s2,Two,USA,acquired,2010-03-04,Health Care|Software\n"
    "s3,Three,DEU,active,2008-07-07,Hardware\n"
)
GOOD_ROUNDS = (
    "r1,s1,2010-05-01,seed,500000,i1\n"
    "r2,s2,2011-06-01,series a,1500000,i1|i2\n"
    "r3,s3,2012-07-01,series b,,i2\n"
)
GOOD_INVESTORS = "i1,Fund A,vc\ni2,Prog B,accelerator\n"


class TestClassifyStage:
    def test_seed(self):
        assert classify_stage("seed") is StageClass.SEED

    def test_series_f_aggregates(self):
        assert classify_stage("Series F") is StageClass.SERIES_C_PLUS

    def test_punctuation_and_case_variants(self):
        for label in ("Series-A", "series_a", "SERIES A", " series.a "):
            assert classify_stage(label) is StageClass.SERIES_A
        assert classify_stage("series b") is StageClass.SERIES_B
        assert classify_stage("Series C") is StageClass.SERIES_C_PLUS

    def test_unknown_strict_raises(self):
        with pytest.raises(StageError, match="pre-seed"):
            classify_stage("pre-seed", strict=True)

    def test_unknown_lenient_falls_back(self):
        assert classify_stage("pre-seed") is None
        assert classify_stage("pre-seed", default=StageClass.SEED) is StageClass.SEED


class TestLoadDataset:
    def test_well_formed_fixture_counts(self, tmp_path):
        dataset = load_dataset(*write_tables(
            tmp_path, GOOD_STARTUPS, GOOD_ROUNDS, GOOD_INVESTORS)[:3])
        assert dataset.counts == {
            "startups": 3, "rounds": 3, "investors": 2, "sectors": 28,
        }
        assert dataset.rounds[2].amount_usd is None
        assert dataset.rounds[1].investor_ids == ("i1", "i2")

    def test_dangling_startup_key(self, tmp_path):
        rounds = GOOD_ROUNDS + "r4,ghost,2013-01-01,seed,1,i1\n"
        with pytest.raises(IntegrityError, match="'r4'"):
            load_dataset(*write_tables(tmp_path, GOOD_STARTUPS, rounds, GOOD_INVESTORS)[:3])

    def test_dangling_investor_key(self, tmp_path):
        rounds = GOOD_ROUNDS + "r4,s1,2013-01-01,seed,1,nobody\n"
        with pytest.raises(IntegrityError, match="'nobody'"):
            load_dataset(*write_tables(tmp_path, GOOD_STARTUPS, rounds, GOOD_INVESTORS)[:3])

    def test_duplicate_ids(self, tmp_path):
        with pytest.raises(SchemaError, match="duplicate startup_id"):
            load_dataset(*write_tables(
                tmp_path, GOOD_STARTUPS + GOOD_STARTUPS, GOOD_ROUNDS, GOOD_INVESTORS)[:3])

    def test_missing_column(self, tmp_path):
        good = write_tables(tmp_path, GOOD_STARTUPS, GOOD_ROUNDS, GOOD_INVESTORS)
        bad = tmp_path / "bad_startups.csv"
        bad.write_text("startup_id,name\ns1,One\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="missing columns"):
            load_dataset(bad, good[1], good[2])

    def test_unparsable_date_reports_row(self, tmp_path):
        startups = GOOD_STARTUPS.replace("2005-01-10", "Jan 2005")
        with pytest.raises(SchemaError, match=":2"):
            load_dataset(*write_tables(tmp_path, startups, GOOD_ROUNDS, GOOD_INVESTORS)[:3])

    def test_bad_amount(self, tmp_path):
        for amount in ("lots", "-5"):
            rounds = GOOD_ROUNDS.replace("500000", amount)
            with pytest.raises(SchemaError):
                load_dataset(*write_tables(
                    tmp_path, GOOD_STARTUPS, rounds, GOOD_INVESTORS)[:3])

    def test_unknown_status_and_type(self, tmp_path):
        with pytest.raises(SchemaError, match="status"):
            load_dataset(*write_tables(
                tmp_path, GOOD_STARTUPS.replace("active", "zombie", 1),
                GOOD_ROUNDS, GOOD_INVESTORS)[:3])
        with pytest.raises(SchemaError, match="investor type"):
            load_dataset(*write_tables(
                tmp_path, GOOD_STARTUPS, GOOD_ROUNDS,
                GOOD_INVESTORS.replace("vc", "hedge_fund", 1))[:3])

    def test_empty_file(self, tmp_path):
        good = write_tables(tmp_path, GOOD_STARTUPS, GOOD_ROUNDS, GOOD_INVESTORS)
        empty = tmp_path / "empty_startups.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError, match="empty file"):
            load_dataset(empty, good[1], good[2])

    def test_blank_lines_skipped_and_not_numbered(self, tmp_path):
        rounds = "\n" + GOOD_ROUNDS.replace("\n", "\n\n", 1)
        paths = write_tables(tmp_path, GOOD_STARTUPS, rounds, GOOD_INVESTORS)[:3]
        assert [r.round_id for r in load_dataset(*paths).rounds] == ["r1", "r2", "r3"]
        short = rounds + "\nr4,s1,2013-01-01\n"
        paths = write_tables(tmp_path, GOOD_STARTUPS, short, GOOD_INVESTORS)[:3]
        with pytest.raises(SchemaError, match=r"rounds\.csv:5: short row"):
            load_dataset(*paths)

    def test_columns_in_any_order(self, tmp_path):
        paths = write_tables(tmp_path, GOOD_STARTUPS, GOOD_ROUNDS, GOOD_INVESTORS)
        paths[2].write_text("type_label,extra,investor_id,name\n"
                            "vc,x,i1,Fund A\naccelerator,y,i2,Prog B\n", encoding="utf-8")
        dataset = load_dataset(*paths[:3])
        assert [(i.investor_id, i.name, i.type_label) for i in dataset.investors] == [
            ("i1", "Fund A", "vc"), ("i2", "Prog B", "accelerator")]

    def test_explicit_ontology(self, tmp_path, small_ontology):
        paths = write_tables(
            tmp_path,
            "s1,One,USA,active,2005-01-10,Alpha\n",
            "r1,s1,2010-05-01,seed,1,i1\n",
            "i1,A,vc\n",
            ontology=small_ontology,
        )
        dataset = load_dataset(*paths)
        assert dataset.ontology.parent_tags == small_ontology.parent_tags


class TestRoundTrip:
    def test_load_dump_load_identical(self, tmp_path):
        # comma in a name exercises RFC-4180 quoting
        startups = GOOD_STARTUPS + 's4,"Four, Inc.",USA,ipo,2011-11-11,Software\n'
        rounds = GOOD_ROUNDS + "r4,s4,2013-02-02,series c,2500000.5,i1\n"
        first = load_dataset(*write_tables(tmp_path, startups, rounds, GOOD_INVESTORS)[:3])
        paths = dump_dataset(first, tmp_path / "echo")
        second = load_dataset(paths["startups"], paths["rounds"],
                              paths["investors"], paths["ontology"])
        assert second.startups == first.startups
        assert second.rounds == first.rounds
        assert second.investors == first.investors

        again = dump_dataset(second, tmp_path / "echo2")
        for key in ("startups", "rounds", "investors", "ontology"):
            assert again[key].read_bytes() == paths[key].read_bytes()


class TestFilterStartups:
    def test_founded_boundary_is_strict(self):
        inv = [make_investor("i1")]
        boundary = make_dataset(
            [make_startup("s1", ["Alpha"], founded=dt.date(1999, 12, 31)),
             make_startup("s2", ["Alpha"], founded=dt.date(2000, 1, 1)),
             make_startup("s3", ["Alpha"], founded=dt.date(2000, 1, 2))],
            [make_round(f"r{i}", f"s{i}", 2010, ["i1"]) for i in (1, 2, 3)],
            inv,
        )
        kept = filter_startups(boundary)
        assert [s.startup_id for s in kept.startups] == ["s3"]

    def test_predicates(self):
        inv = [make_investor("i1")]
        dataset = make_dataset(
            [make_startup("ok", ["Alpha"]),
             make_startup("abroad", ["Alpha"], country="GBR"),
             make_startup("dead", ["Alpha"], status=StartupStatus.CLOSED),
             make_startup("unfunded", ["Alpha"]),
             make_startup("exited", ["Alpha"], status=StartupStatus.IPO)],
            [make_round("r1", "ok", 2010, ["i1"]),
             make_round("r2", "abroad", 2010, ["i1"]),
             make_round("r3", "dead", 2011, ["i1"]),
             make_round("r4", "exited", 2012, ["i1"])],
            inv,
        )
        kept = filter_startups(dataset)
        assert {s.startup_id for s in kept.startups} == {"ok", "exited"}
        assert {r.round_id for r in kept.rounds} == {"r1", "r4"}

    @given(st.data())
    def test_matches_brute_force_row_scan(self, data):
        n = data.draw(st.integers(2, 25))
        statuses = list(StartupStatus)
        startups, rounds = [], []
        for i in range(n):
            startups.append(make_startup(
                f"s{i}",
                ["Alpha"],
                country=data.draw(st.sampled_from(["USA", "GBR"])),
                status=data.draw(st.sampled_from(statuses)),
                founded=dt.date(data.draw(st.integers(1998, 2012)), 6, 1),
            ))
            if data.draw(st.booleans()):
                rounds.append(make_round(f"r{i}", f"s{i}", 2013, ["i1"]))
        dataset = make_dataset(startups, rounds, [make_investor("i1")])
        kept = filter_startups(dataset)

        funded = {r.startup_id for r in rounds}
        expected = [
            s.startup_id for s in startups
            if s.country_code == "USA"
            and s.status is not StartupStatus.CLOSED
            and s.founded_date > dt.date(2000, 1, 1)
            and s.startup_id in funded
        ]
        assert [s.startup_id for s in kept.startups] == expected

        twice = filter_startups(kept)
        assert twice.startups == kept.startups
        assert twice.rounds == kept.rounds


class TestValidateDataset:
    def test_warning_catalogue(self, small_ontology):
        dataset = make_dataset(
            [make_startup("s1", []),
             make_startup("s2", ["Alpha", "mystery-tag"])],
            [make_round("r1", "s2", 2010, ["i1"], stage="pre-seed")],
            [make_investor("i1")],
            small_ontology,
        )
        warnings = validate_dataset(dataset)
        assert len(warnings) == 3
        assert any("no tags" in w for w in warnings)
        assert any("mystery-tag" in w for w in warnings)
        assert any("pre-seed" in w for w in warnings)

    def test_clean_dataset_is_silent(self, tiny_dataset):
        assert validate_dataset(tiny_dataset) == []
