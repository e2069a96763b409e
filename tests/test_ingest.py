"""Loading, schema validation, filtering and stage classification."""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sectorspace import cli
from sectorspace.errors import IntegrityError, SchemaError
from sectorspace.ingest import (
    INVESTOR_COLUMNS,
    INVESTOR_TYPES,
    ROUND_COLUMNS,
    STARTUP_COLUMNS,
    RawInvestor,
    StageClass,
    StartupStatus,
    _read_columns,
    classify_stage,
    dump_dataset,
    filter_startups,
    load_dataset,
    validate_dataset,
)
from sectorspace.ontology import dump_ontology
from sectorspace.profiles import SectorActivity

from conftest import (
    RoundRow,
    StartupRow,
    make_dataset,
    make_investor,
    make_round,
    make_startup,
    rows,
)

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

    def test_unknown_lenient_falls_back(self):
        assert classify_stage("pre-seed") is None


class TestLoadDataset:
    def test_well_formed_fixture_counts(self, tmp_path):
        dataset = load_dataset(*write_tables(
            tmp_path, GOOD_STARTUPS, GOOD_ROUNDS, GOOD_INVESTORS)[:3])
        assert dataset.counts == {
            "startups": 3, "rounds": 3, "investors": 2, "sectors": 28,
        }
        assert rows(dataset.rounds)[2].amount_usd is None
        assert rows(dataset.rounds)[1].investor_ids == ("i1", "i2")

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

    @staticmethod
    def _append_column(path, column, cell):
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(f"{header},{column}\n" + "".join(f"{line},{cell}\n" for line in lines),
                        encoding="utf-8")

    @pytest.mark.parametrize("table, column, cell", [
        (0, "status", "closed"), (1, "amount_usd", "1"), (2, "type_label", "angel")])
    def test_repeated_column_is_refused(self, tmp_path, table, column, cell):
        """A second copy of a column the loader reads would otherwise win silently."""
        paths = write_tables(tmp_path, GOOD_STARTUPS, GOOD_ROUNDS, GOOD_INVESTORS)[:3]
        self._append_column(paths[table], column, cell)
        with pytest.raises(SchemaError, match=rf"{paths[table].name}: repeated columns "
                                              rf"\['{column}'\]"):
            load_dataset(*paths)

    def test_repeated_unread_column_loads(self, tmp_path):
        paths = write_tables(tmp_path, GOOD_STARTUPS, GOOD_ROUNDS, GOOD_INVESTORS)[:3]
        expected = load_dataset(*paths)
        for path in paths:
            self._append_column(path, "notes", "x")
            self._append_column(path, "notes", "y")
        loaded = load_dataset(*paths)
        assert rows(loaded.startups) == rows(expected.startups)
        assert rows(loaded.rounds) == rows(expected.rounds)
        assert list(loaded.investors) == list(expected.investors)

    def test_unparsable_date_reports_row(self, tmp_path):
        startups = GOOD_STARTUPS.replace("2005-01-10", "Jan 2005")
        with pytest.raises(SchemaError, match=":2"):
            load_dataset(*write_tables(tmp_path, startups, GOOD_ROUNDS, GOOD_INVESTORS)[:3])

    @pytest.mark.parametrize("cell", ["20050110", "2005-W02-1", " 2005W021 "])
    def test_only_dashed_calendar_dates_parse(self, tmp_path, cell):
        """``date.fromisoformat`` reads these from Python 3.11 on; the loader never does."""
        startups = GOOD_STARTUPS.replace("2005-01-10", cell)
        rounds = GOOD_ROUNDS.replace("2011-06-01", cell)
        for tables, where in (((startups, GOOD_ROUNDS), "startups.csv:2"),
                              ((GOOD_STARTUPS, rounds), "rounds.csv:3")):
            paths = write_tables(tmp_path, *tables, GOOD_INVESTORS)[:3]
            with pytest.raises(SchemaError) as caught:
                load_dataset(*paths)
            assert str(caught.value) == f"{tmp_path / where}: unparsable date {cell!r}"

    def test_bad_amount(self, tmp_path):
        for amount in ("lots", "-5"):
            rounds = GOOD_ROUNDS.replace("500000", amount)
            with pytest.raises(SchemaError):
                load_dataset(*write_tables(
                    tmp_path, GOOD_STARTUPS, rounds, GOOD_INVESTORS)[:3])

    @pytest.mark.parametrize("cell, amount", [
        (" 1.5e6 ", 1.5e6), ("1e3", 1000.0), ("1_000", 1000.0), ("-0", -0.0),
        ("\x1c7\x1f", 7.0), ("\u3000 2.5\x85", 2.5), ("", None), (" \x1c ", None)])
    def test_amount_cells(self, tmp_path, cell, amount):
        """Padding is whatever ``str.strip`` strips; blank is unknown."""
        rounds = GOOD_ROUNDS.replace(",500000,", f",{cell},")
        loaded = load_dataset(*write_tables(tmp_path, GOOD_STARTUPS, rounds, GOOD_INVESTORS)[:3])
        assert rows(loaded.rounds)[0].amount_usd == amount

    @pytest.mark.parametrize("amount", ["nan", "inf", "-inf", " NaN ", "1e400"])
    def test_non_finite_amount(self, tmp_path, amount):
        rounds = GOOD_ROUNDS.replace("500000", amount)
        with pytest.raises(SchemaError,
                           match=rf"rounds\.csv:2: unparsable amount '{amount.strip()}'"):
            load_dataset(*write_tables(tmp_path, GOOD_STARTUPS, rounds, GOOD_INVESTORS)[:3])

    def test_investor_listed_twice(self, tmp_path):
        rounds = GOOD_ROUNDS.replace("i1|i2", "i1| i2 |i1")
        with pytest.raises(SchemaError, match=r"rounds\.csv:3: investor 'i1' listed twice"):
            load_dataset(*write_tables(tmp_path, GOOD_STARTUPS, rounds, GOOD_INVESTORS)[:3])

    def test_first_bad_row_wins(self, tmp_path):
        # row 3 has a bad date, row 4 a bad status: the earlier row is reported
        startups = (GOOD_STARTUPS.replace("2010-03-04", "someday")
                    .replace("DEU,active", "DEU,zombie"))
        with pytest.raises(SchemaError, match=r"startups\.csv:3: unparsable date"):
            load_dataset(*write_tables(tmp_path, startups, GOOD_ROUNDS, GOOD_INVESTORS)[:3])
        # within a row, the status is checked before the date
        startups = GOOD_STARTUPS.replace("DEU,active,2008-07-07", "DEU,zombie,someday")
        with pytest.raises(SchemaError, match=r"startups\.csv:4: unknown status 'zombie'"):
            load_dataset(*write_tables(tmp_path, startups, GOOD_ROUNDS, GOOD_INVESTORS)[:3])
        # a bad row before a short row is reported first
        rounds = GOOD_ROUNDS.replace("2010-05-01", "2010-13-01") + "r4,s1\n"
        with pytest.raises(SchemaError, match=r"rounds\.csv:2: unparsable date"):
            load_dataset(*write_tables(tmp_path, GOOD_STARTUPS, rounds, GOOD_INVESTORS)[:3])

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
        assert load_dataset(*paths).rounds.ids == ("r1", "r2", "r3")
        short = rounds + "\nr4,s1,2013-01-01\n"
        paths = write_tables(tmp_path, GOOD_STARTUPS, short, GOOD_INVESTORS)[:3]
        with pytest.raises(SchemaError, match=r"rounds\.csv:5: short row"):
            load_dataset(*paths)

    def test_byte_order_mark_is_skipped(self, tmp_path, small_ontology):
        startups = GOOD_STARTUPS.replace("Software", "Alpha").replace("Health Care", "Beta")
        paths = write_tables(tmp_path, startups, GOOD_ROUNDS, GOOD_INVESTORS, small_ontology)
        plain = load_dataset(*paths)
        for path in paths:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = load_dataset(*paths)
        assert rows(marked.startups) == rows(plain.startups)
        assert rows(marked.rounds) == rows(plain.rounds)
        assert marked.investors == plain.investors
        assert marked.ontology == plain.ontology

    def test_non_utf8_bytes_exit_with_error_line(self, tmp_path, capsys):
        paths = write_tables(tmp_path, GOOD_STARTUPS, GOOD_ROUNDS, GOOD_INVESTORS)
        paths[0].write_bytes(paths[0].read_bytes().replace(b"Two", b"Tw\xe9"))
        code = cli.main(["validate", "--startups", str(paths[0]), "--rounds", str(paths[1]),
                         "--investors", str(paths[2])])
        assert code == 1
        assert capsys.readouterr().err == f"error: {paths[0]}: not UTF-8 text\n"

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


def test_encoded_columns_hold_the_plain_cells(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("id,stage,amount\n"
                    "r1, Seed ,1\n"
                    "\n"
                    "r2,seed,2\n"
                    "r3,Seed ,3\n"
                    "r4, Seed ,4\n"
                    "r5\n"
                    "r6,seed,5\n", encoding="utf-8")
    columns = ["id", "stage", "amount"]
    plain, short_row = _read_columns(path, columns)
    coded, coded_short_row = _read_columns(path, columns, ("stage", "amount"))
    assert short_row == coded_short_row == 4
    assert coded[0] == plain[0] == ["r1", "r2", "r3", "r4"]
    for column, cells in zip(coded[1:], plain[1:]):
        assert [column[row] for row in range(len(cells))] == cells
        assert len(column.codes) == len(cells)
    stage = coded[1]
    assert stage.values == (" Seed ", "seed", "Seed ")
    stripped = stage.convert(str.strip)
    assert stripped.values == ("Seed", "seed")
    assert stripped.codes.tolist() == [0, 1, 0, 0]


class TestRoundTrip:
    def test_load_dump_load_identical(self, tmp_path):
        # comma in a name exercises RFC-4180 quoting
        startups = GOOD_STARTUPS + 's4,"Four, Inc.",USA,ipo,2011-11-11,Software\n'
        rounds = GOOD_ROUNDS + "r4,s4,2013-02-02,series c,2500000.5,i1\n"
        first = load_dataset(*write_tables(tmp_path, startups, rounds, GOOD_INVESTORS)[:3])
        paths = dump_dataset(first, tmp_path / "echo")
        second = load_dataset(paths["startups"], paths["rounds"],
                              paths["investors"], paths["ontology"])
        assert rows(second.startups) == rows(first.startups)
        assert rows(second.rounds) == rows(first.rounds)
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
        assert kept.startups.ids == ("s3",)

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
        assert set(kept.startups.ids) == {"ok", "exited"}
        assert set(kept.rounds.ids) == {"r1", "r4"}

    @given(st.data())
    def test_matches_brute_force_row_scan(self, data):
        n = data.draw(st.integers(2, 25))
        statuses = list(StartupStatus)
        pool = ["i0", "i1", "i2", "i3"]
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
                members = data.draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
                rounds.append(make_round(f"r{i}", f"s{i}", 2013, members))
        dataset = make_dataset(startups, rounds, [make_investor(iid) for iid in pool])
        kept = filter_startups(dataset)

        funded = {r.startup_id for r in rounds}
        expected = [
            s.startup_id for s in startups
            if s.country_code == "USA"
            and s.status is not StartupStatus.CLOSED
            and s.founded_date > dt.date(2000, 1, 1)
            and s.startup_id in funded
        ]
        assert list(kept.startups.ids) == expected
        kept_rounds = [r for r in rounds if r.startup_id in expected]
        assert rows(kept.rounds) == kept_rounds
        # every stored investor tuple belongs to a kept round
        investors = kept.rounds.investors
        assert set(investors.codes.tolist()) == set(range(len(investors.values)))
        assert SectorActivity.from_dataset(kept).investor_ids == tuple(
            sorted({iid for r in kept_rounds for iid in r.investor_ids}))

        twice = filter_startups(kept)
        assert rows(twice.startups) == rows(kept.startups)
        assert rows(twice.rounds) == rows(kept.rounds)


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


# ---------------------------------------------------------------------------
# oracle: the row-by-row loader the columnar one replaced


def _reference_rows(path, columns):
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        position = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in position]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        picks = [position[c] for c in columns]
        row_no = 1
        for row in reader:
            if not row:
                continue
            row_no += 1
            if len(row) < max(picks) + 1:
                raise SchemaError(f"{path}:{row_no}: short row")
            yield row_no, [row[i] for i in picks]


def _reference_date(text, where):
    """Only ``YYYY-MM-DD`` (ASCII digits), after a strip, on every Python version."""
    parts = text.strip().split("-")
    try:
        if [len(part) for part in parts] != [4, 2, 2] or not all(
                part.isascii() and part.isdigit() for part in parts):
            raise ValueError
        return dt.date(*map(int, parts))
    except ValueError:
        raise SchemaError(f"{where}: unparsable date {text!r}") from None


def _reference_amount(text, where):
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"{where}: unparsable amount {text!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}: unparsable amount {text!r}")
    if value < 0:
        raise SchemaError(f"{where}: negative amount {value}")
    return value


def _reference_list(text):
    return tuple(part for part in (p.strip() for p in text.split("|")) if part)


def reference_load(startups_path, rounds_path, investors_path):
    """Row-by-row loader: one record per row, checks in row order.

    Beyond the loader it replaced, it rejects non-finite amounts and a
    round that lists one investor twice.
    """
    startups, seen_startups = [], set()
    for row_no, (sid, name, country, status, founded, tags) in _reference_rows(
            startups_path, STARTUP_COLUMNS):
        where = f"{startups_path}:{row_no}"
        sid = sid.strip()
        if not sid:
            raise SchemaError(f"{where}: empty startup_id")
        if sid in seen_startups:
            raise SchemaError(f"{where}: duplicate startup_id {sid!r}")
        seen_startups.add(sid)
        try:
            status_class = StartupStatus(status.strip().lower())
        except ValueError:
            raise SchemaError(f"{where}: unknown status {status!r}") from None
        startups.append(StartupRow(sid, name, country.strip(), status_class,
                                   _reference_date(founded, where), _reference_list(tags)))

    investors, seen_investors = [], set()
    for row_no, (iid, name, type_text) in _reference_rows(investors_path, INVESTOR_COLUMNS):
        where = f"{investors_path}:{row_no}"
        iid = iid.strip()
        if not iid:
            raise SchemaError(f"{where}: empty investor_id")
        if iid in seen_investors:
            raise SchemaError(f"{where}: duplicate investor_id {iid!r}")
        seen_investors.add(iid)
        type_label = type_text.strip().lower()
        if type_label not in INVESTOR_TYPES:
            raise SchemaError(f"{where}: unknown investor type {type_text!r}")
        investors.append(RawInvestor(iid, name, type_label))

    rounds, seen_rounds, dangling = [], set(), []
    for row_no, (rid, sid, announced, stage, amount, members) in _reference_rows(
            rounds_path, ROUND_COLUMNS):
        where = f"{rounds_path}:{row_no}"
        rid = rid.strip()
        if not rid:
            raise SchemaError(f"{where}: empty round_id")
        if rid in seen_rounds:
            raise SchemaError(f"{where}: duplicate round_id {rid!r}")
        seen_rounds.add(rid)
        record = RoundRow(rid, sid.strip(), _reference_date(announced, where), stage.strip(),
                          _reference_amount(amount, where), _reference_list(members))
        for k, iid in enumerate(record.investor_ids):
            if iid in record.investor_ids[:k]:
                raise SchemaError(f"{where}: investor {iid!r} listed twice")
        if record.startup_id not in seen_startups:
            dangling.append(f"round {rid!r} -> startup {record.startup_id!r}")
        for iid in record.investor_ids:
            if iid not in seen_investors:
                dangling.append(f"round {rid!r} -> investor {iid!r}")
        rounds.append(record)
    if dangling:
        raise IntegrityError("dangling foreign keys: " + "; ".join(dangling))
    return startups, rounds, investors


def _outcome(load, paths):
    """The loaded tables, or the type and message of the load error."""
    try:
        return load(*paths), None
    except (SchemaError, IntegrityError) as exc:
        return None, (type(exc), str(exc))


# Cell pools: the first entries of each are clean, the rest are faults
# (or, for ids and keys, collisions and dangling references).
STARTUP_CELLS = [
    ["One", "Four, Inc.", 'Say "hi"', ""],
    ["USA", " USA", "DEU"],
    ["active", "closed", " IPO ", "acquired", "zombie"],
    ["2005-01-10", "2010-03-04", " 2001-02-03 ", "Jan 2005", "2010-02-30", "20050110",
     "2005-W02-1"],
    ["Software", "Health Care|Software", " Software | Hardware ", "", "mystery|"],
]
ROUND_CELLS = [
    ["2010-05-01", "2011-06-01 ", "2012-07-01", "soon", "2012-7-1", "20120701", "2012-W26-7"],
    ["seed", " Series A ", "series c", "pre-seed"],
    ["500000", "", " 1.5e6 ", "2500000.5", "0", "1e3", "1_000", "\x1c 7\t", "  ", "lots",
     "-5", " -0.5 ", "nan", " inf ", "-inf", "1e400", "1,000", "\x1c"],
]
INVESTOR_CELLS = [
    ["Fund A", "Prog, B"],
    ["vc", "accelerator", " Angel ", "hedge_fund"],
]


def _draw_rows(data, prefix, n, pools, faulty):
    """``n`` rows of an id followed by one cell from each pool.

    A faulty id is empty or repeats the previous row's id once stripped.
    """
    rows = []
    for i in range(n):
        bad = faulty and data.draw(st.integers(0, 9)) == 0
        faulty_ids = ["", f" {prefix}{max(i - 1, 0)} "]
        row = [data.draw(st.sampled_from(faulty_ids)) if bad else f"{prefix}{i}"]
        for pool in pools:
            bad = faulty and data.draw(st.integers(0, 4)) == 0
            row.append(data.draw(st.sampled_from(pool if bad else pool[:3])))
        rows.append(row)
    return rows


def _write(path, header, rows, data, faulty):
    """Write ``rows`` as CSV; faulty tables also get blank lines, short rows
    and extra trailing cells."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if faulty:
                damage = data.draw(st.integers(0, 59))
                if damage == 0:
                    writer.writerow([])
                elif damage == 1:
                    row = row[:data.draw(st.integers(1, len(row) - 1))]
                elif damage == 2:
                    row = [*row, "extra"]
            writer.writerow(row)


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_loader_matches_row_by_row_reference(tmp_path_factory, data):
    faulty = data.draw(st.booleans())
    n_startups, n_investors = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 3))
    startups = _draw_rows(data, "s", n_startups, STARTUP_CELLS, faulty)
    investors = _draw_rows(data, "i", n_investors, INVESTOR_CELLS, faulty)
    startup_keys = [f"s{i}" for i in range(n_startups)] or ["ghost"]
    investor_keys = [f"i{i}" for i in range(n_investors)]
    if faulty:
        # '0' and '12' are no startup's id, but look like row numbers
        startup_keys = [*startup_keys, "ghost", " s0 ", "s0\t", "0", "12"]
        investor_keys = [*investor_keys, "nobody"]
    rounds = []
    for row in _draw_rows(data, "r", data.draw(st.integers(0, 6)), ROUND_CELLS, faulty):
        repeats = faulty and data.draw(st.integers(0, 9)) == 0
        members = data.draw(st.lists(st.sampled_from(investor_keys), min_size=0, max_size=3,
                                     unique=not repeats))
        rounds.append([row[0], data.draw(st.sampled_from(startup_keys)), *row[1:],
                       " | ".join(members)])

    tmp = tmp_path_factory.mktemp("oracle")
    # unnormalized str paths: row errors name the path as given, reader errors as a Path
    paths = [f"{tmp}/./{name}.csv" for name in ("startups", "rounds", "investors")]
    _write(Path(paths[0]), STARTUP_COLUMNS, startups, data, faulty)
    _write(Path(paths[1]), ROUND_COLUMNS, rounds, data, faulty)
    _write(Path(paths[2]), INVESTOR_COLUMNS, investors, data, faulty)

    expected, expected_error = _outcome(reference_load, paths)
    got, error = _outcome(load_dataset, paths)
    assert error == expected_error
    if expected is not None:
        assert rows(got.startups) == expected[0]
        assert rows(got.rounds) == expected[1]
        assert list(got.investors) == expected[2]
        for table, names in ((got.startups, ("country", "status", "founded", "tags")),
                             (got.rounds, ("announced", "stage", "investors"))):
            for name in names:
                column = getattr(table, name)
                # values numbered by first appearance, each used by some row
                assert list(dict.fromkeys(column.codes.tolist())) == list(
                    range(len(column.values))), name
                assert len(set(column.values)) == len(column.values), name


def _stored_columns(dataset):
    startups, rounds = dataset.startups, dataset.rounds
    return {
        "startup ids": startups.ids,
        "names": startups.names,
        **{name: (getattr(startups, name).codes.tolist(), getattr(startups, name).values)
           for name in ("country", "status", "founded", "tags")},
        "round ids": rounds.ids,
        "startup": rounds.startup.tolist(),
        "startup_ids": rounds.startup_ids,
        **{f"round {name}": (getattr(rounds, name).codes.tolist(), getattr(rounds, name).values)
           for name in ("announced", "stage", "investors")},
        "amount": [None if math.isnan(a) else a for a in rounds.amount.tolist()],
        "investor table": dataset.investors,
    }


def test_records_and_loaded_dump_store_equal_columns(tmp_path, small_ontology):
    """A dataset loaded from row records and its dump loaded back hold equal columns."""
    built = make_dataset(
        [make_startup("s1", ["Alpha"], name="One, Inc."),
         make_startup("s2", ["Beta", "dual-child"], status=StartupStatus.IPO),
         make_startup("s3", [], country="DEU", founded=dt.date(1999, 1, 1))],
        [make_round("r1", "s2", 2010, ["i2", "i1"], amount=None),
         make_round("r2", "s1", 2011, ["i1"], stage="Series B", amount=2.5e5 + 0.25),
         make_round("r3", "s2", 2010, [], stage="mystery")],
        [make_investor("i1"), make_investor("i2", "angel", name="Fund, B")],
        small_ontology,
    )
    paths = dump_dataset(built, tmp_path)
    loaded = load_dataset(paths["startups"], paths["rounds"], paths["investors"],
                          paths["ontology"])
    assert _stored_columns(loaded) == _stored_columns(built)
