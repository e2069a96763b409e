"""Shared fixtures: a 4-sector ontology, test-side table rows and dataset builders.

Datasets are built the way the package builds them: the rows are written
as CSV files and read back with :func:`load_dataset`. :func:`rows` reads
a loaded table back into the same row records, for oracles that walk the
tables one row at a time.
"""
from __future__ import annotations

import datetime as dt
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from sectorspace.ingest import (
    INVESTOR_COLUMNS,
    ROUND_COLUMNS,
    STARTUP_COLUMNS,
    RawInvestor,
    StartupStatus,
    StartupTable,
    load_dataset,
)
from sectorspace.ontology import SectorOntology, dump_ontology
from sectorspace.profiles import ProfileTable
from sectorspace.reports import write_rows

TAGS4 = ("Alpha", "Beta", "Gamma", "Delta")


class StartupRow(NamedTuple):
    startup_id: str
    name: str
    country_code: str
    status: StartupStatus
    founded_date: dt.date
    tags: tuple[str, ...]


class RoundRow(NamedTuple):
    round_id: str
    startup_id: str
    announced_date: dt.date
    stage_label: str
    amount_usd: float | None  # None = unknown
    investor_ids: tuple[str, ...]


def make_ontology(parent_tags=TAGS4, child_map=None, version="test"):
    return SectorOntology(
        parent_tags=tuple(parent_tags),
        child_map=child_map or {},
        version=version,
    )


def make_startup(sid, tags, country="USA", status=StartupStatus.ACTIVE,
                 founded=dt.date(2005, 6, 1), name=None):
    return StartupRow(sid, name if name is not None else sid, country, status, founded,
                      tuple(tags))


def make_round(rid, sid, year, investors, stage="seed", amount=1e6,
               month=3, day=15):
    return RoundRow(rid, sid, dt.date(year, month, day), stage, amount, tuple(investors))


def make_investor(iid, type_label="vc", name=None):
    return RawInvestor(
        investor_id=iid,
        name=name if name is not None else iid,
        type_label=type_label,
    )


def make_dataset(startups, rounds, investors, ontology=None):
    """Write the rows as the three CSV tables plus the ontology and load them."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_rows(tmp / "startups.csv", STARTUP_COLUMNS, [
            [s.startup_id, s.name, s.country_code, s.status.value,
             s.founded_date.isoformat(), "|".join(s.tags)] for s in startups])
        write_rows(tmp / "rounds.csv", ROUND_COLUMNS, [
            [r.round_id, r.startup_id, r.announced_date.isoformat(), r.stage_label,
             "" if r.amount_usd is None else repr(float(r.amount_usd)),
             "|".join(r.investor_ids)] for r in rounds])
        write_rows(tmp / "investors.csv", INVESTOR_COLUMNS,
                   [[i.investor_id, i.name, i.type_label] for i in investors])
        dump_ontology(ontology or make_ontology(), tmp / "ontology.json")
        return load_dataset(tmp / "startups.csv", tmp / "rounds.csv",
                            tmp / "investors.csv", tmp / "ontology.json")


def rows(table):
    """The rows of a loaded startup or round table as row records, in table order."""
    n = len(table)
    if isinstance(table, StartupTable):
        return [StartupRow(table.ids[i], table.names[i], table.country[i], table.status[i],
                           table.founded[i], table.tags[i]) for i in range(n)]
    amounts = table.amount.tolist()
    return [
        RoundRow(table.ids[i], table.startup_ids[table.startup[i]], table.announced[i],
                 table.stage[i], None if math.isnan(amounts[i]) else amounts[i],
                 table.investors[i])
        for i in range(n)
    ]


def make_profiles(matrix, year=2010, weights=None, sectors=None, stage=None,
                  investor_ids=None):
    """Wrap share rows as a profile table, one row per investor, for a single year.

    Row i becomes investor i's normalized strategy; ``weights[i]`` is its
    round count (the barycenter weight n_i), default 1.
    """
    matrix = np.asarray(matrix, dtype=float)
    n, p = matrix.shape
    if sectors is None:
        sectors = tuple(f"S{j:02d}" for j in range(p))
    if weights is None:
        weights = np.ones(n)
    rounds = matrix * np.asarray(weights, dtype=float)[:, None]
    return ProfileTable(
        sectors=tuple(sectors),
        stage=stage,
        investor_ids=np.array(investor_ids or [f"inv{i:03d}" for i in range(n)], dtype=str),
        years=np.full(n, year),
        rounds=rounds,
        amounts=rounds * 1e6,
    )


def stack_profiles(tables):
    """The rows of ``tables`` one after another; they share one sector order and stage."""
    tables = list(tables)
    assert len({(table.sectors, table.stage) for table in tables}) == 1
    return ProfileTable(tables[0].sectors, tables[0].stage,
                        *(np.concatenate([getattr(table, name) for table in tables])
                          for name in ("investor_ids", "years", "rounds", "amounts")))


@pytest.fixture
def small_ontology():
    return make_ontology(
        child_map={
            "alpha-child": frozenset({"Alpha"}),
            "dual-child": frozenset({"Alpha", "Beta"}),
        },
        version="test-4",
    )


def tiny_tables():
    """Two investors, three rounds over 2010-2012, two sectors in play."""
    startups = [
        make_startup("s1", ["Alpha"]),
        make_startup("s2", ["Beta"]),
        make_startup("s3", ["Alpha", "Beta"]),
    ]
    rounds = [
        make_round("r1", "s1", 2010, ["i1"], stage="seed", amount=5e5),
        make_round("r2", "s2", 2010, ["i1", "i2"], stage="series a"),
        make_round("r3", "s3", 2012, ["i2"], stage="series b", amount=3e5),
    ]
    investors = [make_investor("i1", "vc"), make_investor("i2", "accelerator")]
    return startups, rounds, investors


@pytest.fixture
def tiny_dataset(small_ontology):
    return make_dataset(*tiny_tables(), small_ontology)
