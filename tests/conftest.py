"""Shared fixtures: a 4-sector ontology and in-memory dataset builders."""
from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from sectorspace.ingest import (
    RawInvestor,
    RawRound,
    RawStartup,
    StartupStatus,
    ValidatedDataset,
)
from sectorspace.ontology import SectorOntology
from sectorspace.profiles import STAGE_SLOTS, ProfileTable

TAGS4 = ("Alpha", "Beta", "Gamma", "Delta")


def make_ontology(parent_tags=TAGS4, child_map=None, version="test"):
    return SectorOntology(
        parent_tags=tuple(parent_tags),
        child_map=child_map or {},
        version=version,
    )


def make_startup(sid, tags, country="USA", status=StartupStatus.ACTIVE,
                 founded=dt.date(2005, 6, 1), name=None):
    return RawStartup(
        startup_id=sid,
        name=name if name is not None else sid,
        country_code=country,
        status=status,
        founded_date=founded,
        tags=tuple(tags),
    )


def make_round(rid, sid, year, investors, stage="seed", amount=1e6,
               month=3, day=15):
    return RawRound(
        round_id=rid,
        startup_id=sid,
        announced_date=dt.date(year, month, day),
        stage_label=stage,
        amount_usd=amount,
        investor_ids=tuple(investors),
    )


def make_investor(iid, type_label="vc", name=None):
    return RawInvestor(
        investor_id=iid,
        name=name if name is not None else iid,
        type_label=type_label,
    )


def make_dataset(startups, rounds, investors, ontology=None):
    return ValidatedDataset(
        startups=tuple(startups),
        rounds=tuple(rounds),
        investors=tuple(investors),
        ontology=ontology or make_ontology(),
    )


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
        investor_ids=np.array(investor_ids or [f"inv{i:03d}" for i in range(n)], dtype=str),
        years=np.full(n, year),
        slots=np.full(n, STAGE_SLOTS[stage]),
        rounds=rounds,
        amounts=rounds * 1e6,
    )


@pytest.fixture
def small_ontology():
    return make_ontology(
        child_map={
            "alpha-child": frozenset({"Alpha"}),
            "dual-child": frozenset({"Alpha", "Beta"}),
        },
        version="test-4",
    )


@pytest.fixture
def tiny_dataset(small_ontology):
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
    return make_dataset(startups, rounds, investors, small_ontology)
