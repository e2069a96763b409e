"""Profile-table analyses against copies of the per-profile loops they replaced.

Barycenters, heatmaps, spread and the tensor fill read the stacked rows of
a ``profiles.ProfileTable`` (shares from ``profiles.share_matrix``). Each
must give the same bits as the loop that normalized and projected one
profile at a time, here run over the table's rows.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import fields, is_dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorspace.errors import AnalysisError
from sectorspace.metrics import (
    HeatmapGrid,
    euclidean_distance,
    heatmap_grid,
    heatmap_slice,
    spread_series,
)
from sectorspace.pca import (
    BarycenterPoint,
    apply_standardization,
    barycenter,
    fit_on_profiles,
    standardize,
)
from sectorspace.profiles import ProfileTable, profiles_by_year
from sectorspace.tca import StrategyTensor, build_tensor

from conftest import stack_profiles

SECTORS = ("Alpha", "Beta", "Gamma", "Delta", "Epsilon")
INVESTORS = ("i1", "i2", "i3", "i4", "i5")
COUNTS = st.one_of(st.sampled_from((0.0, 0.25, 1 / 3, 0.5, 1.0, 2.0, 7.0)),
                   st.floats(0.0, 50.0, allow_subnormal=False))


# --- copies of the per-profile loops, run over a table's rows ---------------

Row = namedtuple("Row", "investor_id year sectors rounds_by_sector")


def rows(table):
    """One record per table row, in table order."""
    return [Row(iid, year, table.sectors, counts) for iid, year, counts in zip(
        table.investor_ids.tolist(), table.years.tolist(), table.rounds)]


def old_by_year(profiles):
    out = {}
    for p in profiles:
        out.setdefault(p.year, []).append(p)
    return dict(sorted(out.items()))


def old_normalized(profile):
    total = profile.rounds_by_sector.sum()
    if total <= 0:
        raise AnalysisError("cannot normalize an all-zero strategy vector")
    return profile.rounds_by_sector / total


def old_project(model, vector):
    return apply_standardization(vector, model.params) @ model.axes.T


def old_barycenter(profiles):
    if not profiles:
        raise AnalysisError("barycenter of an empty profile list")
    years = {p.year for p in profiles}
    if len(years) != 1:
        raise AnalysisError(f"profiles span multiple years: {sorted(years)}")
    weights = np.array([float(p.rounds_by_sector.sum()) for p in profiles])
    active = weights > 0
    if not active.any():
        raise AnalysisError("all profiles have zero activity")
    shares = np.vstack([old_normalized(p) for p, a in zip(profiles, active) if a])
    weights = weights[active]
    total = weights.sum()
    coords = weights @ shares / total
    if total > 1:
        sigma = np.sqrt(weights @ (shares - coords) ** 2 / (total * (total - 1.0)))
    else:
        sigma = np.zeros_like(coords)
    return BarycenterPoint(year=years.pop(), coords=coords, weight=float(total), sigma=sigma)


def old_heatmap_slice(profiles, model, x_edges, y_edges):
    if len(x_edges) < 3 or len(y_edges) < 3:
        raise AnalysisError("heatmap needs at least 2 bins per axis")
    points = np.vstack([old_project(model, old_normalized(p)) for p in profiles])
    ix = np.clip(np.searchsorted(x_edges, points[:, 0], side="right") - 1, 0, len(x_edges) - 2)
    iy = np.clip(np.searchsorted(y_edges, points[:, 1], side="right") - 1, 0, len(y_edges) - 2)
    counts = np.zeros((len(x_edges) - 1, len(y_edges) - 1), dtype=int)
    np.add.at(counts, (ix, iy), 1)
    return counts


def old_bin_edges(points, n_bins, lo_pct, hi_pct):
    lo, hi = np.percentile(points, [lo_pct, hi_pct])
    if not hi > lo:
        raise AnalysisError("degenerate bin edges: projected points do not spread")
    return np.linspace(lo, hi, n_bins + 1)


def old_heatmap_grid(profiles, model, n_x, n_y):
    by_year = old_by_year(profiles)
    if not by_year:
        raise AnalysisError("no profiles to bin")
    everything = np.vstack([old_project(model, old_normalized(p))
                            for year_profiles in by_year.values() for p in year_profiles])
    x_edges = old_bin_edges(everything[:, 0], n_x, 1.0, 99.0)
    y_edges = old_bin_edges(everything[:, 1], n_y, 1.0, 99.0)
    counts = {year: old_heatmap_slice(year_profiles, model, x_edges, y_edges)
              for year, year_profiles in by_year.items()}
    return HeatmapGrid(x_edges=x_edges, y_edges=y_edges, counts=counts)


def old_spread_series(profiles):
    out = []
    for year, year_profiles in old_by_year(profiles).items():
        if len(year_profiles) < 2:
            continue
        center = old_barycenter(year_profiles)
        dists = np.array([euclidean_distance(old_normalized(p), center.coords)
                          for p in year_profiles])
        out.append((year, float(dists.mean()),
                    float(dists.std(ddof=1) / np.sqrt(len(dists)))))
    return out


def old_build_tensor(profiles, years, sectors):
    sector_names = tuple(sectors)
    years = tuple(sorted(years))
    if len(years) < 2:
        raise AnalysisError("tensor needs at least 2 years")
    investor_ids = tuple(sorted({p.investor_id for p in profiles}))
    if len(investor_ids) < 2:
        raise AnalysisError("tensor needs at least 2 investors")
    row = {iid: i for i, iid in enumerate(investor_ids)}
    slab = {year: k for k, year in enumerate(years)}
    col = {tag: j for j, tag in enumerate(sector_names)}
    values = np.zeros((len(investor_ids), len(sector_names), len(years)))
    for p in profiles:
        k = slab.get(p.year)
        if k is None:
            continue
        i = row[p.investor_id]
        for tag, count in zip(p.sectors, p.rounds_by_sector):
            j = col.get(tag)
            if j is not None:
                values[i, j, k] += count
    for k in range(len(years)):
        values[:, :, k] = standardize(values[:, :, k])[0]
    return StrategyTensor(values=values, investor_ids=investor_ids, sectors=sector_names,
                          years=years)


# --- helpers -----------------------------------------------------------------

def outcome(fn, *args):
    try:
        return fn(*args)
    except AnalysisError as exc:
        return ("AnalysisError", str(exc))


def assert_identical(got, expected):
    """Equal bits: arrays by dtype and value, dataclasses field by field."""
    if isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == expected.dtype
        assert np.array_equal(got, expected, equal_nan=True), (got, expected)
    elif is_dataclass(expected):
        assert type(got) is type(expected)
        for f in fields(expected):
            assert_identical(getattr(got, f.name), getattr(expected, f.name))
    elif isinstance(expected, dict):
        assert list(got) == list(expected)
        for key in expected:
            assert_identical(got[key], expected[key])
    elif isinstance(expected, (list, tuple)):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_identical(g, e)
    else:
        assert type(got) is type(expected) and got == expected, (got, expected)


@st.composite
def profile_tables(draw):
    """A table over one sector order, some columns zero in every row.

    A row whose counts all come out zero is mostly given a count, but
    sometimes kept idle, as barycenters skip such rows.
    """
    sectors = SECTORS[:draw(st.integers(2, len(SECTORS)))]
    dead = draw(st.sets(st.integers(0, len(sectors) - 1), max_size=len(sectors) - 1))
    live = [j for j in range(len(sectors)) if j not in dead]
    n = draw(st.integers(1, 14))
    counts = np.zeros((n, len(sectors)))
    for row in counts:
        row[:] = [0.0 if j in dead else draw(COUNTS) for j in range(len(sectors))]
        if not row.sum() > 0 and draw(st.sampled_from((True, True, True, False))):
            row[draw(st.sampled_from(live))] = 1 / 3
    return sectors, ProfileTable(
        sectors=sectors,
        stage=None,
        investor_ids=np.array(draw(st.lists(st.sampled_from(INVESTORS), min_size=n,
                                            max_size=n)), dtype=str),
        years=np.array(draw(st.lists(st.integers(2010, 2013), min_size=n, max_size=n))),
        rounds=counts,
        amounts=counts * 1e6,
    )


# --- tests -------------------------------------------------------------------

@settings(deadline=None, max_examples=150)
@given(profile_tables())
def test_barycenters_and_spread_match_per_profile_loops(drawn):
    _, profiles = drawn
    for year_profiles in profiles_by_year(profiles).values():
        assert_identical(outcome(barycenter, year_profiles),
                         outcome(old_barycenter, rows(year_profiles)))
    assert_identical(outcome(spread_series, profiles),
                     outcome(old_spread_series, rows(profiles)))


@settings(deadline=None, max_examples=200)
@given(profile_tables(), st.integers(1, 8), st.integers(1, 8))
def test_heatmaps_match_per_profile_projections(drawn, n_x, n_y):
    _, profiles = drawn
    active = profiles.take(profiles.rounds.sum(axis=1) > 0)
    model = outcome(fit_on_profiles, active, 2)
    if isinstance(model, tuple):  # fewer than 2 profiles to fit on
        assert len(active) < 2
        return
    grid = outcome(heatmap_grid, profiles, model, n_x, n_y)
    assert_identical(grid, outcome(old_heatmap_grid, rows(profiles), model, n_x, n_y))
    if isinstance(grid, HeatmapGrid):
        for year_profiles in profiles_by_year(profiles).values():
            edges = (grid.x_edges, grid.y_edges)
            assert_identical(outcome(heatmap_slice, year_profiles, model, *edges),
                             outcome(old_heatmap_slice, rows(year_profiles), model, *edges))


@settings(deadline=None, max_examples=150)
@given(profile_tables())
def test_tensor_fill_matches_cell_by_cell_loop(drawn):
    sectors, profiles = drawn
    # the tensor spans the table's own years and sectors
    years = set(profiles.years.tolist())
    assert_identical(outcome(build_tensor, profiles),
                     outcome(old_build_tensor, rows(profiles), years, sectors))


def test_tensor_spans_the_investors_of_stacked_tables():
    """Tables of one sector order, stacked, make one tensor input."""
    def table(iid, year):
        counts = np.array([[1.0, 2.0]])
        return ProfileTable(("Alpha", "Beta"), None, np.array([iid]), np.array([year]),
                            counts, counts)

    joined = stack_profiles([table("i1", 2010), table("i2", 2011)])
    assert build_tensor(joined).investor_ids == ("i1", "i2")
