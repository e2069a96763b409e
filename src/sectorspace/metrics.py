"""Distance and concentration analyses in full-dimensional sector space.

Every analysis reads the ``profiles.ProfileTable`` it is handed, each
table one stage view; years are row masks over it. Distances between the
barycenters of two tables (say, two investor types selected with
``profiles.group_profiles``, or a stage view and a type) are computed on
the pre-PCA coordinates (whatever dimensionality the table carries, i.e. with
any excluded sectors already dropped) as ``profiles.share_matrix`` rows;
only the heatmaps go through the 2-D projection, once per grid. All
operations are pure functions of immutable inputs and order their per-year
output by year.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .pca import BarycenterPoint, PCAModel, barycenter, project
from .profiles import ProfileTable, profiles_by_year, share_matrix

logger = logging.getLogger(__name__)


def euclidean_distance(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise AnalysisError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(np.sqrt(np.sum((x - y) ** 2)))


def distance_with_error(a: BarycenterPoint, b: BarycenterPoint) -> tuple[float, float]:
    """Distance between two barycenters with first-order error propagation.

    sigma_d^2 = sum_i ((x_i - y_i) / d)^2 (sigma_x_i^2 + sigma_y_i^2). At
    d = 0 the gradient degenerates; the summed-variance upper bound is
    returned instead and the case logged.
    """
    if a.coords.shape != b.coords.shape:
        raise AnalysisError("barycenters live in different dimensions")
    diff = a.coords - b.coords
    var = a.sigma**2 + b.sigma**2
    d = float(np.sqrt(np.sum(diff**2)))
    if d == 0.0:
        logger.warning("degenerate zero distance; returning summed-variance bound")
        return 0.0, float(np.sqrt(var.sum()))
    return d, float(np.sqrt(np.sum((diff / d) ** 2 * var)))


@dataclass(frozen=True)
class DistanceSeries:
    label_a: str
    label_b: str
    entries: tuple[tuple[int, float, float], ...]  # (year, distance, sigma)

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(e[0] for e in self.entries)

    @property
    def distances(self) -> np.ndarray:
        return np.array([e[1] for e in self.entries])

    def minimum_year(self) -> int:
        return self.entries[int(np.argmin(self.distances))][0]


def distance_series(a: ProfileTable, b: ProfileTable,
                    label_a: str, label_b: str) -> DistanceSeries:
    """Yearly barycenter-to-barycenter distance between the tables ``a`` and ``b``.

    Years where either table has no activity are omitted; no common year
    at all is an error. The labels name the two groups in the result.
    """
    a_by_year = profiles_by_year(a)
    b_by_year = profiles_by_year(b)
    common = sorted(set(a_by_year) & set(b_by_year))
    if not common:
        raise AnalysisError(f"groups {label_a} and {label_b} share no active year")
    entries = []
    for year in common:
        d, sigma = distance_with_error(
            barycenter(a_by_year[year]), barycenter(b_by_year[year])
        )
        entries.append((year, d, sigma))
    return DistanceSeries(label_a=label_a, label_b=label_b, entries=tuple(entries))


@dataclass(frozen=True)
class HeatmapGrid:
    """Shared 2-D binning of projected strategies, one count matrix per year.

    ``counts[year][ix, iy]`` indexes x bins first. Out-of-range points are
    clamped into the edge bins, so each year's counts sum to the number of
    investors placed that year.
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: dict[int, np.ndarray]

    def max_cell_share(self, year: int) -> float:
        cells = self.counts[year]
        return float(cells.max() / cells.sum())


def _bin_points(points: np.ndarray, x_edges: np.ndarray, y_edges: np.ndarray) -> np.ndarray:
    if len(x_edges) < 3 or len(y_edges) < 3:
        raise AnalysisError("heatmap needs at least 2 bins per axis")
    ix = np.clip(np.searchsorted(x_edges, points[:, 0], side="right") - 1, 0, len(x_edges) - 2)
    iy = np.clip(np.searchsorted(y_edges, points[:, 1], side="right") - 1, 0, len(y_edges) - 2)
    counts = np.zeros((len(x_edges) - 1, len(y_edges) - 1), dtype=int)
    np.add.at(counts, (ix, iy), 1)
    return counts


def heatmap_slice(profiles: ProfileTable, model: PCAModel,
                  x_edges: np.ndarray, y_edges: np.ndarray) -> np.ndarray:
    """Bin one year's projected strategies onto a fixed grid."""
    return _bin_points(project(model, share_matrix(profiles)), x_edges, y_edges)


def heatmap_grid(profiles: ProfileTable, model: PCAModel,
                 n_x: int = 30, n_y: int = 30) -> HeatmapGrid:
    """Shared-edges heatmap over all years, so yearly panels are comparable.

    Edges span the 1st-99th percentile of all projected points; the
    stragglers outside clamp into the border bins.
    """
    if not len(profiles):
        raise AnalysisError("no profiles to bin")
    points = project(model, share_matrix(profiles))
    years = profiles.years
    lo, hi = np.percentile(points, (1.0, 99.0), axis=0)
    if not (hi > lo).all():
        raise AnalysisError("degenerate bin edges: projected points do not spread")
    x_edges = np.linspace(lo[0], hi[0], n_x + 1)
    y_edges = np.linspace(lo[1], hi[1], n_y + 1)
    counts = {
        year: _bin_points(points[years == year], x_edges, y_edges)
        for year in np.unique(years).tolist()
    }
    return HeatmapGrid(x_edges=x_edges, y_edges=y_edges, counts=counts)


def average_distance_to_barycenter(profiles: ProfileTable) -> tuple[float, float]:
    """Mean distance of individual normalized strategies to their year barycenter.

    Every investor counts once regardless of activity volume; the second
    return value is the standard error of that mean.
    """
    if len(profiles) < 2:
        raise AnalysisError("need at least 2 investors to measure spread")
    center = barycenter(profiles)
    shares = share_matrix(profiles)
    dists = np.sqrt(np.sum((shares - center.coords) ** 2, axis=1))
    return float(dists.mean()), float(dists.std(ddof=1) / np.sqrt(len(dists)))


def spread_series(profiles: ProfileTable) -> list[tuple[int, float, float]]:
    """Per-year (mean distance to barycenter, standard error), years ascending."""
    by_year = profiles_by_year(profiles)
    return [(year, *average_distance_to_barycenter(year_profiles))
            for year, year_profiles in by_year.items() if len(year_profiles) >= 2]
