"""CSV artifacts and run manifests.

All writers are deterministic: floats are rendered with ``repr`` (shortest
round-tripping form), rows keep a fixed order, line endings are ``\\n``,
and files land atomically via a same-directory temp file. Rerunning a
pipeline with identical inputs therefore reproduces every byte.
"""
from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .metrics import DistanceSeries, HeatmapGrid
from .pca import PCAModel, TrajectoryPoint
from .profiles import InvestorYearProfile
from .tca import CPModel, FitDiagnostics

try:
    from importlib.metadata import version as _dist_version

    VERSION = _dist_version("sectorspace")
except Exception:  # pragma: no cover - not installed
    VERSION = "0.0.0"


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, dt.date):
        return value.isoformat()
    if value is None:
        return ""
    raise TypeError(f"cannot format {type(value).__name__} as a CSV cell")


def _write_atomically(path, write) -> Path:
    """Run ``write(handle)`` on a same-directory temp file, then move it onto ``path``.

    On any failure the temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_rows(path, header: list[str], rows) -> Path:
    """Write one CSV atomically; rows may mix str, int, float, date, None."""
    def write(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)} does not match header {header}")
            writer.writerow([_cell(v) for v in row])

    return _write_atomically(path, write)


def write_pca_loadings(path, model: PCAModel, sectors) -> Path:
    axes = model.axes
    header = ["tag"] + [f"axis{d + 1}" for d in range(axes.shape[0])]
    rows = [
        [tag, *(axes[d, p] for d in range(axes.shape[0]))]
        for p, tag in enumerate(sectors)
    ]
    return write_rows(path, header, rows)


def write_trajectory(path, trajectories: dict[str, list[TrajectoryPoint]]) -> Path:
    """Projected barycenter paths, one labelled block per stage selection."""
    rows = []
    for stage_label, points in trajectories.items():
        for point in points:
            if point.coords.shape[0] < 2:
                raise ValueError("trajectory export needs at least 2 components")
            rows.append([point.year, stage_label, point.coords[0], point.coords[1],
                         point.sigma[0], point.sigma[1]])
    return write_rows(path, ["year", "stage", "x", "y", "sx", "sy"], rows)


def _mode_labels(model: CPModel, mode: str):
    if mode == "investor":
        labels = model.investor_ids
        size = model.investor_factors.shape[0]
    elif mode == "sector":
        labels = model.sectors
        size = model.sector_factors.shape[0]
    else:
        labels = tuple(str(y) for y in model.years)
        size = model.temporal_factors.shape[0]
    if len(labels) != size:
        labels = tuple(str(i) for i in range(size))
    return labels


def write_tca_factors(path, model: CPModel) -> Path:
    rows = []
    for mode, factor in zip(("investor", "sector", "temporal"), model.factors):
        labels = _mode_labels(model, mode)
        for r in range(model.rank):
            for idx, label in enumerate(labels):
                rows.append([mode, r + 1, label, factor[idx, r]])
    return write_rows(path, ["mode", "component", "index_label", "value"], rows)


def write_tca_diagnostics(path, diagnostics: FitDiagnostics) -> Path:
    rows = []
    for rank in diagnostics.ranks:
        errors = diagnostics.restart_errors[rank]
        similarity = diagnostics.similarity[rank]
        for restart, error in enumerate(errors):
            rows.append([rank, restart, error, similarity])
    return write_rows(path, ["R", "restart", "error", "similarity"], rows)


def write_top_investors(path, tables: dict[int, list]) -> Path:
    """Leading investors per component; ``tables`` maps component -> rows of
    (investor_id, name, type_label, value)."""
    rows = []
    for component in sorted(tables):
        for position, entry in enumerate(tables[component], start=1):
            rows.append([component, position, *entry])
    return write_rows(
        path,
        ["component", "position", "investor_id", "name", "type_label", "value"],
        rows,
    )


def write_distances(path, series_list: list[DistanceSeries]) -> Path:
    rows = [
        [year, series.group_a.label(), series.group_b.label(), distance, sigma]
        for series in series_list
        for year, distance, sigma in series.entries
    ]
    return write_rows(path, ["year", "group_a", "group_b", "distance", "sigma"], rows)


def write_heatmaps(out_dir, grid: HeatmapGrid) -> list[Path]:
    """One ``heatmap_<year>.csv`` per year: full grid, x bins fastest."""
    out_dir = Path(out_dir)
    written = []
    for year in sorted(grid.counts):
        counts = grid.counts[year]
        rows = [
            [ix, iy, int(counts[ix, iy])]
            for iy in range(counts.shape[1])
            for ix in range(counts.shape[0])
        ]
        written.append(
            write_rows(out_dir / f"heatmap_{year}.csv", ["xbin", "ybin", "count"], rows)
        )
    return written


def write_spread(path, series: list[tuple[int, float, float]]) -> Path:
    return write_rows(path, ["year", "mean_distance", "sigma"], series)


def write_profiles(path, profiles: list[InvestorYearProfile]) -> Path:
    """Flat dump of every nonzero (investor, year, stage, sector) cell."""
    rows = []
    for p in profiles:
        stage = p.stage_filter.value if p.stage_filter is not None else "all"
        for idx, sector in enumerate(p.vector.sectors):
            count = p.vector.rounds_by_sector[idx]
            if count == 0:
                continue
            rows.append([p.investor_id, p.year, stage, sector, count,
                         p.vector.amount_by_sector[idx]])
    return write_rows(
        path, ["investor_id", "year", "stage", "sector", "rounds", "amount"], rows
    )


def sha256_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command: str, config: dict, inputs: dict[str, str | Path],
                   results: dict | None = None) -> Path:
    """Record what ran: config echo, package version, input digests, key results.

    Written atomically, like the CSVs.
    """
    manifest = {
        "command": command,
        "version": VERSION,
        "config": config,
        "inputs": {
            name: {"path": str(p), "sha256": sha256_digest(p)}
            for name, p in sorted(inputs.items())
        },
        "results": results or {},
    }
    def write(handle):
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")

    return _write_atomically(path, write)
