"""CSV artifacts and run manifests.

All writers are deterministic: every cell reaches :func:`write_rows` as a
``str``, ``int``, ``bool`` or ``float`` (arrays go through ``.tolist()``),
and it writes the bytes :mod:`csv` writes: floats with ``repr`` (shortest
round-tripping form), the rest with ``str``, so a bool reads ``True`` or
``False`` (the ``converged`` column of ``tca_diagnostics.csv``). Chunks of
text rows that need no quoting are joined as text, any other chunk goes
through :mod:`csv`. Rows keep a fixed order, line endings are ``\\n``,
and files land atomically via a same-directory temp file created with the
umask applied, as ``open()`` would. Rerunning a pipeline with identical
inputs therefore reproduces every byte.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: every other module may import this one
    from .metrics import DistanceSeries, HeatmapGrid
    from .pca import PCAModel, TrajectoryPoint
    from .profiles import ProfileTable
    from .tca import CPModel, FitDiagnostics

# rows per chunk of write_rows: large enough that the joins run at C speed,
# small enough that a chunk's text stays under a hundred kilobytes
CHUNK_ROWS = 1024


def _write_atomically(path, write) -> Path:
    """Run ``write(handle)`` on a same-directory temp file, then move it onto ``path``.

    The temp file is created like ``open(path, "w")`` would create it, so
    the umask sets its mode. On any failure the temp file is removed and
    ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    """Write one CSV atomically, ``CHUNK_ROWS`` rows at a time.

    Cells must be ``str``, ``int``, ``bool`` or ``float`` values, as
    ``.tolist()`` gives them: :mod:`csv` writes a float with ``repr`` but
    anything else with ``str``, so a bool comes out as ``True`` or ``False``
    (``write_tca_diagnostics``' ``converged`` column), while a ``float32``
    would come out as ``0.1`` rather than the ``repr`` of its float64 value.

    The header and each chunk of rows are joined with ``,`` and ``\\n`` if
    every cell is a ``str`` that needs no quoting, else written by
    :mod:`csv`: the bytes are csv's either way, and text cells are faster.
    A row whose width is not the header's raises ``ValueError``.
    """
    width = len(header)

    def write(handle):
        writer = csv.writer(handle, lineterminator="\n")
        rest = iter(rows)
        chunk = [header]
        while chunk:
            if set(map(len, chunk)) != {width}:
                bad = next(row for row in chunk if len(row) != width)
                raise ValueError(f"row width {len(bad)} does not match header {header}")
            text = _joined(chunk, width)
            if text is None:
                writer.writerows(chunk)
            else:
                handle.write(text)
            chunk = list(itertools.islice(rest, CHUNK_ROWS))

    return _write_atomically(path, write)


def _joined(chunk: list, width: int) -> str | None:
    """The CSV text of ``chunk``, rows of ``width`` cells, if every cell is a
    ``str`` that :mod:`csv` would write as it is; else ``None``.

    A cell needs quoting if it holds ``,``, ``"``, ``\\n`` or ``\\r``, and a
    one-cell row if its cell is empty (csv writes ``""``).
    """
    try:
        text = "\n".join(map(",".join, chunk))
    except TypeError:  # a cell that is not a str
        return None
    if (text.count(",") != len(chunk) * (width - 1) or text.count("\n") != len(chunk) - 1
            or '"' in text or "\r" in text or (width == 1 and not all(map(itemgetter(0), chunk)))):
        return None
    return text + "\n"


def write_pca_loadings(path, model: PCAModel, sectors) -> Path:
    axes = model.axes
    header = ["tag"] + [f"axis{d + 1}" for d in range(axes.shape[0])]
    rows = [[tag, *column] for tag, column in zip(sectors, axes.T.tolist())]
    return write_rows(path, header, rows)


def write_trajectory(path, trajectories: dict[str, list[TrajectoryPoint]]) -> Path:
    """Projected barycenter paths, one labelled block per stage selection."""
    rows = []
    for stage_label, points in trajectories.items():
        for point in points:
            if point.coords.shape[0] < 2:
                raise ValueError("trajectory export needs at least 2 components")
            rows.append([point.year, stage_label, *point.coords[:2].tolist(),
                         *point.sigma[:2].tolist()])
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
    rows = [
        [mode, r + 1, label, value]
        for mode, factor in zip(("investor", "sector", "temporal"), model.factors)
        for r in range(model.rank)
        for label, value in zip(_mode_labels(model, mode), factor[:, r].tolist())
    ]
    return write_rows(path, ["mode", "component", "index_label", "value"], rows)


def write_tca_diagnostics(path, diagnostics: FitDiagnostics) -> Path:
    rows = [
        [rank, restart, error, sweeps, converged, diagnostics.similarity[rank]]
        for rank in diagnostics.ranks
        for restart, (error, sweeps, converged) in enumerate(zip(
            diagnostics.restart_errors[rank].tolist(),
            diagnostics.restart_sweeps[rank].tolist(),
            diagnostics.restart_converged[rank].tolist()))
    ]
    return write_rows(path, ["R", "restart", "error", "sweeps", "converged", "similarity"],
                      rows)


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
        [year, series.label_a, series.label_b, distance, sigma]
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
        ix, iy = (axis.ravel("F").tolist() for axis in np.indices(counts.shape))
        rows = zip(ix, iy, counts.ravel("F").astype(np.int64).tolist())
        written.append(
            write_rows(out_dir / f"heatmap_{year}.csv", ["xbin", "ybin", "count"], rows)
        )
    return written


def write_spread(path, series: list[tuple[int, float, float]]) -> Path:
    return write_rows(path, ["year", "mean_distance", "sigma"], series)


def _distinct_text(values: np.ndarray, format) -> list[str]:
    """``format`` of each value, called once per distinct value (so values
    that compare equal, as ``0.0`` and ``-0.0`` do, come out alike)."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array(list(map(format, distinct.tolist())), dtype=object)[inverse].tolist()


def write_profiles(path, profiles: ProfileTable) -> Path:
    """Flat dump of every nonzero (investor, year, sector) cell, row by row.

    The stage column repeats the table's one stage, ``all`` when it books
    every round.
    """
    stage = "all" if profiles.stage is None else profiles.stage.value
    row, col = np.nonzero(profiles.rounds)
    rows = zip(profiles.investor_ids[row].tolist(), _distinct_text(profiles.years[row], str),
               itertools.repeat(stage), np.array(profiles.sectors, dtype=str)[col].tolist(),
               _distinct_text(profiles.rounds[row, col], repr),
               map(repr, profiles.amounts[row, col].tolist()))
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

    Written atomically, like the CSVs. The version is ``sectorspace.__version__``,
    which the package sets before it imports any module.
    """
    from . import __version__

    manifest = {
        "command": command,
        "version": __version__,
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
