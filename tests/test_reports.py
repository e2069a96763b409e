"""Tests for CSV/manifest writers and the SVG emitters.

Everything here is about byte-level determinism and faithful round trips:
the writers are the reproducibility surface of the pipeline, so the tests
read files back and compare against independently formatted expectations.
"""
import csv
import datetime as dt
import hashlib
import io
import itertools
import json
import os
import stat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ontology, make_profiles, stack_profiles
from sectorspace import reports, svgplot, synth
from sectorspace.metrics import DistanceSeries, HeatmapGrid
from sectorspace.ontology import dump_ontology
from sectorspace.pca import PCAModel, StandardizationParams, TrajectoryPoint
from sectorspace.profiles import ProfileTable, StageClass
from sectorspace.reports import (
    sha256_digest,
    write_distances,
    write_heatmaps,
    write_manifest,
    write_pca_loadings,
    write_profiles,
    write_rows,
    write_spread,
    write_tca_diagnostics,
    write_tca_factors,
    write_top_investors,
    write_trajectory,
)
from sectorspace.tca import CPModel, FitDiagnostics


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _cell(value) -> str:
    """The per-cell formatter the writers used before they passed native values."""
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


def csv_written(header, rows) -> bytes:
    """The bytes :mod:`csv` writes for ``header`` and ``rows``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def cell_formatted(header, rows) -> bytes:
    """The bytes of a CSV whose cells went through ``_cell``."""
    return csv_written(header, ([_cell(value) for value in row] for row in rows))


def tiny_scenario(seed=0):
    arch = synth.ArchetypeSpec("a", "vc", 2, np.array([0.5, 0.5]), 2.0)
    return synth.ScenarioConfig("tiny", range(2010, 2012), 2, (arch,), seed=seed)


class TestWriteRows:
    def test_exact_bytes(self, tmp_path):
        path = write_rows(tmp_path / "out.csv", ["a", "b"], [[1, 0.5], ["x", -0.0]])
        assert path.read_bytes() == b"a,b\n1,0.5\nx,-0.0\n"

    def test_quoting_round_trip(self, tmp_path):
        rows = [["Four, Inc.", 'say "hi"'], ["line\nbreak", "plain"]]
        path = write_rows(tmp_path / "q.csv", ["name", "note"], rows)
        assert read_csv(path) == [["name", "note"]] + rows

        # tables of several chunks, text but for ints and floats in the third,
        # with cells that csv quotes or writes as they are in the first, a
        # middle, the last and across two chunks
        chunk = reports.CHUNK_ROWS
        special = ["Four, Inc.", 'say "hi"', "line\nbreak", "cr\rhere", "tab\there",
                   "  leading", "Zürich €", ""]
        n = 3 * chunk + 2
        for cell, at in itertools.product(special, (0, chunk + 5, 3 * chunk - 1, n - 2)):
            rows = [[f"id{i}", i, i / 7] if i // chunk == 2 else [f"id{i}", str(i), repr(i / 7)]
                    for i in range(n)]
            rows[at:at + 2] = [[cell, "x", cell]] * 2
            path = write_rows(tmp_path / "mixed.csv", ["id", "a", "b"], rows)
            assert path.read_bytes() == csv_written(["id", "a", "b"], rows), (cell, at)

            column = [[f"{i}"] for i in range(n)]
            column[at:at + 2] = [[cell]] * 2
            path = write_rows(tmp_path / "column.csv", ["only"], column)
            assert path.read_bytes() == csv_written(["only"], column), (cell, at)

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_mode_matches_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain.csv", "w", encoding="utf-8"):
                pass
            written = write_rows(tmp_path / "written.csv", ["a"], [[1]])
            manifest = write_manifest(tmp_path / "manifest.json", "x", {}, {})
            chart = svgplot.save_svg(tmp_path / "chart.svg", svgplot.bar_chart(["a"], [1.0]))
            dump_ontology(make_ontology(), tmp_path / "ontology.json")
            files, _ = synth.generate_ecosystem(tiny_scenario(), tmp_path / "eco")
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode)
        assert mode == 0o666 & ~umask
        for path in (written, manifest, chart, tmp_path / "ontology.json", files.truth):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name

    def test_creates_parent_dirs(self, tmp_path):
        path = write_rows(tmp_path / "deep" / "nest" / "f.csv", ["a"], [[1]])
        assert path.exists()

    def test_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="row width"):
            write_rows(tmp_path / "bad.csv", ["a", "b"], [[1]])
        # the bad row sits after chunks that were written as joined text
        path = write_rows(tmp_path / "keep.csv", ["a", "b"], [["x", "y"]])
        rows = [["x", "y"]] * (2 * reports.CHUNK_ROWS + 3) + [["z"]]
        with pytest.raises(ValueError, match=r"row width 1 does not match header \['a', 'b'\]"):
            write_rows(path, ["a", "b"], rows)
        assert path.read_bytes() == b"a,b\nx,y\n"
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_failure_leaves_previous_file_intact(self, tmp_path):
        path = tmp_path / "keep.csv"
        write_rows(path, ["a"], [[1]])
        before = path.read_bytes()

        def exploding():
            yield [2]
            raise RuntimeError("source died")

        with pytest.raises(RuntimeError):
            write_rows(path, ["a"], exploding())
        assert path.read_bytes() == before
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_text_round_trip(self, tmp_path_factory, data):
        """Any chunk size and width: csv's bytes, and the rows read back."""
        width = data.draw(st.integers(1, 3))
        text = st.text(st.sampled_from(list(',"\n\r\t é€ab'))
                       | st.characters(codec="utf-8", min_codepoint=32), max_size=6)
        header = data.draw(st.lists(text, min_size=width, max_size=width))
        rows = data.draw(st.lists(
            st.lists(text | st.integers() | st.floats(), min_size=width, max_size=width),
            max_size=14))
        path = tmp_path_factory.mktemp("rt") / "rt.csv"
        with mock.patch.object(reports, "CHUNK_ROWS", data.draw(st.integers(1, 4))):
            write_rows(path, header, rows)
        assert path.read_bytes() == csv_written(header, rows)
        if not any("\r" in cell for row in [header, *rows] for cell in map(_cell, row)):
            # csv quotes only what its line terminator holds, so a lone \r may be
            # written unquoted, and its reader ends the line there
            assert read_csv(path) == [[_cell(cell) for cell in row] for row in [header, *rows]]

    def test_large_producers_pass_text(self, tmp_path, monkeypatch):
        """The large tables reach write_rows as str cells, the chunks it joins
        without csv; a float or int cell would send its chunk through csv."""
        cells = []

        def recording(path, header, rows):
            rows = [list(row) for row in rows]
            cells.extend(cell for row in [header, *rows] for cell in row)
            return write_rows(path, header, rows)

        monkeypatch.setattr(synth, "write_rows", recording)
        monkeypatch.setattr(reports, "write_rows", recording)
        synth.generate_ecosystem(tiny_scenario(), tmp_path / "eco")
        profiles = stack_profiles([
            make_profiles([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]], year=2010, weights=[3, 4]),
            make_profiles([[0.125, 0.0, 0.875]], year=2011, weights=[8]),
        ])
        reports.write_profiles(tmp_path / "profiles.csv", profiles)
        assert len(cells) > 100
        assert {type(cell) for cell in cells} == {str}


class TestWriters:
    def test_pca_loadings(self, tmp_path):
        model = PCAModel(
            axes=np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
            explained_variance=np.array([2.0, 1.0]),
            total_variance=3.0,
            params=StandardizationParams(np.zeros(3), np.ones(3), frozenset()),
        )
        path = write_pca_loadings(tmp_path / "l.csv", model, ("A", "B", "C"))
        got = read_csv(path)
        assert got[0] == ["tag", "axis1", "axis2"]
        assert got[1] == ["A", "0.6", "0.0"]
        assert got[3] == ["C", "0.0", "1.0"]

    def test_trajectory(self, tmp_path):
        trajectories = {
            "all": [
                TrajectoryPoint(2010, np.array([1.0, 2.0]), np.array([0.1, 0.2])),
                TrajectoryPoint(2011, np.array([1.5, 2.5]), np.array([0.0, 0.0])),
            ],
            "stage:seed": [
                TrajectoryPoint(2010, np.array([-1.0, 0.5]), np.array([0.3, 0.4])),
            ],
        }
        got = read_csv(write_trajectory(tmp_path / "t.csv", trajectories))
        assert got[0] == ["year", "stage", "x", "y", "sx", "sy"]
        assert got[1] == ["2010", "all", "1.0", "2.0", "0.1", "0.2"]
        assert got[3] == ["2010", "stage:seed", "-1.0", "0.5", "0.3", "0.4"]

    def test_trajectory_needs_two_components(self, tmp_path):
        points = {"all": [TrajectoryPoint(2010, np.array([1.0]), np.array([0.1]))]}
        with pytest.raises(ValueError, match="2 components"):
            write_trajectory(tmp_path / "t.csv", points)

    def test_tca_factors(self, tmp_path):
        model = CPModel(
            rank=2,
            investor_factors=np.array([[1.0, 0.0], [0.0, 1.0]]),
            sector_factors=np.array([[0.5, 0.5], [0.5, -0.5]]),
            temporal_factors=np.array([[0.25, 0.75], [0.75, 0.25]]),
            component_weights=np.array([2.0, 1.0]),
            investor_ids=("i1", "i2"),
            sectors=("sA", "sB"),
            years=(2010, 2011),
        )
        got = read_csv(write_tca_factors(tmp_path / "f.csv", model))
        assert got[0] == ["mode", "component", "index_label", "value"]
        # 3 modes x 2 components x 2 labels
        assert len(got) == 1 + 12
        assert got[1] == ["investor", "1", "i1", "1.0"]
        assert got[6] == ["sector", "1", "sB", "0.5"]
        assert got[11] == ["temporal", "2", "2010", "0.75"]

    def test_tca_factor_label_fallback(self, tmp_path):
        model = CPModel(
            rank=1,
            investor_factors=np.array([[1.0], [0.0]]),
            sector_factors=np.array([[1.0]]),
            temporal_factors=np.array([[1.0]]),
            component_weights=np.array([1.0]),
        )
        got = read_csv(write_tca_factors(tmp_path / "f.csv", model))
        assert [row[2] for row in got[1:3]] == ["0", "1"]

    def test_tca_diagnostics(self, tmp_path):
        diagnostics = FitDiagnostics(
            ranks=(1, 2),
            restart_errors={1: np.array([0.5, 0.4]), 2: np.array([0.2, 0.25])},
            restart_sweeps={1: np.array([3, 4]), 2: np.array([12, 500])},
            restart_converged={1: np.array([True, True]), 2: np.array([True, False])},
            best_error={1: 0.4, 2: 0.2},
            similarity={1: 0.9, 2: 0.8},
            chosen_rank=2,
            best_models={},
        )
        got = read_csv(write_tca_diagnostics(tmp_path / "d.csv", diagnostics))
        assert got[0] == ["R", "restart", "error", "sweeps", "converged", "similarity"]
        assert got[1] == ["1", "0", "0.5", "3", "True", "0.9"]
        assert got[4] == ["2", "1", "0.25", "500", "False", "0.8"]
        # the flags arrive as bools, which csv writes with str
        assert [row[4] for row in got[1:]] == ["True", "True", "True", "False"]

    def test_top_investors_sorted_by_component(self, tmp_path):
        tables = {
            2: [("i9", "Nine", "vc", 0.9)],
            1: [("i1", "One", "vc", 0.8), ("i2", "Two", "angel", 0.7)],
        }
        got = read_csv(write_top_investors(tmp_path / "top.csv", tables))
        assert got[1] == ["1", "1", "i1", "One", "vc", "0.8"]
        assert got[2] == ["1", "2", "i2", "Two", "angel", "0.7"]
        assert got[3] == ["2", "1", "i9", "Nine", "vc", "0.9"]

    def test_distances(self, tmp_path):
        series = DistanceSeries(
            label_a="all",
            label_b="type:vc",
            entries=((2010, 1.5, 0.1), (2011, 2.5, 0.2)),
        )
        got = read_csv(write_distances(tmp_path / "d.csv", [series]))
        assert got[1] == ["2010", "all", "type:vc", "1.5", "0.1"]
        assert got[2] == ["2011", "all", "type:vc", "2.5", "0.2"]

    def test_heatmaps_full_grid_x_fastest(self, tmp_path):
        counts = np.arange(6, dtype=float).reshape(3, 2)
        grid = HeatmapGrid(
            x_edges=np.linspace(0, 1, 4),
            y_edges=np.linspace(0, 1, 3),
            counts={2011: counts, 2010: counts * 0},
        )
        written = write_heatmaps(tmp_path, grid)
        assert [p.name for p in written] == ["heatmap_2010.csv", "heatmap_2011.csv"]
        got = read_csv(tmp_path / "heatmap_2011.csv")
        assert len(got) == 1 + 6
        # x bin varies fastest within each y bin
        assert [row[:2] for row in got[1:4]] == [["0", "0"], ["1", "0"], ["2", "0"]]
        total = sum(int(row[2]) for row in got[1:])
        assert total == int(counts.sum())

    def test_spread(self, tmp_path):
        got = read_csv(write_spread(tmp_path / "s.csv", [(2010, 0.5, 0.05)]))
        assert got == [["year", "mean_distance", "sigma"], ["2010", "0.5", "0.05"]]

    def test_profiles_skips_zero_cells(self, tmp_path):
        profiles = make_profiles(
            np.array([[2.0, 0.0], [1.0, 3.0]]), sectors=("A", "B")
        )
        got = read_csv(write_profiles(tmp_path / "p.csv", profiles))
        assert got[0] == ["investor_id", "year", "stage", "sector", "rounds", "amount"]
        cells = {(row[0], row[3]) for row in got[1:]}
        assert cells == {("inv000", "A"), ("inv001", "A"), ("inv001", "B")}
        assert all(row[2] == "all" for row in got[1:])

    def test_profiles_stage_label(self, tmp_path):
        profiles = make_profiles(np.array([[1.0]]), sectors=("A",),
                                 stage=StageClass.SEED)
        got = read_csv(write_profiles(tmp_path / "p.csv", profiles))
        assert got[1][2] == "seed"


# Cells the writers format: the listed floats are the edge cases of repr
# (signed zero, the smallest subnormal, the switch to exponent notation).
EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, float("nan"), float("inf"), -1.5]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))
texts = st.text(alphabet=st.characters(codec="ascii", min_codepoint=32, max_codepoint=126)
                | st.sampled_from(',"\n\r'), max_size=8)


def float_array(data, shape):
    return np.array(data.draw(st.lists(floats, min_size=int(np.prod(shape)),
                                       max_size=int(np.prod(shape)))),
                    dtype=np.float64).reshape(shape)


class TestCellOracle:
    """Every writer writes the bytes ``_cell`` gave for the same values.

    Writers hand :mod:`csv` native values (``.tolist()``), and csv renders a
    float with ``repr`` and anything else with ``str``, which for ints and
    text is what ``_cell`` did. They must never pass a bool or a ``float32``:
    csv writes ``True`` and ``0.1`` where ``_cell`` wrote ``true`` and
    ``0.10000000149011612``.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_write_rows(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 12))
        text = data.draw(st.lists(texts, min_size=n, max_size=n))
        ints = np.array(data.draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                           min_size=n, max_size=n)), dtype=np.int64)
        values = float_array(data, (n,))
        path = tmp_path_factory.mktemp("rows") / "rows.csv"
        header = ["text", "int", "float"]
        write_rows(path, header, zip(text, ints.tolist(), values.tolist()))
        assert path.read_bytes() == cell_formatted(header, zip(text, ints, values))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_write_profiles(self, tmp_path_factory, data):
        n, p = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 4))
        sectors = tuple(data.draw(st.lists(texts.filter(bool), min_size=p, max_size=p,
                                           unique=True)))
        investor_ids = data.draw(st.lists(texts.filter(bool), min_size=n, max_size=n))
        profiles = ProfileTable(
            sectors=sectors,
            stage=data.draw(st.sampled_from([None, *StageClass])),
            investor_ids=np.array(investor_ids, dtype=str).reshape(n),
            years=np.array(data.draw(st.lists(st.integers(1990, 2030), min_size=n,
                                              max_size=n)), dtype=np.int64),
            # zero cells, -0.0 included, are skipped; NaN cells are not
            rounds=np.where(float_array(data, (n, p)) > 0, float_array(data, (n, p)), 0.0),
            amounts=float_array(data, (n, p)),
        )
        path = write_profiles(tmp_path_factory.mktemp("profiles") / "p.csv", profiles)
        label = "all" if profiles.stage is None else profiles.stage.value
        expected = [
            [profiles.investor_ids[r], profiles.years[r], label,
             sectors[c], profiles.rounds[r, c], profiles.amounts[r, c]]
            for r in range(n) for c in range(p) if profiles.rounds[r, c] != 0
        ]
        header = ["investor_id", "year", "stage", "sector", "rounds", "amount"]
        assert path.read_bytes() == cell_formatted(header, expected)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_write_heatmaps(self, tmp_path_factory, data):
        nx, ny = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        counts = {
            year: np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=nx * ny,
                                              max_size=nx * ny)),
                           dtype=float).reshape(nx, ny)
            for year in data.draw(st.sets(st.integers(2000, 2020), min_size=1, max_size=3))
        }
        grid = HeatmapGrid(np.linspace(0, 1, nx + 1), np.linspace(0, 1, ny + 1), counts)
        out = tmp_path_factory.mktemp("heatmaps")
        for path in write_heatmaps(out, grid):
            grid_counts = counts[int(path.stem.split("_")[1])]
            expected = [[ix, iy, int(grid_counts[ix, iy])]
                        for iy in range(ny) for ix in range(nx)]
            assert path.read_bytes() == cell_formatted(["xbin", "ybin", "count"], expected)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_write_tca_factors(self, tmp_path_factory, data):
        rank = data.draw(st.integers(1, 3))
        shape = [data.draw(st.integers(1, 4)) for _ in range(3)]
        labelled = data.draw(st.booleans())
        model = CPModel(
            rank=rank,
            investor_factors=float_array(data, (shape[0], rank)),
            sector_factors=float_array(data, (shape[1], rank)),
            temporal_factors=float_array(data, (shape[2], rank)),
            component_weights=np.ones(rank),
            investor_ids=tuple(f"i,{i}" for i in range(shape[0])) if labelled else (),
            sectors=tuple(f'"s{j}"' for j in range(shape[1])) if labelled else (),
            years=tuple(range(2010, 2010 + shape[2])) if labelled else (),
        )
        path = write_tca_factors(tmp_path_factory.mktemp("tca") / "f.csv", model)
        expected = []
        for mode, factor, labels in zip(
                ("investor", "sector", "temporal"), model.factors,
                (model.investor_ids, model.sectors, tuple(map(str, model.years)))):
            labels = labels or tuple(str(i) for i in range(factor.shape[0]))
            for r in range(rank):
                for idx, label in enumerate(labels):
                    expected.append([mode, r + 1, label, factor[idx, r]])
        header = ["mode", "component", "index_label", "value"]
        assert path.read_bytes() == cell_formatted(header, expected)

    def test_bools_and_float32_are_not_cell_values(self, tmp_path):
        values = [True, np.float32(0.1)]
        path = write_rows(tmp_path / "b.csv", ["flag", "x"], [values])
        assert path.read_bytes() == b"flag,x\nTrue,0.1\n"
        assert cell_formatted(["flag", "x"], [values]) == b"flag,x\ntrue,0.10000000149011612\n"


class TestManifest:
    def test_sha256_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abc" * 1000)
        assert sha256_digest(path) == hashlib.sha256(b"abc" * 1000).hexdigest()

    def test_manifest_contents(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("a\n1\n")
        path = write_manifest(
            tmp_path / "manifest.json",
            command="tca",
            config={"r_range": [1, 5], "seed": 0},
            inputs={"rounds": data},
            results={"chosen_R": 2},
        )
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "tca"
        assert manifest["config"] == {"r_range": [1, 5], "seed": 0}
        assert manifest["results"] == {"chosen_R": 2}
        assert manifest["inputs"]["rounds"]["sha256"] == sha256_digest(data)

    def test_failed_manifest_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        data = tmp_path / "in.csv"
        data.write_text("a\n1\n")
        out = tmp_path / "out"
        path = write_manifest(out / "manifest_all.json", "all", {}, {"d": data})
        before = path.read_bytes()
        # serialization fails part-way through the file
        with pytest.raises(TypeError):
            write_manifest(path, "all", {}, {"d": data}, results={"bad": object()})
        assert sorted(p.name for p in out.iterdir()) == ["manifest_all.json"]
        assert path.read_bytes() == before
        # the final move fails
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(reports.os, "replace", refuse)
        with pytest.raises(OSError):
            write_manifest(out / "manifest_tca.json", "tca", {}, {"d": data})
        assert sorted(p.name for p in out.iterdir()) == ["manifest_all.json"]

    def test_failed_ontology_and_truth_writes_leave_no_partial_file(self, tmp_path,
                                                                     monkeypatch):
        ontology = tmp_path / "new" / "ontology.json"
        dump_ontology(make_ontology(version="before"), ontology)
        files, _ = synth.generate_ecosystem(tiny_scenario(seed=0), tmp_path / "eco")
        before = ontology.read_bytes(), files.truth.read_bytes()
        replace = os.replace

        def refuse(src, dst):
            if Path(dst) in (ontology, files.truth):
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(reports.os, "replace", refuse)
        with pytest.raises(OSError):
            dump_ontology(make_ontology(version="after"), ontology)
        with pytest.raises(OSError):
            synth.generate_ecosystem(tiny_scenario(seed=1), tmp_path / "eco")
        assert (ontology.read_bytes(), files.truth.read_bytes()) == before
        assert [p.name for p in ontology.parent.iterdir()] == ["ontology.json"]
        assert not [p for p in files.truth.parent.iterdir() if p.name.startswith(".")]

    def test_manifest_bytes_deterministic(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("a\n1\n")
        kwargs = dict(command="x", config={"b": 1, "a": 2}, inputs={"d": data})
        first = write_manifest(tmp_path / "m1.json", **kwargs).read_bytes()
        second = write_manifest(tmp_path / "m2.json", **kwargs).read_bytes()
        assert first == second
        assert first.endswith(b"}\n")
        # keys are sorted so semantically equal configs serialize identically
        assert first.index(b'"a"') < first.index(b'"b"')


class TestFmt:
    def test_trims_trailing_zeros(self):
        assert svgplot._fmt(1.0) == "1"
        assert svgplot._fmt(0.25) == "0.25"
        assert svgplot._fmt(12.3456) == "12.346"

    def test_negative_zero_collapses(self):
        assert svgplot._fmt(-1e-5) == "0"

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                svgplot._fmt(bad)


class TestCharts:
    def test_line_chart_deterministic(self):
        series = [("vc", [2010.0, 2011.0], [1.0, 2.0]),
                  ("angel", [2010.0, 2011.0], [2.0, 1.0])]
        first = svgplot.line_chart(series, title="d", x_label="year", y_label="v")
        second = svgplot.line_chart(series, title="d", x_label="year", y_label="v")
        assert first == second
        assert first.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert first.endswith("</svg>\n")
        assert ">vc</text>" in first and ">angel</text>" in first
        # second series picks the next palette color
        assert svgplot.PALETTE[1] in first

    def test_line_chart_error_bars(self):
        series = [("vc", [1.0, 2.0], [1.0, 2.0])]
        plain = svgplot.line_chart(series)
        with_bars = svgplot.line_chart(series, sigmas={"vc": [0.5, 0.5]})
        # bars are the only translucent elements
        assert plain.count('opacity="0.6"') == 0
        assert with_bars.count('opacity="0.6"') == 2

    def test_line_chart_empty(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.line_chart([])
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.line_chart([("vc", [], [])])

    def test_line_chart_non_finite(self):
        with pytest.raises(ValueError):
            svgplot.line_chart([("vc", [1.0, 2.0], [1.0, float("nan")])])

    def test_trajectory_chart(self):
        points = [(2010, 0.0, 0.0), (2011, 1.0, 0.5)]
        svg = svgplot.trajectory_chart(points)
        assert ">2010</text>" in svg and ">2011</text>" in svg
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.trajectory_chart([])

    def test_scatter_chart(self):
        svg = svgplot.scatter_chart([("Energy", 0.1, -0.2), ("Media", -0.3, 0.4)])
        assert ">Energy</text>" in svg and ">Media</text>" in svg

    def test_span_within_rounding_is_widened(self):
        # ticks step by a fifth of the span, which one ulp at 0.7 cannot advance
        lo = 0.7071067811865475
        hi = float(np.nextafter(lo, 1.0))
        frame = svgplot._Frame(lo, hi, 0.0, 1.0)
        assert frame.x_hi - frame.x_lo > 1.0
        svg = svgplot.scatter_chart([("Energy", lo, 0.1), ("Media", hi, 0.2)])
        assert ">Energy</text>" in svg and ">Media</text>" in svg

    def test_heatmap_skips_empty_cells(self):
        counts = np.array([[2.0, 0.0], [0.0, 1.0]])
        svg = svgplot.heatmap_chart(
            counts, np.linspace(0, 1, 3), np.linspace(0, 1, 3)
        )
        # background + frame + one rect per nonzero cell
        assert svg.count("<rect") == 2 + 2
        # peak cell is darkest: level 1 -> shade 40
        assert "rgb(40,40,255)" in svg
        with pytest.raises(ValueError, match="2-D"):
            svgplot.heatmap_chart(np.zeros(4), np.zeros(3), np.zeros(3))

    def test_bar_chart_signs(self):
        svg = svgplot.bar_chart(["up", "down"], [1.0, -2.0])
        assert f'fill="{svgplot.PALETTE[0]}"' in svg
        assert f'fill="{svgplot.PALETTE[1]}"' in svg
        with pytest.raises(ValueError, match="align"):
            svgplot.bar_chart(["a"], [1.0, 2.0])

    def test_save_svg_round_trip(self, tmp_path):
        svg = svgplot.bar_chart(["a"], [1.0])
        path = svgplot.save_svg(tmp_path / "chart.svg", svg)
        assert path.read_text(encoding="utf-8") == svg

    def test_failed_svg_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        path = svgplot.save_svg(tmp_path / "chart.svg", svgplot.bar_chart(["a"], [1.0]))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(reports.os, "replace", refuse)
        with pytest.raises(OSError):
            svgplot.save_svg(path, svgplot.bar_chart(["b"], [2.0]))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chart.svg"]
        assert path.read_bytes() == before
