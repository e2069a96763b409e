"""Tests for CSV/manifest writers and the SVG emitters.

Everything here is about byte-level determinism and faithful round trips:
the writers are the reproducibility surface of the pipeline, so the tests
read files back and compare against independently formatted expectations.
"""
import csv
import datetime as dt
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_profiles
from sectorspace import reports, svgplot
from sectorspace.metrics import DistanceSeries, HeatmapGrid
from sectorspace.pca import PCAModel, TrajectoryPoint
from sectorspace.profiles import GroupSpec, StageClass
from sectorspace.reports import (
    _cell,
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


class TestCell:
    def test_scalar_formats(self):
        assert _cell("plain") == "plain"
        assert _cell(True) == "true"
        assert _cell(np.bool_(False)) == "false"
        assert _cell(7) == "7"
        assert _cell(np.int64(-3)) == "-3"
        assert _cell(0.1) == "0.1"
        assert _cell(np.float64(1.0) / 3.0) == repr(1.0 / 3.0)
        assert _cell(dt.date(2010, 3, 15)) == "2010-03-15"
        assert _cell(None) == ""

    def test_bool_checked_before_int(self):
        # bool is a subclass of int; the writer must not emit "1"
        assert _cell(True) != "1"

    def test_unformattable_type(self):
        with pytest.raises(TypeError, match="list"):
            _cell([1, 2])


class TestWriteRows:
    def test_exact_bytes(self, tmp_path):
        path = write_rows(tmp_path / "out.csv", ["a", "b"], [[1, 0.5], ["x", None]])
        assert path.read_bytes() == b"a,b\n1,0.5\nx,\n"

    def test_quoting_round_trip(self, tmp_path):
        rows = [["Four, Inc.", 'say "hi"'], ["line\nbreak", "plain"]]
        path = write_rows(tmp_path / "q.csv", ["name", "note"], rows)
        assert read_csv(path) == [["name", "note"]] + rows

    def test_creates_parent_dirs(self, tmp_path):
        path = write_rows(tmp_path / "deep" / "nest" / "f.csv", ["a"], [[1]])
        assert path.exists()

    def test_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="row width"):
            write_rows(tmp_path / "bad.csv", ["a", "b"], [[1]])

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

    @given(
        rows=st.lists(
            st.lists(
                st.text(
                    alphabet=st.characters(
                        codec="ascii", min_codepoint=32, max_codepoint=126
                    )
                    | st.sampled_from('",\n'),
                    max_size=12,
                ),
                min_size=2,
                max_size=2,
            ),
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_text_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rt") / "rt.csv"
        write_rows(path, ["a", "b"], rows)
        assert read_csv(path) == [["a", "b"]] + rows


class TestWriters:
    def test_pca_loadings(self, tmp_path):
        model = PCAModel(
            axes=np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
            explained_variance=np.array([2.0, 1.0]),
            total_variance=3.0,
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
            seed=0,
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
            seed=0,
        )
        got = read_csv(write_tca_factors(tmp_path / "f.csv", model))
        assert [row[2] for row in got[1:3]] == ["0", "1"]

    def test_tca_diagnostics(self, tmp_path):
        diagnostics = FitDiagnostics(
            ranks=(1, 2),
            restart_errors={1: np.array([0.5, 0.4]), 2: np.array([0.2, 0.25])},
            best_error={1: 0.4, 2: 0.2},
            similarity={1: 0.9, 2: 0.8},
            chosen_rank=2,
            best_models={},
            similarity_threshold=0.8,
        )
        got = read_csv(write_tca_diagnostics(tmp_path / "d.csv", diagnostics))
        assert got[0] == ["R", "restart", "error", "similarity"]
        assert got[1] == ["1", "0", "0.5", "0.9"]
        assert got[4] == ["2", "1", "0.25", "0.8"]

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
            group_a=GroupSpec(),
            group_b=GroupSpec(investor_type="vc"),
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
        svg = svgplot.trajectory_chart(
            points, annotations=[("Software", 0.5, 0.5)]
        )
        assert ">2010</text>" in svg and ">2011</text>" in svg
        assert ">Software</text>" in svg
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.trajectory_chart([])

    def test_scatter_chart(self):
        svg = svgplot.scatter_chart([("Energy", 0.1, -0.2), ("Media", -0.3, 0.4)])
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
