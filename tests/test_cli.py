"""End-to-end tests for the command-line pipeline.

The tca rank-selection test feeds the CLI tables whose round counts are an
affine image of a planted rank-2 tensor. Per-fiber standardization in
build_tensor is invariant to per-fiber affine maps, so the pipeline tensor
carries the planted structure and the scan must pick R = 2.
"""
import ast
import csv
import dataclasses
import importlib
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sectorspace
from sectorspace import cli, ingest, pca, profiles, synth, tca
from sectorspace.ontology import SectorOntology, dump_ontology
from sectorspace.reports import sha256_digest


def write_csv(path, header, rows):
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def counts_to_tables(counts, out_dir, first_year=2009, types=None):
    """Realize an N x S x K round-count array as loadable CSV tables.

    One startup per (sector, year) slot; every count becomes one round row.
    Investor i has type ``types[i]``, by default ``vc``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n, s, k = counts.shape
    sectors = tuple(f"Sector {j:02d}" for j in range(s))
    dump_ontology(SectorOntology(parent_tags=sectors, version="planted"),
                  out_dir / "ontology.json")
    startup_rows = [
        [f"stp_{j:02d}_{kk}", f"Startup {j}-{kk}", "USA", "active",
         f"{first_year + kk}-01-02", sectors[j]]
        for j in range(s) for kk in range(k)
    ]
    round_rows = []
    serial = 0
    for i in range(n):
        for j in range(s):
            for kk in range(k):
                for _ in range(int(counts[i, j, kk])):
                    round_rows.append(
                        [f"rnd_{serial:06d}", f"stp_{j:02d}_{kk}",
                         f"{first_year + kk}-06-15", "seed", "1000000.0",
                         f"inv_{i:04d}"]
                    )
                    serial += 1
    write_csv(out_dir / "startups.csv",
              ["startup_id", "name", "country_code", "status", "founded_date",
               "tags"], startup_rows)
    write_csv(out_dir / "rounds.csv",
              ["round_id", "startup_id", "announced_date", "stage_label",
               "amount_usd", "investor_ids"], round_rows)
    write_csv(out_dir / "investors.csv", ["investor_id", "name", "type_label"],
              [[f"inv_{i:04d}", f"Investor {i}", types[i] if types else "vc"]
               for i in range(n)])
    return out_dir


def table_flags(data_dir, ontology=True):
    flags = [
        "--startups", str(data_dir / "startups.csv"),
        "--rounds", str(data_dir / "rounds.csv"),
        "--investors", str(data_dir / "investors.csv"),
    ]
    if ontology:
        flags += ["--ontology", str(data_dir / "ontology.json")]
    return flags


def smoke_scenario(seed=0):
    """Small two-type ecosystem exercising every analysis stage quickly."""
    n_sectors = 6
    m_a = synth._block_mixture(n_sectors, range(0, 3), mass=0.92)
    m_b = synth._block_mixture(n_sectors, range(3, 6), mass=0.92)
    return synth.ScenarioConfig(
        name="smoke",
        years=range(2008, 2014),
        n_sectors=n_sectors,
        archetypes=(
            synth.ArchetypeSpec("fund", "vc", 8, m_a, 9.0),
            synth.ArchetypeSpec("program", "accelerator", 6, m_b, 12.0,
                                active_window=range(2010, 2014)),
        ),
        seed=seed,
    )


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    synth.generate_ecosystem(smoke_scenario(), out)
    return out


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    tensor, _ = synth.generate_cp_tensor(24, 6, 5, 2, noise=0.05, seed=0)
    counts = np.rint(25.0 + 4.0 * tensor).clip(min=0.0)
    return counts_to_tables(counts, tmp_path_factory.mktemp("planted"))


class TestParser:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_reversed_years(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["validate", "--years", "2015:2010"])
        assert exc.value.code == 2

    def test_bad_r_range(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["tca", "--r-range", "0:3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--years", "2010:"), ("--r-range", "3:")])
    def test_trailing_colon_is_a_bad_range(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["all", flag, value])
        assert exc.value.code == 2
        assert f"bad range {value!r}" in capsys.readouterr().err

    def test_bad_grid(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["spread", "--grid", "1x5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--pca-dim", "1"), ("--restarts", "1"), ("--tol", "0"), ("--tol", "-1e-6"),
        ("--tol", "nan"), ("--pca-dim", "two"),
    ])
    def test_out_of_range_number_exits_before_writing(self, smoke_dir, tmp_path, capsys,
                                                       flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["all", *table_flags(smoke_dir), flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_accepted_numbers(self):
        args = cli.build_parser().parse_args(
            ["all", "--pca-dim", "2", "--restarts", "2", "--tol", "1e-12"])
        assert (args.pca_dim, args.restarts, args.tol) == (2, 2, 1e-12)

    def test_year_shorthand(self):
        args = cli.build_parser().parse_args(["validate", "--years", "2010"])
        assert args.years == range(2010, 2011)

    def test_defaults(self):
        args = cli.build_parser().parse_args(["all"])
        assert args.years == range(2000, 2018) == profiles.DEFAULT_YEARS
        assert args.country == "USA" == ingest.DEFAULT_COUNTRY
        assert args.exclude_sectors is None
        assert cli.DEFAULT_EXCLUDES == ("Health Care",)
        assert args.tol == 1e-6 == tca.DEFAULT_TOL
        assert args.r_range == range(1, 9)
        assert args.restarts == 8
        assert args.grid == (30, 30)


class TestPcaDim:
    """``--pca-dim`` is checked against the kept sectors before any file is written."""

    @pytest.mark.parametrize("command", ["all", "pca"])
    def test_above_kept_sectors_exits_before_writing(self, smoke_dir, tmp_path, capsys,
                                                     command):
        out = tmp_path / "out"
        code = cli.main([command, *table_flags(smoke_dir), "--pca-dim", "7",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: --pca-dim 7" in err and "6 kept sectors" in err
        assert not out.exists()

    def test_every_kept_sector_is_accepted(self, smoke_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["pca", *table_flags(smoke_dir), "--pca-dim", "6",
                         "--out", str(out)]) == 0
        with (out / "pca_loadings.csv").open(newline="") as handle:
            assert next(csv.reader(handle))[-1] == "axis6"


class TestPca:
    def test_one_profile_exits_before_writing(self, tmp_path, capsys):
        data = counts_to_tables(np.ones((1, 2, 1)), tmp_path / "lone")
        out = tmp_path / "out"
        assert cli.main(["pca", *table_flags(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: standardize needs a matrix with at least 2 rows\n")
        assert not out.exists()


class TestEmptySelection:
    """A selection that keeps no round inside ``--years`` is refused before any file is written."""

    @pytest.mark.parametrize("command", ["all", "pca", "tca", "distances", "spread"])
    @pytest.mark.parametrize("flags", [["--country", "DEU"], ["--years", "2030:2031"]])
    def test_analysis_stages_exit_before_writing(self, smoke_dir, tmp_path, capsys,
                                                 command, flags):
        out = tmp_path / "out"
        code = cli.main([command, *table_flags(smoke_dir), *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--country" in err and "--years" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--country", "DEU"], ["--years", "2030:2031"]])
    def test_profiles_writes_a_header_only_table(self, smoke_dir, tmp_path, capsys, flags):
        out = tmp_path / "out"
        code = cli.main(["profiles", *table_flags(smoke_dir), *flags, "--out", str(out)])
        assert code == 0
        assert (out / "profiles.csv").read_text() == (
            "investor_id,year,stage,sector,rounds,amount\n")
        manifest = json.loads((out / "manifest_profiles.json").read_text())
        assert manifest["results"]["profiles"] == 0

    @pytest.mark.parametrize("command", ["all", "tca"])
    def test_tca_needs_two_years_before_writing(self, smoke_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = cli.main([command, *table_flags(smoke_dir), "--years", "2009", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: tca needs kept rounds in 2 years of --years 2009:2009 for its "
            "temporal factors; 1 kept\n")
        assert not out.exists()

    def test_tca_counts_the_years_of_the_kept_stage(self, tmp_path, capsys):
        data = counts_to_tables(np.ones((3, 2, 3)), tmp_path / "seed")  # seed rounds only
        out = tmp_path / "out"
        code = cli.main(["tca", *table_flags(data), "--stage", "a", "--out", str(out)])
        assert code == 1
        assert "tca needs kept rounds in 2 years" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["all", "tca"])
    def test_tca_does_not_count_a_year_of_unclassified_rounds(self, tmp_path, capsys,
                                                              command):
        # every 2011 round funds s2, whose only tag the ontology does not know
        data = tmp_path / "data"
        data.mkdir()
        write_csv(data / "startups.csv", ingest.STARTUP_COLUMNS, [
            ["s1", "One", "USA", "active", "2008-01-02", "Software"],
            ["s2", "Two", "USA", "active", "2008-01-02", "Not A Sector"],
        ])
        write_csv(data / "rounds.csv", ingest.ROUND_COLUMNS, [
            [f"r{sid}{iid}", sid, f"{year}-06-15", "seed", "1000000", iid]
            for sid, year in (("s1", 2010), ("s2", 2011)) for iid in ("i1", "i2")
        ])
        write_csv(data / "investors.csv", ingest.INVESTOR_COLUMNS,
                  [["i1", "Fund", "vc"], ["i2", "Angel", "angel"]])
        out = tmp_path / "out"
        code = cli.main([command, *table_flags(data, ontology=False), "--years", "2010:2011",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: tca needs kept rounds in 2 years of --years 2010:2011 for its "
            "temporal factors; 1 kept\n")
        assert not out.exists()

    def test_one_year_inside_the_window_is_enough(self, smoke_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["spread", *table_flags(smoke_dir), "--years", "2013:2020",
                         "--out", str(out)]) == 0
        assert (out / "heatmap_2013.csv").exists()


class TestValidate:
    def test_clean_dataset(self, smoke_dir, capsys):
        code = cli.main(["validate", *table_flags(smoke_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "loaded: " in out and "filtered: " in out
        assert "ok: 0 warning(s)" in out

    def test_missing_file(self, smoke_dir, capsys):
        code = cli.main(["validate", *table_flags(smoke_dir),
                         "--rounds", str(smoke_dir / "absent.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        code = cli.main(["validate"])
        assert code == 1
        assert "--startups is required" in capsys.readouterr().err


class TestTca:
    def test_planted_rank_two_recorded(self, planted_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["tca", *table_flags(planted_dir),
                         "--r-range", "1:5", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest_tca.json").read_text())
        assert manifest["results"]["chosen_R"] == 2
        assert manifest["config"]["r_range"] == [1, 5]
        for name in ("tca_factors.csv", "tca_diagnostics.csv",
                     "top_investors.csv", "tca_error.svg", "tca_temporal.svg",
                     "tca_sector_1.svg", "tca_sector_2.svg"):
            assert (out / name).exists(), name
        with (out / "tca_diagnostics.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        # 5 ranks x 8 default restarts
        assert len(rows) == 1 + 40
        assert rows[0] == ["R", "restart", "error", "sweeps", "converged", "similarity"]
        assert all(1 <= int(row[3]) <= tca.DEFAULT_MAX_ITER for row in rows[1:])
        # a fit the tol test did not stop ran to the cap
        assert all(row[4] == "True" or int(row[3]) == tca.DEFAULT_MAX_ITER
                   for row in rows[1:])
        assert {row[4] for row in rows[1:]} <= {"True", "False"}

    def test_infeasible_r_range(self, smoke_dir, tmp_path, capsys):
        self.check_refused(["tca", *table_flags(smoke_dir), "--r-range", "40:50"], tmp_path,
                           capsys, "no feasible rank in --r-range for this tensor")

    def test_all_refuses_an_infeasible_r_range_before_writing(self, smoke_dir, tmp_path,
                                                              capsys):
        self.check_refused(["all", *table_flags(smoke_dir), "--r-range", "40:50",
                            "--years", "2008:2013"], tmp_path, capsys,
                           "no feasible rank in --r-range for this tensor")

    def test_one_investor_exits_before_writing(self, tmp_path, capsys):
        data = counts_to_tables(np.arange(15.0).reshape(1, 3, 5) % 4 + 1, tmp_path / "lone")
        self.check_refused(["tca", *table_flags(data)], tmp_path, capsys,
                           "tensor needs at least 2 investors")

    @staticmethod
    def check_refused(argv, tmp_path, capsys, message):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_empty_year_window(self, smoke_dir, tmp_path, capsys):
        code = cli.main(["tca", *table_flags(smoke_dir),
                         "--years", "1990:1995", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSpread:
    def test_no_year_with_two_investors_exits_before_writing(self, tmp_path, capsys):
        # one investor whose yearly mix varies, so the heatmap edges are not degenerate
        counts = np.arange(15.0).reshape(1, 3, 5) % 4 + 1
        data = counts_to_tables(counts, tmp_path / "lone", first_year=2010)
        out = tmp_path / "out"
        code = cli.main(["spread", *table_flags(data), "--grid", "2x2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: no year has two active investors to spread\n"
        assert not out.exists()

    def test_one_kept_sector_exits_before_writing(self, smoke_dir, tmp_path, capsys):
        out = tmp_path / "out"
        excludes = [f for j in range(5) for f in ("--exclude-sector", f"Sector {j:02d}")]
        code = cli.main(["spread", *table_flags(smoke_dir), *excludes, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: spread" in err and "2-D heatmap plane" in err and "1 kept" in err
        assert not out.exists()


class TestDistances:
    def test_one_investor_type_is_named(self, tmp_path, capsys):
        self.check_one_type_refused(tmp_path, capsys, "distances",
                                    "distances needs profiles of 2 investor types; present: vc")

    @pytest.mark.parametrize("command", ["tca", "all"])
    def test_tca_gate_refuses_first(self, tmp_path, capsys, command):
        # no rank reaches the similarity gate, and all runs tca before distances
        self.check_one_type_refused(tmp_path, capsys, command,
                                    "no candidate rank reached model similarity >= 0.8; "
                                    "review the threshold or widen the scan")

    @staticmethod
    def check_one_type_refused(tmp_path, capsys, command, message):
        data = tmp_path / "data"
        synth.generate_ecosystem(synth.baseline_scenario(seed=0, n_investors=4, rate=4.0), data)
        out = tmp_path / "out"
        code = cli.main([command, *table_flags(data), "--years", "2006:2015", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["data"]

    @pytest.mark.parametrize("command", ["distances", "all"])
    def test_type_only_in_excluded_sectors_refused_before_writing(self, tmp_path, capsys,
                                                                 command):
        # i2 (angel) funds only s2, whose sector is excluded by default, so
        # only vc investors get profiles although both types have rounds
        data = tmp_path / "data"
        data.mkdir()
        write_csv(data / "startups.csv", ingest.STARTUP_COLUMNS, [
            ["s1", "One", "USA", "active", "2008-01-02", "Software"],
            ["s2", "Two", "USA", "active", "2008-01-02", "Health Care"],
        ])
        write_csv(data / "rounds.csv", ingest.ROUND_COLUMNS, [
            [f"r{sid}{year}", sid, f"{year}-06-15", "seed", "1000000", iid]
            for sid, iid in (("s1", "i1"), ("s2", "i2")) for year in (2010, 2011)
        ])
        write_csv(data / "investors.csv", ingest.INVESTOR_COLUMNS,
                  [["i1", "Fund", "vc"], ["i2", "Angel", "angel"]])
        out = tmp_path / "out"
        code = cli.main([command, *table_flags(data, ontology=False), "--years", "2010:2011",
                         "--r-range", "1:1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: distances needs profiles of 2 investor types; present: vc\n")
        assert not out.exists()

    def test_types_without_a_shared_year(self, tmp_path, capsys):
        self.check_apart_refused(tmp_path, capsys, "distances")

    def test_all_refuses_types_without_a_shared_year_before_writing(self, tmp_path, capsys):
        self.check_apart_refused(tmp_path, capsys, "all")

    @staticmethod
    def check_apart_refused(tmp_path, capsys, command):
        mixture = np.full(4, 0.25)
        config = synth.ScenarioConfig(
            name="apart", years=range(2008, 2012), n_sectors=4, seed=0, archetypes=(
                synth.ArchetypeSpec("fund", "vc", 3, mixture, 6.0,
                                    active_window=range(2008, 2010)),
                synth.ArchetypeSpec("program", "accelerator", 3, mixture, 6.0,
                                    active_window=range(2010, 2012))))
        synth.generate_ecosystem(config, tmp_path / "data")
        out = tmp_path / "out"
        code = cli.main([command, *table_flags(tmp_path / "data"), "--years", "2008:2011",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: no type pair shares an active year\n"
        assert not out.exists()


# two investors whose rows are opposite: the rank-2 fit's Gram stays singular
# after the ridge
OPPOSITE_ROWS = np.array([[[0, 1, 1], [1, 0, 0]], [[1, 0, 0], [0, 1, 1]]], dtype=float)


@st.composite
def small_tables(draw):
    """Round counts of 1-3 investors (types vc or angel), 2-4 sectors and 1-3 years.

    Investors share a few drawn rows, so equal investors come up often, and
    each is active in a drawn subset of the years."""
    n, s, k = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=s * k, max_size=s * k),
                         min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
    active = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                           min_size=n, max_size=n))
    types = draw(st.lists(st.sampled_from(["vc", "angel"]), min_size=n, max_size=n))
    counts = np.array([rows[p] for p in picks], dtype=float).reshape(n, s, k)
    return counts * np.array(active)[:, None, :], types


@settings(deadline=None, max_examples=200)
@given(tables=small_tables(),
       flags=st.lists(st.sampled_from([("--stage", "seed"), ("--stage", "a"),
                                       ("--exclude-sector", "Sector 00"),
                                       ("--years", "2010:2012"), ("--r-range", "3:3")]),
                      unique=True))
@example(tables=(OPPOSITE_ROWS, ["vc", "angel"]), flags=[])
@example(tables=(np.ones((2, 2, 2)), ["vc", "angel"]), flags=[])  # degenerate bin edges
def test_a_refusal_leaves_nothing_behind(tables, flags):
    """Each analysis command either writes its manifest, or exits 1 with one
    error line and no ``--out``, even when only a fit or a projection refuses."""
    counts, types = tables
    with tempfile.TemporaryDirectory() as tmp:
        data = counts_to_tables(counts, Path(tmp) / "data", types=types)
        for command in ("pca", "tca", "distances", "spread", "all"):
            out = Path(tmp) / command
            argv = [command, *table_flags(data), "--r-range", "1:2", "--restarts", "2",
                    "--grid", "3x3", *(flag for pair in flags for flag in pair),
                    "--out", str(out)]
            with redirect_stderr(StringIO()) as err:
                code = cli.main(argv)
            if code == 0:
                assert (out / f"manifest_{command}.json").is_file()
                continue
            assert code == 1
            errors = [line for line in err.getvalue().splitlines()
                      if line.startswith("error: ")]
            assert len(errors) == 1
            assert not out.exists(), (command, errors[0])
            assert not list(Path(tmp).glob(f".{command}.*")), (command, errors[0])


def test_a_refused_all_keeps_an_old_out(tmp_path, capsys):
    """A refusal that comes late in the run leaves an existing ``--out`` as it was,
    and no staging directory beside it."""
    data = counts_to_tables(OPPOSITE_ROWS, tmp_path / "data", types=["vc", "angel"])
    out = tmp_path / "out"
    out.mkdir()
    old = {"profiles.csv": b"investor_id,year\nold,2000\n", "notes.txt": b"kept\n"}
    for name, content in old.items():
        (out / name).write_bytes(content)
    assert cli.main(["all", *table_flags(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(
        "error: ALS subproblem stays singular after the ridge\n")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == old
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data", "out"]


EXPECTED_ALL = [
    "distances.csv", "distances.svg",
    "manifest_all.json",
    "pca_loadings.csv", "pca_sectors.svg",
    "profiles.csv",
    "spread.csv", "spread.svg",
    "tca_diagnostics.csv", "tca_error.svg", "tca_factors.csv",
    "tca_temporal.svg", "top_investors.csv",
    "trajectory.csv", "trajectory_all.svg", "trajectory_seed.svg",
]


SMOKE_FLAGS = ["--years", "2008:2013", "--r-range", "1:3", "--restarts", "3", "--grid", "5x5"]
STAGES = ["profiles", "pca", "tca", "distances", "spread"]


class TestAll:
    def run_all(self, smoke_dir, out):
        return cli.main(["all", *table_flags(smoke_dir), *SMOKE_FLAGS, "--out", str(out)])

    def test_full_artifact_set(self, smoke_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run_all(smoke_dir, out) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no staging directory left
        names = sorted(p.name for p in out.iterdir())
        for name in EXPECTED_ALL:
            assert name in names, name
        for year in range(2008, 2014):
            assert f"heatmap_{year}.csv" in names
            assert f"heatmap_{year}.svg" in names

    def test_manifest(self, smoke_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run_all(smoke_dir, out) == 0
        manifest = json.loads((out / "manifest_all.json").read_text())
        assert sorted(manifest["results"]) == [
            "distances", "pca", "profiles", "spread", "tca"
        ]
        assert manifest["version"] == sectorspace.__version__
        assert manifest["config"]["years"] == [2008, 2013]
        assert manifest["results"]["tca"]["chosen_R"] in (1, 2, 3)
        assert manifest["results"]["distances"]["pairs"] == [
            ["type:accelerator", "type:vc"]
        ]
        assert manifest["results"]["spread"]["years"] == list(range(2008, 2014))
        for name, record in manifest["inputs"].items():
            assert record["sha256"] == sha256_digest(record["path"]), name

    def test_manifest_echoes_every_setting(self, smoke_dir, tmp_path, capsys):
        """The config block is exactly the echoed flags, each as the run read it."""
        out = tmp_path / "out"
        # profiles: a one-year window leaves tca no tensor to fit
        assert cli.main(["profiles", *table_flags(smoke_dir), "--stage", "a",
                         "--years", "2009", "--grid", "5x7", "--exclude-sector", "",
                         "--tol", "1e-5", "--seed", "3", "--r-range", "2:4",
                         "--restarts", "5", "--pca-dim", "3", "--strict-tags",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest_profiles.json").read_text())
        assert manifest["config"] == {
            "years": [2009, 2009], "country": "USA", "exclude_sectors": [],
            "stage": "series_a", "pca_dim": 3, "r_range": [2, 4], "restarts": 5,
            "tol": 1e-5, "seed": 3, "grid": [5, 7], "strict_tags": True,
        }
        assert sorted(manifest["inputs"]) == ["investors", "ontology", "rounds", "startups"]

    def test_resolves_each_startup_at_most_once(self, smoke_dir, tmp_path, capsys,
                                                monkeypatch):
        calls = []
        resolve = SectorOntology.resolve

        def counting(ontology, tags):
            calls.append(tuple(tags))
            return resolve(ontology, tags)

        monkeypatch.setattr(SectorOntology, "resolve", counting)
        assert self.run_all(smoke_dir, tmp_path / "out") == 0
        with (smoke_dir / "startups.csv").open(newline="", encoding="utf-8") as handle:
            n_startups = sum(1 for _ in csv.DictReader(handle))
        assert 0 < len(calls) <= n_startups
        assert len(set(calls)) == len(calls)

    def test_reruns_byte_identical(self, smoke_dir, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        assert self.run_all(smoke_dir, first) == 0
        assert self.run_all(smoke_dir, second) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.fixture(scope="class")
def stage_outputs(request, tmp_path_factory):
    """``all`` and each single-stage command, run on the class's tables with its flags."""
    data = request.getfixturevalue(request.cls.TABLES)
    outputs = {}
    for command in ["all", *STAGES]:
        out = tmp_path_factory.mktemp(command)
        assert cli.main([command, *table_flags(data), *request.cls.FLAGS,
                         "--out", str(out)]) == 0
        outputs[command] = out
    return outputs


class TestSingleStages:
    """Each single-stage command writes what ``all`` writes for that stage."""

    TABLES = "smoke_dir"
    FLAGS = SMOKE_FLAGS

    @pytest.mark.parametrize("stage", STAGES)
    def test_files_and_manifest_match_all(self, stage_outputs, stage):
        everything, own = stage_outputs["all"], stage_outputs[stage]
        for path in own.iterdir():
            if path.name != f"manifest_{stage}.json":
                assert path.read_bytes() == (everything / path.name).read_bytes(), path.name
        combined = json.loads((everything / "manifest_all.json").read_text())
        manifest = json.loads((own / f"manifest_{stage}.json").read_text())
        assert manifest["results"] == combined["results"][stage]
        assert manifest["config"] == combined["config"]
        assert manifest["inputs"] == combined["inputs"]

    def test_stages_together_write_every_file(self, stage_outputs):
        written = {path.name for stage in STAGES for path in stage_outputs[stage].iterdir()}
        expected = {path.name for path in stage_outputs["all"].iterdir()}
        assert written - {f"manifest_{stage}.json" for stage in STAGES} == (
            expected - {"manifest_all.json"})


class TestSynthCommand:
    def test_writes_scenario(self, tmp_path, capsys):
        out = tmp_path / "eco"
        code = cli.main(["synth", "--scenario", "baseline", "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        for name in ("startups.csv", "rounds.csv", "investors.csv",
                     "ontology.json", "truth.json"):
            assert (out / name).exists()
            assert name in stdout
        truth = json.loads((out / "truth.json").read_text())
        assert truth["kind"] == "baseline"
        assert truth["seed"] == 3

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["synth", "--scenario", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["synth", "tca"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = ["--scenario", "baseline"] if command == "synth" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *argv, "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"sectorspace {command}: error: argument --seed: '-1' must be greater than -1"]
        assert not out.exists()

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert cli.main(["synth", "--scenario", "baseline", "--seed", "5",
                             "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "rounds.csv").read_bytes() == \
               (tmp_path / "b" / "rounds.csv").read_bytes()


class TestExcludeSector:
    @pytest.fixture()
    def health_dir(self, tmp_path):
        write_csv(tmp_path / "startups.csv",
                  ["startup_id", "name", "country_code", "status",
                   "founded_date", "tags"],
                  [["s1", "Clinic", "USA", "active", "2005-04-01", "Health Care"],
                   ["s2", "Grid", "USA", "active", "2005-04-01", "Energy"]])
        write_csv(tmp_path / "rounds.csv",
                  ["round_id", "startup_id", "announced_date", "stage_label",
                   "amount_usd", "investor_ids"],
                  [["r1", "s1", "2010-05-01", "seed", "500000", "i1"],
                   ["r2", "s2", "2010-06-01", "seed", "900000", "i1"],
                   ["r3", "s2", "2011-06-01", "seed", "900000", "i2"]])
        write_csv(tmp_path / "investors.csv",
                  ["investor_id", "name", "type_label"],
                  [["i1", "Alpha Fund", "vc"], ["i2", "Beta Fund", "vc"]])
        return tmp_path

    def profile_sectors(self, out):
        with (out / "profiles.csv").open(newline="") as handle:
            return {row[3] for row in list(csv.reader(handle))[1:]}

    def test_health_care_dropped_by_default(self, health_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["profiles", *table_flags(health_dir, ontology=False),
                         "--out", str(out)])
        assert code == 0
        assert self.profile_sectors(out) == {"Energy"}
        manifest = json.loads((out / "manifest_profiles.json").read_text())
        assert manifest["config"]["exclude_sectors"] == ["Health Care"]

    def test_empty_flag_keeps_everything(self, health_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["profiles", *table_flags(health_dir, ontology=False),
                         "--exclude-sector", "", "--out", str(out)])
        assert code == 0
        assert self.profile_sectors(out) == {"Energy", "Health Care"}
        manifest = json.loads((out / "manifest_profiles.json").read_text())
        assert manifest["config"]["exclude_sectors"] == []


class TestStage:
    @pytest.fixture()
    def staged_dir(self, tmp_path):
        write_csv(tmp_path / "startups.csv",
                  ["startup_id", "name", "country_code", "status",
                   "founded_date", "tags"],
                  [["s1", "Grid", "USA", "active", "2005-04-01", "Energy"],
                   ["s2", "Fleet", "USA", "active", "2005-04-01", "Energy|Transportation"]])
        write_csv(tmp_path / "rounds.csv",
                  ["round_id", "startup_id", "announced_date", "stage_label",
                   "amount_usd", "investor_ids"],
                  [["r1", "s1", "2010-05-01", "seed", "500000", "i1"],
                   ["r2", "s2", "2010-06-01", "Seed", "800000", "i1|i2"],
                   ["r3", "s1", "2010-07-01", "Series A", "900000", "i1"],
                   ["r4", "s2", "2011-06-01", "series b", "700000", "i2"],
                   ["r5", "s2", "2012-06-01", "seed", "600000", "i3"]])
        write_csv(tmp_path / "investors.csv",
                  ["investor_id", "name", "type_label"],
                  [["i1", "Alpha Fund", "vc"], ["i2", "Beta Fund", "vc"],
                   ["i3", "Gamma Lab", "accelerator"]])
        return tmp_path

    def test_profiles_keep_only_the_stage_rounds(self, staged_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["profiles", *table_flags(staged_dir, ontology=False),
                         "--stage", "seed", "--out", str(out)])
        assert code == 0
        with (out / "profiles.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [
            ["investor_id", "year", "stage", "sector", "rounds", "amount"],
            ["i1", "2010", "seed", "Energy", "1.5", "900000.0"],
            ["i1", "2010", "seed", "Transportation", "0.5", "400000.0"],
            ["i2", "2010", "seed", "Energy", "0.5", "400000.0"],
            ["i2", "2010", "seed", "Transportation", "0.5", "400000.0"],
            ["i3", "2012", "seed", "Energy", "0.5", "300000.0"],
            ["i3", "2012", "seed", "Transportation", "0.5", "300000.0"],
        ]
        manifest = json.loads((out / "manifest_profiles.json").read_text())
        assert manifest["config"]["stage"] == "seed"
        assert manifest["results"]["profiles"] == 3



def staged_scenario():
    """The stage_offsets scenario cut to 12 vc and 3 accelerators; vc rounds span all stages."""
    config = synth.stage_offsets_scenario(seed=0)
    return dataclasses.replace(config, archetypes=tuple(
        dataclasses.replace(a, count=a.count // 5) for a in config.archetypes))


STAGED_FLAGS = ["--years", "2008:2015", "--r-range", "1:3", "--restarts", "3", "--grid", "5x5"]


@pytest.fixture(scope="module")
def staged_tables(tmp_path_factory):
    data = tmp_path_factory.mktemp("staged")
    synth.generate_ecosystem(staged_scenario(), data)
    return data


@pytest.fixture(scope="module")
def staged_runs(staged_tables, tmp_path_factory):
    """``all`` on the staged tables, over every round and with ``--stage seed``."""
    runs = {"data": staged_tables}
    for label, extra in (("every", []), ("seed", ["--stage", "seed"])):
        out = tmp_path_factory.mktemp(f"staged_{label}")
        assert cli.main(["all", *table_flags(staged_tables), *STAGED_FLAGS, *extra,
                         "--out", str(out)]) == 0
        runs[label] = out
    return runs


class TestSingleStagesUnderStageSeed(TestSingleStages):
    """The same under ``--stage seed``, the flag that changes profiles and tca."""

    TABLES = "staged_tables"
    FLAGS = [*STAGED_FLAGS, "--stage", "seed"]


class TestStageViews:
    def test_stage_flag_changes_only_profiles_and_tca(self, staged_runs):
        every, seed = staged_runs["every"], staged_runs["seed"]
        names = {p.name for p in every.iterdir()} | {p.name for p in seed.iterdir()}
        changed = {name for name in names
                   if not ((every / name).is_file() and (seed / name).is_file()
                           and (every / name).read_bytes() == (seed / name).read_bytes())}
        tca_files = {name for name in names
                     if name.startswith("tca_") or name == "top_investors.csv"}
        assert len(tca_files) >= 6
        assert changed == {"profiles.csv", "manifest_all.json"} | tca_files
        results = [json.loads((out / "manifest_all.json").read_text())["results"]
                   for out in (every, seed)]
        assert {name for name in results[0] if results[0][name] != results[1][name]} == {
            "profiles", "tca"}

    def test_trajectory_of_each_stage_table(self, staged_runs):
        data, out = staged_runs["data"], staged_runs["every"]
        dataset = ingest.filter_startups(ingest.load_dataset(
            data / "startups.csv", data / "rounds.csv", data / "investors.csv",
            data / "ontology.json"))
        activity = profiles.SectorActivity.from_dataset(dataset)
        options = profiles.ProfileOptions(years=range(2008, 2016))
        unfiltered = profiles.build_profiles(activity, options=options)
        model = pca.fit_on_profiles(unfiltered, 2)
        expected = {"all": pca.barycenter_trajectory(unfiltered, model)}
        for stage, table in profiles.stage_partition(activity, options=options).items():
            assert table.stage is stage and len(table) > 0
            expected[stage.value] = pca.barycenter_trajectory(table, model)

        assert sorted(p.name for p in out.glob("trajectory_*.svg")) == sorted(
            f"trajectory_{label}.svg" for label in expected)
        with (out / "trajectory.csv").open(newline="") as handle:
            blocks = {}
            for row in list(csv.reader(handle))[1:]:
                blocks.setdefault(row[1], []).append(row)
        assert list(blocks) == list(expected)
        for label, points in expected.items():
            assert blocks[label] == [
                [str(p.year), label, *map(repr, p.coords[:2].tolist()),
                 *map(repr, p.sigma[:2].tolist())] for p in points], label


def test_traced_names_resolve():
    """Every function the benchmark tracer wraps is still where it looks."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    layers = next(ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYERS")
    for layer, names in layers.items():
        module = importlib.import_module(f"sectorspace.{layer}")
        for name in " ".join(names).split():
            holder = module
            for part in name.split("."):
                holder = getattr(holder, part, None)
            assert callable(holder), f"sectorspace.{layer}.{name}"


MODULES = sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    """Each module imports first in a fresh interpreter, so no import cycle hides.

    The package ``__init__`` is bypassed: it would import every module in its
    own order before the one named.
    """
    code = ("import importlib.util, sys, types; "
            "pkg = types.ModuleType('sectorspace'); "
            "pkg.__path__ = importlib.util.find_spec('sectorspace').submodule_search_locations; "
            "sys.modules['sectorspace'] = pkg; "
            f"import sectorspace.{module}")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` of each name an import binds that the file never reads.

    An import line marked ``# noqa: F401`` is skipped, as are ``__future__``
    imports.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[
                node.lineno - 1] or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    """Every name a package module or a script imports is read somewhere in that file."""
    root = Path(cli.__file__).resolve().parent
    files = [root / f"{module}.py" for module in MODULES]
    files += sorted((root.parents[1] / "scripts").glob("*.py"))
    assert [hit for path in files for hit in _unused_imports(path)] == []


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-c",
                               "import sectorspace.cli as c, sys; "
                               "sys.argv = ['sectorspace', '--help']; "
                               "sys.exit(c.main())"],
                              capture_output=True, text=True)
        # argparse exits 0 on --help before main's return path
        assert proc.returncode == 0
        assert "usage: sectorspace" in proc.stdout

    def test_all_runs_with_scipy_blocked(self, smoke_dir, tmp_path):
        """The package needs numpy alone: ``all`` runs while every scipy import fails."""
        argv = ["all", *table_flags(smoke_dir), *SMOKE_FLAGS, "--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; sys.modules['scipy'] = None; "
                               "from sectorspace import cli; "
                               f"sys.exit(cli.main({argv!r}))"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # nothing else is printed, at exit either
        assert proc.stdout == f"all: wrote artifacts to {tmp_path / 'out'}\n"
        assert proc.stderr == ""
