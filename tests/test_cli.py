"""End-to-end tests for the command-line pipeline.

The tca rank-selection test feeds the CLI tables whose round counts are an
affine image of a planted rank-2 tensor. Per-fiber standardization in
build_tensor is invariant to per-fiber affine maps, so the pipeline tensor
carries the planted structure and the scan must pick R = 2.
"""
import ast
import csv
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sectorspace import cli, ingest, synth
from sectorspace.ontology import SectorOntology, dump_ontology
from sectorspace.reports import sha256_digest


def write_csv(path, header, rows):
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def counts_to_tables(counts, out_dir, first_year=2009):
    """Realize an N x S x K round-count array as loadable CSV tables.

    One startup per (sector, year) slot; every count becomes one round row.
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
              [[f"inv_{i:04d}", f"Investor {i}", "vc"] for i in range(n)])
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
        assert args.years == range(2000, 2018)
        assert args.r_range == range(1, 9)
        assert args.restarts == 8
        assert args.grid == (30, 30)


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

    def test_infeasible_r_range(self, smoke_dir, tmp_path, capsys):
        code = cli.main(["tca", *table_flags(smoke_dir),
                         "--r-range", "40:50", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "no feasible rank" in capsys.readouterr().err

    def test_empty_year_window(self, smoke_dir, tmp_path, capsys):
        code = cli.main(["tca", *table_flags(smoke_dir),
                         "--years", "1990:1995", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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


class TestAll:
    def run_all(self, smoke_dir, out):
        return cli.main(["all", *table_flags(smoke_dir),
                         "--years", "2008:2013", "--r-range", "1:3",
                         "--restarts", "3", "--grid", "5x5", "--out", str(out)])

    def test_full_artifact_set(self, smoke_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run_all(smoke_dir, out) == 0
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
        assert manifest["config"]["years"] == [2008, 2013]
        assert manifest["results"]["tca"]["chosen_R"] in (1, 2, 3)
        assert manifest["results"]["distances"]["pairs"] == [
            ["type:accelerator", "type:vc"]
        ]
        assert manifest["results"]["spread"]["years"] == list(range(2008, 2014))
        for name, record in manifest["inputs"].items():
            assert record["sha256"] == sha256_digest(record["path"]), name

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

    def test_builds_no_row_records(self, smoke_dir, tmp_path, capsys, monkeypatch):
        built = []
        for record in (ingest.RawStartup, ingest.RawRound):
            init = record.__init__

            def counting(self, *args, _init=init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(record, "__init__", counting)
        assert self.run_all(smoke_dir, tmp_path / "out") == 0
        assert built == []
        cli._load(cli._config(cli.build_parser().parse_args(
            ["all", *table_flags(smoke_dir)]))).rounds[0]
        assert built == ["RawRound"]

    def test_reruns_byte_identical(self, smoke_dir, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        assert self.run_all(smoke_dir, first) == 0
        assert self.run_all(smoke_dir, second) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


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
