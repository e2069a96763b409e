"""Smoke test of the benchmark harness at tiny input sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
import sectorspace  # noqa: E402
from sectorspace import cli, profiles  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "pipeline_convergence": harness.Pipeline(
        "pipeline_convergence", scale=0.3,
        flags=("--r-range", "1:2", "--restarts", "2", "--grid", "5x5")),
    "pipeline_scaled": harness.Pipeline(
        "pipeline_scaled", scale=0.4,
        flags=("--r-range", "1:2", "--restarts", "2", "--grid", "5x5")),
    "rank_scan_planted": harness.PlantedScan(
        "rank_scan_planted", shape=(16, 6, 5), planted=(2,), ranks=(1, 2, 3),
        restarts=2, max_iter=100),
}
STAGES = ("profiles", "pca", "tca", "distances", "spread")


def _declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def _assert_metrics(record: dict, kind: str) -> None:
    emitted = {name: metric["unit"] for name, metric in record["metrics"].items()}
    assert emitted == _declared(kind)
    for name, metric in record["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


def _ancestors(span, by_id):
    names = []
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        names.append(span.name)
    return names


def test_workload_names_match_benchmark_json():
    declared = {w["name"] for w in BENCHMARK["workloads"]}
    assert declared <= set(harness.WORKLOADS)
    assert list(TINY) == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics(name, tmp_path):
    record = harness.run_workload(TINY[name], 1, 0.1, False, tmp_path)
    assert record["correct"], record
    assert record["attempted"] >= harness.MIN_OPS
    assert record["failed"] == 0
    _assert_metrics(record, "end_to_end")
    assert record["metrics"]["digest_stable"]["value"] == 1.0
    assert record["env"]["seed"] == 1
    assert not (tmp_path / f"{name}-seed1").exists()


def test_pipeline_trace_reaches_every_layer_through_cli(tmp_path):
    record = harness.run_workload(TINY["pipeline_convergence"], 1, 0.1, True, tmp_path)
    assert record["correct"], record
    _assert_metrics(record, "per_layer")
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    assert metrics["profiles.build_profiles_calls"] == 9
    assert metrics["tca.cp_als_calls"] == 4  # ranks 1:2, 2 restarts
    assert metrics["ontology.resolve_calls"] > 0
    assert metrics["ingest.rounds_kept"] > 0

    spans = record["spans"]
    by_id = {span.span_id: span for span in spans}
    for stage in STAGES:
        stage_spans = [s for s in spans if s.name == f"cli.stage.{stage}"]
        assert stage_spans
        assert _ancestors(stage_spans[0], by_id) == ["cli.cmd_all", "cli.main"]
    for layer in ("ingest", "ontology", "profiles", "pca", "tca", "metrics",
                  "reports", "svgplot"):
        reached = [s for s in spans if s.name.startswith(layer + ".")
                   and any(a.startswith(("cli.stage.", "cli._load"))
                           for a in _ancestors(s, by_id))]
        assert reached, layer
    assert any("tca.rank_scan" in _ancestors(s, by_id) for s in spans
               if s.name == "tca.cp_als")
    assert any("cli.stage.pca" in _ancestors(s, by_id) for s in spans
               if s.name == "profiles.build_profiles"
               and "profiles.stage_partition" in _ancestors(s, by_id))

    # wrappers are gone once the traced operation ends
    assert cli.build_profiles is profiles.build_profiles
    assert not hasattr(profiles.build_profiles, "__wrapped__")
    assert not hasattr(sectorspace.tca.cp_als, "__wrapped__")
    assert not hasattr(sectorspace.SectorOntology.resolve, "__wrapped__")


def test_scan_trace_counts_sweeps(tmp_path):
    record = harness.run_workload(TINY["rank_scan_planted"], 1, 0.1, True, tmp_path)
    assert record["correct"], record
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    assert metrics["tca.cp_als_calls"] == 6  # 3 ranks, 2 restarts
    assert metrics["tca.als_sweeps"] > 0
    assert metrics["profiles.build_profiles_calls"] == 0
    assert all(s.name.startswith("tca.") for s in record["spans"])


def test_speed_probe_samples_while_work_runs_and_cleans_up():
    previous = signal.getsignal(signal.SIGALRM)
    with harness.SpeedProbe() as probe:
        began = time.perf_counter()
        while time.perf_counter() - began < 0.35:
            pass
    elapsed = time.perf_counter() - began
    assert len(probe.samples) >= 2
    assert probe.spent > 0
    assert probe.seconds == pytest.approx(elapsed - probe.spent, abs=0.01)
    assert probe.relative == pytest.approx(
        probe.seconds / statistics.harmonic_mean(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(Path(BENCH_DIR.name) / "run.py"), "--workload",
         "pipeline_convergence", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
