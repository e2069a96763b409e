"""Smoke tests of the scripts under scripts/, run as scripts."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)})


def test_study_runs_and_finds_the_planted_turn(tmp_path):
    proc = run_script("run_synthetic_study.py", "--seed", "0", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    turn = re.search(r"distance minimum at (\d+) \(planted turn (\d+)\)", proc.stdout)
    assert turn, proc.stdout
    found, planted = map(int, turn.groups())
    assert abs(found - planted) <= 1
    # the stage study measures each of the four stage tables against the accelerators
    for stage in ("seed", "series_a", "series_b", "series_c_plus"):
        assert re.search(rf"^  {stage} +min distance", proc.stdout, re.M), stage


def test_rank_scan_demo_selects_the_planted_rank():
    proc = run_script("rank_scan_demo.py", "--rank", "2", "--shape", "30x8x6",
                      "--max-rank", "4", "--restarts", "3")
    assert proc.returncode == 0, proc.stderr
    selected = re.findall(r"^ +(\d+) .*<- selected$", proc.stdout, re.M)
    assert selected == ["2"], proc.stdout
    assert "factor match against planted truth" in proc.stdout
