"""Smoke test of scripts/run_synthetic_study.py, run as a script."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_study_runs_and_finds_the_planted_turn(tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_study.py"),
         "--seed", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)})
    assert proc.returncode == 0, proc.stderr
    turn = re.search(r"distance minimum at (\d+) \(planted turn (\d+)\)", proc.stdout)
    assert turn, proc.stdout
    found, planted = map(int, turn.groups())
    assert abs(found - planted) <= 1
    # the stage study joins the unfiltered table with the four stage views
    for stage in ("seed", "series_a", "series_b", "series_c_plus"):
        assert re.search(rf"^  {stage} +min distance", proc.stdout, re.M), stage
