"""scripts/rusage.py on ``params``: one JSON line of the child's usage."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "rusage.py"


def test_rusage_prints_one_json_line_for_params():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "params"], capture_output=True, text=True, check=True
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 1  # the child's JSON report is discarded
    doc = json.loads(lines[0])
    assert doc["argv"] == ["params"] and doc["exit"] == 0
    assert doc["wall_s"] > 0.0
    # the child imports numpy and scipy: tens of MB, thousands of pages
    assert 10.0 < doc["peak_rss_mb"] < 1000.0
    assert doc["minflt"] > 1000
    assert doc["majflt"] >= 0


def test_rusage_exits_with_the_commands_code():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "validate", "--trials", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: trials: must be at least 1\n"
    assert json.loads(proc.stdout)["exit"] == 1
