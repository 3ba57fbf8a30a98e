"""Every benchmark workload runs to the end and passes its own output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_workload_runs_correct(tmp_path):
    # a copy, because a run writes .perfbench_out/ beside perfbench/ and would
    # overwrite the repository's own results
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert set(summary) == {"bilevel-flow", "joint-revin", "forecast-small-batch"}
    for name, result in summary.items():
        assert result is not None and result["correct"] is True, (name, proc.stdout)
