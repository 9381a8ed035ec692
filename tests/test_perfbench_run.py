"""The benchmark's entry points run and check out on this package.

``perfbench/test_smoke.py`` is outside the test paths, so this runs
``perfbench/run.py`` at its tiny size on each workload, untraced, and
reads its result line: the per-example one, the single-worker build, and
the pool build, whose entries run in worker processes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["example-10s", "build-long", "build-short"])
def test_workload_runs_and_checks_out(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
