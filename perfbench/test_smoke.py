"""Smoke test: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that each run prints every metric BENCHMARK.json names for its
mode, with the declared unit, that error_rate is 0 and that the result
line is well formed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args):
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    lines = run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert any(re.match(r"error_rate = 0 \(0 failed", line) for line in lines)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric in declared:
        assert any(line.startswith(f"{metric['name']} = ") for line in lines[:-1])
    if trace:
        assert any("trace count: dsp.analyze.calls" in line and line.endswith("ok")
                   for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "build-long",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
