"""rirshape benchmark: end-to-end numbers, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload build-long --seed 1 --seconds 30 --trace 0

Run from the repository root. The workloads and metrics are defined in
BENCHMARK.json; this script makes the seeded inputs under ``.perfbench/``,
times set-up in fresh processes, runs the workload in one measure process,
checks every output, and prints a report followed by one JSON line:

* ``--trace 0``: the end-to-end metrics, from untraced operations;
* ``--trace 1``: the per-layer metrics, from traced operations interleaved
  with untraced ones (for the tracing overhead and the parallel speed-up).

``--size tiny`` shrinks the inputs for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh processes whose set-up time is the setup_s median
PROCESS_TIMEOUT_S = 150
WORKLOADS = ("example-10s", "build-long", "build-short")
PLURAL = {"entry": "entries", "example": "examples"}
# Calls per built entry and per example at the commit that defined this
# benchmark. A count of 0 means the tracer no longer sees that call path and
# fails the run; any other change is reported, since later commits may
# legitimately call these functions more or less often.
BASELINE_CALLS = {
    "build": {"dsp.convolve": 2, "dsp.analyze": 3},
    "example": {"dsp.analyze": 2},
}


def run_process(args: list[str]) -> dict:
    """Run one worker in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: worker {args[1:3]} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {args[1:3]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def end_to_end(result: dict, setup: list[float], report: list[str]) -> dict:
    timed = [op for op in result["ops"]
             if op["kind"] == "untraced" and op["workers"] == result["workers"]]
    per_unit_ms = [1e3 * op["wall"] / op["units"] for op in timed]
    rates = [op["audio_s"] / op["wall"] for op in timed]
    metrics = {
        "audio_s_per_s": (statistics.median(rates), "s/s"),
        "example_ms_p50": (statistics.median(per_unit_ms), "ms"),
        "example_ms_p90": (statistics.quantiles(per_unit_ms, n=10, method="inclusive")[-1]
                           if len(per_unit_ms) > 1 else per_unit_ms[0], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    unit = result["unit"]
    report.append(f"  {len(timed)} timed operations at workers={result['workers']}; "
                  f"example_ms is wall ms per {unit}"
                  + ("" if unit == "example" else " of each build (entries per build: "
                     f"{timed[0]['units']})"))
    if len(per_unit_ms) < 100:
        report.append(f"  note: p90 of {len(per_unit_ms)} samples has fewer than 10 beyond it")
    report.append(f"  setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}")
    return metrics


def per_layer(result: dict, report: list[str]) -> tuple[dict, bool]:
    import tracer as tracing
    trace = result["trace"]
    unit = result["unit"]
    metrics = {}
    for layer, (ms, calls) in trace["per_layer"].items():
        metrics[f"{layer}.ms"] = (ms, "ms")
        metrics[f"{layer}.calls"] = (calls, "count")
    for name in tracing.COUNTERS:
        metrics[name] = (trace["counters"].get(name, 0) / trace["units"], "bytes")

    def median_rate(kind, workers):
        return statistics.median(op["audio_s"] / op["wall"] for op in result["ops"]
                                 if op["kind"] == kind and op["workers"] == workers)

    untraced = median_rate("untraced", 1)
    metrics["trace.overhead_pct"] = (100.0 * (untraced / median_rate("traced", 1) - 1.0), "%")
    speedup = 0.0
    if result["workers"] > 1:
        speedup = median_rate("untraced", result["workers"]) / untraced
        report.append(f"  parallel_speedup: workers={result['workers']} vs workers=1, "
                      "untraced, same manifest")
    metrics["pipeline.parallel_speedup"] = (speedup, "ratio")

    ok = True
    for error in trace["tree_errors"]:
        report.append(f"  TRACE CHECK FAILED: {error}")
        ok = False
    for hook in trace["missing_hooks"]:
        report.append(f"  TRACE WARNING: {hook} does not exist, so it was not traced")
    expected = BASELINE_CALLS["example" if unit == "example" else "build"]
    for layer, count in expected.items():
        seen = metrics[f"{layer}.calls"][0]
        if seen == count:
            status = "ok"
        elif seen == 0:
            status = "FAILED: the tracer misses the real call path"
            ok = False
        else:
            status = "changed from the baseline count"
        report.append(f"  trace count: {layer}.calls = {seen:g} per {unit} "
                      f"(baseline {count}): {status}")
    if not trace["tree_errors"]:
        report.append(f"  traced {trace['units']} {PLURAL[unit]} in {trace['spans']} spans; "
                      "self times of every span tree sum to its root")
    return metrics, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rirshape" / "__init__.py").is_file():
        print(f"error: no rirshape sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    import corpus
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        spec = corpus.make(args.workload, args.seed, args.size, run_dir)
        setup = [run_process([spec["path"], "--mode", "probe"])["setup_s"]
                 for _ in range(SETUP_SAMPLES - 1)]
        result = run_process([spec["path"], "--mode", "measure", "--seconds",
                              str(args.seconds), "--trace", str(args.trace)])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    setup.append(result["setup_s"])

    facts = machine_facts()
    report = [f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} size={args.size}",
              "machine: " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}"
                                     for k, v in facts.items())]
    correct = True
    if args.trace:
        metrics, correct = per_layer(result, report)
    else:
        metrics = end_to_end(result, setup, report)

    attempted = sum(op["units"] for op in result["ops"])
    failures = [f"  FAILED {op['kind']} operation {i}: {key}: {why}"
                for i, op in enumerate(result["ops"]) for key, why in op["failures"].items()]
    report += failures[:10]
    failed = len(failures)
    correct = correct and failed == 0
    report.append(f"error_rate = {failed / attempted:g} ({failed} failed of {attempted} "
                  f"{PLURAL[result['unit']]} attempted; output checks and determinism included)")
    for name, (value, unit) in metrics.items():
        report.append(f"{name} = {value:.6g} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
