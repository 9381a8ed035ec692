"""One benchmark process: set up, then (in measure mode) run the timed loop.

    python3 perfbench/worker.py SPEC --mode probe|measure --seconds S --trace 0|1

Set-up is timed from before ``import rirshape`` to the end of one untimed
warm-up entry or example, so each probe process yields one ``setup_s``
sample. The measure process then runs operations back to back (a closed
loop with one caller) for ``--seconds``, checks every output outside the
timed region, and prints one JSON line. With ``--trace 1`` it alternates
traced and untraced operations; see ``measure``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@dataclass
class Op:
    """One timed operation: a build or an example, and what its checks found."""

    kind: str | None  # "traced", "untraced", "check", or None for the warm-up
    workers: int
    wall: float
    units: int        # entries built, or 1 example
    audio_s: float = 0.0
    failures: dict[str, str] = field(default_factory=dict)


class ExampleWorkload:
    """``generate_example`` in memory: 10 s speech, 4 s noise, a 1.0 s room."""

    unit = "example"

    def __init__(self, spec):
        self.spec = spec
        self.workers = 1
        self.calls = 0
        self.checked = 0
        self.fft_checked = False

    def setup(self):
        import numpy as np
        import rirshape
        spec = self.spec
        self.speech = rirshape.Signal(np.load(spec["speech"]), spec["sample_rate"])
        self.noise = rirshape.Signal(np.load(spec["noise"]), spec["sample_rate"])
        self.h0 = rirshape.synth_rir(spec["rt60"], seed=spec["room_seed"])
        self.params = rirshape.ShapingParams(rirshape.Strategy(spec["strategy"]))
        self.run(None)

    def run(self, kind, workers=1):
        import rirshape.pipeline
        seed = self.calls
        self.calls += 1
        started = time.perf_counter()
        example = rirshape.pipeline.generate_example(
            self.speech, self.noise, self.h0, self.params, self.spec["snr_db"], seed=seed)
        op = Op(kind, workers, time.perf_counter() - started, 1)
        if kind is not None:
            self.check(op, example)
        return op

    def check(self, op, example):
        import checks
        n = len(example.input)
        op.audio_s = n / self.spec["sample_rate"]
        failure = (("input and target lengths differ" if len(example.target) != n else None)
                   or checks.check_gains(example.gains.values, n)
                   or checks.check_rt60(example.metadata.get("rt60_input_estimate"),
                                        self.spec["rt60"]))
        if not self.fft_checked and self.checked == self.spec["fft_check_index"]:
            self.fft_checked = True
            meta = dict(example.metadata, strategy=self.params.strategy.value)
            failure = failure or checks.check_against_reference(
                example.input.samples, example.target.samples, self.speech.samples,
                self.h0.taps, self.h0.direct_index, self.noise.samples,
                example.metadata["noise_gain"], meta)
        if failure:
            op.failures[f"example{self.checked}"] = failure
        self.checked += 1

    def finish(self, ops):
        while not self.fft_checked:  # the run ended before the chosen example
            ops.append(self.run("check"))


class BuildWorkload:
    """``load_manifest`` plus ``build_dataset`` over the workload's manifest."""

    unit = "entry"

    def __init__(self, spec):
        self.spec = spec
        self.workers = len(os.sched_getaffinity(0)) if spec["workload"] == "build-short" else 1
        self.run_dir = Path(spec["run_dir"])
        self.builds = 0
        self.reference: dict[str, str] | None = None
        self.fft_checked = False

    def setup(self):
        import rirshape.pipeline
        rirshape.pipeline.load_manifest(self.spec["manifest"])
        warmup = rirshape.pipeline.load_manifest(self.spec["warmup_manifest"])
        out = self.run_dir / "warmup"
        rirshape.pipeline.build_dataset(warmup, out, workers=1)
        shutil.rmtree(out)

    def run(self, kind, workers=1):
        import rirshape.pipeline
        out = self.run_dir / f"out{self.builds}"
        self.builds += 1
        started = time.perf_counter()
        manifest = rirshape.pipeline.load_manifest(self.spec["manifest"])
        summary = rirshape.pipeline.build_dataset(manifest, out, workers=workers)
        op = Op(kind, workers, time.perf_counter() - started, len(self.spec["entries"]))
        self.check(op, out, summary)
        shutil.rmtree(out)
        return op

    def nominal_rt60(self, entry):
        if "rir_rt60" in entry:
            return entry["rir_rt60"]
        return next(r["rt60"] for r in self.spec["rooms"] if r["path"] == entry["rir"])

    def check(self, op, out, summary):
        import checks
        results = {r.entry_id: r for r in summary.results}
        for index, entry in enumerate(self.spec["entries"]):
            entry_id = f"ex{index:05d}"
            result = results.get(entry_id)
            if result is None or not result.ok:
                op.failures[entry_id] = f"not ok: {result.reason if result else 'missing'}"
                continue
            try:
                failure, audio_s = checks.check_entry(out, entry_id, self.nominal_rt60(entry))
                op.audio_s += audio_s
                if not self.fft_checked and index == self.spec["fft_check_index"]:
                    self.fft_checked = True
                    failure = failure or self.check_reference(out, index, entry)
            except (OSError, ValueError, KeyError) as exc:  # malformed output files
                failure = f"unreadable output: {exc!r}"
            if failure:
                op.failures[entry_id] = failure
        # every build of one manifest, at any worker count, traced or not,
        # must write the same bytes
        found = checks.digests(out)
        if self.reference is None:
            self.reference = found
        for name in sorted(set(found) | set(self.reference)):
            if found.get(name) != self.reference.get(name):
                op.failures.setdefault(name.split(".")[0],
                                       f"{name} differs from the first build's bytes")

    def check_reference(self, out, index, entry):
        import checks
        import rirshape
        meta = checks.read_kv(out / f"ex{index:05d}.meta.txt")
        if "rir_rt60" in entry:
            draws = rirshape.sample_entry_randomness(
                self.spec["global_seed"], index, p_noise_free=self.spec["p_noise_free"])
            h0 = rirshape.synth_rir(entry["rir_rt60"], seed=draws.rir_seed).taps
            direct = 0
        else:
            room = next(r for r in self.spec["rooms"] if r["path"] == entry["rir"])
            h0, direct = checks.read_wav(room["path"]), room["direct_index"]
        noisy = meta["noise_free"] == "false"
        return checks.check_against_reference(
            checks.read_wav(out / f"ex{index:05d}.input.wav"),
            checks.read_wav(out / f"ex{index:05d}.target.wav"),
            checks.read_wav(entry["speech"]), h0, direct,
            checks.read_wav(entry["noise"]) if noisy else None,
            float(meta["noise_gain"]), meta)

    def finish(self, ops):
        if self.workers > 1 and not any(op.workers == 1 for op in ops):
            ops.append(self.run("check", 1))


WORKLOADS = {"example-10s": ExampleWorkload, "build-long": BuildWorkload,
             "build-short": BuildWorkload}


def measure(workload, seconds: float, trace: bool) -> dict:
    import resource

    import tracer as tracing
    tracer = tracing.Tracer()
    # Traced operations run at workers=1, in this process, so every span is
    # seen; the untraced workers=1 ones beside them give the tracing overhead,
    # and those at the workload's worker count give the parallel speed-up.
    steps = [("untraced", workload.workers)]
    if trace:
        steps = [("traced", 1), ("untraced", 1)] + (steps if workload.workers > 1 else [])
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        for kind, workers in steps:
            if kind == "traced":
                with tracer.installed():
                    ops.append(workload.run(kind, workers))
            else:
                ops.append(workload.run(kind, workers))
    workload.finish(ops)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    traced_units = sum(op.units for op in ops if op.kind == "traced")
    return {
        "ops": [asdict(op) for op in ops],
        "workers": workload.workers,
        "unit": workload.unit,
        # ru_maxrss is in KiB; each pool worker is charged the largest child's peak
        "peak_rss_mb": (own + workload.workers * children) / 1024.0,
        "trace": {
            "units": traced_units,
            "per_layer": tracer.per_layer(traced_units),
            "counters": dict(tracer.counters),
            "tree_errors": tracer.tree_errors()[:5],
            "missing_hooks": sorted(set(tracer.missing)),
            "spans": len(tracer.spans),
        } if trace else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec")
    parser.add_argument("--mode", choices=("probe", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]](spec)
    started = time.perf_counter()
    workload.setup()
    result = {"setup_s": time.perf_counter() - started}
    if args.mode == "measure":
        result.update(measure(workload, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
