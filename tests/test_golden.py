"""Byte-identity gate: the SHA-256 of every file a mixed build and the CLI write.

The inputs are made here from seeded generators, in the test's working
directory, so every path a record holds is relative. One manifest covers
all four strategies, noisy and noise-free entries with fixed and sampled
SNR, a pcm24 room with a sidecar and a float room without one, synthesized
rooms, 1 s and 3 s speech at 48 kHz, a failing entry and ids that hold ``,``
and ``"``. It is built at workers 1 and 2, and both builds are checked
against one table, ``golden_sha256.txt``. The CLI outputs beside them are
``gains`` (CSV, ``--binary``, ``--apply-out`` in both modes), ``verify``
(stdout and ``--csv``, all four strategies), ``analyze-rir`` (stdout and
``--edc-csv``), ``plot-data D|A|shaped-tail``, ``shape`` and ``synth-rir``.
Files keep 9 significant digits or float32 samples, so the float64 arrays
of one in-memory ``generate_example`` are hashed too: a one-ULP change in
a band weight shows there and in no file.

The hashes depend on numpy's pocketfft and the C library's float
formatting, so the table's first line records the numpy version it was
made with. A change that alters output bytes on purpose regenerates the
table and names the files that changed:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np

from rirshape import (ShapingParams, Signal, Strategy, cli, generate_example, read_rir,
                      synth_rir, write_rir, write_wav)
from conftest import noise_like, speech_like

TABLE = Path(__file__).with_name("golden_sha256.txt")
STRATEGIES = ("none", "full", "decayed", "attenuated-decayed")
MANIFEST = """\
[global]
seed=11
snr_min=0
snr_max=30
p_noise_free=0.5

[entry]
id=a,b
speech=sp1.wav
noise=noise.wav
rir=room24.wav
snr=5
strategy=attenuated-decayed

[entry]
id=say "hi"
speech=sp3.wav
noise=noise.wav
rir_rt60=0.6
strategy=decayed

[entry]
speech=sp1.wav
rir=roomf.wav
strategy=full

[entry]
speech=sp3.wav
noise=noise.wav
rir_rt60=0.4
strategy=none

[entry]
speech=sp1.wav
noise=noise.wav
rir=room24.wav
strategy=decayed
alpha=0.5
rd=0.15

[entry]
speech=sp1.wav
noise=noise.wav
rir_rt60=0.9
rir_n_early=3
snr=20
strategy=none

[entry]
speech=missing.wav
rir_rt60=0.5
strategy=full

[entry]
speech=sp1.wav
noise=noise.wav
rir_rt60=0.3
seed=7
strategy=attenuated-decayed
t0=0.004
"""


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(*args) -> str:
    """``rirshape ARGS`` in this process; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main([str(arg) for arg in args])
    return out.getvalue()


def make_inputs() -> None:
    """The build's inputs, in the working directory."""
    write_wav(speech_like(1.0, seed=31), "sp1.wav")
    write_wav(speech_like(3.0, seed=32), "sp3.wav")
    write_wav(noise_like(1.5, seed=33), "noise.wav")
    write_rir(synth_rir(0.5, seed=34), "room24.wav", encoding="pcm24")
    float_room = synth_rir(0.7, seed=35)
    write_wav(Signal(float_room.samples, float_room.sample_rate), "roomf.wav")
    Path("manifest.txt").write_text(MANIFEST, encoding="utf-8")


def build_digests(workers: int) -> dict[str, str]:
    """``dataset/<file>`` -> SHA-256 of a ``make-dataset`` build at ``workers``."""
    out = Path(f"w{workers}")
    run("make-dataset", "manifest.txt", "--out-dir", out, "--workers", workers)
    return {f"dataset/{p.name}": sha256(p) for p in sorted(out.iterdir())}


def cli_digests(dataset: Path) -> dict[str, str]:
    """File name -> SHA-256 of the other commands' outputs and stdout."""
    pair = ["--input", dataset / "ex00002.input.wav", "--target", dataset / "ex00002.target.wav"]
    run("gains", *pair, "--out", "gains.csv", "--apply-out", "applied.wav")
    run("gains", *pair, "--binary", "--out", "gains.f32")
    run("gains", *pair, "--mode", "rectangular", "--out", "gains_rect.csv",
        "--apply-out", "applied_rect.wav")
    Path("verify.stdout").write_text(
        "".join(run("verify", "room24.wav", "--strategy", s, "--csv", "verify.csv")
                for s in STRATEGIES), encoding="utf-8")
    Path("analyze.stdout").write_text(
        run("analyze-rir", "room24.wav", "--edc-csv", "edc.csv"), encoding="utf-8")
    for function in ("D", "A", "shaped-tail"):
        run("plot-data", function, "--out", f"plot_{function}.csv")
    run("synth-rir", "--rt60", 0.45, "--seed", 3, "--encoding", "pcm24", "--out", "synth.wav")
    run("shape", "synth.wav", "--strategy", "attenuated-decayed", "--out", "shaped.wav")
    names = ["gains.csv", "applied.wav", "gains.f32", "gains_rect.csv", "applied_rect.wav",
             "verify.stdout", "verify.csv", "analyze.stdout", "edc.csv",
             *(f"plot_{function}.csv" for function in ("D", "A", "shaped-tail")),
             "synth.wav", "synth.wav.meta.txt", "shaped.wav", "shaped.wav.meta.txt"]
    return {name: sha256(name) for name in names}


def example_digests() -> dict[str, str]:
    """Digests of a ``generate_example``'s float64 arrays, beyond what any file keeps."""
    example = generate_example(speech_like(1.0, seed=31), noise_like(1.5, seed=33),
                               read_rir("room24.wav"), ShapingParams(Strategy.DECAYED), 10.0,
                               seed=5)
    arrays = {"input": example.input.samples, "target": example.target.samples,
              "gains": example.gains.values}
    return {f"example.{name}.f64": hashlib.sha256(values.tobytes()).hexdigest()
            for name, values in arrays.items()}


def read_table() -> tuple[str, dict[str, str]]:
    header, *lines = TABLE.read_text(encoding="utf-8").splitlines()
    return header.removeprefix("# numpy "), dict(line.rsplit(" ", 1) for line in lines)


def mismatches(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    return sorted(name for name in expected.keys() | got.keys()
                  if expected.get(name) != got.get(name))


def test_outputs_match_the_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    version, table = read_table()
    make_inputs()
    serial = build_digests(1)
    pooled = build_digests(2)
    got = serial | cli_digests(Path("w1")) | example_digests()
    where = f"table made with numpy {version}, this run has numpy {np.__version__}"
    differ = mismatches(table, got)
    assert not differ, f"{len(differ)} outputs differ from {TABLE.name} ({where}): {differ}"
    differ = mismatches(serial, pooled)
    assert not differ, f"workers=2 build differs from workers=1 ({where}): {differ}"
    assert len(serial) == 7 * 4 + 2  # one entry fails; summary.txt and summary.csv


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        make_inputs()
        digests = build_digests(1) | cli_digests(Path("w1")) | example_digests()
    TABLE.write_text(f"# numpy {np.__version__}\n"
                     + "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items())),
                     encoding="utf-8")
    print(f"wrote {len(digests)} digests to {TABLE}")
