"""Seeded synthetic inputs for the benchmark workloads.

Everything here uses numpy and the standard library only, so the inputs
do not depend on the program under test. The same (workload, seed, size)
always gives the same files and the same manifest.
"""

from __future__ import annotations

import json
import wave
from pathlib import Path

import numpy as np

FS = 48000
STRATEGIES = ("none", "full", "decayed", "attenuated-decayed")

# Per workload: "full" is the measured size, "tiny" keeps the smoke test
# quick. Durations in seconds.
SIZES = {
    "example-10s": {
        "full": {"speech_s": 10.0, "noise_s": 4.0},
        "tiny": {"speech_s": 1.0, "noise_s": 0.5},
    },
    "build-long": {
        "full": {"entries": 4, "speech_s": 10.0, "speech_files": 3, "noise_s": 4.0},
        "tiny": {"entries": 4, "speech_s": 1.0, "speech_files": 2, "noise_s": 0.5},
    },
    "build-short": {
        "full": {"entries": 32, "speech_s": 1.0, "speech_files": 4, "noise_s": 4.0,
                 "rir_files": 8},
        "tiny": {"entries": 8, "speech_s": 0.5, "speech_files": 4, "noise_s": 0.5,
                 "rir_files": 4},
    },
}

EXAMPLE_RT60 = 1.0
EXAMPLE_SNR_DB = 20.0
LONG_RT60 = (0.6, 1.5)
SHORT_RT60 = (0.2, 0.5)
SHORT_P_NOISE_FREE = 0.15
SHORT_EXPLICIT_SNR = (0.0, 10.0, 20.0, 30.0)  # every 8th entry pins one of these


def speech_like(duration: float, rng: np.random.Generator) -> np.ndarray:
    """Broadband speech stand-in: amplitude-modulated tones over a noise floor.

    Every ERB band gets energy, so gains stay away from the silence floor.
    """
    t = np.arange(int(round(duration * FS))) / FS
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(2.0, 4.0) * t
                                     + rng.uniform(0, 2 * np.pi))
    tones = sum(np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
                for f in (210.0, 470.0, 1350.0, 3100.0))
    return 0.08 * envelope * tones + 0.02 * rng.standard_normal(t.size)


def noise_like(duration: float, rng: np.random.Generator) -> np.ndarray:
    return 0.05 * rng.standard_normal(int(round(duration * FS)))


def room_taps(rt60: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """A measured-looking room: pre-delay, sparse early reflections, decaying tail.

    Returns (taps, direct_index). The tail's energy falls 60 dB over
    ``rt60`` seconds, and the direct tap stays the unique peak.
    """
    n = int(round(max(1.5 * rt60, rt60 + 0.3) * FS))
    direct = int(rng.integers(0, int(0.005 * FS)))
    t = np.arange(n - direct) / FS
    taps = np.zeros(n)
    taps[direct:] = 0.05 * 10.0 ** (-3.0 * t / rt60) * rng.standard_normal(t.size)
    for when in rng.uniform(0.002, 0.020, size=6):
        taps[direct + int(round(when * FS))] += rng.uniform(0.1, 0.6) * rng.choice((-1.0, 1.0))
    taps[direct] = 0.9
    np.clip(taps, -0.8, 0.9, out=taps)
    return taps, direct


def write_pcm(path: Path, samples: np.ndarray, width: int) -> None:
    """Write mono integer PCM (width 2 or 3 bytes) with the standard library."""
    scale = float(1 << (8 * width - 1))
    raw = np.clip(np.round(samples * scale), -scale, scale - 1).astype("<i4")
    payload = raw.view(np.uint8).reshape(-1, 4)[:, :width].tobytes()
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(width)
        fh.setframerate(FS)
        fh.writeframes(payload)


def spread_evenly(lo: float, hi: float, n: int, rng: np.random.Generator) -> list[float]:
    """The midpoints of ``n`` equal strata of [lo, hi], in a seeded order.

    Room lengths set the convolution sizes, so fixing them (and seeding only
    the order, the room realizations and everything else) keeps the work of
    a run the same across seeds.
    """
    return [float(x) for x in rng.permutation(lo + (hi - lo) * (np.arange(n) + 0.5) / n)]


def _entry_block(fields: dict) -> str:
    return "\n[entry]\n" + "".join(f"{k}={v}\n" for k, v in fields.items())


def make(workload: str, seed: int, size: str, run_dir: Path) -> dict:
    """Write the workload's inputs under ``run_dir`` and return its spec."""
    sizes = SIZES[workload][size]
    rng = np.random.default_rng([seed, list(SIZES).index(workload)])
    corpus = run_dir / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "size": size,
            "run_dir": str(run_dir), "sample_rate": FS}

    if workload == "example-10s":
        np.save(corpus / "speech.npy", speech_like(sizes["speech_s"], rng))
        np.save(corpus / "noise.npy", noise_like(sizes["noise_s"], rng))
        spec.update(speech=str(corpus / "speech.npy"), noise=str(corpus / "noise.npy"),
                    rt60=EXAMPLE_RT60, room_seed=int(rng.integers(1 << 31)),
                    snr_db=EXAMPLE_SNR_DB, strategy="attenuated-decayed",
                    fft_check_index=int(rng.integers(5)))
    else:
        speech_paths = []
        for i in range(sizes["speech_files"]):
            path = corpus / f"speech{i}.wav"
            write_pcm(path, speech_like(sizes["speech_s"], rng), 2)
            speech_paths.append(str(path))
        noise_path = corpus / "noise.wav"
        write_pcm(noise_path, noise_like(sizes["noise_s"], rng), 2)
        spec.update(_build_manifest(workload, sizes, speech_paths, str(noise_path),
                                    corpus, rng))
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    spec["path"] = str(spec_path)
    return spec


def _build_manifest(workload, sizes, speech_paths, noise_path, corpus, rng) -> dict:
    n = sizes["entries"]
    global_seed = int(rng.integers(1 << 31))
    entries = []
    if workload == "build-long":
        p_noise_free = 0.0
        for i, rt60 in enumerate(spread_evenly(*LONG_RT60, n, rng)):
            entries.append({"speech": speech_paths[i % len(speech_paths)],
                            "noise": noise_path, "rir_rt60": rt60, "snr": "sample",
                            "strategy": STRATEGIES[i % 4]})
        rooms = []
    else:
        p_noise_free = SHORT_P_NOISE_FREE
        rooms = []
        for i, rt60 in enumerate(spread_evenly(*SHORT_RT60, sizes["rir_files"], rng)):
            taps, direct = room_taps(rt60, rng)
            path = corpus / f"room{i}.wav"
            write_pcm(path, taps, 3)
            if i % 2 == 0:  # the others have no sidecar, so the reader finds the peak
                Path(f"{path}.meta.txt").write_text(
                    f"direct_index={direct}\nsample_rate={FS}\n", encoding="utf-8")
            rooms.append({"path": str(path), "rt60": rt60, "direct_index": direct})
        order = rng.permutation(np.arange(n) % len(rooms))
        for i in range(n):
            snr = SHORT_EXPLICIT_SNR[(i // 8) % 4] if i % 8 == 7 else "sample"
            entries.append({"speech": speech_paths[i % len(speech_paths)],
                            "noise": noise_path, "rir": rooms[order[i]]["path"],
                            "snr": snr, "strategy": STRATEGIES[i % 4]})

    text = (f"[global]\nseed={global_seed}\nsnr_min=-5\nsnr_max=45\n"
            f"p_noise_free={p_noise_free}\n")
    text += "".join(_entry_block(e) for e in entries)
    manifest = corpus / "manifest.txt"
    manifest.write_text(text, encoding="utf-8")
    warmup = corpus / "warmup.txt"
    warmup.write_text(text.split("\n[entry]")[0] + _entry_block(entries[0]),
                      encoding="utf-8")
    return {"manifest": str(manifest), "warmup_manifest": str(warmup),
            "global_seed": global_seed, "p_noise_free": p_noise_free,
            "entries": entries, "rooms": rooms,
            "fft_check_index": int(rng.integers(n))}
