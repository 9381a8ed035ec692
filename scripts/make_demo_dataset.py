"""Build a small self-contained demo dataset from synthetic audio.

python scripts/make_demo_dataset.py --out-dir demo --entries 8
writes a synthetic corpus, a manifest, and the generated examples.
"""

import argparse
from pathlib import Path

import numpy as np

from rirshape import Signal, Strategy, build_dataset, parse_manifest, write_wav
from rirshape.pipeline import DatasetManifest, ManifestEntry, format_manifest

FS = 48000


def fake_speech(duration, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * FS)) / FS
    envelope = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(1.5, 4.0) * t)
    voiced = sum(np.sin(2 * np.pi * f * t + rng.uniform(0, 6.28))
                 for f in rng.uniform(150, 3500, size=5))
    return Signal(0.06 * envelope * voiced + 0.015 * rng.standard_normal(t.size), FS)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo")
    parser.add_argument("--entries", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    out = Path(args.out_dir)
    corpus = out / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
    speech_paths = []
    for i in range(3):
        path = corpus / f"speech{i}.wav"
        write_wav(fake_speech(1.0, seed=100 + i), path)
        speech_paths.append(path)
    noise_path = corpus / "noise.wav"
    write_wav(Signal(0.04 * rng.standard_normal(FS), FS), noise_path)

    strategies = list(Strategy)
    entries = []
    for i in range(args.entries):
        entries.append(ManifestEntry(
            speech=str(speech_paths[i % len(speech_paths)]),
            noise=str(noise_path),
            rir_rt60=float(rng.uniform(0.2, 1.2)),
            strategy=strategies[i % len(strategies)]))
    manifest = DatasetManifest(entries, seed=args.seed)

    manifest_path = out / "manifest.txt"
    manifest_path.write_text(format_manifest(manifest), encoding="utf-8")
    summary = build_dataset(parse_manifest(manifest_path.read_text()),
                            out / "examples", workers=args.workers)
    print(summary.to_kv())
    print(f"manifest: {manifest_path}")
    print(f"examples: {out / 'examples'}")


if __name__ == "__main__":
    main()
