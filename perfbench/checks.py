"""Output checks that accept rounding-level change and catch wrong results.

Outputs are read back without rirshape's readers, and the reference input
and target are recomputed with plain ``np.fft`` convolution and the
paper's shaping curves. Only a synthesized room itself comes from
rirshape (``synth_rir`` with the entry's drawn seed).
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

FS = 48000
WINDOW = 960   # 20 ms analysis window at 48 kHz
HOP = 480      # 10 ms frame advance
N_BANDS = 32
RT60_TOLERANCE = 0.15
# Worst sample error allowed against the reference, as a share of its peak:
# far above float32 rounding (6e-8), far below any real defect.
REFERENCE_TOLERANCE = 1e-4


def read_wav(path) -> np.ndarray:
    """Mono 16/24-bit PCM or 32-bit float WAV, scaled to +-1."""
    data = Path(path).read_bytes()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        if chunk == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", data, pos + 8)
        elif chunk == b"data":
            payload = data[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    code, channels, rate, _, _, bits = fmt
    if channels != 1 or rate != FS:
        raise ValueError(f"{path}: {channels} channels at {rate} Hz")
    if code == 3 and bits == 32:
        return np.frombuffer(payload, "<f4").astype(np.float64)
    if code == 1 and bits == 16:
        return np.frombuffer(payload, "<i2") / 32768.0
    if code == 1 and bits == 24:
        octets = np.frombuffer(payload, np.uint8).reshape(-1, 3).astype(np.int32)
        raw = octets[:, 0] | (octets[:, 1] << 8) | (octets[:, 2] << 16)
        return np.where(raw >= 1 << 23, raw - (1 << 24), raw) / 8388608.0
    raise ValueError(f"{path}: unsupported format {code}/{bits}")


def read_kv(path) -> dict[str, str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


def expected_frames(n_samples: int) -> int:
    return 1 + (n_samples - WINDOW) // HOP


def check_gains(gains: np.ndarray, n_samples: int) -> str | None:
    if gains.shape != (expected_frames(n_samples), N_BANDS):
        return f"gains shape {gains.shape}, expected ({expected_frames(n_samples)}, {N_BANDS})"
    if not (np.all(np.isfinite(gains)) and gains.min() >= 0.0 and gains.max() <= 1.0):
        return "gains outside [0, 1]"
    return None


def check_rt60(estimate, nominal: float) -> str | None:
    if estimate in (None, "none") or abs(float(estimate) / nominal - 1.0) > RT60_TOLERANCE:
        return f"rt60_input_estimate {estimate} not within 15% of nominal {nominal}"
    return None


def shaping_gain(n: int, direct: int, strategy: str, t0: float, t1: float,
                 alpha: float, rd: float) -> np.ndarray:
    """The paper's per-tap gain, with time zero at the direct path."""
    t = (np.arange(n) - direct) / FS
    gain = np.ones(n)
    if strategy in ("decayed", "attenuated-decayed"):
        late = t >= t0
        gain[late] *= 10.0 ** (-3.0 * (t[late] - t0) / rd)
    if strategy in ("full", "attenuated-decayed"):
        mid = (t >= t0) & (t <= t1)
        gain[mid] *= 0.5 * (1 + alpha) + 0.5 * (1 - alpha) * np.cos(
            np.pi * (t[mid] - t0) / (t1 - t0))
        gain[t > t1] *= alpha
    return gain


def _fft_convolve(x: np.ndarray, h: np.ndarray, n_out: int) -> np.ndarray:
    n = len(x) + len(h) - 1
    return np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(h, n), n)[:n_out]


def check_against_reference(mixture, target, speech, h0, direct, noise, noise_gain,
                            meta) -> str | None:
    """Recompute input and target from (speech, h0, noise) with np.fft.

    The noise crop offset is not recomputed from the program's seed rule;
    it is found by circular cross-correlation of the residual with the noise.
    """
    n = len(mixture)
    if len(target) != n:
        return "input and target lengths differ"
    reverberant = _fft_convolve(speech, h0, n)
    residual = mixture - reverberant
    if noise is None or noise_gain == 0.0:
        expected_noise = np.zeros(n)
    else:
        m = len(noise)
        head = np.zeros(m)
        head[:min(n, m)] = residual[:m]
        corr = np.fft.irfft(np.fft.rfft(noise) * np.conj(np.fft.rfft(head)), m)
        offset = int(np.argmax(corr))
        expected_noise = noise_gain * noise[(offset + np.arange(n)) % m]
    peak = np.abs(mixture).max()
    if np.abs(residual - expected_noise).max() > REFERENCE_TOLERANCE * peak:
        return "input differs from speech * h0 + scaled noise (np.fft reference)"
    h1 = h0 * shaping_gain(len(h0), direct, meta["strategy"], float(meta["t0"]),
                           float(meta["t1"]), float(meta["alpha"]), float(meta["rd"]))
    reference = _fft_convolve(speech, h1, n)
    if np.abs(target - reference).max() > REFERENCE_TOLERANCE * max(np.abs(reference).max(), 1e-12):
        return "target differs from speech * shaped h0 (np.fft reference)"
    return None


def check_entry(out_dir: Path, entry_id: str, nominal_rt60: float) -> tuple[str | None, float]:
    """Check one built entry's four files; returns (failure or None, audio seconds)."""
    paths = {kind: out_dir / f"{entry_id}.{kind}" for kind in
             ("input.wav", "target.wav", "gains.csv", "meta.txt")}
    missing = [kind for kind, path in paths.items() if not path.is_file()]
    if missing:
        return f"missing {', '.join(missing)}", 0.0
    mixture = read_wav(paths["input.wav"])
    target = read_wav(paths["target.wav"])
    if len(mixture) != len(target):
        return "input and target lengths differ", 0.0
    gains = np.loadtxt(paths["gains.csv"], delimiter=",", comments="#", ndmin=2)
    meta = read_kv(paths["meta.txt"])
    failure = (check_gains(gains, len(mixture))
               or check_rt60(meta.get("rt60_input_estimate"), nominal_rt60))
    return failure, len(mixture) / FS


def digests(out_dir: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}
