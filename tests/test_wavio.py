import hashlib
import math
import re
import struct

import numpy as np
import pytest

from rirshape import ParameterError, Signal, read_wav, write_wav

FS = 48000


def write_chunks(path, fmt: bytes, payload: bytes, pad: bytes = b""):
    """Write a RIFF/WAVE file of one ``fmt`` and one ``data`` chunk, as given; return the path."""
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload + pad
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    return path


def test_float32_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    signal = Signal(rng.uniform(-1, 1, 1000).astype(np.float32).astype(np.float64), FS)
    path = tmp_path / "f32.wav"
    write_wav(signal, path)
    back = read_wav(path)
    assert back.sample_rate == FS
    assert np.array_equal(back.samples, signal.samples)


def test_pcm16_read_write_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    ints = rng.integers(-32768, 32768, size=777, dtype=np.int16)
    signal = Signal(ints.astype(np.float64) / 32768.0, FS)
    first = tmp_path / "a.wav"
    second = tmp_path / "b.wav"
    write_wav(signal, first, encoding="pcm16")
    write_wav(read_wav(first), second, encoding="pcm16")
    assert first.read_bytes() == second.read_bytes()
    # and the decoded integers survive
    decoded = np.round(read_wav(first).samples * 32768.0).astype(np.int16)
    assert np.array_equal(decoded, ints)


def test_pcm24_read_write_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    ints = rng.integers(-(1 << 23), 1 << 23, size=333)  # odd count exercises padding
    signal = Signal(ints.astype(np.float64) / 8388608.0, FS)
    first = tmp_path / "a.wav"
    second = tmp_path / "b.wav"
    write_wav(signal, first, encoding="pcm24")
    write_wav(read_wav(first), second, encoding="pcm24")
    assert first.read_bytes() == second.read_bytes()
    decoded = np.round(read_wav(first).samples * 8388608.0).astype(np.int64)
    assert np.array_equal(decoded, ints)


def widening_pcm24_decode(payload):
    """The column-widening decoder ``read_wav`` used before whole int32 words."""
    octets = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
    raw = octets[:, 0] | (octets[:, 1] << 8) | (octets[:, 2] << 16)
    raw = np.where(raw >= 1 << 23, raw - (1 << 24), raw)
    return raw.astype(np.float64) / 8388608.0


@pytest.mark.parametrize("n_random", [0, 1, 1000, 1001])
def test_pcm24_decode_matches_widening_reference(tmp_path, n_random):
    extremes = [-(1 << 23), -1, 0, 1, (1 << 23) - 1]
    ints = np.concatenate([extremes, np.random.default_rng(n_random).integers(
        -(1 << 23), 1 << 23, size=n_random)])
    path = tmp_path / "p24.wav"
    write_wav(Signal(ints / 8388608.0, FS), path, encoding="pcm24")
    payload = path.read_bytes()[44:44 + 3 * ints.size]
    assert np.array_equal(read_wav(path).samples, widening_pcm24_decode(payload))


def test_pcm_write_clips_overrange(tmp_path):
    signal = Signal(np.array([1.5, -1.5, 1.0, -1.0]), FS)
    path = tmp_path / "clip.wav"
    write_wav(signal, path, encoding="pcm16")
    back = read_wav(path)
    assert back.samples.max() == pytest.approx(32767 / 32768)
    assert back.samples.min() == -1.0


def test_float32_overflow_rejected_before_the_file_opens(tmp_path):
    path = tmp_path / "loud.wav"
    with pytest.raises(ParameterError, match="float32"):
        write_wav(Signal(np.array([0.0, 8.4e99, -1e39]), 48000), path)
    assert not path.exists()


def test_largest_float32_sample_written(tmp_path):
    peak = float(np.finfo(np.float32).max)
    write_wav(Signal(np.array([peak, -peak]), 48000), tmp_path / "a.wav")
    assert np.array_equal(read_wav(tmp_path / "a.wav").samples, [peak, -peak])


def test_unknown_chunks_skipped(tmp_path):
    path = tmp_path / "extra.wav"
    write_wav(Signal(np.array([0.25, -0.25]), FS), path, encoding="pcm16")
    raw = path.read_bytes()
    junk = b"LIST" + struct.pack("<I", 6) + b"junk!!"
    patched = raw[:12] + junk + raw[12:]
    patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
    (tmp_path / "patched.wav").write_bytes(patched)
    back = read_wav(tmp_path / "patched.wav")
    assert np.allclose(back.samples, [0.25, -0.25], atol=1e-4)


def test_extensible_header_resolves_to_pcm(tmp_path):
    payload = struct.pack("<4h", 1000, -1000, 2000, -2000)
    fmt = struct.pack("<HHIIHH", 0xFFFE, 1, FS, FS * 2, 2, 16)
    fmt += struct.pack("<HHI", 22, 16, 1)  # cbSize, valid bits, channel mask
    fmt += struct.pack("<H", 1) + b"\x00\x00" + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    back = read_wav(write_chunks(tmp_path / "ext.wav", fmt, payload))
    assert np.array_equal(np.round(back.samples * 32768.0), [1000, -1000, 2000, -2000])


def test_rejects_stereo(tmp_path):
    payload = struct.pack("<4h", 1, 2, 3, 4)
    fmt = struct.pack("<HHIIHH", 1, 2, FS, FS * 4, 4, 16)
    with pytest.raises(ParameterError, match="only mono supported, got 2 channels"):
        read_wav(write_chunks(tmp_path / "stereo.wav", fmt, payload))


def test_rejects_unsupported_depth(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, FS, FS, 1, 8)
    with pytest.raises(ParameterError, match=r"unsupported format \(code=0x0001, bits=8\)"):
        read_wav(write_chunks(tmp_path / "u8.wav", fmt, b"\x80\x80"))


def test_rejects_non_wav(tmp_path):
    path = tmp_path / "not.wav"
    path.write_bytes(b"this is not audio")
    with pytest.raises(ParameterError, match="not a RIFF/WAVE file"):
        read_wav(path)


def test_rejects_unknown_encoding(tmp_path):
    with pytest.raises(ParameterError, match="unknown encoding 'pcm32'"):
        write_wav(Signal(np.array([0.1]), FS), tmp_path / "x.wav", encoding="pcm32")


def test_sample_rate_beyond_the_header_rejected_before_any_write(tmp_path):
    path = tmp_path / "x.wav"
    with pytest.raises(ParameterError, match="byte rate"):
        write_wav(Signal(np.array([0.1]), 1 << 31), path)
    assert not path.exists()


def test_sample_rate_preserved(tmp_path):
    path = tmp_path / "sr.wav"
    write_wav(Signal(np.array([0.1, 0.2]), 48000), path)
    assert read_wav(path).sample_rate == 48000


@pytest.mark.parametrize("encoding, sha256", [
    ("float32", "9d42daec2c20b70c262de2603fe6f24301d8a3b947d07a68a61c7688b3a76e87"),
    ("pcm16", "4677450218d08e9bcf0537df49d8bf36620883514aae42ff33571a5809c142c1"),
    ("pcm24", "aaf39315d6ffab549b6c4755f24dba628f09f9b124bd62162a46af58d8099211"),
])
def test_written_bytes_are_pinned(tmp_path, encoding, sha256):
    # 101 samples: an odd pcm24 payload needs the pad byte; +-1.25 exercises clipping
    path = tmp_path / f"{encoding}.wav"
    write_wav(Signal(np.linspace(-1.25, 1.25, 101), FS), path, encoding=encoding)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("audio_format, bits", [(1, 16), (1, 24), (3, 32)])
def test_data_size_not_whole_samples_rejected(tmp_path, audio_format, bits):
    width = bits // 8
    payload = bytes(3 * width + 1)  # one byte past the third sample
    fmt = struct.pack("<HHIIHH", audio_format, 1, FS, FS * width, width, bits)
    path = write_chunks(tmp_path / f"odd{bits}.wav", fmt, payload, pad=b"\x00")
    with pytest.raises(ParameterError,
                       match=f"odd{bits}.wav: data chunk holds a partial {bits}-bit sample"):
        read_wav(path)


SIGNAL_REFUSALS = {"zero_rate": "sample_rate must be a positive integer",
                   "no_samples": "signal must be a non-empty 1-D array",
                   "nan_sample": "signal contains NaN or Inf samples"}


@pytest.mark.parametrize("name, sample_rate, samples", [
    ("zero_rate", 0, [0.5]), ("no_samples", FS, []), ("nan_sample", FS, [0.5, math.nan]),
])
def test_samples_a_signal_refuses_name_the_file(tmp_path, name, sample_rate, samples):
    fmt = struct.pack("<HHIIHH", 3, 1, sample_rate, sample_rate * 4, 4, 32)
    path = write_chunks(tmp_path / f"{name}.wav", fmt, struct.pack(f"<{len(samples)}f", *samples))
    with pytest.raises(ParameterError, match="^" + re.escape(f"{path}: {SIGNAL_REFUSALS[name]}")):
        read_wav(path)
