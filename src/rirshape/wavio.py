"""Mono WAV reader/writer for 16/24-bit integer PCM and 32-bit float.

Samples are normalized to full scale +-1.0 with power-of-two divisors
(2^15 for 16-bit, 2^23 for 24-bit), which float64 represents exactly, so
an integer-PCM read -> write round trip is bit-exact. Unknown RIFF
chunks are skipped on read; writes emit a plain fmt/data layout (plus a
fact chunk for float data).
"""

from __future__ import annotations

import struct

import numpy as np

from .dsp import Signal
from .errors import WavFormatError

_FORMAT_PCM = 0x0001
_FORMAT_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE

ENCODINGS = ("float32", "pcm16", "pcm24")


def read_wav(path) -> Signal:
    """Read a mono WAV file into a normalized float64 signal."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    view = memoryview(data)  # chunk bodies are views into the file's bytes, not copies
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(body, path)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavFormatError(f"{path}: truncated data chunk")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, bits = fmt
    if n_channels != 1:
        raise WavFormatError(f"{path}: only mono supported, got {n_channels} channels")

    if (audio_format, bits) not in ((_FORMAT_PCM, 16), (_FORMAT_PCM, 24), (_FORMAT_FLOAT, 32)):
        raise WavFormatError(
            f"{path}: unsupported format (code={audio_format:#06x}, bits={bits}); "
            "accepted: 16/24-bit PCM, 32-bit float")
    if len(payload) % (bits // 8):
        raise WavFormatError(f"{path}: data chunk holds a partial {bits}-bit sample")
    if bits == 16:
        raw = np.frombuffer(payload, dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif bits == 24:
        # each sample fills the top three bytes of a little-endian int32
        # word; the arithmetic shift right by 8 then sign-extends it
        words = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
        words[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        samples = (words.view("<i4")[:, 0] >> 8) / 8388608.0
    else:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return Signal(samples, sample_rate)


def _parse_fmt(body: memoryview, path) -> tuple[int, int, int, int]:
    if len(body) < 16:
        raise WavFormatError(f"{path}: fmt chunk too small")
    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
    if audio_format == _FORMAT_EXTENSIBLE:
        if len(body) < 26:
            raise WavFormatError(f"{path}: extensible fmt chunk too small")
        # the first two bytes of the subformat GUID are the real format code
        (audio_format,) = struct.unpack_from("<H", body, 24)
    return audio_format, n_channels, sample_rate, bits


def write_wav(signal: Signal, path, encoding: str = "float32") -> None:
    """Write a signal as a mono WAV file.

    ``encoding`` is one of ``float32`` (default), ``pcm16`` or ``pcm24``.
    Integer encodings round to nearest and clip at full scale.
    """
    if encoding == "float32":
        payload = signal.samples.astype("<f4")
        audio_format, bits = _FORMAT_FLOAT, 32
    elif encoding == "pcm16":
        raw = np.clip(np.round(signal.samples * 32768.0), -32768, 32767)
        payload = raw.astype("<i2")
        audio_format, bits = _FORMAT_PCM, 16
    elif encoding == "pcm24":
        raw = np.clip(np.round(signal.samples * 8388608.0), -(1 << 23), (1 << 23) - 1)
        raw = raw.astype(np.int32) & 0xFFFFFF
        payload = np.empty((raw.size, 3), dtype=np.uint8)
        payload[:, 0] = raw & 0xFF
        payload[:, 1] = (raw >> 8) & 0xFF
        payload[:, 2] = (raw >> 16) & 0xFF
        audio_format, bits = _FORMAT_PCM, 24
    else:
        raise WavFormatError(f"unknown encoding {encoding!r}; expected one of {ENCODINGS}")

    bytes_per_sample = bits // 8
    fmt_body = struct.pack(
        "<HHIIHH", audio_format, 1, signal.sample_rate,
        signal.sample_rate * bytes_per_sample, bytes_per_sample, bits)
    # the fmt and fact bodies have even sizes, so only the data chunk needs a pad byte
    header = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if audio_format == _FORMAT_FLOAT:
        header += b"fact" + struct.pack("<II", 4, len(signal))
    size = payload.nbytes
    pad = size & 1
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(header) + 8 + size + pad) + b"WAVE")
        fh.write(header + b"data" + struct.pack("<I", size))
        fh.write(payload)  # the array's own buffer, not a bytes copy
        if pad:
            fh.write(b"\x00")
