"""Waveform container and foundational signal operations.

Linear convolution, SNR-controlled mixing, and a 50%-overlap
analysis/synthesis transform pair (20 ms windows, 10 ms hop at 48 kHz).
Every operation is a pure function over immutable inputs and is safe to
call concurrently.

``convolve`` takes one impulse response or a list of equal-length ones;
the list form transforms the signal once and derives every product from
that one spectrum, bit-identical to convolving with each response in
turn (``scipy.signal.fftconvolve``, including its rule that a one-tap
response or a one-sample signal is an exact scale).

The first time ``convolve`` runs a transform of at least
``RETAIN_FROM_NFFT`` (2^18) points, it tells glibc's allocator, once and
for the whole process, to keep freed memory instead of returning it to
the kernel: ``mallopt`` raises the mmap threshold to 32 MiB and the trim
threshold to 64 MiB. Without it, the scratch buffers of a 10 s example's
552,960-point transforms are mapped fresh and handed back on every
call, which cost ~14,000 minor page faults and 16-47 ms of system
time per example (of ~106 ms wall); with it, repeated examples reuse
the same pages. Shorter transforms (86,400 points for 1 s of speech and a 0.8 s
response) never turn it on: there the retained memory cost ~7 MB of
resident set per worker process and no measurable speed. The setting
applies on glibc only and is a silent no-op elsewhere; it changes no
arithmetic.
"""

from __future__ import annotations

import functools
import platform
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .errors import (
    DegenerateEnergyError,
    MalformedSpectraError,
    ParameterError,
    SampleRateMismatchError,
    TooShortError,
)

DEFAULT_SAMPLE_RATE = 48000
WINDOW_MS = 20.0
FRAME_ADVANCE_MS = 10.0
RETAIN_FROM_NFFT = 1 << 18  # transform length that keeps freed memory in the process

_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


@dataclass(frozen=True)
class Signal:
    """A finite mono waveform, full-scale amplitude +-1.0.

    Samples are stored as float64. Construction rejects empty, NaN or
    Inf data and nonpositive sample rates.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ParameterError(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.ndim != 1 or samples.size < 1:
            raise ParameterError("signal must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ParameterError("signal contains NaN or Inf samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples ** 2)))

    def power(self) -> float:
        """Mean squared amplitude over the full signal."""
        return float(np.mean(self.samples ** 2))


@dataclass(frozen=True)
class FrameSpectra:
    """One-sided complex spectra of overlapping analysis frames.

    ``frames`` has shape (n_frames, fft_size // 2 + 1). The default
    profile is 20 ms windows advanced by 10 ms (960/480 samples at
    48 kHz) with fft_size equal to the window length.
    """

    frames: np.ndarray
    sample_rate: int
    fft_size: int
    frame_advance_ms: float = FRAME_ADVANCE_MS
    window_ms: float = WINDOW_MS

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise MalformedSpectraError("frames must be a non-empty 2-D array")
        if frames.shape[1] != self.fft_size // 2 + 1:
            raise MalformedSpectraError(
                f"{frames.shape[1]} bins inconsistent with fft_size={self.fft_size}")
        if self.fft_size < self.window_samples:
            raise MalformedSpectraError("fft_size smaller than the analysis window")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]

    @property
    def window_samples(self) -> int:
        return round(self.sample_rate * self.window_ms / 1000.0)

    @property
    def hop_samples(self) -> int:
        return round(self.sample_rate * self.frame_advance_ms / 1000.0)


def power_complementary_window(length: int) -> np.ndarray:
    """Squared-sine window whose squares overlap-add to one at 50% hop.

    w[n] = sin(pi/2 * sin^2(pi (n + 0.5) / N)); using the same window
    for analysis and synthesis gives perfect reconstruction away from
    the signal edges.
    """
    k = np.arange(length)
    return np.sin(0.5 * np.pi * np.sin(np.pi * (k + 0.5) / length) ** 2)


@functools.cache
def _retain_freed_memory() -> None:
    """Make glibc keep freed blocks of up to 32 MiB for reuse (once per process)."""
    if platform.libc_ver()[0] != "glibc":
        return
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def convolve(x: Signal, h, method: str = "fft", length: int | None = None):
    """Linearly convolve a signal with one or several impulse responses.

    Parameters
    ----------
    x : Signal
        Input waveform.
    h : Rir or Signal, or a list of them
        Impulse response(s); each must share the sample rate of ``x``.
        A list must hold responses of one length and gives a list of
        Signals, one per response; a single response gives one Signal.
    method : str
        ``fft`` (default) for the fast transform-domain path or
        ``direct`` for the O(N*M) multiply-accumulate path. Both paths
        produce the same full-length (len(x) + len(h) - 1) output to
        within rounding.
    length : int, optional
        Keep only the first ``length`` output samples (all of them when
        ``length`` is None or beyond the full length).

    The fft path transforms ``x`` once, whatever the number of
    responses, and is bit-identical to ``scipy.signal.fftconvolve`` per
    response: the same fast transform size, the signal's spectrum as the
    first product operand, and a one-tap response (or a one-sample
    signal) applied as an exact scale instead of a transform round trip.
    A transform of ``RETAIN_FROM_NFFT`` points or more turns on the
    process-wide allocator setting described in the module docstring.
    """
    many = isinstance(h, (list, tuple))
    responses = list(h) if many else [h]
    if not responses:
        raise ParameterError("need at least one impulse response")
    taps = []
    for response in responses:
        if x.sample_rate != response.sample_rate:
            raise SampleRateMismatchError(
                f"signal at {x.sample_rate} Hz vs impulse response at "
                f"{response.sample_rate} Hz")
        response_taps = getattr(response, "taps", None)
        taps.append(response.samples if response_taps is None else response_taps)
    n_taps = taps[0].size
    if any(t.size != n_taps for t in taps):
        raise ParameterError(
            f"impulse responses differ in length: {sorted({t.size for t in taps})}")
    full = len(x) + n_taps - 1
    if length is not None and length < 1:
        raise ParameterError(f"length must be at least 1, got {length}")
    n_out = full if length is None else min(length, full)

    if method == "fft":
        if len(x) == 1 or n_taps == 1:
            rows = [(x.samples * t)[:n_out] for t in taps]
        else:
            nfft = sp_fft.next_fast_len(full, real=True)
            if nfft >= RETAIN_FROM_NFFT:
                _retain_freed_memory()
            spectrum = sp_fft.rfft(x.samples, nfft)
            products = sp_fft.rfft(np.stack(taps), nfft, axis=1)
            np.multiply(spectrum, products, out=products)
            rows = sp_fft.irfft(products, nfft, axis=1, overwrite_x=True)[:, :n_out]
    elif method == "direct":
        rows = [np.convolve(x.samples, t, mode="full")[:n_out] for t in taps]
    else:
        raise ParameterError(f"unknown convolution method {method!r}")
    out = [Signal(row, x.sample_rate) for row in rows]
    return out if many else out[0]


def fit_noise_length(noise: Signal, length: int, offset: int = 0) -> Signal:
    """Cyclically extend or crop a noise signal to exactly ``length`` samples.

    ``offset`` picks the starting position inside the (cyclically
    extended) noise, so longer recordings are cropped from there and
    shorter ones loop.
    """
    if length < 1:
        raise ParameterError("length must be at least 1")
    # the part up to the noise's end, then whole cycles from its start:
    # O(length) copies, however long the recording
    start = offset % len(noise)
    head = noise.samples[start:start + length]
    fitted = np.concatenate((head, np.resize(noise.samples, length - head.size)))
    return Signal(fitted, noise.sample_rate)


def mix_at_snr(speech: Signal, noise: Signal, snr_db: float,
               noise_offset: int = 0) -> tuple[Signal, float]:
    """Scale noise against speech to hit a requested SNR, then sum.

    Power is the mean square over the full signal; no voice-activity
    weighting is applied. The noise is cyclically extended or cropped
    (from ``noise_offset``) to the speech length before scaling.

    Returns
    -------
    (mixture, noise_gain)
        The mixture signal and the linear gain applied to the noise,
        chosen so 10*log10(P_speech / P_scaled_noise) equals ``snr_db``.
    """
    if speech.sample_rate != noise.sample_rate:
        raise SampleRateMismatchError(
            f"speech at {speech.sample_rate} Hz vs noise at {noise.sample_rate} Hz")
    fitted = fit_noise_length(noise, len(speech), noise_offset)
    p_speech = speech.power()
    p_noise = fitted.power()
    if p_speech == 0.0:
        raise DegenerateEnergyError("speech has zero energy")
    if p_noise == 0.0:
        raise DegenerateEnergyError("noise has zero energy")
    noise_gain = float(np.sqrt(p_speech / (p_noise * 10.0 ** (snr_db / 10.0))))
    mixture = Signal(speech.samples + noise_gain * fitted.samples, speech.sample_rate)
    return mixture, noise_gain


def analyze(signal: Signal, window_ms: float = WINDOW_MS,
            frame_advance_ms: float = FRAME_ADVANCE_MS,
            fft_size: int | None = None) -> FrameSpectra:
    """Split a signal into 50%-overlapped windowed frames and transform.

    Frames shorter than one full window at the tail are dropped. With
    the default profile a 1 s signal at 48 kHz yields 99 frames.
    """
    win = round(signal.sample_rate * window_ms / 1000.0)
    hop = round(signal.sample_rate * frame_advance_ms / 1000.0)
    if win < 2 or hop < 1:
        raise ParameterError("window/advance too small for this sample rate")
    if fft_size is None:
        fft_size = win
    if fft_size < win:
        raise ParameterError("fft_size must be at least the window length")
    if len(signal) < win:
        raise TooShortError(f"signal of {len(signal)} samples shorter than one "
                            f"{win}-sample window")
    window = power_complementary_window(win)
    framed = np.lib.stride_tricks.sliding_window_view(signal.samples, win)[::hop]
    frames = np.fft.rfft(framed * window, n=fft_size, axis=1)
    return FrameSpectra(frames, signal.sample_rate, fft_size,
                        frame_advance_ms, window_ms)


def synthesize(spectra: FrameSpectra) -> Signal:
    """Overlap-add frame spectra back into a waveform.

    Uses the same power-complementary window as ``analyze``, so
    synthesize(analyze(s)) reproduces s exactly except within one
    window of each edge.
    """
    win = spectra.window_samples
    hop = spectra.hop_samples
    window = power_complementary_window(win)
    frames_t = np.fft.irfft(spectra.frames, n=spectra.fft_size, axis=1)[:, :win]
    frames_t = frames_t * window
    out = np.zeros((spectra.n_frames - 1) * hop + win)
    for i in range(spectra.n_frames):
        out[i * hop:i * hop + win] += frames_t[i]
    return Signal(out, spectra.sample_rate)
