"""Waveform container and foundational signal operations.

Linear convolution, SNR-controlled mixing, and a 50%-overlap
analysis/synthesis transform pair. The analysis profile is fixed:
``WINDOW_MS`` (20 ms) windows advanced by ``FRAME_ADVANCE_MS`` (10 ms),
at the signal's own sample rate, with an FFT as long as the window
(960/480 samples and 481 bins at 48 kHz). Every operation is a pure
function over immutable inputs and is safe to call concurrently.

``Signal`` is the one waveform type: an impulse response (``shaping.Rir``)
is a Signal with a direct-path index. ``convolve`` transforms a signal
once for a whole list of equal-length responses.

Importing this module sets glibc's allocator, once and for the whole
process, to keep freed memory instead of returning it to the kernel:
``mallopt`` raises the mmap threshold to 32 MiB and the trim threshold
to 64 MiB. Without it, the scratch buffers of a 10 s example's
552,960-point transforms are mapped fresh and handed back on every call,
which cost ~14,000 minor page faults and 16-47 ms of system time per
example (of ~106 ms wall); with it, repeated examples reuse the same
pages. Short transforms gain as well: a warm 1 s example took 2,565
minor faults under glibc's defaults and 0 with the setting on, and the
pool workers of a ``build_dataset`` of 1 s entries took ~345 faults per
entry instead of ~1,920. WAV reads gain too: a 10.5 s pcm24 read takes 0
minor faults from its second read on, instead of ~2,300 on every read.
The same call sets glibc's arena limit to one, so a helper thread
(below) allocates from the main heap instead of growing an arena of its
own: a loop of 40 10 s examples on two threads peaked at 132 MB resident
without the limit and at 126 MB with it (114 MB on one thread).

The free heap goes back to the kernel before every fork. The same
import registers glibc's ``malloc_trim(0)`` with ``os.register_at_fork``,
so a child, whether a ``build_dataset`` pool worker or any other forked
process, starts at about the parent's live size instead of inheriting
the freed buffers the setting kept: after one 10 s example the parent
held 84 MB resident, 40 MB of it free heap, and each worker of a
following build was 69 MB resident at its first entry without the trim
and 29 MB with it. A process that never forks, such as a ``workers=1``
build or an example loop, never trims, so it keeps its warm heap and
fault counts. ``subprocess`` starts its children without the hook, and
so without a trim. All of this applies on glibc only and does nothing
elsewhere or where ``mallopt`` or ``malloc_trim`` is missing; it
changes no arithmetic.

A transform of at least ``SPLIT_FROM_POINTS`` (2^18) points (for
``analyze``, the points of one signal's frames) may use a second core.
Each such call hands its independent transforms to ``_run_split``: the
caller's thread and one fresh helper per further usable core each take
the next transform not yet taken, so a helper that gets no core soon
leaves the rest to the caller. A long ``convolve`` splits twice, first
into its two forward transforms (the signal's and the stacked
responses'), then into one inverse transform per response; ``analyze``
splits into blocks of ``FRAMES_PER_CALL`` frames, written into spectra
it allocates before the split. A 10 s example, one ``convolve`` over two
responses and one ``analyze`` of its input and target, so keeps a second
core busy at three points. The threads share one heap, and these
splits keep its layout, and so a warm example's page faults, the same
from run to run. Two other splits did not, since where their buffers
landed depended on which thread ran what when: three equal forward
transforms (the signal's and each response's alone), the third taken by
whichever thread was free first, and one call per signal's frames with
its own 8 MB buffers. With the first, 4 of 20 runs took 561-1,082 minor
faults at their third example; with the second, 1 of 20 took 319.
A helper starts only if the process's affinity mask
(``os.sched_getaffinity``) holds another core and ``multiprocessing``
did not start it: a ``build_dataset`` pool worker stays on one thread,
since its sibling workers hold the other cores. No CPU quota is read, so
a process held below two CPUs by a quota while its mask shows two or
more still starts the helper (an effect not measured). Nor is the
machine's load read, so beside an unrelated busy process a 10 s example
keeps its helper. Shorter transforms, such as those of 1 s entries,
start no thread. No option or variable sets the count. The helpers run
only numpy, never a function that ``pipeline`` calls by name, and are
joined before the call returns, so no thread is alive across a
``fork``; each transform is computed exactly as on one thread, so
results are bit-identical either way.
"""

from __future__ import annotations

import collections
import ctypes
import math
import multiprocessing
import os
import platform
import threading
from dataclasses import dataclass

import numpy as np

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
SPLIT_FROM_POINTS = 1 << 18  # transform points from which a call may split over threads
FRAMES_PER_CALL = 256  # analysis frames windowed and transformed per call, on any thread

_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


@dataclass(frozen=True)
class Signal:
    """A finite mono waveform, full-scale amplitude +-1.0.

    Samples are stored as float64. Construction rejects empty, NaN or
    Inf data and sample rates that are not positive.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if not self.sample_rate > 0:
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


def frame_lengths(sample_rate: int) -> tuple[int, int]:
    """The one layout rule: window (= FFT) length and hop at ``sample_rate``, in samples."""
    win = round(sample_rate * WINDOW_MS / 1000.0)
    hop = round(sample_rate * FRAME_ADVANCE_MS / 1000.0)
    if win < 2 or hop < 1:
        raise ParameterError(f"window/advance too small for {sample_rate} Hz")
    return win, hop


@dataclass(frozen=True)
class FrameSpectra:
    """One-sided complex spectra of overlapping analysis frames.

    Window, hop and FFT follow ``frame_lengths(sample_rate)``, so
    ``frames`` has shape (n_frames, window // 2 + 1).
    """

    frames: np.ndarray
    sample_rate: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise MalformedSpectraError("frames must be a non-empty 2-D array")
        if frames.shape[1] != frame_lengths(self.sample_rate)[0] // 2 + 1:
            raise MalformedSpectraError(
                f"{frames.shape[1]} bins inconsistent with {self.sample_rate} Hz frames")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]


def power_complementary_window(length: int) -> np.ndarray:
    """Squared-sine window whose squares overlap-add to one at 50% hop.

    w[n] = sin(pi/2 * sin^2(pi (n + 0.5) / N)); using the same window
    for analysis and synthesis gives perfect reconstruction away from
    the signal edges.
    """
    k = np.arange(length)
    return np.sin(0.5 * np.pi * np.sin(np.pi * (k + 0.5) / length) ** 2)


def _configure_allocator() -> None:
    """Keep freed blocks of up to 32 MiB, in one arena, and trim the free heap before a fork.

    glibc only, through ``ctypes``; does nothing elsewhere or where the
    lookup fails. Run once, at import.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    malloc_trim.argtypes = (ctypes.c_size_t,)
    mallopt.restype = malloc_trim.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)
    os.register_at_fork(before=lambda: malloc_trim(0))


_configure_allocator()


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _transform_threads(points: int) -> int:
    """Threads for a transform of ``points`` points.

    One below ``SPLIT_FROM_POINTS`` or in a process ``multiprocessing``
    started, else the usable cores.
    """
    if points < SPLIT_FROM_POINTS or multiprocessing.parent_process() is not None:
        return 1
    return _usable_cores()


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= ``n`` (``n`` itself up to 6): a fast real transform size.

    The rule of ``scipy.fft.next_fast_len(n, real=True)``, which
    ``scipy.signal.fftconvolve`` pads to.
    """
    if n <= 6:
        return n
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5  # 3^b 5^c
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _run_split(calls, threads: int) -> list:
    """Run zero-argument callables on up to ``threads`` threads; return their results.

    The caller's thread and ``threads - 1`` fresh helpers each take the
    next call not yet taken until none is left, so the caller runs every
    call a slow helper does not reach. Helpers are joined before this
    returns; with one thread every call runs in turn on the caller's
    thread. An exception in any call is raised here after the join.
    """
    results = [None] * len(calls)
    pending = collections.deque(range(len(calls)))  # popleft is thread-safe
    errors = []

    def run() -> None:
        try:
            while pending:
                try:
                    i = pending.popleft()
                except IndexError:  # another thread took the last call
                    return
                results[i] = calls[i]()
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    helpers = [threading.Thread(target=run) for _ in range(min(threads, len(calls)) - 1)]
    for helper in helpers:
        helper.start()
    run()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return results


def convolve(x: Signal, responses: list[Signal],
             length: int | None = None) -> list[Signal]:
    """Linearly convolve ``x`` with each response; one Signal per response, in order.

    The responses (Signals or Rirs) must share one length and the sample
    rate of ``x``; a single response is a list of one,
    ``convolve(x, [h])[0]``. Only the first ``length`` output samples are
    kept (all len(x) + len(h) - 1 when ``length`` is None or beyond that).

    ``x`` is transformed once, whatever the number of responses, and each
    product is bit-identical to ``scipy.signal.fftconvolve``: the same
    fast transform size and pocketfft transforms (``numpy.fft``), the
    signal's spectrum as the first product operand, and a one-tap
    response (or a one-sample signal) applied as an exact scale instead
    of a transform round trip. A transform of ``SPLIT_FROM_POINTS``
    points or more may run on more than one thread, as described in the
    module docstring.
    """
    if not responses:
        raise ParameterError("need at least one impulse response")
    for response in responses:
        if x.sample_rate != response.sample_rate:
            raise SampleRateMismatchError(
                f"signal at {x.sample_rate} Hz vs impulse response at "
                f"{response.sample_rate} Hz")
    taps = [response.samples for response in responses]
    n_taps = taps[0].size
    if any(t.size != n_taps for t in taps):
        raise ParameterError(
            f"impulse responses differ in length: {sorted({t.size for t in taps})}")
    full = len(x) + n_taps - 1
    if length is not None and length < 1:
        raise ParameterError(f"length must be at least 1, got {length}")
    n_out = full if length is None else min(length, full)

    if len(x) == 1 or n_taps == 1:
        rows = [(x.samples * t)[:n_out] for t in taps]
    else:
        nfft = _fast_len(full)
        threads = _transform_threads(nfft)
        spectrum, products = _run_split(
            [lambda: np.fft.rfft(x.samples, nfft),
             lambda: np.fft.rfft(np.stack(taps), nfft, axis=1)], threads)
        np.multiply(spectrum, products, out=products)
        rows = _run_split(
            [lambda row=row: np.fft.irfft(row, nfft)[:n_out] for row in products], threads)
    return [Signal(row, x.sample_rate) for row in rows]


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
        An ``snr_db`` whose gain is zero or infinite in float64 (beyond
        about +-3,000 dB), or NaN, is a ParameterError.
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
    try:
        noise_gain = float(np.sqrt(p_speech / (p_noise * 10.0 ** (snr_db / 10.0))))
    except (OverflowError, ZeroDivisionError):  # 10^(snr/10) beyond a float
        noise_gain = 0.0
    if not 0.0 < noise_gain < math.inf:
        raise ParameterError(f"snr_db={snr_db} dB needs a noise gain beyond the float range")
    mixture = Signal(speech.samples + noise_gain * fitted.samples, speech.sample_rate)
    return mixture, noise_gain


def analyze(signals: list[Signal]) -> list[FrameSpectra]:
    """Split each signal into 50%-overlapped windowed frames and transform.

    One FrameSpectra per signal, in order; a single signal is a list of
    one, ``analyze([s])[0]``. Uses the module's fixed profile (20 ms
    windows, 10 ms advance, FFT size equal to the window) at each
    signal's own sample rate. Frames shorter than one full window at the
    tail are dropped: a 1 s signal at 48 kHz yields 99 frames. Each
    signal's spectra are allocated here and filled ``FRAMES_PER_CALL``
    frames at a time; when a signal's frames hold ``SPLIT_FROM_POINTS``
    points or more, those calls may run on separate threads, as described
    in the module docstring.
    """
    if not signals:
        raise ParameterError("need at least one signal")
    spectra, calls, points = [], [], 0
    for signal in signals:
        win, hop = frame_lengths(signal.sample_rate)
        if len(signal) < win:
            raise TooShortError(f"signal of {len(signal)} samples shorter than one "
                                f"{win}-sample window")
        framed = np.lib.stride_tricks.sliding_window_view(signal.samples, win)[::hop]
        window = power_complementary_window(win)
        frames = np.empty((framed.shape[0], win // 2 + 1), dtype=np.complex128)
        for start in range(0, framed.shape[0], FRAMES_PER_CALL):
            rows = slice(start, start + FRAMES_PER_CALL)
            calls.append(lambda framed=framed[rows], window=window, out=frames[rows]:
                         np.fft.rfft(framed * window, n=window.size, axis=1, out=out))
        spectra.append(frames)
        points = max(points, framed.size)
    _run_split(calls, _transform_threads(points))
    return [FrameSpectra(f, signal.sample_rate) for f, signal in zip(spectra, signals)]


def synthesize(spectra: FrameSpectra) -> Signal:
    """Overlap-add frame spectra back into a waveform.

    Uses the same power-complementary window as ``analyze``, so
    synthesize(analyze([s])[0]) reproduces s exactly except within one
    window of each edge.
    """
    win, hop = frame_lengths(spectra.sample_rate)
    window = power_complementary_window(win)
    frames_t = np.fft.irfft(spectra.frames, n=win, axis=1)
    frames_t = frames_t * window
    # frames `groups` apart do not overlap, so every `groups`-th frame is
    # added in one go, as rows `stride` samples apart; `out` has room for
    # each group's last full row and is trimmed on return
    groups = -(-win // hop)
    stride = groups * hop
    out = np.zeros((spectra.n_frames + 2 * groups) * hop)
    for g in range(groups):
        part = frames_t[g::groups]
        rows = out[g * hop:g * hop + part.shape[0] * stride].reshape(-1, stride)
        rows[:, :win] += part
    return Signal(out[:(spectra.n_frames - 1) * hop + win], spectra.sample_rate)
