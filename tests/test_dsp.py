import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from rirshape import (ParameterError, Signal, analyze, convolve, dirac_rir, mix_at_snr,
                      power_complementary_window, synthesize, write_wav)
from rirshape import dsp
from rirshape.dsp import (FRAMES_PER_CALL, SPLIT_FROM_POINTS, FrameSpectra,
                          fit_noise_length, frame_lengths)
from rirshape.shaping import Rir
from conftest import EXAMPLE_10S, GLIBC, HAS_MALLINFO2, MALLINFO2, RESIDENT, run_fresh

FS = 48000


def brute_force_convolve(x, h):
    """O(N*M) reference: out[n] = sum_k x[k] h[n-k]."""
    out = np.zeros(len(x) + len(h) - 1)
    for k, xk in enumerate(x):
        out[k:k + len(h)] += xk * h
    return out


def float_arrays(size):
    """Arrays in [-1, 1]; ``size`` is a length or a strategy for one."""
    return hnp.arrays(np.float64, size,
                      elements=st.floats(-1.0, 1.0, allow_subnormal=False))


def fancy_index_framing(signal):
    """The gather-based framing ``analyze`` used before strided views.

    20 ms windows advanced by 10 ms, with an FFT as long as the window.
    """
    win = round(signal.sample_rate * 0.020)
    hop = round(signal.sample_rate * 0.010)
    n_frames = 1 + (len(signal) - win) // hop
    idx = hop * np.arange(n_frames)[:, None] + np.arange(win)
    window = power_complementary_window(win)
    return np.fft.rfft(signal.samples[idx] * window, n=win, axis=1)


def loop_overlap_add(spectra):
    """The frame-by-frame overlap-add ``synthesize`` used before strided groups."""
    win, hop = frame_lengths(spectra.sample_rate)
    window = power_complementary_window(win)
    frames_t = np.fft.irfft(spectra.frames, n=win, axis=1)
    frames_t = frames_t * window
    out = np.zeros((spectra.n_frames - 1) * hop + win)
    for i in range(spectra.n_frames):
        out[i * hop:i * hop + win] += frames_t[i]
    return out


class TestConvolve:
    def test_two_ones(self):
        x = Signal([1.0, 1.0], FS)
        h = Rir([1.0, 1.0], FS)
        assert np.allclose(convolve(x, [h])[0].samples, [1.0, 2.0, 1.0], atol=1e-15)

    def test_output_length_and_rate(self):
        x = Signal(np.ones(50), FS)
        h = Rir(np.ones(7), FS)
        (out,) = convolve(x, [h])
        assert len(out) == 56 and out.sample_rate == FS

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1000)
        h = rng.standard_normal(300)
        oracle = brute_force_convolve(x, h)
        fast = convolve(Signal(x, FS), [Rir(h, FS)])[0].samples
        peak = np.abs(oracle).max()
        assert np.abs(fast - oracle).max() < 1e-9 * peak

    @given(st.floats(min_value=-1000.0, max_value=1000.0).filter(lambda a: abs(a) > 1e-6))
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_scalar(self, a):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256)
        h = Rir(rng.standard_normal(64), FS)
        scaled_first = convolve(Signal(a * x, FS), [h])[0].samples
        scaled_after = a * convolve(Signal(x, FS), [h])[0].samples
        denom = np.abs(scaled_after).max()
        assert np.abs(scaled_first - scaled_after).max() <= 1e-12 * denom

    def test_rate_mismatch_rejected(self):
        mismatch = "signal at 48000 Hz vs impulse response at 44100 Hz"
        with pytest.raises(ParameterError, match=mismatch):
            convolve(Signal([1.0], FS), [Rir([1.0], 44100)])
        with pytest.raises(ParameterError, match=mismatch):
            convolve(Signal([1.0, 2.0], FS), [Rir([1.0, 0.5], FS), Rir([1.0, 0.5], 44100)])

    @given(x=float_arrays(st.integers(1, 400)), h=float_arrays(st.integers(1, 600)),
           extra=st.integers(-800, 50), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_shared_spectrum_matches_fftconvolve_bit_for_bit(self, x, h, extra, data):
        h1 = data.draw(float_arrays(h.size))
        full = x.size + h.size - 1
        length = max(1, full + extra)
        rows = convolve(Signal(x, FS), [Signal(h, FS), Signal(h1, FS)], length=length)
        for row, response in zip(rows, (h, h1)):
            assert np.array_equal(row.samples, fftconvolve(x, response)[:length])

    @pytest.mark.parametrize("n_x, n_h", [(5000, 1), (1, 300), (1, 1), (50, 3000)])
    def test_one_tap_and_long_responses_match_fftconvolve(self, n_x, n_h):
        rng = np.random.default_rng(n_x + n_h)
        x = rng.standard_normal(n_x)
        responses = [rng.standard_normal(n_h) for _ in range(3)]
        for length in (None, 1, n_x, n_x + n_h + 10):
            rows = convolve(Signal(x, FS), [Signal(r, FS) for r in responses],
                            length=length)
            assert len(rows) == 3
            for row, response in zip(rows, responses):
                assert np.array_equal(row.samples, fftconvolve(x, response)[:length])

    def test_fast_len_matches_scipy(self):
        rng = np.random.default_rng(17)
        sizes = [*range(1, (1 << 17) + 1), *rng.integers(1, 10 ** 9, 2000).tolist()]
        assert [dsp._fast_len(n) for n in sizes] == [next_fast_len(n, real=True)
                                                      for n in sizes]

    def test_mismatched_response_lengths_rejected(self):
        x = Signal(np.ones(100), FS)
        with pytest.raises(ParameterError, match="length"):
            convolve(x, [Rir(np.ones(10), FS), Rir(np.ones(11), FS)])

    def test_empty_response_list_rejected(self):
        with pytest.raises(ParameterError):
            convolve(Signal(np.ones(100), FS), [])

    @pytest.mark.parametrize("length", [0, -5])
    def test_nonpositive_length_rejected(self, length):
        with pytest.raises(ParameterError):
            convolve(Signal(np.ones(100), FS), [dirac_rir(FS)], length=length)

    def test_signal_accepted_as_impulse_response(self):
        x = Signal([1.0, 2.0], FS)
        h = Signal([1.0, 1.0], FS)
        assert np.allclose(convolve(x, [h])[0].samples, [1.0, 3.0, 2.0], atol=1e-15)


class TestMixAtSnr:
    def test_equal_powers_zero_db(self):
        speech = Signal(np.full(480, 0.1), FS)
        noise = Signal(np.tile([0.1, -0.1], 240), FS)
        _, gain = mix_at_snr(speech, noise, 0.0)
        assert gain == pytest.approx(1.0, rel=1e-12)

    def test_twenty_db_is_gain_tenth(self):
        speech = Signal(np.full(480, 0.1), FS)
        noise = Signal(np.tile([0.1, -0.1], 240), FS)
        _, gain = mix_at_snr(speech, noise, 20.0)
        assert gain == pytest.approx(0.1, rel=1e-12)

    @given(st.floats(min_value=-5.0, max_value=45.0))
    @settings(max_examples=30, deadline=None)
    def test_measured_snr_over_range(self, snr_db):
        rng = np.random.default_rng(9)
        speech = Signal(0.2 * rng.standard_normal(4800), FS)
        noise = Signal(0.05 * rng.standard_normal(3200), FS)
        mixture, _ = mix_at_snr(speech, noise, snr_db)
        scaled = mixture.samples - speech.samples
        measured = 10.0 * np.log10(np.mean(speech.samples ** 2) / np.mean(scaled ** 2))
        assert measured == pytest.approx(snr_db, abs=0.01)

    def test_short_noise_loops(self):
        noise = Signal([0.1, -0.2, 0.3], FS)
        fitted = fit_noise_length(noise, 7)
        assert np.array_equal(fitted.samples, [0.1, -0.2, 0.3, 0.1, -0.2, 0.3, 0.1])

    def test_long_noise_cropped_from_offset(self):
        noise = Signal(np.arange(1, 11, dtype=float), FS)
        fitted = fit_noise_length(noise, 4, offset=3)
        assert np.array_equal(fitted.samples, [4.0, 5.0, 6.0, 7.0])

    @pytest.mark.parametrize("n_noise", [1, 7, 1000])
    @pytest.mark.parametrize("offset_in_lengths", [-3.5, -1, 0, 1, 2.25, 1e6])
    def test_fit_matches_modular_gather(self, n_noise, offset_in_lengths):
        noise = Signal(np.random.default_rng(n_noise).standard_normal(n_noise), FS)
        offset = int(offset_in_lengths * n_noise) + (3 if offset_in_lengths else 0)
        for length in (1, n_noise // 2 + 1, n_noise, 3 * n_noise + 5):
            fitted = fit_noise_length(noise, length, offset)
            gathered = noise.samples[(offset + np.arange(length)) % n_noise]
            assert np.array_equal(fitted.samples, gathered)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 3500.0, -3500.0])
    def test_snr_beyond_any_float_gain_rejected(self, snr_db):
        # 10^(snr/10) overflows above ~3083 dB and reaches zero below ~-3233 dB
        speech = Signal(np.full(480, 0.1), FS)
        noise = Signal(np.tile([0.1, -0.1], 240), FS)
        with pytest.raises(ParameterError, match="snr_db"):
            mix_at_snr(speech, noise, snr_db)

    def test_zero_speech_rejected(self):
        with pytest.raises(ParameterError, match="speech has zero energy"):
            mix_at_snr(Signal(np.zeros(100), FS), Signal(np.ones(100), FS), 0.0)

    def test_zero_noise_rejected(self):
        with pytest.raises(ParameterError, match="noise has zero energy"):
            mix_at_snr(Signal(np.ones(100), FS), Signal(np.zeros(100), FS), 0.0)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="speech at 48000 Hz vs noise at 16000 Hz"):
            mix_at_snr(Signal(np.ones(10), FS), Signal(np.ones(10), 16000), 0.0)


class TestAnalyzeSynthesize:
    def test_one_second_gives_99_frames(self):
        spectra = analyze([Signal(np.random.default_rng(0).standard_normal(FS), FS)])[0]
        assert spectra.n_frames == 99
        assert frame_lengths(spectra.sample_rate) == (960, 480)
        assert spectra.n_bins == 481

    def test_dc_bin0_equals_window_sum(self):
        spectra = analyze([Signal(np.ones(FS // 10), FS)])[0]
        window_sum = power_complementary_window(960).sum()
        assert np.allclose(np.abs(spectra.frames[:, 0]), window_sum, rtol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError, match="959 samples shorter than one 960-sample window"):
            analyze([Signal(np.ones(959), FS)])

    def test_round_trip_white_noise(self):
        signal = Signal(np.random.default_rng(2).standard_normal(FS // 2), FS)
        rebuilt = synthesize(analyze([signal])[0])
        n = min(len(signal), len(rebuilt))
        interior = slice(960, n - 960)
        err = rebuilt.samples[:n][interior] - signal.samples[:n][interior]
        assert np.abs(err).max() < 1e-6
        rms = np.sqrt(np.mean(err ** 2)) / signal.rms()
        assert rms < 1e-6

    def test_zero_spectra_give_zero_signal(self):
        spectra = FrameSpectra(np.zeros((5, 481), dtype=complex), FS)
        assert not np.any(synthesize(spectra).samples)

    def test_single_frame_impulse(self):
        # flat spectrum = unit impulse at sample 0; synthesis windows it
        frames = np.ones((1, 481), dtype=complex)
        out = synthesize(FrameSpectra(frames, FS))
        window = power_complementary_window(960)
        expected = np.fft.irfft(frames[0], n=960) * window
        assert np.allclose(out.samples, expected, atol=1e-15)

    def test_malformed_spectra_rejected(self):
        with pytest.raises(ParameterError, match="100 bins inconsistent with 48000 Hz frames"):
            FrameSpectra(np.zeros((4, 100), dtype=complex), FS)
        with pytest.raises(ParameterError, match="frames must be a non-empty 2-D array"):
            FrameSpectra(np.zeros((0, 481), dtype=complex), FS)
        with pytest.raises(ParameterError, match="513 bins"):  # zero-padded 1024-point frames
            FrameSpectra(np.zeros((4, 513), dtype=complex), FS)

    def test_window_is_power_complementary(self):
        w = power_complementary_window(960)
        overlap = w[:480] ** 2 + w[480:] ** 2
        assert np.abs(overlap - 1.0).max() < 1e-12

    def test_framing_matches_fancy_index(self):
        for n in (FS // 50, FS // 50 + 479, FS // 50 + 480, FS // 7 + 3, FS):
            signal = Signal(np.random.default_rng(n).standard_normal(n), FS)
            assert np.array_equal(analyze([signal])[0].frames, fancy_index_framing(signal))

    def test_rate_too_low_for_profile_rejected(self):
        # at 40 Hz the 10 ms hop rounds to zero samples
        with pytest.raises(ParameterError):
            analyze([Signal(np.ones(100), 40)])
        with pytest.raises(ParameterError):
            FrameSpectra(np.zeros((2, 2), dtype=complex), 40)

    def test_undersized_fft_rejected(self):
        with pytest.raises(ParameterError, match="257 bins inconsistent with 48000 Hz frames"):
            FrameSpectra(np.zeros((3, 257), dtype=complex), FS)

    @pytest.mark.parametrize("sample_rate", [16000, 44100, FS])
    def test_grouped_overlap_add_equals_frame_loop(self, sample_rate):
        # the hop is exactly half the window: each sample sums two frames
        for n in (sample_rate // 50, sample_rate // 50 + 1, sample_rate // 7 + 3,
                  sample_rate):
            rng = np.random.default_rng(n)
            spectra = analyze([Signal(rng.standard_normal(n), sample_rate)])[0]
            assert np.array_equal(synthesize(spectra).samples, loop_overlap_add(spectra))

    def test_grouped_overlap_add_within_round_trip_tolerance(self):
        # at 22,050 Hz the hop (220) is not half the window (441), so up to
        # three frames overlap and the sums may round in another order
        for n in (441, 22050 // 7 + 3, 22050):
            spectra = analyze([Signal(np.random.default_rng(n).standard_normal(n), 22050)])[0]
            reference = loop_overlap_add(spectra)
            err = synthesize(spectra).samples - reference
            assert np.sqrt(np.mean(err ** 2)) / np.sqrt(np.mean(reference ** 2)) < 1e-6


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.fixture
def cores(monkeypatch):
    """Set the threads of ``dsp``'s long transforms; count the helpers it starts."""
    monkeypatch.setattr(CountingThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", CountingThread)

    def set_cores(n):
        monkeypatch.setattr(dsp, "_usable_cores", lambda: n)
    return set_cores


class TestThreadedTransforms:
    """Long transforms split over threads give the single-thread bytes."""

    # 200,000 + 62,145 - 1 = 2^18 output samples: the smallest threaded transform
    N_X, N_H = 200_000, 62_145

    @pytest.mark.parametrize("n_responses", [1, 2, 3])
    @pytest.mark.parametrize("length", [None, 150_001])
    def test_convolve_same_bytes_on_one_two_and_three_threads(self, cores, n_responses,
                                                              length):
        rng = np.random.default_rng(n_responses)
        x = Signal(rng.standard_normal(self.N_X), FS)
        responses = [Rir(rng.standard_normal(self.N_H), FS) for _ in range(n_responses)]
        by_threads = {}
        for n in (1, 2, 3):
            cores(n)
            by_threads[n] = [row.samples.tobytes()
                             for row in convolve(x, responses, length=length)]
        assert by_threads[1] == by_threads[2] == by_threads[3]
        assert CountingThread.started > 0
        for row, response in zip(by_threads[1], responses):
            expected = fftconvolve(x.samples, response.taps)[:length]
            assert row == expected.tobytes()

    @pytest.mark.parametrize("n_signals", [1, 2, 3])
    def test_analyze_same_bytes_on_one_two_and_three_threads(self, cores, n_signals):
        # 3 s frames into 299 x 960 = 287,040 points: above the threaded size
        rng = np.random.default_rng(n_signals)
        signals = [Signal(rng.standard_normal(3 * FS), FS) for _ in range(n_signals)]
        by_threads = {}
        for n in (1, 2, 3):
            cores(n)
            by_threads[n] = [s.frames.tobytes() for s in analyze(signals)]
        assert by_threads[1] == by_threads[2] == by_threads[3]
        calls = n_signals * -(-299 // FRAMES_PER_CALL)  # frames are split into blocks
        assert CountingThread.started == sum(min(n, calls) - 1 for n in (1, 2, 3))
        for frames, signal in zip(by_threads[1], signals):
            assert frames == fancy_index_framing(signal).tobytes()

    def test_short_transforms_and_analyses_start_no_thread(self, cores):
        cores(2)
        rng = np.random.default_rng(1)
        x = Signal(rng.standard_normal(FS), FS)
        convolve(x, [Rir(np.ones(100), FS), Rir(np.arange(100.0), FS)])
        # 2.5 s frames into 249 x 960 = 239,040 points, below the threaded size
        analyze([Signal(rng.standard_normal(5 * FS // 2), FS) for _ in range(2)])
        assert CountingThread.started == 0

    def test_analyze_rejects_an_empty_list(self):
        with pytest.raises(ParameterError):
            analyze([])

    def test_thread_count_is_the_free_cores(self, monkeypatch):
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 3)
        assert dsp._transform_threads(SPLIT_FROM_POINTS - 1) == 1
        assert dsp._transform_threads(SPLIT_FROM_POINTS) == 3

    def test_thread_count_follows_the_affinity_mask(self, cores, monkeypatch):
        rng = np.random.default_rng(4)
        x = Signal(rng.standard_normal(self.N_X), FS)
        responses = [Rir(rng.standard_normal(self.N_H), FS)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        assert dsp._transform_threads(SPLIT_FROM_POINTS) == 1
        convolve(x, responses)
        assert CountingThread.started == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert dsp._transform_threads(SPLIT_FROM_POINTS) == 3
        convolve(x, responses)
        assert CountingThread.started == 1  # two forward transforms: one helper

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_pool_worker_runs_long_transforms_on_one_thread(self, monkeypatch):
        # the forked worker inherits the patched cores, so only the worker
        # rule can bring its count down to one
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 2)
        assert dsp._transform_threads(SPLIT_FROM_POINTS) == 2
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(dsp._transform_threads, SPLIT_FROM_POINTS).result(60) == 1

    def test_caller_runs_the_calls_a_helper_does_not_reach(self, monkeypatch):
        gate = threading.Event()

        class LateThread(threading.Thread):
            def run(self):  # gets a core only after the caller's last call
                gate.wait(timeout=10)
                super().run()
        monkeypatch.setattr(threading, "Thread", LateThread)
        calls = [threading.get_ident] * 3 + [lambda: (gate.set(), threading.get_ident())[1]]
        assert dsp._run_split(calls, 2) == [threading.get_ident()] * 4

    def test_error_in_a_helper_thread_reaches_the_caller(self):
        def fail():
            raise MemoryError("helper")
        with pytest.raises(MemoryError, match="helper"):
            dsp._run_split([lambda: 1, fail], 2)
        assert dsp._run_split([lambda: 1, lambda: 2, lambda: 3], 2) == [1, 2, 3]


class TestSignal:
    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            Signal([np.nan], FS)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            Signal([], FS)

    def test_rejects_bad_rate(self):
        for rate in (0, float("nan"), 48000.5, True):
            with pytest.raises(ParameterError, match="sample_rate"):
                Signal([1.0], rate)
        assert Signal([1.0], np.int32(FS)).sample_rate == FS

    def test_duration(self):
        assert Signal(np.zeros(FS) + 0.1, FS).duration == pytest.approx(1.0)


@pytest.mark.skipif(not GLIBC, reason="the allocator setting applies to glibc only")
class TestFreedMemoryStaysInProcess:
    @staticmethod
    def warm_example_faults(inputs: str = "") -> tuple[int, list[str]]:
        """Minor faults of a fresh process's third example, and the threads per transform.

        ``inputs`` may replace the 10 s example's.
        """
        out = run_fresh(EXAMPLE_10S + inputs + """
import resource
rule, threads = dsp._transform_threads, []
dsp._transform_threads = lambda points: threads.append(rule(points)) or threads[-1]
for seed in range(2):
    generate_example(speech, noise, h0, params, 10.0, seed=seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
generate_example(speech, noise, h0, params, 10.0, seed=2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, *threads)
""")
        faults, *threads = out.split()
        return int(faults), threads

    def test_warm_10s_example_takes_no_page_faults(self):
        faults, threads = self.warm_example_faults()
        assert faults < 300, f"{faults} minor faults; threads per long transform: {threads}"

    def test_warm_1s_example_takes_no_page_faults(self):
        # 1 s transforms start no thread, but still turn the setting on
        faults, threads = self.warm_example_faults(
            "speech, noise = (Signal(s.samples[:48000], 48000) for s in (speech, noise))\n"
            "h0 = synth_rir(0.8, seed=1)\n")
        assert faults < 100, f"{faults} minor faults; threads per transform: {threads}"

    def test_reads_before_any_transform_reuse_their_buffers(self, tmp_path):
        # a process's first read maps its heap; under glibc's defaults each
        # later 10.5 s pcm24 read mapped its buffers anew (~2,300 faults)
        write_wav(Signal(0.1 * np.random.default_rng(0).standard_normal(504_000), FS),
                  tmp_path / "speech.wav", encoding="pcm24")
        out = run_fresh(f"""
import resource
from rirshape import read_wav
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    read_wav({str(tmp_path / "speech.wav")!r})
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
""")
        first, *later = out.split()
        assert all(int(f) < 300 for f in later), f"minor faults per read: {first} {later}"

    @pytest.mark.skipif(not HAS_MALLINFO2, reason="needs glibc's mallinfo2 (2.33 or later)")
    def test_importing_rirshape_turns_the_setting_on(self):
        # With glibc's default (dynamic) threshold, which nothing has raised
        # before any read or transform, a 16 MiB malloc gets its own mmap;
        # with the setting on, blocks up to 32 MiB come from the heap instead.
        out = run_fresh(MALLINFO2 + """
import rirshape
libc.malloc.argtypes = (ctypes.c_size_t,)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = (ctypes.c_void_p,)
libc.free.restype = None
mapped_before = libc.mallinfo2().hblks
block = libc.malloc(16 << 20)
print(libc.mallinfo2().hblks - mapped_before)
libc.free(block)
""")
        assert int(out) == 0


@pytest.mark.skipif(not GLIBC, reason="the arena setting applies to glibc only")
def test_threaded_examples_allocate_from_one_arena():
    out = run_fresh(EXAMPLE_10S + """
import ctypes, os, tempfile
for seed in range(3):
    generate_example(speech, noise, h0, params, 10.0, seed=seed)
libc = ctypes.CDLL(None)
libc.fopen.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
libc.fopen.restype = ctypes.c_void_p
libc.fclose.argtypes = (ctypes.c_void_p,)
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
fd, path = tempfile.mkstemp()
os.close(fd)
stream = libc.fopen(path.encode(), b"w")
libc.malloc_info(0, stream)
libc.fclose(stream)
with open(path, encoding="ascii") as fh:
    print(fh.read().count("<heap nr="))
os.remove(path)
""")
    assert int(out) == 1


def test_pool_build_after_threaded_transforms_in_the_parent(tmp_path):
    # the parent's helper threads are joined before each convolve returns, so
    # forked build workers neither hang nor change a byte
    out = run_fresh(EXAMPLE_10S + f"""
import hashlib, pathlib
from rirshape import convolve, write_wav
from rirshape.pipeline import DatasetManifest, ManifestEntry, build_dataset
root = pathlib.Path({str(tmp_path)!r})
for _ in range(2):
    convolve(speech, [h0, h0])
write_wav(Signal(0.1 * rng.standard_normal(48000), 48000), root / "short.wav")
write_wav(Signal(0.1 * rng.standard_normal(6 * 48000), 48000), root / "long.wav")
write_wav(Signal(0.05 * rng.standard_normal(48000), 48000), root / "noise.wav")
entries = [ManifestEntry(speech=str(root / ("long.wav" if i == 0 else "short.wav")),
                         noise=str(root / "noise.wav"),
                         rir_rt60=0.4 + 0.1 * i,
                         strategy=list(Strategy)[i % 4]) for i in range(4)]
manifest = DatasetManifest(entries, seed=3)
def digests(out):
    return {{p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())}}
pooled = build_dataset(manifest, root / "w2", workers=2)
build_dataset(manifest, root / "w1", workers=1)
print(pooled.n_ok, len(digests(root / "w2")), digests(root / "w2") == digests(root / "w1"))
""")
    assert out.split() == ["4", "18", "True"]


@pytest.mark.skipif(not HAS_MALLINFO2 or not Path("/proc/self/status").exists(),
                    reason="needs glibc's mallinfo2 (2.33 or later) and /proc/self/status")
def test_bare_fork_child_starts_without_the_parents_free_heap():
    # not only build_dataset's pool: any fork of a process that imported
    # rirshape hands the free heap back to the kernel first
    out = run_fresh(MALLINFO2 + RESIDENT + EXAMPLE_10S + """
import os
generate_example(speech, noise, h0, params, 10.0, seed=0)
parent = resident(), libc.mallinfo2().fordblks
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    os.write(write, str(resident()).encode())
    os._exit(0)
os.close(write)
with os.fdopen(read) as fh:
    child = fh.read()
os.waitpid(pid, 0)
print(*parent, child)
""")
    parent_resident, parent_free, child_resident = map(int, out.split())
    assert parent_free > 30 << 20
    assert child_resident < parent_resident - 0.75 * parent_free, (
        f"parent: {parent_resident >> 20} MiB resident, {parent_free >> 20} MiB free heap; "
        f"child after the fork: {child_resident >> 20} MiB resident")

