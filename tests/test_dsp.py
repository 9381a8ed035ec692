import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import fftconvolve

import rirshape
from rirshape import (DegenerateEnergyError, MalformedSpectraError, ParameterError,
                      SampleRateMismatchError, Signal, TooShortError, analyze,
                      convolve, dirac_rir, mix_at_snr, power_complementary_window,
                      synthesize)
from rirshape.dsp import FrameSpectra, fit_noise_length
from rirshape.shaping import Rir

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


def fancy_index_framing(signal, window_ms, frame_advance_ms, fft_size):
    """The gather-based framing ``analyze`` used before strided views."""
    win = round(signal.sample_rate * window_ms / 1000.0)
    hop = round(signal.sample_rate * frame_advance_ms / 1000.0)
    n_frames = 1 + (len(signal) - win) // hop
    idx = hop * np.arange(n_frames)[:, None] + np.arange(win)
    window = power_complementary_window(win)
    return np.fft.rfft(signal.samples[idx] * window, n=fft_size or win, axis=1)


class TestConvolve:
    def test_identity(self):
        x = Signal([1.0, 2.0, 3.0], FS)
        out = convolve(x, dirac_rir(FS))
        assert np.array_equal(out.samples, [1.0, 2.0, 3.0])

    def test_two_ones(self):
        x = Signal([1.0, 1.0], FS)
        h = Rir([1.0, 1.0], FS)
        assert np.allclose(convolve(x, h).samples, [1.0, 2.0, 1.0], atol=1e-15)

    def test_output_length_and_rate(self):
        x = Signal(np.ones(50), FS)
        h = Rir(np.ones(7), FS)
        out = convolve(x, h)
        assert len(out) == 56 and out.sample_rate == FS

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1000)
        h = rng.standard_normal(300)
        oracle = brute_force_convolve(x, h)
        fast = convolve(Signal(x, FS), Rir(h, FS)).samples
        peak = np.abs(oracle).max()
        assert np.abs(fast - oracle).max() < 1e-9 * peak

    def test_fast_and_direct_paths_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            nx = int(rng.integers(1, 4097))
            nh = int(rng.integers(1, 4097))
            x = Signal(rng.standard_normal(nx), FS)
            h = Rir(rng.standard_normal(nh), FS)
            fast = convolve(x, h, method="fft").samples
            direct = convolve(x, h, method="direct").samples
            scale = np.abs(direct).max()
            assert np.abs(fast - direct).max() < 1e-9 * max(scale, 1.0)

    @given(st.floats(min_value=-1000.0, max_value=1000.0).filter(lambda a: abs(a) > 1e-6))
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_scalar(self, a):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256)
        h = Rir(rng.standard_normal(64), FS)
        scaled_first = convolve(Signal(a * x, FS), h).samples
        scaled_after = a * convolve(Signal(x, FS), h).samples
        denom = np.abs(scaled_after).max()
        assert np.abs(scaled_first - scaled_after).max() <= 1e-12 * denom

    def test_rate_mismatch_rejected(self):
        with pytest.raises(SampleRateMismatchError):
            convolve(Signal([1.0], FS), Rir([1.0], 44100))
        with pytest.raises(SampleRateMismatchError):
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

    def test_single_response_returns_one_signal(self):
        x = Signal(np.random.default_rng(1).standard_normal(300), FS)
        h = Rir(np.random.default_rng(2).standard_normal(40), FS)
        single = convolve(x, h, length=100)
        assert isinstance(single, Signal) and len(single) == 100
        (listed,) = convolve(x, [h], length=100)
        assert np.array_equal(single.samples, listed.samples)

    def test_direct_path_takes_a_list(self):
        x = Signal([1.0, 2.0], FS)
        rows = convolve(x, [Signal([1.0, 1.0], FS), Signal([0.0, 1.0], FS)],
                        method="direct", length=2)
        assert [list(row.samples) for row in rows] == [[1.0, 3.0], [0.0, 1.0]]

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
            convolve(Signal(np.ones(100), FS), dirac_rir(FS), length=length)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            convolve(Signal([1.0], FS), dirac_rir(FS), method="magic")

    def test_signal_accepted_as_impulse_response(self):
        x = Signal([1.0, 2.0], FS)
        h = Signal([1.0, 1.0], FS)
        assert np.allclose(convolve(x, h).samples, [1.0, 3.0, 2.0], atol=1e-15)


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

    def test_measured_snr_matches_request(self):
        rng = np.random.default_rng(5)
        speech = Signal(0.3 * rng.standard_normal(9600), FS)
        noise = Signal(0.02 * rng.standard_normal(9600), FS)
        mixture, gain = mix_at_snr(speech, noise, 5.0)
        # oracle: recompute the power ratio from the two addends
        scaled = mixture.samples - speech.samples
        measured = 10.0 * np.log10(np.mean(speech.samples ** 2) / np.mean(scaled ** 2))
        assert measured == pytest.approx(5.0, abs=0.01)
        assert gain > 0

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

    def test_zero_speech_rejected(self):
        with pytest.raises(DegenerateEnergyError):
            mix_at_snr(Signal(np.zeros(100), FS), Signal(np.ones(100), FS), 0.0)

    def test_zero_noise_rejected(self):
        with pytest.raises(DegenerateEnergyError):
            mix_at_snr(Signal(np.ones(100), FS), Signal(np.zeros(100), FS), 0.0)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(SampleRateMismatchError):
            mix_at_snr(Signal(np.ones(10), FS), Signal(np.ones(10), 16000), 0.0)


class TestAnalyzeSynthesize:
    def test_one_second_gives_99_frames(self):
        spectra = analyze(Signal(np.random.default_rng(0).standard_normal(FS), FS))
        assert spectra.n_frames == 99
        assert spectra.fft_size == 960
        assert spectra.hop_samples == 480

    def test_dc_bin0_equals_window_sum(self):
        spectra = analyze(Signal(np.ones(FS // 10), FS))
        window_sum = power_complementary_window(960).sum()
        assert np.allclose(np.abs(spectra.frames[:, 0]), window_sum, rtol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(TooShortError):
            analyze(Signal(np.ones(959), FS))

    def test_round_trip_white_noise(self):
        signal = Signal(np.random.default_rng(2).standard_normal(FS // 2), FS)
        rebuilt = synthesize(analyze(signal))
        n = min(len(signal), len(rebuilt))
        interior = slice(960, n - 960)
        err = rebuilt.samples[:n][interior] - signal.samples[:n][interior]
        assert np.abs(err).max() < 1e-6
        rms = np.sqrt(np.mean(err ** 2)) / signal.rms()
        assert rms < 1e-6

    def test_round_trip_speechlike(self, speech):
        rebuilt = synthesize(analyze(speech))
        n = min(len(speech), len(rebuilt))
        interior = slice(960, n - 960)
        err = rebuilt.samples[:n][interior] - speech.samples[:n][interior]
        assert np.sqrt(np.mean(err ** 2)) / speech.rms() < 1e-6

    def test_zero_spectra_give_zero_signal(self):
        spectra = FrameSpectra(np.zeros((5, 481), dtype=complex), FS, 960)
        assert not np.any(synthesize(spectra).samples)

    def test_single_frame_impulse(self):
        # flat spectrum = unit impulse at sample 0; synthesis windows it
        frames = np.ones((1, 481), dtype=complex)
        out = synthesize(FrameSpectra(frames, FS, 960))
        window = power_complementary_window(960)
        expected = np.fft.irfft(frames[0], n=960) * window
        assert np.allclose(out.samples, expected, atol=1e-15)

    def test_malformed_spectra_rejected(self):
        with pytest.raises(MalformedSpectraError):
            FrameSpectra(np.zeros((4, 100), dtype=complex), FS, 960)
        with pytest.raises(MalformedSpectraError):
            FrameSpectra(np.zeros((0, 481), dtype=complex), FS, 960)

    def test_window_is_power_complementary(self):
        w = power_complementary_window(960)
        overlap = w[:480] ** 2 + w[480:] ** 2
        assert np.abs(overlap - 1.0).max() < 1e-12

    def test_zero_padded_fft_round_trips(self):
        signal = Signal(np.random.default_rng(4).standard_normal(FS // 4), FS)
        spectra = analyze(signal, fft_size=1024)
        assert spectra.fft_size == 1024 and spectra.n_bins == 513
        rebuilt = synthesize(spectra)
        n = min(len(signal), len(rebuilt))
        err = rebuilt.samples[:n][960:n - 960] - signal.samples[:n][960:n - 960]
        assert np.abs(err).max() < 1e-6

    @pytest.mark.parametrize("window_ms, advance_ms, fft_size", [
        (20.0, 10.0, None), (20.0, 10.0, 1024), (20.0, 10.0, 2048), (10.0, 5.0, None),
        (10.0, 2.5, 512), (5.3, 3.1, None), (20.0, 20.0, None), (1.0, 0.5, 64)])
    def test_framing_matches_fancy_index(self, window_ms, advance_ms, fft_size):
        for n in (FS // 50, FS // 7 + 3, FS):
            signal = Signal(np.random.default_rng(n).standard_normal(n), FS)
            spectra = analyze(signal, window_ms, advance_ms, fft_size)
            reference = fancy_index_framing(signal, window_ms, advance_ms, fft_size)
            assert np.array_equal(spectra.frames, reference)

    def test_undersized_fft_rejected(self):
        with pytest.raises(ParameterError):
            analyze(Signal(np.ones(FS // 10), FS), fft_size=512)


class TestSignal:
    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            Signal([np.nan], FS)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            Signal([], FS)

    def test_rejects_bad_rate(self):
        with pytest.raises(ParameterError):
            Signal([1.0], 0)

    def test_duration(self):
        assert Signal(np.zeros(FS) + 0.1, FS).duration == pytest.approx(1.0)


GLIBC = platform.libc_ver()[0] == "glibc"
HAS_MALLINFO2 = GLIBC and hasattr(ctypes.CDLL(None), "mallinfo2")


def run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter that imports this rirshape; return stdout."""
    src = str(Path(rirshape.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not GLIBC, reason="the allocator setting applies to glibc only")
class TestFreedMemoryStaysInProcess:
    def test_warm_10s_example_takes_no_page_faults(self):
        out = run_fresh("""
import resource
import numpy as np
from rirshape import ShapingParams, Signal, Strategy, synth_rir
from rirshape.pipeline import generate_example
rng = np.random.default_rng(0)
speech = Signal(0.1 * rng.standard_normal(10 * 48000), 48000)
noise = Signal(0.05 * rng.standard_normal(4 * 48000), 48000)
h0 = synth_rir(1.0, seed=1)
params = ShapingParams(Strategy.ATTENUATED_DECAYED)
for seed in range(2):
    generate_example(speech, noise, h0, params, 10.0, seed=seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
generate_example(speech, noise, h0, params, 10.0, seed=2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")
        assert int(out) < 300

    @pytest.mark.skipif(not HAS_MALLINFO2, reason="needs glibc's mallinfo2 (2.33 or later)")
    def test_one_second_convolutions_leave_the_setting_off(self):
        # With glibc's default (dynamic) threshold, which 1 s transforms keep
        # far below 16 MiB, a 16 MiB malloc gets its own mmap; with the setting
        # on, blocks up to 32 MiB come from the heap instead.
        out = run_fresh("""
import ctypes
import numpy as np
from rirshape import Signal, convolve, synth_rir
class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]
libc = ctypes.CDLL(None)
libc.mallinfo2.argtypes = ()
libc.mallinfo2.restype = Mallinfo2
libc.malloc.argtypes = (ctypes.c_size_t,)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = (ctypes.c_void_p,)
libc.free.restype = None
rng = np.random.default_rng(0)
h0 = synth_rir(0.6, seed=1)
one_second = Signal(0.1 * rng.standard_normal(48000), 48000)
for _ in range(3):
    convolve(one_second, [h0, h0])
mapped_before = libc.mallinfo2().hblks
block = libc.malloc(16 << 20)
print(libc.mallinfo2().hblks - mapped_before)
libc.free(block)
""")
        assert int(out) == 1
