"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (each criterion also prints an ACCEPTANCE line, visible
with ``-s``).
"""

import math
import time

import numpy as np
import pytest

from rirshape import (Rir, ShapingParams, Signal, Strategy, UndefinedDecayError,
                      analyze, band_energies, convolve, design_erb_filterbank,
                      dirac_rir, drr, estimate_rt60, generate_example, ideal_gains,
                      mix_at_snr, predicted_target_distance, shape_rir, synth_rir,
                      synthesize, write_rir, write_wav)
from rirshape.bands import apply_gains
from rirshape.pipeline import DatasetManifest, ManifestEntry, build_dataset
from conftest import envelope_rir, noise_like, speech_like

FS = 48000
R0_GRID = (0.3, 0.6, 1.0, 1.5)
N_SEEDS = 5


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_room_shrinking_law():
    """Decay shaping with rd=0.2 shrinks measured RT60 per the harmonic law."""
    started = time.perf_counter()
    params = ShapingParams(Strategy.DECAYED, rd=0.2)
    worst = 0.0
    for r0 in R0_GRID:
        predicted = 1.0 / (1.0 / r0 + 1.0 / 0.2)
        for seed in range(N_SEEDS):
            shaped = shape_rir(synth_rir(r0, seed=seed), params)
            estimate = estimate_rt60(shaped)
            deviation = abs(estimate - predicted) / predicted
            worst = max(worst, deviation)
            assert deviation <= 0.15, (r0, seed, estimate, predicted)
    # noiseless-envelope control: estimator exact on ideal decays, and the
    # shaped ideal envelope lands on the law to within 1%
    for r0 in R0_GRID:
        control = envelope_rir(r0)
        assert abs(estimate_rt60(control) - r0) / r0 <= 0.01
        predicted = 1.0 / (1.0 / r0 + 1.0 / 0.2)
        shaped_estimate = estimate_rt60(shape_rir(control, params))
        assert abs(shaped_estimate - predicted) / predicted <= 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    report(f"PASS criterion 1: room-shrinking law, worst deviation "
           f"{worst:.1%} (<=15%), runtime {elapsed:.1f}s")


def test_criterion_2_attenuation_law():
    """alpha=0.4 scales the late tail by alpha^2 and lifts DRR by 7.96 dB."""
    params = ShapingParams(Strategy.FULL, alpha=0.4)  # attenuation curve only
    h0 = synth_rir(0.8, seed=12)
    shaped = shape_rir(h0, params)
    late = h0.times() > params.t1
    ratio = np.sum(shaped.taps[late] ** 2) / np.sum(h0.taps[late] ** 2)
    assert abs(ratio - 0.4 ** 2) < 1e-12

    # DRR shift needs negligible transition energy: blank (t0, t1]
    taps = h0.taps.copy()
    taps[(h0.times() >= params.t0) & (h0.times() <= params.t1)] = 0.0
    clean = Rir(taps, FS, 0)
    delta = drr(shape_rir(clean, params), params.t1) - drr(clean, params.t1)
    assert delta == pytest.approx(7.96, abs=0.1)
    assert -20.0 * math.log10(0.4) == pytest.approx(7.9588, abs=1e-4)
    report(f"PASS criterion 2: attenuation law, tail ratio dev "
           f"{abs(ratio - 0.16):.2e} (<1e-12), DRR shift {delta:.3f} dB (7.96+-0.1)")


def test_criterion_3_full_dereverberation():
    """alpha=0 leaves exact zeros past t1 and an unmeasurable decay."""
    params = ShapingParams(Strategy.FULL)  # alpha defaults to 0
    for seed in range(3):
        h0 = synth_rir(1.2, seed=seed)
        shaped = shape_rir(h0, params)
        assert np.all(shaped.taps[shaped.times() > params.t1] == 0.0)
        with pytest.raises(UndefinedDecayError):
            estimate_rt60(shaped)
    speech = speech_like(0.3, seed=1)
    shaped = shape_rir(synth_rir(1.2, seed=0), params)
    wet = np.convolve(speech.samples, shaped.taps)
    support_end = len(speech) + shaped.direct_index + round(params.t1 * FS)
    assert not np.any(wet[support_end + 1:])
    report("PASS criterion 3: full dereverberation zeroes the tail and the "
           "decay is undefined")


def test_criterion_4_distance_claim():
    """Attenuating by 0.4 halves-and-some the apparent 2 m distance to 0.8 m."""
    assert predicted_target_distance(2.0, 0.4) == 0.8
    report("PASS criterion 4: predicted_target_distance(2.0, 0.4) == 0.8 m")


def test_criterion_5_gain_oracle():
    """Identity gains are ones; the rectangular chain reproduces targets."""
    started = time.perf_counter()
    fb = design_erb_filterbank(FS)
    rect = fb.rectangularized()

    spectra = analyze([speech_like(0.3, seed=0)])[0]
    x = band_energies(spectra, fb)
    assert np.all(ideal_gains(x, x).values == 1.0)

    worst = 0.0
    rng = np.random.default_rng(2024)
    for trial in range(100):
        speech = speech_like(0.25, seed=trial)
        noise = noise_like(0.25, seed=trial + 1000)
        h0 = synth_rir(float(rng.uniform(0.15, 0.45)), seed=trial, length=0.5)
        strategy = (Strategy.DECAYED, Strategy.ATTENUATED_DECAYED)[trial % 2]
        params = ShapingParams(strategy)
        target = convolve(speech, [shape_rir(h0, params)])[0]
        target = Signal(target.samples[:len(speech)], FS)
        reverberant = Signal(convolve(speech, [h0])[0].samples[:len(speech)], FS)
        mixture, _ = mix_at_snr(reverberant, noise, float(rng.uniform(0.0, 30.0)))

        noisy_spectra = analyze([mixture])[0]
        x_rect = band_energies(analyze([target])[0], rect)
        y_rect = band_energies(noisy_spectra, rect)
        gains = ideal_gains(x_rect, y_rect, clamp=False)
        rebuilt = band_energies(apply_gains(noisy_spectra, gains, rect), rect)
        deviation = np.abs(rebuilt.values - x_rect.values) / np.maximum(x_rect.values, 1e-30)
        worst = max(worst, float(deviation.max()))
        assert deviation.max() < 1e-4, trial
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s"
    report(f"PASS criterion 5: gain oracle, worst relative deviation "
           f"{worst:.2e} (<1e-4) over 100 triples, runtime {elapsed:.1f}s")


def test_criterion_6_dsp_oracles():
    """Convolution paths agree; the transform round-trips; SNR is exact."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        x = Signal(rng.standard_normal(int(rng.integers(8, 4097))), FS)
        h = Rir(rng.standard_normal(int(rng.integers(8, 4097))), FS)
        fast = convolve(x, [h])[0].samples
        direct = np.convolve(x.samples, h.taps)
        deviation = np.abs(fast - direct).max() / np.abs(direct).max()
        worst = max(worst, deviation)
        assert deviation < 1e-9

    signal = speech_like(0.5, seed=6)
    rebuilt = synthesize(analyze([signal])[0])
    n = min(len(signal), len(rebuilt))
    err = rebuilt.samples[:n][960:n - 960] - signal.samples[:n][960:n - 960]
    round_trip = np.sqrt(np.mean(err ** 2)) / signal.rms()
    assert round_trip < 1e-6

    for snr in (-5.0, 0.0, 17.3, 45.0):
        mixture, _ = mix_at_snr(signal, noise_like(0.5, seed=7), snr)
        scaled = mixture.samples - signal.samples
        measured = 10.0 * np.log10(signal.power() / np.mean(scaled ** 2))
        assert measured == pytest.approx(snr, abs=0.01)
    report(f"PASS criterion 6: convolution agreement {worst:.2e} (<1e-9), "
           f"round trip {round_trip:.2e} RMS (<1e-6), SNR within 0.01 dB")


def test_criterion_7_determinism(tmp_path):
    """A 10-entry build is byte-identical across runs and worker counts."""
    write_wav(speech_like(0.3, seed=31), tmp_path / "sp.wav")
    write_wav(noise_like(0.25, seed=32), tmp_path / "no.wav")
    write_rir(synth_rir(0.45, seed=33), tmp_path / "room.wav")
    entries = []
    for i in range(10):
        entries.append(ManifestEntry(
            speech=str(tmp_path / "sp.wav"),
            noise=str(tmp_path / "no.wav") if i % 3 else None,
            rir=str(tmp_path / "room.wav") if i % 2 else None,
            rir_rt60=None if i % 2 else 0.25 + 0.05 * i,
            snr=None if i % 4 else 12.0,
            strategy=list(Strategy)[i % 4]))
    manifest = DatasetManifest(entries, seed=777)

    def snapshot(name, workers):
        out = tmp_path / name
        build_dataset(manifest, out, workers=workers)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = snapshot("run_a", 1)
    second = snapshot("run_b", 1)
    parallel = snapshot("run_c", 4)
    assert first.keys() == second.keys() == parallel.keys()
    assert first == second == parallel
    report(f"PASS criterion 7: {len(first)} files byte-identical across two "
           "runs and 1 vs 4 workers")


def test_criterion_8_throughput():
    """One 10 s example (convolve, shape, mix, gains) in under a second."""
    speech = speech_like(10.0, seed=81)
    noise = noise_like(4.0, seed=82)
    h0 = synth_rir(1.0, seed=83)
    params = ShapingParams(Strategy.ATTENUATED_DECAYED)
    generate_example(speech_like(0.5, seed=80), noise, h0, params, 20.0, seed=1)  # warm-up
    started = time.perf_counter()
    example = generate_example(speech, noise, h0, params, 20.0, seed=2)
    elapsed = time.perf_counter() - started
    assert example.gains.n_frames > 1000
    assert elapsed < 1.0, f"10 s example took {elapsed:.2f}s"
    report(f"PASS criterion 8: 10 s example generated in {elapsed * 1000:.0f} ms (<1 s)")


def test_dirac_is_complete_dereverberation_reference():
    """The unit-impulse response leaves any signal untouched."""
    speech = speech_like(0.2, seed=9)
    assert np.array_equal(convolve(speech, [dirac_rir(FS)])[0].samples, speech.samples)
