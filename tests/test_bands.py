import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rirshape import (BandMatrix, ParameterError, SampleRateMismatchError,
                      ShapeMismatchError, Signal, analyze, apply_gains, band_energies,
                      design_erb_filterbank, ideal_gains)
from rirshape.bands import (erb_rate, read_band_matrix_csv, read_band_matrix_raw,
                            write_band_matrix_csv, write_band_matrix_raw)
from rirshape.dsp import FrameSpectra
from rirshape.kvtext import load_kv, sidecar_path
from conftest import speech_like

FS = 48000
FFT = 960


@pytest.fixture(scope="module")
def fb():
    return design_erb_filterbank(FS)


class TestFilterbankDesign:
    def test_partition_of_unity(self, fb):
        sums = fb.weights.sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-9

    def test_centers_strictly_increasing_to_nyquist(self, fb):
        assert np.all(np.diff(fb.band_centers) > 0)
        assert fb.band_centers[-1] <= 24000.0
        assert fb.band_centers[0] == 0.0

    def test_constant_erb_rate_step(self, fb):
        # oracle: recompute the ERB rate of every center
        rates = erb_rate(fb.band_centers)
        steps = np.diff(rates)
        assert np.abs(steps - steps[0]).max() < 1e-9

    def test_band_count(self, fb):
        assert fb.n_bands == 32
        assert fb.n_bins == FFT // 2 + 1

    def test_weights_triangular_and_contiguous(self, fb):
        for b in range(fb.n_bands):
            support = np.nonzero(fb.weights[b])[0]
            assert support.size > 0
            assert np.array_equal(support, np.arange(support[0], support[-1] + 1))

    def test_one_cached_read_only_design_per_rate(self, fb):
        assert design_erb_filterbank(FS) is fb
        for array in (fb.weights, fb.band_centers):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_rectangularized_partition(self, fb):
        rect = fb.rectangularized()
        assert np.array_equal(rect.weights.sum(axis=0), np.ones(fb.n_bins))
        assert set(np.unique(rect.weights)) <= {0.0, 1.0}

    def test_small_fft_rejected(self):
        # 1600 Hz gives a 32-sample window
        with pytest.raises(ParameterError):
            design_erb_filterbank(1600)

    @pytest.mark.parametrize("sample_rate", [16000, 44100, FS])
    def test_bins_match_the_analysis_frames(self, sample_rate):
        spectra = analyze([Signal(np.ones(sample_rate // 10), sample_rate)])[0]
        assert design_erb_filterbank(sample_rate).n_bins == spectra.n_bins


class TestBandEnergies:
    def test_zero_spectra(self, fb):
        spectra = FrameSpectra(np.zeros((9, FFT // 2 + 1), dtype=complex), FS)
        energies = band_energies(spectra, fb)
        assert energies.values.shape == (9, 32)
        assert not np.any(energies.values)

    def test_parseval_partition(self, fb):
        spectra = analyze([speech_like(0.2, seed=3)])[0]
        energies = band_energies(spectra, fb)
        per_frame_band = np.sum(energies.values ** 2, axis=1)
        per_frame_bins = np.sum(np.abs(spectra.frames) ** 2, axis=1)
        assert np.allclose(per_frame_band, per_frame_bins, rtol=1e-6)

    def test_single_bin_impulse_splits_by_triangle(self, fb):
        k = 123
        frames = np.zeros((1, FFT // 2 + 1), dtype=complex)
        frames[0, k] = 2.0
        energies = band_energies(FrameSpectra(frames, FS), fb)
        expected = np.sqrt(fb.weights[:, k] * 4.0)
        assert np.allclose(energies.values[0], expected, atol=1e-12)
        assert np.count_nonzero(energies.values[0]) <= 2

    # 51.2 and 102.4 kHz give 1024- and 2048-point frames
    @pytest.mark.parametrize("sample_rate", [8000, 16000, 22050, 44100, 48000, 51200, 102400])
    def test_matches_dense_reference(self, sample_rate):
        bank = design_erb_filterbank(sample_rate)
        rng = np.random.default_rng(sample_rate)
        shape = (37, bank.n_bins)
        frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spectra = FrameSpectra(frames, sample_rate)
        dense = np.sqrt(np.abs(frames) ** 2 @ bank.weights.T)
        assert np.allclose(band_energies(spectra, bank).values, dense, rtol=1e-12, atol=0.0)

    def test_fft_mismatch_rejected(self, fb):
        # 16 kHz frames have 161 bins; the sample rate fixes the layout
        spectra = FrameSpectra(np.zeros((9, 161), dtype=complex), 16000)
        with pytest.raises(SampleRateMismatchError):
            band_energies(spectra, fb)


class TestIdealGains:
    def test_identity_pair_gives_ones(self, fb):
        spectra = analyze([speech_like(0.2, seed=4)])[0]
        x = band_energies(spectra, fb)
        gains = ideal_gains(x, x)
        assert np.all(gains.values == 1.0)

    def test_zero_target_gives_zeros(self, fb):
        spectra = analyze([speech_like(0.2, seed=5)])[0]
        y = band_energies(spectra, fb)
        zero = BandMatrix(np.zeros_like(y.values), "energy")
        assert not np.any(ideal_gains(zero, y).values)

    def test_direct_division(self):
        x = BandMatrix(np.full((1, 32), 0.3), "energy")
        y = BandMatrix(np.full((1, 32), 0.5), "energy")
        assert np.allclose(ideal_gains(x, y).values, 0.6, rtol=1e-12)

    def test_clamped_to_unit_interval(self):
        x = BandMatrix(np.full((1, 32), 2.0), "energy")
        y = BandMatrix(np.full((1, 32), 0.5), "energy")
        assert np.all(ideal_gains(x, y).values == 1.0)
        raw = ideal_gains(x, y, clamp=False)
        assert np.allclose(raw.values, 4.0, rtol=1e-12)

    def test_silent_frames_never_nan(self):
        x = BandMatrix(np.array([[0.0, 0.5]]), "energy")
        y = BandMatrix(np.array([[0.0, 0.0]]), "energy")
        gains = ideal_gains(x, y)
        assert np.array_equal(gains.values, [[0.0, 1.0]])

    def test_shape_mismatch_rejected(self):
        x = BandMatrix(np.zeros((2, 32)), "energy")
        y = BandMatrix(np.zeros((3, 32)), "energy")
        with pytest.raises(ShapeMismatchError):
            ideal_gains(x, y)

    def test_role_checked(self):
        g = BandMatrix(np.zeros((2, 32)), "gain")
        e = BandMatrix(np.zeros((2, 32)), "energy")
        with pytest.raises(ParameterError):
            ideal_gains(g, e)


class TestApplyGains:
    def test_unit_gains_transparent(self, fb):
        spectra = analyze([speech_like(0.2, seed=6)])[0]
        ones = BandMatrix(np.ones((spectra.n_frames, 32)), "gain")
        for weights in (fb, fb.rectangularized()):
            out = apply_gains(spectra, ones, weights)
            assert np.allclose(out.frames, spectra.frames, rtol=1e-12)

    def test_constant_half_gain(self, fb):
        spectra = analyze([speech_like(0.2, seed=7)])[0]
        half = BandMatrix(np.full((spectra.n_frames, 32), 0.5), "gain")
        for weights in (fb, fb.rectangularized()):
            out = apply_gains(spectra, half, weights)
            assert np.allclose(out.frames, 0.5 * spectra.frames, rtol=1e-12)

    def test_phase_preserved(self, fb):
        spectra = analyze([speech_like(0.2, seed=8)])[0]
        gains = BandMatrix(np.random.default_rng(0).uniform(0.1, 1.0,
                                                            (spectra.n_frames, 32)), "gain")
        out = apply_gains(spectra, gains, fb)
        nonzero = np.abs(spectra.frames) > 1e-12
        assert np.allclose(np.angle(out.frames[nonzero]),
                           np.angle(spectra.frames[nonzero]), atol=1e-9)

    def test_rectangular_oracle_identity(self, fb):
        # gains from ownership-partition energies, applied by ownership,
        # reproduce the target's ownership-partition energies exactly
        rect = fb.rectangularized()
        for seed in range(5):
            target_spectra = analyze([speech_like(0.2, seed=seed)])[0]
            noisy = speech_like(0.2, seed=seed).samples \
                + 0.3 * speech_like(0.2, seed=seed + 100).samples
            noisy_spectra = analyze([Signal(noisy, FS)])[0]
            x = band_energies(target_spectra, rect)
            y = band_energies(noisy_spectra, rect)
            gains = ideal_gains(x, y, clamp=False)
            rebuilt = band_energies(apply_gains(noisy_spectra, gains, rect), rect)
            deviation = np.abs(rebuilt.values - x.values) / np.maximum(x.values, 1e-30)
            assert deviation.max() < 1e-4

    def test_scale_covariance(self, fb):
        target_spectra = analyze([speech_like(0.2, seed=10)])[0]
        noisy_signal = speech_like(0.2, seed=11)
        x = band_energies(target_spectra, fb)
        for a in (0.5, 3.0):
            y1 = band_energies(analyze([noisy_signal])[0], fb)
            y2 = band_energies(analyze([Signal(a * noisy_signal.samples, FS)])[0], fb)
            assert np.allclose(y2.values, a * y1.values, rtol=1e-9)
            g1 = ideal_gains(x, y1, clamp=False)
            g2 = ideal_gains(x, y2, clamp=False)
            assert np.allclose(g2.values, g1.values / a, rtol=1e-9)
            # reconstructed target energy is scale-invariant
            assert np.allclose(g2.values * y2.values, g1.values * y1.values, rtol=1e-9)

    def test_matches_dense_reference(self, fb):
        spectra = analyze([speech_like(0.2, seed=12)])[0]
        gains = BandMatrix(np.random.default_rng(3).uniform(0.0, 1.0,
                                                            (spectra.n_frames, 32)), "gain")
        for weights in (fb, fb.rectangularized()):
            out = apply_gains(spectra, gains, weights)
            dense = spectra.frames * (gains.values @ weights.weights)
            assert np.allclose(out.frames, dense, rtol=1e-12, atol=0.0)

    def test_rectangularized_gives_each_bin_its_owners_gain(self, fb):
        # reference: the per-bin gain lookup of the band holding the peak weight
        spectra = analyze([speech_like(0.2, seed=13)])[0]
        gains = BandMatrix(np.random.default_rng(4).uniform(0.0, 1.0,
                                                            (spectra.n_frames, 32)), "gain")
        out = apply_gains(spectra, gains, fb.rectangularized())
        owners = np.argmax(fb.weights, axis=0)
        assert np.array_equal(out.frames, spectra.frames * gains.values[:, owners])

    def test_sample_rate_mismatch_rejected(self):
        # 48050 Hz gives the same 481 bins as 48 kHz, so only the rate tells them apart
        spectra = analyze([speech_like(0.1)])[0]
        other = design_erb_filterbank(48050)
        assert other.n_bins == spectra.n_bins
        gains = BandMatrix(np.ones((spectra.n_frames, 32)), "gain")
        with pytest.raises(SampleRateMismatchError):
            apply_gains(spectra, gains, other)

    def test_frame_mismatch_rejected(self, fb):
        spectra = analyze([speech_like(0.1)])[0]
        gains = BandMatrix(np.ones((spectra.n_frames + 1, 32)), "gain")
        with pytest.raises(ShapeMismatchError):
            apply_gains(spectra, gains, fb)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_gains_always_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    x = BandMatrix(rng.uniform(0.0, 2.0, (4, 32)), "energy")
    y = BandMatrix(rng.uniform(0.0, 2.0, (4, 32)), "energy")
    gains = ideal_gains(x, y)
    assert np.all((gains.values >= 0.0) & (gains.values <= 1.0))
    assert np.all(np.isfinite(gains.values))


class TestSerialization:
    def test_raw_sidecar_sits_at_the_shared_sidecar_path(self, tmp_path):
        path = tmp_path / "g.f32"
        write_band_matrix_raw(BandMatrix(np.ones((3, 4)), "gain"), path, FS)
        assert sidecar_path(path) == f"{path}.meta.txt"
        assert load_kv(sidecar_path(path))["frames"] == "3"

    def test_csv_round_trip(self, fb, tmp_path):
        values = np.random.default_rng(1).uniform(0.0, 1.0, (7, 32))
        matrix = BandMatrix(values, "gain")
        path = tmp_path / "g.csv"
        write_band_matrix_csv(matrix, path, FS)
        back, centers = read_band_matrix_csv(path)
        assert back.role == "gain"
        assert np.allclose(back.values, values, rtol=1e-8)
        assert np.allclose(centers, fb.band_centers, rtol=1e-8)

    def test_csv_has_single_header_line(self, fb, tmp_path):
        matrix = BandMatrix(np.zeros((2, 32)), "gain")
        path = tmp_path / "g.csv"
        write_band_matrix_csv(matrix, path, FS)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("#") and "band_centers_hz=" in lines[0]
        assert len(lines) == 3
        assert all(len(line.split(",")) == 32 for line in lines[1:])

    @given(st.lists(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310]),
                                       st.floats(min_value=0.0, allow_infinity=False)),
                             min_size=32, max_size=32),
                    min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_csv_rows_match_per_value_format(self, rows):
        # reference: the per-value formatter the row template replaced
        matrix = BandMatrix(np.array(rows), "gain")
        fb = design_erb_filterbank(FS)
        expected = ["# role=gain band_centers_hz="
                    + ",".join(format(c, ".9g") for c in fb.band_centers)]
        expected += [",".join(format(v, ".9g") for v in row) for row in matrix.values]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.csv"
            write_band_matrix_csv(matrix, path, FS)
            assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    def test_raw_round_trip(self, tmp_path):
        values = np.random.default_rng(2).uniform(0.0, 1.0, (5, 32))
        matrix = BandMatrix(values, "gain")
        path = tmp_path / "g.f32"
        write_band_matrix_raw(matrix, path, FS)
        back, meta = read_band_matrix_raw(path)
        assert np.allclose(back.values, values, rtol=1e-6)
        assert meta["sample_rate"] == str(FS)
        assert meta["frame_advance_ms"] == "10"
        assert int(meta["frames"]) == 5 and int(meta["bands"]) == 32

    MALFORMED_CSV = {
        "no_centers.csv": "# role=gain\n0.5,0.5\n",
        "ragged.csv": "# role=gain band_centers_hz=100,200\n0.1,0.2\n0.3\n",
        "short_rows.csv": "# role=gain band_centers_hz=100,200,300\n0.1,0.2\n",
        "not_a_number.csv": "# role=gain band_centers_hz=100,200\n0.1,abc\n",
    }

    @pytest.mark.parametrize("name", [*MALFORMED_CSV, "short.f32", "long.f32",
                                      "bad_meta.f32"])
    def test_malformed_file_names_its_path(self, tmp_path, name):
        path = tmp_path / name
        if name in self.MALFORMED_CSV:
            path.write_text(self.MALFORMED_CSV[name], encoding="utf-8")
            read = read_band_matrix_csv
        else:
            write_band_matrix_raw(BandMatrix(np.ones((3, 4)), "gain"), path, FS)
            data = path.read_bytes()
            if name == "bad_meta.f32":
                meta = tmp_path / f"{name}.meta.txt"
                meta.write_text(meta.read_text().replace("frames=3", "frames=three"))
            else:
                path.write_bytes(data[:-4] if name == "short.f32" else data + data[:4])
            read = read_band_matrix_raw
        with pytest.raises(ParameterError, match=name):
            read(path)
