import math

import numpy as np
import pytest

from rirshape import (DegenerateEnergyError, Rir, ShapingParams, Strategy,
                      UndefinedDecayError, dirac_rir, drr, energy_decay_curve,
                      estimate_rt60, shape_rir, synth_rir, verify_shaping)
from rirshape.errors import ParameterError

FS = 48000


def envelope_rir(rt60, length=None, sample_rate=FS):
    """Deterministic exponential-envelope response (no noise, no reflections)."""
    if length is None:
        length = max(1.5 * rt60, rt60 + 0.3)
    t = np.arange(int(length * sample_rate)) / sample_rate
    return Rir(10.0 ** (-3.0 * t / rt60), sample_rate, 0)


class TestEnergyDecayCurve:
    def test_dirac(self):
        curve = energy_decay_curve(dirac_rir(FS))
        assert curve.levels[0] == 0.0

    def test_two_equal_taps(self):
        curve = energy_decay_curve(Rir([0.5, 0.5], FS))
        assert curve.levels[0] == 0.0
        assert curve.levels[1] == pytest.approx(10 * math.log10(0.5), abs=1e-9)

    def test_monotone_nonincreasing(self):
        for seed in range(3):
            h = synth_rir(0.4, seed=seed)
            curve = energy_decay_curve(h)
            finite = np.isfinite(curve.levels)
            assert np.all(np.diff(curve.levels[finite]) <= 0.0)
        random_rir = Rir(np.random.default_rng(0).standard_normal(5000), FS)
        levels = energy_decay_curve(random_rir).levels
        assert np.all(np.diff(levels[np.isfinite(levels)]) <= 0.0)

    def test_polack_slope_near_analytic(self):
        h = synth_rir(0.6, seed=2, n_early=0)
        curve = energy_decay_curve(h)
        mask = (curve.levels <= -5.0) & (curve.levels >= -35.0)
        slope = np.polyfit(curve.times[mask], curve.levels[mask], 1)[0]
        assert slope == pytest.approx(-100.0, rel=0.10)  # -60 / 0.6 dB/s

    def test_zero_energy_rejected(self):
        with pytest.raises(DegenerateEnergyError):
            Rir(np.zeros(10), FS)


class TestEstimateRt60:
    def test_polack_ground_truth(self):
        estimate = estimate_rt60(synth_rir(0.5, seed=4))
        assert 0.45 <= estimate <= 0.55

    def test_ideal_envelope_exact(self):
        estimate = estimate_rt60(envelope_rir(1.0))
        assert estimate == pytest.approx(1.0, abs=0.01)
        assert abs(estimate - 1.0) < 0.01

    def test_matches_polyfit_reference(self):
        # the estimator's closed-form slope against a dense least-squares fit
        for rt60 in np.linspace(0.2, 2.0, 10):
            for seed in range(2):
                h = synth_rir(float(rt60), seed=seed)
                curve = energy_decay_curve(h)
                mask = (curve.levels <= -5.0) & (curve.levels >= -35.0)
                slope = np.polyfit(curve.times[mask], curve.levels[mask], 1)[0]
                assert estimate_rt60(h) == pytest.approx(-60.0 / slope, rel=1e-9)

    def test_ideal_envelope_one_percent_across_rooms(self):
        for rt60 in (0.3, 0.6, 1.0, 1.5):
            estimate = estimate_rt60(envelope_rir(rt60))
            assert abs(estimate - rt60) / rt60 < 0.01

    def test_dirac_undefined(self):
        with pytest.raises(UndefinedDecayError):
            estimate_rt60(dirac_rir(FS))

    def test_zeroed_tail_undefined(self):
        h = shape_rir(synth_rir(0.8, seed=1), ShapingParams(Strategy.FULL))
        with pytest.raises(UndefinedDecayError):
            estimate_rt60(h)


class TestDrr:
    def test_equal_energy_both_sides(self):
        taps = np.zeros(2000)
        taps[0] = 0.5
        taps[1500] = 0.5
        assert drr(Rir(taps, FS), boundary=0.02) == pytest.approx(0.0, abs=1e-12)

    def test_attenuation_raises_drr_by_alpha_db(self):
        h0 = synth_rir(0.8, seed=6)
        params = ShapingParams(Strategy.FULL, alpha=0.4)  # attenuation only
        # negligible transition energy: blank the taps inside (t0, t1]
        t = h0.times()
        taps = h0.taps.copy()
        taps[(t >= params.t0) & (t <= params.t1)] = 0.0
        h0 = Rir(taps, FS, 0)
        shaped = shape_rir(h0, params)
        delta = drr(shaped, params.t1) - drr(h0, params.t1)
        assert delta == pytest.approx(-20.0 * math.log10(0.4), abs=0.1)

    def test_dry_response_reports_infinite(self):
        shaped = shape_rir(synth_rir(0.5, seed=3), ShapingParams(Strategy.FULL))
        assert drr(shaped, boundary=0.030) == math.inf

    def test_bad_boundary_rejected(self):
        with pytest.raises(ParameterError):
            drr(dirac_rir(FS), boundary=0.0)


class TestVerifyShaping:
    def test_decayed_matches_prediction(self):
        h0 = synth_rir(1.0, seed=0)
        params = ShapingParams(Strategy.DECAYED)
        report = verify_shaping(h0, shape_rir(h0, params), params)
        assert report.r1_predicted == pytest.approx(
            1.0 / (1.0 / report.r0_estimate + 1.0 / 0.2), rel=1e-12)
        assert report.r1_predicted == pytest.approx(1 / 6, rel=0.1)
        assert report.relative_deviation < 0.15

    def test_small_symmetric_room(self):
        h0 = synth_rir(0.2, seed=8)
        params = ShapingParams(Strategy.DECAYED)
        report = verify_shaping(h0, shape_rir(h0, params), params)
        assert report.r1_predicted == pytest.approx(0.1, rel=0.15)
        assert report.relative_deviation < 0.15

    def test_identity_strategy_estimates_match_exactly(self):
        h0 = synth_rir(0.6, seed=2)
        params = ShapingParams(Strategy.NONE)
        report = verify_shaping(h0, shape_rir(h0, params), params)
        assert report.r1_estimate == report.r0_estimate
        assert report.r1_predicted == report.r0_estimate

    def test_full_strategy_propagates_estimator_error(self):
        h0 = synth_rir(0.6, seed=2)
        params = ShapingParams(Strategy.FULL)
        with pytest.raises(UndefinedDecayError):
            verify_shaping(h0, shape_rir(h0, params), params)

    def test_report_text_round_trips(self):
        from rirshape.kvtext import parse_kv
        h0 = synth_rir(0.5, seed=5)
        params = ShapingParams(Strategy.ATTENUATED_DECAYED)
        report = verify_shaping(h0, shape_rir(h0, params), params)
        record = parse_kv(report.to_kv())
        assert record["strategy"] == "attenuated-decayed"
        assert float(record["r1_estimate"]) == pytest.approx(report.r1_estimate, rel=1e-6)
        assert len(report.to_csv_row().split(",")) == len(report.CSV_HEADER.split(","))
