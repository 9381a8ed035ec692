import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rirshape import (ParameterError, Rir, ShapingParams, Strategy, UndefinedDecayError,
                      attenuation_function, convolve, decay_function, dirac_rir,
                      estimate_rt60, predicted_target_distance, predicted_target_rt60,
                      read_rir, shape_rir, synth_rir, write_rir)
from rirshape.dsp import Signal
from rirshape.shaping import DEFAULT_N_EARLY, MAX_SYNTH_LENGTH, MAX_SYNTH_N_EARLY, MAX_SYNTH_RT60

FS = 48000


@st.composite
def shaping_params(draw):
    strategy = draw(st.sampled_from(list(Strategy)))
    t0 = draw(st.floats(min_value=0.001, max_value=0.04))
    width = draw(st.floats(min_value=0.001, max_value=0.04))
    alpha = draw(st.floats(min_value=0.0, max_value=1.0))
    rd = draw(st.floats(min_value=0.05, max_value=1.0))
    return ShapingParams(strategy, t0=t0, t1=t0 + width, alpha=alpha, rd=rd)


class TestDecayFunction:
    def setup_method(self):
        self.params = ShapingParams(Strategy.DECAYED)  # t0=0.020, rd=0.200

    def test_unity_before_boundary(self):
        assert decay_function(0.010, self.params) == 1.0

    def test_sixty_db_down_at_rd(self):
        t = self.params.t0 + self.params.rd
        assert decay_function(t, self.params) == pytest.approx(1e-3, rel=1e-12)

    def test_half_rd(self):
        t = self.params.t0 + self.params.rd / 2
        assert decay_function(t, self.params) == pytest.approx(10 ** -1.5, rel=1e-12)

    def test_continuous_at_boundary(self):
        # both branch formulas agree at t0 to well below 1e-9
        left = 1.0
        right = 10.0 ** (-3.0 * (self.params.t0 - self.params.t0) / self.params.rd)
        at = decay_function(self.params.t0, self.params)
        assert abs(at - left) < 1e-9 and abs(at - right) < 1e-9

    def test_strictly_decreasing_after_boundary(self):
        t = self.params.t0 + np.linspace(1e-6, 0.5, 1000)
        values = decay_function(t, self.params)
        assert np.all(np.diff(values) < 0)


class TestAttenuationFunction:
    def setup_method(self):
        self.params = ShapingParams(Strategy.ATTENUATED_DECAYED)  # alpha=0.4

    def test_unity_before_boundary(self):
        t = np.array([0.0, 0.005, 0.019999])
        assert np.array_equal(attenuation_function(t, self.params), [1, 1, 1])

    def test_midpoint(self):
        mid = 0.5 * (self.params.t0 + self.params.t1)
        assert attenuation_function(mid, self.params) == pytest.approx(0.7, rel=1e-12)

    def test_constant_alpha_after_transition(self):
        t = np.array([0.0301, 0.05, 1.0])
        assert np.array_equal(attenuation_function(t, self.params), [0.4, 0.4, 0.4])

    def test_continuous_at_both_boundaries(self):
        p = self.params
        at_t0 = attenuation_function(p.t0, p)
        cos_branch_t0 = 0.5 * (1 + p.alpha) + 0.5 * (1 - p.alpha) * np.cos(0.0)
        assert abs(at_t0 - 1.0) < 1e-9 and abs(at_t0 - cos_branch_t0) < 1e-9
        at_t1 = attenuation_function(p.t1, p)
        cos_branch_t1 = 0.5 * (1 + p.alpha) + 0.5 * (1 - p.alpha) * np.cos(np.pi)
        assert abs(at_t1 - p.alpha) < 1e-9 and abs(at_t1 - cos_branch_t1) < 1e-9

    def test_monotone_nonincreasing(self):
        t = np.linspace(0.0, 0.1, 5000)
        values = attenuation_function(t, self.params)
        assert np.all(np.diff(values) <= 1e-15)


@given(shaping_params(), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_gain_curves_bounded(params, seed):
    t = np.random.default_rng(seed).uniform(0.0, 1.0, 200)
    decay = decay_function(t, params)
    attenuation = attenuation_function(t, params)
    assert np.all((decay > 0.0) & (decay <= 1.0))
    assert np.all((attenuation >= params.alpha - 1e-15) & (attenuation <= 1.0))
    early = t < params.t0
    assert np.all(decay[early] == 1.0)
    assert np.all(attenuation[early] == 1.0)


class TestShapeRir:
    def setup_method(self):
        self.h0 = synth_rir(0.5, seed=3)

    def test_none_is_identity(self):
        taps = self.h0.taps.copy()
        taps[-1] = -0.0  # keeps its sign only through an exact identity
        h0 = Rir(taps, FS, self.h0.direct_index)
        shaped = shape_rir(h0, ShapingParams(Strategy.NONE))
        assert shaped.taps.tobytes() == h0.taps.tobytes()
        assert shaped.direct_index == h0.direct_index

    def test_full_zeroes_the_late_tail(self):
        params = ShapingParams(Strategy.FULL)
        shaped = shape_rir(self.h0, params)
        late = shaped.times() > params.t1
        assert np.all(shaped.taps[late] == 0.0)
        assert shaped.taps[0] == self.h0.taps[0]

    def test_attenuated_decayed_value_at_t1(self):
        taps = np.ones(2000)
        h0 = Rir(taps, FS, 0)
        params = ShapingParams(Strategy.ATTENUATED_DECAYED)
        shaped = shape_rir(h0, params)
        idx = round(params.t1 * FS)  # tap exactly at t1
        expected = 0.4 * 10.0 ** (-3.0 * (params.t1 - params.t0) / params.rd)
        assert shaped.taps[idx] == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(0.2832, abs=5e-5)

    def test_early_taps_bit_identical_under_every_strategy(self):
        boundary = round(0.020 * FS)
        for strategy in Strategy:
            shaped = shape_rir(self.h0, ShapingParams(strategy))
            assert np.array_equal(shaped.taps[:boundary], self.h0.taps[:boundary])

    def test_taps_before_direct_pass_unshaped(self):
        taps = np.concatenate([[0.2, -0.1], np.ones(3000)])
        h0 = Rir(taps, FS, direct_index=2)
        shaped = shape_rir(h0, ShapingParams(Strategy.ATTENUATED_DECAYED))
        assert np.array_equal(shaped.taps[:2], taps[:2])
        assert shaped.direct_index == 2

    @given(shaping_params())
    @settings(max_examples=40, deadline=None)
    def test_energy_never_grows(self, params):
        shaped = shape_rir(self.h0, params)
        assert np.sum(shaped.taps ** 2) <= np.sum(self.h0.taps ** 2) * (1 + 1e-12)

    def test_attenuation_only_scales_tail_energy_by_alpha_squared(self):
        params = ShapingParams(Strategy.FULL, alpha=0.4)  # attenuation curve only
        shaped = shape_rir(self.h0, params)
        late = self.h0.times() > params.t1
        ratio = np.sum(shaped.taps[late] ** 2) / np.sum(self.h0.taps[late] ** 2)
        assert abs(ratio - 0.4 ** 2) < 1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            ShapingParams(Strategy.FULL, alpha=1.2)
        with pytest.raises(ParameterError):
            ShapingParams(Strategy.DECAYED, t0=0.03, t1=0.02)
        with pytest.raises(ParameterError):
            ShapingParams(Strategy.DECAYED, rd=0.0)
        with pytest.raises(ParameterError):
            ShapingParams(Strategy.DECAYED, rd=math.nan)


class TestStrategyDefaults:
    def test_full_defaults_to_alpha_zero(self):
        assert ShapingParams(Strategy.FULL).alpha == 0.0

    def test_attenuated_decayed_defaults(self):
        params = ShapingParams(Strategy.ATTENUATED_DECAYED)
        assert params.alpha == 0.4 and params.rd == 0.2

    def test_decayed_default_rd(self):
        assert ShapingParams(Strategy.DECAYED).rd == 0.2

    def test_boundaries_default(self):
        params = ShapingParams(Strategy.NONE)
        assert params.t0 == 0.020 and params.t1 == 0.030

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_none_overrides_mean_defaults(self, strategy):
        assert ShapingParams(strategy, None, None, None, None) == ShapingParams(strategy)

    def test_strategy_from_string(self):
        assert ShapingParams("decayed").strategy is Strategy.DECAYED


class TestSynthRir:
    def test_deterministic_for_fixed_seed(self):
        first = synth_rir(0.4, seed=11)
        second = synth_rir(0.4, seed=11)
        assert np.array_equal(first.taps, second.taps)

    def test_different_seeds_differ(self):
        assert not np.array_equal(synth_rir(0.4, seed=1).taps,
                                  synth_rir(0.4, seed=2).taps)

    def test_unit_direct_at_zero(self):
        h = synth_rir(0.3, seed=0)
        assert h.taps[0] == 1.0 and h.direct_index == 0
        assert np.abs(h.taps).max() == 1.0

    def test_direct_stays_peak_at_high_tail_level(self):
        for seed in range(20):
            h = synth_rir(0.3, seed=seed, tail_level=0.15, n_early=10)
            assert np.abs(h.taps[1:]).max() < 1.0 == h.taps[0]

    def test_estimated_rt60_matches_nominal(self):
        for seed in range(3):
            estimate = estimate_rt60(synth_rir(0.5, seed=seed))
            assert 0.45 <= estimate <= 0.55

    def test_tail_only_follows_decay_envelope(self):
        h = synth_rir(0.3, seed=1, n_early=0)
        # Schroeder-integration oracle: EDC slope within 10% of -60/rt60
        energy = np.cumsum((h.taps ** 2)[::-1])[::-1]
        levels = 10.0 * np.log10(energy / energy[0])
        t = np.arange(len(h)) / FS
        mask = (levels <= -5.0) & (levels >= -35.0)
        slope = np.polyfit(t[mask], levels[mask], 1)[0]
        assert abs(slope - (-60.0 / 0.3)) < 0.1 * (60.0 / 0.3)

    def test_early_reflections_land_in_early_window(self):
        h = synth_rir(0.5, seed=5, n_early=8)
        with_none = synth_rir(0.5, seed=5, n_early=0)
        # same tail noise; differences are exactly the early taps
        changed = np.nonzero(h.taps != with_none.taps)[0]
        assert changed.size > 0
        assert changed.max() < round(0.020 * FS)
        assert changed.min() >= round(0.002 * FS)

    def test_out_of_range_rt60_rejected(self):
        with pytest.raises(ParameterError):
            synth_rir(0.01, seed=0)
        with pytest.raises(ParameterError):
            synth_rir(4.0, seed=0)

    def test_too_short_length_rejected(self):
        with pytest.raises(ParameterError):
            synth_rir(1.0, length=0.5, seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"rt60": 9.0}, {"rt60": 0.5, "length": 0.1}, {"rt60": 0.5, "n_early": -3},
        {"rt60": 0.5, "tail_level": 0.0}, {"rt60": 0.5, "tail_level": 0.2},
        {"rt60": 0.5, "length": math.nan}, {"rt60": 0.5, "length": math.inf},
        {"rt60": 0.5, "sample_rate": 0}, {"rt60": 0.5, "sample_rate": -5},
        {"rt60": 0.05, "sample_rate": 1},  # 0.35 s rounds to no tap at all
        {"rt60": 0.5, "length": 1e7}, {"rt60": 0.5, "n_early": 10 ** 9},
    ])
    def test_out_of_range_arguments_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            synth_rir(**kwargs)

    def test_largest_length_and_count_accepted(self):
        h = synth_rir(MAX_SYNTH_RT60, length=MAX_SYNTH_LENGTH, n_early=MAX_SYNTH_N_EARLY,
                      sample_rate=8000)
        assert len(h) == round(MAX_SYNTH_LENGTH * 8000)

    def test_unset_n_early_is_the_default_count(self):
        default = synth_rir(0.5, seed=4, n_early=DEFAULT_N_EARLY).taps
        assert np.array_equal(synth_rir(0.5, seed=4, n_early=None).taps, default)
        assert np.array_equal(synth_rir(0.5, seed=4).taps, default)


class TestDiracRir:
    def test_convolution_identity(self):
        x = Signal(np.arange(1.0, 11.0), FS)
        assert np.array_equal(convolve(x, [dirac_rir(FS)])[0].samples, x.samples)

    def test_rt60_undefined(self):
        with pytest.raises(UndefinedDecayError):
            estimate_rt60(dirac_rir(FS))

    def test_shaping_leaves_it_unchanged(self):
        for strategy in Strategy:
            shaped = shape_rir(dirac_rir(FS), ShapingParams(strategy))
            assert np.array_equal(shaped.taps, [1.0])


class TestPredictions:
    @pytest.mark.parametrize("strategy, alpha, r0, expected", [
        (Strategy.NONE, None, 0.8, 0.8),
        (Strategy.NONE, None, None, None),
        (Strategy.FULL, None, 0.8, None),
        (Strategy.FULL, 0.0, 0.8, None),
        (Strategy.FULL, 0.4, 0.8, 0.8),
        (Strategy.FULL, 0.4, None, None),
        (Strategy.DECAYED, None, 0.8, 0.16),
        (Strategy.DECAYED, None, None, None),
        (Strategy.ATTENUATED_DECAYED, None, 0.8, 0.16),
        (Strategy.ATTENUATED_DECAYED, 0.0, 0.8, 0.16),
        (Strategy.ATTENUATED_DECAYED, None, None, None),
    ])
    def test_predicted_rt60_per_strategy(self, strategy, alpha, r0, expected):
        predicted = ShapingParams(strategy, alpha=alpha).predicted_rt60(r0)
        assert predicted == (None if expected is None
                             else pytest.approx(expected, rel=1e-12))

    def test_target_rt60_basic(self):
        assert predicted_target_rt60(1.0, 0.2) == pytest.approx(1 / 6, rel=1e-12)

    def test_target_rt60_symmetric(self):
        assert predicted_target_rt60(0.2, 0.2) == pytest.approx(0.1, rel=1e-12)

    def test_target_rt60_large_room_limit(self):
        assert predicted_target_rt60(1e9, 0.2) == pytest.approx(0.2, rel=1e-6)

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-3, max_value=10.0))
    def test_target_rt60_below_both(self, r0, rd):
        r1 = predicted_target_rt60(r0, rd)
        assert r1 < min(r0, rd)

    def test_target_rt60_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            predicted_target_rt60(0.0, 0.2)
        with pytest.raises(ParameterError):
            predicted_target_rt60(1.0, -0.1)
        with pytest.raises(ParameterError):
            predicted_target_rt60(math.nan, 0.2)

    def test_target_distance_values(self):
        assert predicted_target_distance(2.0, 0.4) == 0.8
        assert predicted_target_distance(3.5, 1.0) == 3.5
        assert predicted_target_distance(1.0, 0.5) == 0.5

    def test_target_distance_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            predicted_target_distance(-1.0, 0.4)
        with pytest.raises(ParameterError):
            predicted_target_distance(1.0, 0.0)
        with pytest.raises(ParameterError):
            predicted_target_distance(math.nan, 0.4)


class TestRirIsASignal:
    def test_taps_are_the_samples(self):
        h = Rir([0.0, 1.0, 0.5], FS, direct_index=1)
        assert issubclass(Rir, Signal) and isinstance(h, Signal)
        assert h.taps is h.samples and h.taps.dtype == np.float64
        assert len(h) == 3 and h.duration == 3 / FS


class TestRirFiles:
    def test_round_trip_with_sidecar(self, tmp_path):
        h = synth_rir(0.3, seed=9)
        path = tmp_path / "h.wav"
        write_rir(h, path, metadata={"nominal_rt60": 0.3, "seed": 9})
        back = read_rir(path)
        assert back.direct_index == 0
        assert back.sample_rate == FS
        assert np.allclose(back.taps, h.taps, atol=1e-7)  # float32 carrier
        assert (tmp_path / "h.wav.meta.txt").exists()

    @pytest.mark.parametrize("value", ["16000", "48000.0", "fast"])
    def test_sidecar_sample_rate_must_match_the_wav(self, tmp_path, value):
        path = tmp_path / "h.wav"
        write_rir(synth_rir(0.3, seed=9), path)
        sidecar = tmp_path / "h.wav.meta.txt"
        sidecar.write_text(f"direct_index=0\nsample_rate={value}\n", encoding="utf-8")
        with pytest.raises(ParameterError, match="sample_rate") as raised:
            read_rir(path)
        assert str(sidecar) in str(raised.value)

    def test_direct_detected_without_sidecar(self, tmp_path):
        taps = np.zeros(100)
        taps[7] = -0.9
        taps[30] = 0.2
        path = tmp_path / "h.wav"
        write_rir(Rir(taps, FS, 7), path)
        (tmp_path / "h.wav.meta.txt").unlink()
        assert read_rir(path).direct_index == 7

    def test_rir_validation(self):
        from rirshape import DegenerateEnergyError
        with pytest.raises(DegenerateEnergyError):
            Rir(np.zeros(10), FS)
        with pytest.raises(ParameterError):
            Rir(np.ones(10), FS, direct_index=10)
        with pytest.raises(ParameterError):
            Rir(np.array([np.inf]), FS)
        with pytest.raises(ParameterError):
            Rir([], FS)
        with pytest.raises(ParameterError):
            Rir([1.0], 0)
