import csv
import multiprocessing
import shlex
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.signal import fftconvolve

from rirshape import (ManifestError, ParameterError, ShapingParams, Signal, Strategy,
                      analyze, band_energies, build_dataset, design_erb_filterbank,
                      estimate_rt60, generate_example, ideal_gains, mix_at_snr, parse_manifest,
                      sample_entry_randomness, shape_rir, synth_rir, verify_shaping,
                      write_rir, write_wav)
from rirshape import cli, dsp, pipeline
from rirshape.bands import BandMatrix
from rirshape.kvtext import dump_kv, load_kv, parse_kv
from rirshape.pipeline import (ENTRY_KEYS, GLOBAL_KEYS, DatasetManifest, DatasetSummary,
                               EntryResult, ManifestEntry, format_manifest, load_manifest)
from conftest import GLIBC, RESIDENT, noise_like, run_fresh, speech_like

FS = 48000


class TestEntryRandomness:
    def test_deterministic_per_key(self):
        first = sample_entry_randomness(42, 7)
        second = sample_entry_randomness(42, 7)
        assert first == second

    def test_distinct_entries_get_distinct_draws(self):
        draws = {sample_entry_randomness(1, i).snr_db for i in range(50)}
        assert len(draws) == 50

    def test_never_noise_free_at_p_zero(self):
        assert not any(sample_entry_randomness(3, i, p_noise_free=0.0).noise_free
                       for i in range(200))

    def test_noise_free_fraction_near_p(self):
        n = 10000
        hits = sum(sample_entry_randomness(5, i, p_noise_free=0.05).noise_free
                   for i in range(n))
        assert abs(hits / n - 0.05) < 0.01

    def test_snr_uniform_over_range(self):
        snrs = [sample_entry_randomness(9, i).snr_db for i in range(1000)]
        assert min(snrs) >= -5.0 and max(snrs) <= 45.0
        result = stats.kstest(snrs, "uniform", args=(-5.0, 50.0))
        assert result.pvalue > 0.01


class TestGenerateExample:
    def test_identity_strategy_noise_free(self, speech):
        h0 = synth_rir(0.4, seed=2)
        example = generate_example(speech, None, h0,
                                   ShapingParams(Strategy.NONE), None, seed=1)
        assert example.input.samples.tobytes() == example.target.samples.tobytes()
        assert np.all(example.gains.values == 1.0)
        assert example.metadata["noise_free"] is True

    def test_noise_free_none_example_analyzed_once(self, speech, monkeypatch):
        # input and target are one Signal here, so one analysis serves both
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append((name, args))
                return fn(*args)
            monkeypatch.setattr(pipeline, name, wrapper)

        counted("analyze", analyze)
        counted("band_energies", band_energies)
        example = generate_example(speech, None, synth_rir(0.4, seed=2),
                                   ShapingParams(Strategy.NONE), None, seed=1)
        assert [name for name, _ in calls] == ["analyze", "band_energies"]
        (signals,) = calls[0][1]
        assert len(signals) == 1 and signals[0] is example.input is example.target
        fb = design_erb_filterbank(FS)
        reference = ideal_gains(band_energies(analyze([example.target])[0], fb),
                                band_energies(analyze([example.input])[0], fb))
        assert np.array_equal(example.gains.values, reference.values)

    def test_pair_gains_returns_the_ideal_gains_alone(self, speech, noise):
        noisy, _ = mix_at_snr(speech, noise, 5.0)
        gains = pipeline.pair_gains(noisy, speech)
        fb = design_erb_filterbank(FS)
        reference = ideal_gains(band_energies(analyze([speech])[0], fb),
                                band_energies(analyze([noisy])[0], fb))
        assert isinstance(gains, BandMatrix) and np.array_equal(gains.values, reference.values)

    def test_full_dereverb_target_is_dry(self, speech):
        h0 = synth_rir(0.8, seed=3)
        params = ShapingParams(Strategy.FULL)
        example = generate_example(speech, None, h0, params, None, seed=1)
        # target carries only the first t1 seconds of the response
        from rirshape import shape_rir
        h1 = shape_rir(h0, params)
        assert np.all(h1.taps[h1.times() > params.t1] == 0.0)
        tail_start = len(speech) + round(params.t1 * FS) + 1
        peak = np.abs(example.target.samples).max()
        # transform-domain convolution leaves only rounding dust past the support
        assert np.abs(example.target.samples[tail_start:]).max() < 1e-12 * peak
        assert np.abs(example.input.samples[tail_start:]).max() > 1e-6 * peak

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("noisy", [False, True])
    def test_matches_two_fftconvolve_reference(self, speech, noise, strategy, noisy):
        h0 = synth_rir(0.6, seed=8)
        params = ShapingParams(strategy)
        example = generate_example(speech, noise if noisy else None, h0, params,
                                   7.5, seed=31)
        out_len = len(speech) + FS // 2
        reverberant = Signal(fftconvolve(speech.samples, h0.taps)[:out_len], FS)
        target = fftconvolve(speech.samples, shape_rir(h0, params).taps)[:out_len]
        if noisy:
            offset = int(np.random.default_rng(31).integers(0, 2 ** 31))
            reverberant, _ = mix_at_snr(reverberant, noise, 7.5, noise_offset=offset)
        fb = design_erb_filterbank(FS)
        gains = ideal_gains(band_energies(analyze([Signal(target, FS)])[0], fb),
                            band_energies(analyze([reverberant])[0], fb))
        assert np.array_equal(example.input.samples, reverberant.samples)
        assert np.array_equal(example.target.samples, target)
        assert np.array_equal(example.gains.values, gains.values)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("noisy", [False, True])
    def test_same_bytes_on_one_and_two_threads(self, monkeypatch, strategy, noisy):
        # 6 s of speech: long enough that convolve splits its transforms
        speech = speech_like(6.0, seed=12)
        h0 = synth_rir(0.8, seed=13)
        results = []
        for cores in (1, 2):
            monkeypatch.setattr(dsp, "_usable_cores", lambda: cores)
            example = generate_example(speech, noise_like(2.0, seed=14) if noisy else None,
                                       h0, ShapingParams(strategy), 3.0, seed=15)
            results.append((example.input.samples.tobytes(),
                            example.target.samples.tobytes(),
                            example.gains.values.tobytes(), example.metadata))
        assert results[0] == results[1]

    def test_alignment_and_frame_count(self, speech, noise):
        h0 = synth_rir(0.5, seed=5)
        example = generate_example(speech, noise, h0,
                                   ShapingParams(Strategy.DECAYED), 20.0, seed=1)
        assert len(example.input) == len(example.target)
        assert len(example.input) == len(speech) + round(0.5 * FS)
        expected_frames = (len(example.input) - 960) // 480 + 1
        assert example.gains.n_frames == expected_frames
        assert np.all((example.gains.values >= 0) & (example.gains.values <= 1))

    def test_requires_snr_for_noisy(self, speech, noise):
        h0 = synth_rir(0.3, seed=6)
        with pytest.raises(ParameterError):
            generate_example(speech, noise, h0, ShapingParams(Strategy.NONE),
                             None, seed=1)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_rejects_negative_seed(self, speech, noise, noisy):
        # the seed draws only the noise offset, yet a noise-free example refuses it too
        with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
            generate_example(speech, noise if noisy else None, synth_rir(0.3, seed=6),
                             ShapingParams(Strategy.NONE), 10.0, seed=-1)

    def test_rejects_non_48k_speech(self, noise):
        slow = speech_like(0.2, seed=0, sample_rate=16000)
        h0 = synth_rir(0.3, seed=6, sample_rate=16000)
        with pytest.raises(ParameterError):
            generate_example(slow, None, h0, ShapingParams(Strategy.NONE), None, seed=1)

    @pytest.mark.parametrize("strategy, alpha", [
        (Strategy.NONE, None), (Strategy.FULL, 0.0), (Strategy.FULL, 0.4),
        (Strategy.DECAYED, None), (Strategy.ATTENUATED_DECAYED, None),
    ])
    def test_metadata_and_verify_share_one_prediction(self, speech, strategy, alpha):
        h0 = synth_rir(0.8, seed=4)
        params = ShapingParams(strategy, alpha=alpha)
        meta = generate_example(speech, None, h0, params, None, seed=1).metadata
        expected = params.predicted_rt60(estimate_rt60(h0))
        assert meta["rt60_target_predicted"] == expected
        if expected is not None:  # a zeroed tail has no measurable r1
            report = verify_shaping(h0, shape_rir(h0, params), params)
            assert report.r1_predicted == expected

    def test_metadata_records_prediction(self, speech):
        h0 = synth_rir(1.0, seed=7)
        example = generate_example(speech, None, h0,
                                   ShapingParams(Strategy.DECAYED), None, seed=1)
        meta = example.metadata
        assert meta["rt60_input_estimate"] == pytest.approx(1.0, rel=0.1)
        assert meta["rt60_target_predicted"] == pytest.approx(
            1.0 / (1.0 / meta["rt60_input_estimate"] + 5.0), rel=1e-9)


MANIFEST_TEXT = """
# demo manifest
[global]
seed=42
snr_min=-5
snr_max=45
p_noise_free=0.1

[entry]
speech=sp.wav
noise=no.wav
rir=rir.wav
snr=10
strategy=attenuated-decayed
seed=7
id=first

[entry]
speech=sp.wav
noise=no.wav
rir_rt60=0.6
rir_n_early=4
snr=sample
strategy=decayed
rd=0.15
"""


class TestManifest:
    def test_parse_fields(self):
        manifest = parse_manifest(MANIFEST_TEXT)
        assert manifest.seed == 42
        assert manifest.snr_range == (-5.0, 45.0)
        assert manifest.p_noise_free == 0.1
        assert len(manifest.entries) == 2
        first, second = manifest.entries
        assert first.rir == "rir.wav" and first.snr == 10.0
        assert first.seed == 7 and first.id == "first"
        assert first.strategy is Strategy.ATTENUATED_DECAYED
        assert (second.rir_rt60, second.rir_n_early, second.rir_length) == (0.6, 4, None)
        assert second.snr is None and second.rd == 0.15

    def test_round_trip_through_text(self):
        manifest = parse_manifest(MANIFEST_TEXT)
        again = parse_manifest(format_manifest(manifest))
        assert again == manifest

    @pytest.mark.parametrize("text", [
        "[entry]\nrir=rir.wav\n",  # no speech
        "[entry]\nspeech=s.wav\n",  # no room
        "[entry]\nspeech=s.wav\nrir=r.wav\nrir_rt60=0.5\n",  # two rooms
        "[stuff]\nx=1\n",
        "[entry]\nspeech=s.wav\nrir=r.wav\nseed=-1\n",
        "seed=1\n[entry]\nspeech=s.wav\nrir_rt60=0.5\n",
        "[entry]\nspeech=s.wav\nrir_rt60=0.5\njust words\n",
        "[global]\nseed=abc\n",
        "[global]\nsnr_min=low\n",
        "[entry]\nspeech=s.wav\nrir_rt60=9.0\n",
        "[entry]\nspeech=s.wav\nrir_rt60=0.01\n",
        "[entry]\nspeech=s.wav\nrir_rt60=0.5\nrir_length=0.1\n",
        "[entry]\nspeech=s.wav\nrir_rt60=0.5\nrir_n_early=-3\n",
        "[entry]\nspeech=s.wav\nrir_rt60=0.5\nrir_length=nan\n",
        "[entry]\nspeech=s.wav\nrir_rt60=0.5\nrir_length=inf\n",
        "[entry]\nspeech=s.wav\nrir_rt60=0.5\nrd=nan\n",
        "[global]\nsnr_min=-inf\n",
        "[global]\nsnr_max=inf\n",
        "[entry]\nspeech=s.wav\nrir_rt60=0.5\nrir_length=1e7\n",
        "[entry]\nspeech=s.wav\nrir_rt60=0.5\nrir_n_early=1000000000\n",
    ])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ManifestError):
            parse_manifest(text)

    def test_snr_outside_range_rejected(self):
        with pytest.raises(ManifestError):
            parse_manifest("[entry]\nspeech=s.wav\nrir_rt60=0.5\nsnr=99\n")

    def test_bad_strategy_rejected(self):
        with pytest.raises(ManifestError):
            parse_manifest("[entry]\nspeech=s.wav\nrir_rt60=0.5\nstrategy=magic\n")

    def test_readme_example_parses(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Manifest format", 1)[1].split("```")[1]
        manifest = parse_manifest(example)
        assert manifest.seed == 42
        assert manifest.entries[0].rir == "rooms/hall.wav"

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```")[1]
        lines = [shlex.split(line, comments=True) for line in block.splitlines() if line]
        assert len(lines) == 7 and all(argv[0] == "rirshape" for argv in lines)
        for argv in lines:
            cli.build_parser().parse_args(argv[1:])  # a refused line exits

    def test_readme_library_block_runs(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
        write_wav(speech_like(1.0, seed=1), tmp_path / "speech.wav")
        write_wav(noise_like(1.0, seed=2), tmp_path / "noise.wav")
        monkeypatch.chdir(tmp_path)
        exec(block.split("```", 1)[0], {})

    def test_section_names_ignore_case(self):
        manifest = parse_manifest("[GLOBAL]\nseed=3\n[Entry]\nspeech=s.wav\nrir=r.wav\n")
        assert manifest.seed == 3 and len(manifest.entries) == 1

    @pytest.mark.parametrize("text, where, key", [
        ("[entry]\nspeech=s.wav\nrir=r.wav\nstratgy=none\n", "entry 0", "stratgy"),
        ("[entry]\nspeech=s.wav\nrir=r.wav\n[entry]\nspeech=s.wav\nrir=r.wav\n"
         "alpah=0.1\n", "entry 1", "alpah"),
        ("[global]\nsnr_mn=10\n", "global", "snr_mn"),
        ("[entry]\nspeech=s.wav\nrir=r.wav\nrir_n_early=3\n", "entry 0", "rir_n_early"),
        ("[entry]\nspeech=s.wav\nrir=r.wav\nrir_length=0.5\n", "entry 0", "rir_length"),
    ])
    def test_unknown_or_unused_key_rejected(self, text, where, key):
        with pytest.raises(ManifestError, match=f"{where}.*'{key}'"):
            parse_manifest(text)

    @pytest.mark.parametrize("text, key", [
        ("[entry]\nspeech=s.wav\nrir=r.wav\nsnr=5\nsnr=40\n", "snr"),
        ("[global]\nseed=1\nsnr_min=0\nseed=2\n", "seed"),
    ])
    def test_key_repeated_in_a_block_rejected(self, text, key):
        with pytest.raises(ManifestError, match=f"'{key}' repeated"):
            parse_manifest(text)

    @pytest.mark.parametrize("second", ["[global]", "[GLOBAL]"])
    def test_second_global_block_rejected(self, second):
        text = f"[global]\nseed=1\n[entry]\nspeech=s.wav\nrir=r.wav\n{second}\nseed=2\n"
        with pytest.raises(ManifestError, match=r"\[global\] given twice"):
            parse_manifest(text)

    def test_non_utf8_manifest_names_its_path(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"[entry]\nspeech=\xff.wav\nrir=r.wav\n")
        with pytest.raises(ManifestError, match="m.txt"):
            load_manifest(path)

    def test_invalid_p_noise_free_rejected(self):
        with pytest.raises(ManifestError):
            DatasetManifest([], p_noise_free=1.5)


def text_floats(lo, hi):
    """Floats in [lo, hi] that survive the 9 significant digits of the text form."""
    return st.floats(lo, hi).map(lambda x: float(format(x, ".9g")))


PATHS = st.text("ab/._ -#=[]", min_size=1, max_size=6).filter(lambda s: s == s.strip())


@st.composite
def manifests(draw):
    """Valid manifests: both room kinds, every optional key set or unset."""
    def maybe(values):
        return draw(st.none() | values)

    snr_min, snr_max = draw(text_floats(-20.0, 0.0)), draw(text_floats(1.0, 60.0))
    entries = []
    for i in range(draw(st.integers(0, 3))):
        rt60 = maybe(text_floats(0.05, 3.0))
        entries.append(ManifestEntry(
            speech=draw(PATHS), noise=maybe(PATHS),
            rir=draw(PATHS) if rt60 is None else None, rir_rt60=rt60,
            rir_n_early=None if rt60 is None else maybe(st.integers(0, 20)),
            rir_length=None if rt60 is None else maybe(text_floats(rt60, 6.0)),
            snr=maybe(text_floats(snr_min, snr_max)), strategy=draw(st.sampled_from(Strategy)),
            t0=maybe(text_floats(0.0, 0.019)), t1=maybe(text_floats(0.03, 0.2)),
            alpha=maybe(text_floats(0.0, 1.0)), rd=maybe(text_floats(0.01, 2.0)),
            seed=maybe(st.integers(0, 2 ** 63 - 1)),
            id=maybe(SAFE_IDS.map(lambda s: f"{s}{i}"))))  # the index keeps ids distinct
    return DatasetManifest(entries, seed=draw(st.integers(0, 2 ** 63 - 1)),
                           snr_min=snr_min, snr_max=snr_max,
                           p_noise_free=draw(text_floats(0.0, 1.0)))


class TestManifestSchema:
    def test_keys_are_the_fields(self):
        assert list(ENTRY_KEYS) == [f.name for f in fields(ManifestEntry)]
        assert list(GLOBAL_KEYS) == [f.name for f in fields(DatasetManifest)
                                     if f.name != "entries"]

    def test_unknown_attribute_cannot_be_set(self):
        entry = ManifestEntry(speech="s.wav", rir="r.wav")
        with pytest.raises(AttributeError):
            entry.room = "other.wav"
        with pytest.raises(AttributeError):
            DatasetManifest().snr_range = (0.0, 1.0)

    @given(manifests())
    @settings(max_examples=60, deadline=None)
    def test_text_round_trip(self, manifest):
        assert parse_manifest(format_manifest(manifest)) == manifest

    def test_unset_n_early_is_not_written(self):
        manifest = DatasetManifest([ManifestEntry(speech="s.wav", rir_rt60=0.5)])
        assert "rir_n_early" not in format_manifest(manifest)

    def test_strategy_given_as_its_name_is_written(self):
        manifest = DatasetManifest([ManifestEntry(speech="s.wav", rir_rt60=0.5,
                                                  strategy="none")])
        assert "strategy=none" in format_manifest(manifest).splitlines()


UNSAFE_IDS = ["", ".", "..", "../escaped", "a/b", "a\\b", "a=b", "a\nb", "a\rb",
              "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b", "a\u2029b",
              "a\tb", "a\x00b", "a\x7fb", "trailing\n", "trailing ", " leading",
              "a\u3000"]


class TestEntryIds:
    @pytest.mark.parametrize("entry_id", UNSAFE_IDS)
    def test_unsafe_id_rejected(self, entry_id):
        entry = ManifestEntry(speech="s.wav", rir="r.wav", id=entry_id)
        with pytest.raises(ManifestError, match="id"):
            entry.validate()

    @pytest.mark.parametrize("entry_id", ["ex00001", "room-a_take.2", "..a", "a b",
                                          "h\u00e4ll"])
    def test_safe_id_accepted(self, entry_id):
        ManifestEntry(speech="s.wav", rir="r.wav", id=entry_id).validate()

    @pytest.mark.parametrize("line", ["id=../escaped", "id=a=b", "id=a/b", "id=.."])
    def test_unsafe_id_rejected_at_parse(self, line):
        with pytest.raises(ManifestError, match="entry 0"):
            parse_manifest(f"[entry]\nspeech=s.wav\nrir=r.wav\n{line}\n")

    def test_duplicate_ids_rejected_at_parse(self):
        entry = "[entry]\nspeech=s.wav\nrir=r.wav\n"
        with pytest.raises(ManifestError, match="'dup'"):
            parse_manifest(f"{entry}id=dup\n{entry}id=dup\n")
        with pytest.raises(ManifestError, match="'ex00001'"):
            parse_manifest(f"{entry}id=ex00001\n{entry}")


@pytest.fixture
def corpus(tmp_path):
    write_wav(speech_like(0.3, seed=1), tmp_path / "sp.wav")
    write_wav(noise_like(0.2, seed=2), tmp_path / "no.wav")
    write_rir(synth_rir(0.4, seed=3), tmp_path / "rir.wav")
    return tmp_path


def small_manifest(corpus, n_entries=3):
    entries = []
    for i in range(n_entries):
        entries.append(ManifestEntry(
            speech=str(corpus / "sp.wav"),
            noise=str(corpus / "no.wav"),
            rir=str(corpus / "rir.wav") if i % 2 == 0 else None,
            rir_rt60=None if i % 2 == 0 else 0.3 + 0.1 * i,
            strategy=list(Strategy)[i % 4]))
    return DatasetManifest(entries, seed=99)


class TestBuildDataset:
    def test_empty_manifest(self, tmp_path):
        summary = build_dataset(DatasetManifest([], seed=1), tmp_path / "out")
        assert summary.n_ok == 0 and summary.n_failed == 0
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_outputs_per_entry(self, corpus):
        summary = build_dataset(small_manifest(corpus), corpus / "out")
        assert summary.n_ok == 3 and summary.n_failed == 0
        for i in range(3):
            for suffix in ("input.wav", "target.wav", "gains.csv", "meta.txt"):
                assert (corpus / "out" / f"ex{i:05d}.{suffix}").exists()

    def test_broken_entry_isolated(self, corpus):
        manifest = small_manifest(corpus)
        manifest.entries[1].speech = str(corpus / "missing.wav")
        summary = build_dataset(manifest, corpus / "out")
        assert summary.n_ok == 2 and summary.n_failed == 1
        failure = summary.failures()[0]
        assert failure.entry_id == "ex00001"
        assert "missing.wav" in failure.reason

    @pytest.mark.skipif(not GLIBC or not Path("/proc/self/status").exists()
                        or multiprocessing.get_start_method() != "fork",
                        reason="needs glibc, /proc/self/status and pools that fork")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_build_trims_before_each_fork(self, corpus, workers):
        # right before each fork, 24 MiB freed into the parent's heap stay
        # resident; the trim that rirshape.dsp runs at every fork hands them
        # back, and a workers=1 build, which forks nothing, keeps them
        (corpus / "m.txt").write_text(format_manifest(small_manifest(corpus)), encoding="utf-8")
        out = run_fresh(RESIDENT + f"""
import os
import numpy as np
from rirshape.pipeline import build_dataset, load_manifest
fork, drops = os.fork, []
def measured_fork():
    np.ones(3 << 20)
    before = resident()
    pid = fork()
    if pid:
        drops.append(before - resident())
    return pid
os.fork = measured_fork
np.ones(3 << 20)
start = resident()
summary = build_dataset(load_manifest({str(corpus / "m.txt")!r}), {str(corpus / "out")!r},
                        workers={workers})
print(summary.n_ok, start - resident(), *drops)
""")
        n_ok, kept_drop, *fork_drops = map(int, out.split())
        assert n_ok == 3
        if workers == 1:
            assert not fork_drops and kept_drop < 8 << 20, f"{kept_drop >> 20} MiB handed back"
        else:
            assert len(fork_drops) == 2 and all(d > 16 << 20 for d in fork_drops), (
                f"resident drop across each fork: {[d >> 20 for d in fork_drops]} MiB")

    def test_snr_beyond_any_float_gain_fails_its_entry_alone(self, corpus):
        manifest = small_manifest(corpus)
        manifest.snr_min, manifest.snr_max = -5000.0, 5000.0
        for entry, snr in zip(manifest.entries, (4000.0, -4000.0, 10.0)):
            entry.snr = snr
        summary = build_dataset(manifest, corpus / "out")
        assert [r.ok for r in summary.results] == [False, False, True]
        assert all(f.reason.startswith("ParameterError: snr_db") for f in summary.failures())

    def test_input_beyond_float32_fails_its_entry_alone(self, corpus):
        manifest = small_manifest(corpus)
        manifest.snr_min = -5000.0
        for entry, snr in zip(manifest.entries, (-2000.0, 10.0, 20.0)):
            entry.snr = snr
        summary = build_dataset(manifest, corpus / "out")
        assert [r.ok for r in summary.results] == [False, True, True]
        assert summary.failures()[0].reason.startswith("ParameterError: ")
        assert "float32" in summary.failures()[0].reason
        assert not list((corpus / "out").glob("ex00000.*"))

    def test_no_more_workers_than_entries(self, corpus, monkeypatch):
        started = []
        start = multiprocessing.process.BaseProcess.start
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda process: started.append(process) or start(process))
        summary = build_dataset(small_manifest(corpus, n_entries=2), corpus / "out", workers=8)
        assert summary.n_ok == 2 and len(started) == 2

    def test_summary_histogram(self, corpus):
        summary = build_dataset(small_manifest(corpus), corpus / "out")
        histogram = summary.rt60_histogram()
        assert sum(histogram.values()) == 3
        assert "rt60_hist" in summary.to_kv()
        assert summary.to_csv().count("\n") == 4  # header + 3 rows

    def test_rt60_on_a_bucket_edge_counts_in_the_bucket_it_starts(self):
        summary = DatasetSummary([EntryResult(f"e{i}", True, record={"rt60_input_estimate": rt60})
                                  for i, rt60 in enumerate((0.6, 1.2, 1.4))])
        assert summary.rt60_histogram() == {"0.6-0.8": 1, "1.2-1.4": 1, "1.4-1.6": 1}

    def test_summary_csv_keeps_commas_in_reasons(self, corpus):
        manifest = small_manifest(corpus)
        manifest.entries[1].speech = str(corpus / "no, such.wav")  # fails at build
        summary = build_dataset(manifest, corpus / "out")
        reason = summary.failures()[0].reason
        assert reason.startswith("FileNotFoundError: ") and "no, such.wav" in reason
        with open(corpus / "out" / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert {len(row) for row in rows} == {7}
        assert rows[2][2] == reason

    def test_meta_and_summary_schemas(self, corpus):
        manifest = small_manifest(corpus)
        manifest.entries[1].speech = str(corpus / "missing.wav")
        manifest.entries[2].noise = None  # noise-free: snr_db=none
        build_dataset(manifest, corpus / "out")
        with open(corpus / "out" / "summary.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["entry_id", "ok", "reason", "snr_db", "noise_free",
                          "rt60_estimate", "strategy"]
        ok_rows, failed_row = (rows[0], rows[2]), rows[1]
        for row in ok_rows:
            meta = load_kv(corpus / "out" / f"{row[0]}.meta.txt")
            assert list(meta) == [
                "entry_id", "speech", "noise", "rir", "seed", "snr_db", "noise_free",
                "noise_gain", "strategy", "t0", "t1", "alpha", "rd", "rt60_input_estimate",
                "rt60_target_predicted", "n_frames", "sample_rate"]
            assert row[1:3] == ["true", ""]
            assert row[3:] == [meta[key] for key in ("snr_db", "noise_free",
                                                     "rt60_input_estimate", "strategy")]
        assert failed_row[:2] == ["ex00001", "false"]
        assert failed_row[3:] == ["none", "none", "none", manifest.entries[1].strategy.value]
        assert rows[2][3:5] == ["none", "true"]  # the noise-free entry

    def test_summary_txt_keeps_one_line_per_key(self, corpus):
        odd = corpus / "a\nb.wav"
        odd.write_bytes(b"not a wave file")
        manifest = small_manifest(corpus)
        manifest.entries[1].speech = str(odd)
        summary = build_dataset(manifest, corpus / "out")
        record = parse_kv((corpus / "out" / "summary.txt").read_text(encoding="utf-8"))
        assert set(record) == {"entries", "ok", "failed", "failure_ex00001"} | {
            key for key in record if key.startswith("rt60_hist_")}
        assert record["failed"] == "1"
        reason = summary.failures()[0].reason
        assert record["failure_ex00001"] == reason.replace("\n", "\\n")

    def test_strategy_given_as_its_name_fails_only_its_entry(self, corpus):
        entry = ManifestEntry(speech=str(corpus / "missing.wav"), rir_rt60=0.3,
                              strategy="none")
        summary = build_dataset(DatasetManifest([entry]), corpus / "out")
        assert summary.n_failed == 1
        assert summary.failures()[0].reason.startswith("FileNotFoundError: ")
        assert summary.failures()[0].record == {"strategy": "none"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bug_propagates(self, corpus, monkeypatch, workers):
        def broken(*args):
            raise TypeError("a bug")

        monkeypatch.setattr(pipeline, "generate_example", broken)
        with pytest.raises(TypeError, match="a bug"):
            build_dataset(small_manifest(corpus), corpus / "out", workers=workers)
        assert not (corpus / "out" / "summary.txt").exists()

    # a worker count, or (entry index, key, value) settings on small_manifest,
    # index None for the manifest itself; the error build_dataset raises; its match
    @pytest.mark.parametrize("change, error, match", [
        (0, ParameterError, "workers must be at least 1"),
        (-2, ParameterError, "workers must be at least 1"),
        ([(1, "rir_rt60", 9.0)], ManifestError, "entry 1"),
        ([(0, "rir_n_early", 3)], ManifestError, "entry 0.*'rir_n_early'"),  # entry 0 has rir=
        ([(0, "rir_length", 0.5)], ManifestError, "entry 0.*'rir_length'"),
        ([(2, "strategy", "magic")], ManifestError, "entry 2.*'magic'"),
        ([(None, "snr_min", 50.0)], ManifestError, "snr_min"),
        ([(None, "p_noise_free", -0.1)], ManifestError, "p_noise_free"),
        ([(0, "id", "dup"), (1, "id", "dup")], ManifestError, "id"),
        ([(0, "id", "ex00001")], ManifestError, "id"),
        ([(2, "id", "ex00000")], ManifestError, "id"),
        ([(1, "seed", -1)], ManifestError, "entry 1.*seed"),
    ], ids=["workers=0", "workers=-2", "rir_rt60=9.0", "rir_n_early-beside-rir",
            "rir_length-beside-rir", "strategy=magic", "snr_min=50.0", "p_noise_free=-0.1",
            "id-twice", "id-of-entry-1", "id-of-entry-0", "seed=-1"])
    def test_rejected_before_any_write(self, corpus, change, error, match):
        manifest, workers = small_manifest(corpus), 1
        if isinstance(change, int):
            workers = change
        else:
            for index, key, value in change:
                setattr(manifest if index is None else manifest.entries[index], key, value)
        with pytest.raises(error, match=match):
            build_dataset(manifest, corpus / "out", workers=workers)
        assert not (corpus / "out").exists()

    @pytest.mark.parametrize("entry_id", UNSAFE_IDS)
    def test_unsafe_id_writes_nothing(self, corpus, entry_id):
        manifest = small_manifest(corpus)
        manifest.entries[0].id = entry_id
        with pytest.raises(ManifestError):
            build_dataset(manifest, corpus / "out")
        assert sorted(p.name for p in corpus.iterdir()) == ["no.wav", "rir.wav",
                                                              "rir.wav.meta.txt", "sp.wav"]

    def test_sampled_snr_comes_from_entry_stream(self, corpus):
        from rirshape.kvtext import load_kv
        manifest = small_manifest(corpus, n_entries=1)
        build_dataset(manifest, corpus / "out")
        meta = load_kv(corpus / "out" / "ex00000.meta.txt")
        draws = sample_entry_randomness(manifest.seed, 0,
                                        snr_range=manifest.snr_range,
                                        p_noise_free=manifest.p_noise_free)
        if meta["noise_free"] == "true":
            assert draws.noise_free
            assert meta["snr_db"] == "none"
        else:
            assert float(meta["snr_db"]) == pytest.approx(draws.snr_db, rel=1e-8)
        assert int(meta["seed"]) == draws.rir_seed


# ids: safe ones (commas, quotes, brackets, inner spaces) that often collide,
# and unsafe ones; paths: the characters a summary must carry through intact
SAFE_IDS = st.text(",\"' ;#[]ab.-_", min_size=1, max_size=4).filter(
    lambda s: s == s.strip() and s not in (".", ".."))
UNSAFE_ID_TEXT = st.one_of(st.sampled_from(UNSAFE_IDS), st.builds(
    lambda head, bad, tail: head + bad + tail, st.text("ab", max_size=2),
    st.sampled_from("/\\=\n\r\x00\x1f\x7f\x85\u2028\u2029"), st.text("ab", max_size=2)))
PATH_TEXT = st.text(",\"'\n\r ;#=ab\\\x85", min_size=1, max_size=6)
ENTRIES = st.lists(st.tuples(
    st.one_of(st.none(), SAFE_IDS.map(lambda i: (i, True)),
              UNSAFE_ID_TEXT.map(lambda i: (i, False))),
    st.sampled_from(["missing", "garbage", "good"]), PATH_TEXT), min_size=1, max_size=4)


class TestSummaryProperties:
    @given(ENTRIES)
    @example([(None, "garbage", "a,\"\r'\n")])  # a bare "\r" once broke summary.csv
    @example([(("ok", True), "missing", ","), (("trailing ", False), "good", "a")])
    @settings(max_examples=40, deadline=None)
    def test_summary_of_any_direct_manifest(self, specs):
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out = Path(tmp) / "in", Path(tmp) / "out"
            inputs.mkdir()
            write_wav(speech_like(0.1, seed=1), inputs / "sp.wav")
            entries, expected = [], {}
            for i, (id_spec, kind, text) in enumerate(specs):
                speech = inputs / f"{kind}{text}.wav"
                if kind == "garbage":
                    speech.write_bytes(b"not a wave file")
                elif kind == "good":
                    speech = inputs / "sp.wav"
                entry = ManifestEntry(speech=str(speech), rir_rt60=0.2,
                                      id=id_spec and id_spec[0])
                entries.append(entry)
                expected[entry.resolved_id(i)] = (kind, str(speech))
            made = sorted(inputs.rglob("*"))
            manifest = DatasetManifest(entries, seed=3)

            if len(expected) < len(specs) or any(s and not s[1] for s, _, _ in specs):
                with pytest.raises(ManifestError):
                    build_dataset(manifest, out)
                assert not out.exists()
                return
            summary = build_dataset(manifest, out)

            assert sorted(inputs.rglob("*")) == made  # nothing lands outside out_dir
            written = {p.name for p in out.rglob("*")}
            assert written == {"summary.txt", "summary.csv"} | {
                f"{entry_id}.{suffix}" for entry_id, (kind, _) in expected.items()
                if kind == "good" for suffix in ("input.wav", "target.wav", "gains.csv",
                                                 "meta.txt")}

            reasons = {r.entry_id: r.reason for r in summary.results if not r.ok}
            assert reasons.keys() == {i for i, (kind, _) in expected.items() if kind != "good"}
            for entry_id, reason in reasons.items():
                kind, speech = expected[entry_id]
                # the OS error quotes the path as repr(); the WAV reader names it verbatim
                assert (repr(speech) if kind == "missing" else speech) in reason

            with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert {len(row) for row in rows} == {7}
            assert [row[0] for row in rows[1:]] == list(expected)
            assert {row[0]: row[2] for row in rows[1:] if row[1] == "false"} == reasons

            text = (out / "summary.txt").read_text(encoding="utf-8")
            record = parse_kv(text)
            assert len(text.splitlines()) == len(record)
            for entry_id, reason in reasons.items():
                assert f"failure_{entry_id}={record[f'failure_{entry_id}']}\n" == dump_kv(
                    {f"failure_{entry_id}": reason})
