import struct

import numpy as np
import pytest

from rirshape import (ShapingParams, Signal, Strategy, read_rir, read_wav,
                      shape_rir, synth_rir, write_rir, write_wav)
from rirshape import cli, pipeline
from rirshape.bands import read_band_matrix_csv
from rirshape.cli import main
from rirshape.kvtext import load_kv, parse_kv
from conftest import noise_like, speech_like

FS = 48000


@pytest.fixture
def rir_file(tmp_path):
    path = tmp_path / "room.wav"
    write_rir(synth_rir(0.5, seed=21), path, metadata={"nominal_rt60": 0.5})
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestShapeCommand:
    def test_none_strategy_bit_identical(self, tmp_path, rir_file, capsys):
        out = tmp_path / "same.wav"
        code, _, _ = run(capsys, "shape", rir_file, "--strategy", "none", "--out", out)
        assert code == 0
        assert out.read_bytes() == rir_file.read_bytes()

    def test_attenuated_decayed_defaults(self, tmp_path, rir_file, capsys):
        out = tmp_path / "shaped.wav"
        code, _, _ = run(capsys, "shape", rir_file, "--strategy",
                         "attenuated-decayed", "--out", out)
        assert code == 0
        sidecar = load_kv(f"{out}.meta.txt")
        assert float(sidecar["alpha"]) == 0.4
        assert float(sidecar["rd"]) == 0.2
        expected = shape_rir(read_rir(rir_file),
                             ShapingParams(Strategy.ATTENUATED_DECAYED))
        assert np.allclose(read_rir(out).taps, expected.taps, atol=1e-7)

    def test_bad_alpha_rejected(self, tmp_path, rir_file, capsys):
        code, _, err = run(capsys, "shape", rir_file, "--strategy", "full",
                           "--alpha", "1.2", "--out", tmp_path / "x.wav")
        assert code != 0
        assert err.startswith("error:")

    def test_missing_input_reports_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "shape", tmp_path / "nope.wav",
                           "--strategy", "none", "--out", tmp_path / "x.wav")
        assert code != 0 and "error:" in err


class TestSynthAndAnalyze:
    def test_synth_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        run(capsys, "synth-rir", "--rt60", "0.4", "--seed", "5", "--out", a)
        run(capsys, "synth-rir", "--rt60", "0.4", "--seed", "5", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_analyze_reports_rt60(self, rir_file, capsys):
        code, out, _ = run(capsys, "analyze-rir", rir_file)
        assert code == 0
        record = parse_kv(out)
        assert 0.45 <= float(record["rt60_estimate"]) <= 0.55
        assert "drr_db" in record

    def test_analyze_edc_csv(self, tmp_path, rir_file, capsys):
        edc = tmp_path / "edc.csv"
        code, _, _ = run(capsys, "analyze-rir", rir_file, "--edc-csv", edc)
        assert code == 0
        lines = edc.read_text().splitlines()
        assert lines[0] == "t_s,level_db"
        assert float(lines[1].split(",")[1]) == 0.0

    def test_analyze_dirac_reports_undefined(self, tmp_path, capsys):
        from rirshape import dirac_rir
        path = tmp_path / "d.wav"
        write_rir(dirac_rir(FS), path)
        code, out, _ = run(capsys, "analyze-rir", path)
        assert code == 0
        assert parse_kv(out)["rt60_estimate"] == "undefined"


class TestVerifyCommand:
    def test_decayed_report(self, rir_file, capsys):
        code, out, _ = run(capsys, "verify", rir_file, "--strategy", "decayed")
        assert code == 0
        record = parse_kv(out)
        assert float(record["relative_deviation"]) < 0.15
        assert float(record["r1_predicted"]) == pytest.approx(
            1.0 / (1.0 / float(record["r0_estimate"]) + 5.0), rel=1e-6)

    def test_csv_appended(self, tmp_path, rir_file, capsys):
        csv = tmp_path / "reports.csv"
        run(capsys, "verify", rir_file, "--strategy", "decayed", "--csv", csv)
        run(capsys, "verify", rir_file, "--strategy", "none", "--csv", csv)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == ("strategy,r0_estimate,r1_estimate,r1_predicted,"
                            "relative_deviation,drr_before_db,drr_after_db,drr_boundary")
        assert len(lines) == 3


    def test_csv_header_written_into_an_empty_file(self, tmp_path, rir_file, capsys):
        csv = tmp_path / "reports.csv"
        csv.touch()
        run(capsys, "verify", rir_file, "--strategy", "decayed", "--csv", csv)
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("strategy,r0_estimate,") and len(lines) == 2


class TestGainsCommand:
    def test_gains_csv(self, tmp_path, capsys):
        noisy = tmp_path / "noisy.wav"
        target = tmp_path / "target.wav"
        clean = speech_like(0.3, seed=1)
        write_wav(clean, target)
        write_wav(Signal(clean.samples + 0.05 * noise_like(0.3, seed=2).samples, FS),
                  noisy)
        out = tmp_path / "g.csv"
        code, _, _ = run(capsys, "gains", "--input", noisy, "--target", target,
                         "--out", out)
        assert code == 0
        matrix, centers = read_band_matrix_csv(out)
        assert matrix.n_bands == 32
        assert np.all((matrix.values >= 0) & (matrix.values <= 1))
        assert centers[-1] == pytest.approx(24000.0)

    def test_apply_output(self, tmp_path, capsys):
        noisy = tmp_path / "noisy.wav"
        target = tmp_path / "target.wav"
        write_wav(speech_like(0.25, seed=3), target)
        write_wav(speech_like(0.25, seed=3), noisy)  # identical: gains all one
        filtered = tmp_path / "filtered.wav"
        code, _, _ = run(capsys, "gains", "--input", noisy, "--target", target,
                         "--out", tmp_path / "g.csv", "--apply-out", filtered)
        assert code == 0
        original = read_wav(noisy)
        rebuilt = read_wav(filtered)
        n = min(len(original), len(rebuilt))
        interior = slice(960, n - 960)
        assert np.allclose(rebuilt.samples[:n][interior],
                           original.samples[:n][interior], atol=1e-5)

    def test_rectangular_apply_output(self, tmp_path, capsys):
        from rirshape import (analyze, apply_gains, band_energies, design_erb_filterbank,
                              ideal_gains, synthesize)
        noisy, target = tmp_path / "noisy.wav", tmp_path / "target.wav"
        clean = speech_like(0.3, seed=5)
        write_wav(clean, target)
        write_wav(Signal(clean.samples + 0.1 * noise_like(0.3, seed=6).samples, FS), noisy)
        for mode in ("triangular", "rectangular"):
            code, _, _ = run(capsys, "gains", "--input", noisy, "--target", target,
                             "--out", tmp_path / "g.csv", "--mode", mode,
                             "--apply-out", tmp_path / f"{mode}.wav")
            assert code == 0
        # reference: the library chain with the rectangularized filterbank
        fb = design_erb_filterbank(FS)
        noisy_spectra = analyze([read_wav(noisy)])[0]
        gains = ideal_gains(band_energies(analyze([read_wav(target)])[0], fb),
                            band_energies(noisy_spectra, fb))
        write_wav(synthesize(apply_gains(noisy_spectra, gains, fb.rectangularized())),
                  tmp_path / "reference.wav")
        written = (tmp_path / "rectangular.wav").read_bytes()
        assert written == (tmp_path / "reference.wav").read_bytes()
        assert written != (tmp_path / "triangular.wav").read_bytes()

    def test_binary_output(self, tmp_path, capsys):
        from rirshape.bands import read_band_matrix_raw
        wav = tmp_path / "s.wav"
        write_wav(speech_like(0.2, seed=4), wav)
        out = tmp_path / "g.f32"
        code, _, _ = run(capsys, "gains", "--input", wav, "--target", wav,
                         "--out", out, "--binary")
        assert code == 0
        matrix, meta = read_band_matrix_raw(out)
        assert matrix.n_bands == 32
        assert np.all(matrix.values == 1.0)  # identical input/target
        assert meta["frame_advance_ms"] == "10"

    def test_length_mismatch_rejected(self, tmp_path, capsys):
        write_wav(speech_like(0.2), tmp_path / "a.wav")
        write_wav(speech_like(0.3), tmp_path / "b.wav")
        code, _, err = run(capsys, "gains", "--input", tmp_path / "a.wav",
                           "--target", tmp_path / "b.wav", "--out", tmp_path / "g.csv")
        assert code != 0 and "error:" in err


class TestPlotDataCommand:
    def test_decay_curve_hits_minus_sixty_db(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, "plot-data", "D", "--out", out)
        assert code == 0
        rows = {line.split(",")[0]: float(line.split(",")[1])
                for line in out.read_text().splitlines()[1:]}
        assert rows["0.22"] == pytest.approx(1e-3, rel=1e-9)  # t0 + rd
        assert rows["0"] == 1.0

    def test_attenuation_curve_settles_at_alpha(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code, _, _ = run(capsys, "plot-data", "A", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_s,A"
        tail = [float(line.split(",")[1]) for line in lines[-5:]]
        assert tail == [0.4] * 5

    def test_shaped_tail_ordering(self, tmp_path, capsys):
        out = tmp_path / "tails.csv"
        code, _, _ = run(capsys, "plot-data", "shaped-tail", "--rt60", "1.0",
                         "--out", out)
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        none_col, decayed, attenuated = data[:, 1], data[:, 2], data[:, 3]
        assert np.all(attenuated <= decayed + 1e-15)
        assert np.all(decayed <= none_col + 1e-15)
        for col in (none_col, decayed, attenuated):
            assert np.all(np.diff(col) <= 1e-15)

    def test_row_limit_is_inclusive(self, tmp_path, monkeypatch, capsys):
        assert cli.MAX_PLOT_ROWS >= 10 ** 6
        monkeypatch.setattr(cli, "MAX_PLOT_ROWS", 11)
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, "plot-data", "D", "--duration", "0.010", "--out", out)
        assert code == 0 and len(out.read_text().splitlines()) == 1 + 11
        code, _, err = run(capsys, "plot-data", "D", "--duration", "0.011", "--out", out)
        assert code == 1 and "12 rows" in err


class TestMakeDatasetCommand:
    def write_corpus(self, tmp_path):
        write_wav(speech_like(0.3, seed=1), tmp_path / "sp.wav")
        write_wav(noise_like(0.2, seed=2), tmp_path / "no.wav")
        return (
            "[global]\nseed=7\n\n"
            f"[entry]\nspeech={tmp_path / 'sp.wav'}\nnoise={tmp_path / 'no.wav'}\n"
            "rir_rt60=0.4\nsnr=12\nstrategy=decayed\n"
        )

    def test_successful_build(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text(self.write_corpus(tmp_path))
        out_dir = tmp_path / "data"
        code, out, err = run(capsys, "make-dataset", manifest, "--out-dir", out_dir)
        assert code == 0 and err == ""
        assert "ok=1" in out
        assert (out_dir / "ex00000.input.wav").exists()

    def test_failed_entry_sets_exit_code(self, tmp_path, capsys):
        text = self.write_corpus(tmp_path) + (
            f"\n[entry]\nspeech={tmp_path / 'absent.wav'}\nrir_rt60=0.3\n"
            "strategy=none\n")
        manifest = tmp_path / "m.txt"
        manifest.write_text(text)
        code, out, err = run(capsys, "make-dataset", manifest,
                             "--out-dir", tmp_path / "data")
        assert code == 1
        assert "failed=1" in out
        assert "error: entry ex00001" in err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_worker_count_below_one_is_one_error_line(self, tmp_path, capsys, workers):
        manifest = tmp_path / "m.txt"
        manifest.write_text(self.write_corpus(tmp_path))
        out_dir = tmp_path / "data"
        code, out, err = run(capsys, "make-dataset", manifest, "--out-dir", out_dir,
                             "--workers", workers)
        assert code == 1 and out == ""
        assert err == f"error: workers must be at least 1, got {workers}\n"
        assert not out_dir.exists()

    def test_bug_is_raised_not_summarized(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise TypeError("a bug")

        monkeypatch.setattr(pipeline, "generate_example", broken)
        manifest = tmp_path / "m.txt"
        manifest.write_text(self.write_corpus(tmp_path))
        with pytest.raises(TypeError, match="a bug"):
            main(["make-dataset", str(manifest), "--out-dir", str(tmp_path / "data")])
        assert not (tmp_path / "data" / "summary.txt").exists()


class TestConfigAndEnv:
    def test_env_var_default_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RIRSHAPE_OUT_DIR", str(tmp_path))
        code, out, _ = run(capsys, "synth-rir", "--rt60", "0.3", "--seed", "1")
        assert code == 0
        assert (tmp_path / "rir_rt60_0.3_seed1.wav").exists()

    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("rt60=0.3\nout=%s\n" % (tmp_path / "from_config.wav"))
        code, _, _ = run(capsys, "synth-rir", "--config", config, "--seed", "2")
        assert code == 0
        assert (tmp_path / "from_config.wav").exists()

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("rt60=0.3\n")
        explicit = tmp_path / "explicit.wav"
        code, _, _ = run(capsys, "synth-rir", "--config", config,
                         "--rt60", "0.6", "--seed", "2", "--out", explicit)
        assert code == 0
        meta = load_kv(f"{explicit}.meta.txt")
        assert float(meta["nominal_rt60"]) == 0.6

    @pytest.mark.parametrize("flags, n_early", [([], "3"), (["--n-early", "6"], "6"),
                                                 (["--n-early", "4"], "4")])
    def test_any_given_flag_beats_config(self, tmp_path, capsys, flags, n_early):
        # 6 is --n-early's default: giving it still overrides the config file
        config = tmp_path / "cfg.txt"
        config.write_text("n_early=3\n")
        out = tmp_path / "x.wav"
        code, _, _ = run(capsys, "synth-rir", "--rt60", "0.3", *flags,
                         "--config", config, "--out", out)
        assert code == 0
        assert load_kv(f"{out}.meta.txt")["n_early"] == n_early

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("frobnicate=1\n")
        code, _, err = run(capsys, "synth-rir", "--rt60", "0.3",
                           "--config", config, "--out", tmp_path / "x.wav")
        assert code != 0 and "error:" in err

    @pytest.mark.parametrize("line", ["garbage line", "rt60=abc", "n_early=1.5"])
    def test_malformed_config_prints_one_error_line(self, tmp_path, capsys, line):
        config = tmp_path / "cfg.txt"
        config.write_text(line + "\n")
        code, _, err = run(capsys, "synth-rir", "--config", config,
                           "--out", tmp_path / "x.wav")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("line", ["rt60=abc", "n_early=1.5"])
    def test_malformed_config_rejected_beside_explicit_flag(self, tmp_path, capsys, line):
        config = tmp_path / "cfg.txt"
        config.write_text(line + "\n")
        code, _, err = run(capsys, "synth-rir", "--rt60", "0.5", "--n-early", "3",
                           "--config", config, "--out", tmp_path / "x.wav")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.wav").exists()

    def test_config_value_outside_flag_choices_rejected(self, tmp_path, rir_file, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("strategy=magic\n")
        code, _, err = run(capsys, "shape", rir_file, "--config", config,
                           "--out", tmp_path / "x.wav")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "strategy" in err


class TestMalformedInputs:
    @pytest.mark.parametrize("argv, named", [
        (["synth-rir", "--rt60", "0.5", "--length", "nan"], "length"),
        (["synth-rir", "--rt60", "0.5", "--length", "inf"], "length"),
        (["synth-rir", "--rt60", "0.5", "--sample-rate", "0"], "sample_rate"),
        (["synth-rir", "--rt60", "0.5", "--sample-rate", "-5"], "sample_rate"),
        (["analyze-rir", "{rir}", "--boundary", "nan"], "boundary"),
        (["analyze-rir", "{rir}", "--boundary", "inf"], "boundary"),
        (["plot-data", "D", "--step", "0"], "--step"),
        (["plot-data", "D", "--step", "nan"], "--step"),
        (["plot-data", "A", "--duration", "nan"], "--duration"),
        (["plot-data", "shaped-tail", "--rt60", "0"], "--rt60"),
        (["shape", "{rir}", "--strategy", "decayed", "--rd", "nan"], "rd must"),
        (["verify", "{rir}", "--strategy", "decayed", "--rd", "nan"], "rd must"),
        (["make-dataset", "{manifest}"], "length"),
        # a curve span with no finite default, or more rows than plot-data writes
        (["plot-data", "D", "--rd", "inf"],
         "--rd inf gives the D curve no finite span: --duration is needed"),
        (["plot-data", "A", "--t1", "inf"],
         "--t1 inf gives the A curve no finite span: --duration is needed"),
        (["plot-data", "D", "--step", "1e-12", "--duration", "1e3"], "1e+15 rows"),
        (["plot-data", "D", "--rd", "1e300"], "2e+303 rows"),
        (["plot-data", "shaped-tail", "--duration", "1e9"], "1e+12 rows"),
        (["synth-rir", "--rt60", "0.5", "--length", "1e7"], "length"),
        (["synth-rir", "--rt60", "0.5", "--n-early", "1000000000"], "n_early"),
    ])
    def test_non_finite_or_nonpositive_flag_is_one_error_line(self, tmp_path, rir_file,
                                                               monkeypatch, capsys,
                                                               argv, named):
        manifest = tmp_path / "m.txt"
        manifest.write_text("[entry]\nspeech=s.wav\nrir_rt60=0.5\nrir_length=nan\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setenv("RIRSHAPE_OUT_DIR", str(out_dir))
        code, out, err = run(capsys, *(a.format(rir=rir_file, manifest=manifest)
                                       for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not any(out_dir.iterdir())

    def test_bad_direct_index_in_sidecar_is_one_error_line(self, rir_file, capsys):
        sidecar = f"{rir_file}.meta.txt"
        with open(sidecar, "a", encoding="utf-8") as fh:
            fh.write("direct_index=abc\n")
        code, out, err = run(capsys, "analyze-rir", rir_file)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sidecar in err

    def test_sidecar_sample_rate_unlike_the_wav_is_one_error_line(self, rir_file, capsys):
        sidecar = f"{rir_file}.meta.txt"
        with open(sidecar, "a", encoding="utf-8") as fh:
            fh.write("sample_rate=16000\n")
        code, out, err = run(capsys, "analyze-rir", rir_file)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sidecar in err and "sample_rate=16000" in err

    @pytest.mark.parametrize("value, binary", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False),
        ("NO", False), ("ture", None), ("on", None), ("2", None), ("", None)])
    def test_boolean_config_values(self, tmp_path, capsys, value, binary):
        wav = tmp_path / "a.wav"
        write_wav(speech_like(0.25, seed=3), wav)
        config = tmp_path / "cfg.txt"
        config.write_text(f"binary={value}\n")
        code, _, err = run(capsys, "gains", "--input", wav, "--target", wav,
                           "--config", config, "--out", tmp_path / "g")
        if binary is None:  # anything else is an error naming the key, not false
            assert code == 1 and not (tmp_path / "g").exists()
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "'binary'" in err
        else:
            assert code == 0
            assert (tmp_path / "g.meta.txt").exists() == binary

    def test_non_utf8_sidecar_is_one_error_line(self, rir_file, capsys):
        sidecar = f"{rir_file}.meta.txt"
        with open(sidecar, "ab") as fh:
            fh.write(b"direct_index=\xff\n")
        code, out, err = run(capsys, "analyze-rir", rir_file)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sidecar in err

    def test_non_utf8_config_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_bytes(b"rt60=\xff\n")
        code, _, err = run(capsys, "synth-rir", "--config", config,
                           "--out", tmp_path / "x.wav")
        assert code == 1 and not (tmp_path / "x.wav").exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(config) in err

    def test_non_utf8_manifest_is_one_error_line(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(b"[global]\nseed=1\n# \xff\n")
        code, out, err = run(capsys, "make-dataset", manifest, "--out-dir", tmp_path / "d")
        assert code == 1 and out == "" and not (tmp_path / "d").exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(manifest) in err

    @pytest.mark.parametrize("audio_format, bits", [(1, 16), (3, 32)])
    def test_partial_sample_in_data_chunk_is_one_error_line(self, tmp_path, capsys,
                                                            audio_format, bits):
        width = bits // 8
        fmt = struct.pack("<HHIIHH", audio_format, 1, FS, FS * width, width, bits)
        payload = bytes(960 * width + 1)
        body = b"fmt " + struct.pack("<I", 16) + fmt
        body += b"data" + struct.pack("<I", len(payload)) + payload + b"\x00"
        wav = tmp_path / f"odd{bits}.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        for argv in (("analyze-rir", wav),
                     ("gains", "--input", wav, "--target", wav, "--out", tmp_path / "g")):
            code, _, err = run(capsys, *argv)
            assert code == 1 and not (tmp_path / "g").exists()
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(wav) in err


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ("gains", "--input", "a.wav", "--target", "b.wav"),
        ("verify", "room.wav", "--strategy", "decayed"),
        ("analyze-rir", "room.wav"),
        ("shape", "room.wav", "--strategy", "none"),
        ("plot-data", "D"),
    ], ids=lambda argv: argv[0])
    def test_rejected_where_nothing_is_random(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("RIRSHAPE_OUT_DIR", str(tmp_path))  # a wrongly accepted run
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--seed", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_shape_sidecar_records_no_seed(self, tmp_path, rir_file, capsys):
        out = tmp_path / "shaped.wav"
        code, _, _ = run(capsys, "shape", rir_file, "--strategy", "decayed", "--out", out)
        assert code == 0
        assert "seed" not in load_kv(f"{out}.meta.txt")

    def test_make_dataset_seed_overrides_manifest(self, tmp_path, capsys):
        write_wav(speech_like(0.3, seed=1), tmp_path / "sp.wav")
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"[global]\nseed=7\n[entry]\nspeech={tmp_path / 'sp.wav'}\n"
                            "rir_rt60=0.4\nstrategy=none\n")
        seeds = []
        for seed in ("7", "8"):
            out_dir = tmp_path / f"d{seed}"
            code, _, _ = run(capsys, "make-dataset", manifest, "--out-dir", out_dir,
                             "--seed", seed)
            assert code == 0
            seeds.append(load_kv(out_dir / "ex00000.meta.txt")["seed"])
        assert seeds[0] != seeds[1]
