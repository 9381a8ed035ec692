import numpy as np
import pytest

from rirshape import (ShapingParams, Signal, Strategy, read_rir, read_wav,
                      shape_rir, synth_rir, write_rir, write_wav)
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
        assert lines[0].startswith("strategy,")
        assert len(lines) == 3


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

    def test_config_value_outside_flag_choices_rejected(self, tmp_path, rir_file, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("strategy=magic\n")
        code, _, err = run(capsys, "shape", rir_file, "--config", config,
                           "--out", tmp_path / "x.wav")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "strategy" in err
