"""CLI subcommands, exit codes and output determinism."""
import json

import numpy as np
import pytest

from yingram import harmonic_tone, pitch_shifted_copy, sine_tone
from yingram.cli import main
from conftest import write_wav


@pytest.fixture
def tone_wav(tmp_path):
    path = tmp_path / "tone.wav"
    write_wav(path, sine_tone(440.0, 1.0))
    return path


def test_analyze_csv(tmp_path, tone_wav):
    out = tmp_path / "y.csv"
    assert main(["analyze", str(tone_wav), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["frame", "c0"]
    assert len(lines[0].split(",")) == 81
    assert len(lines) == 1 + 87
    sidecar = json.loads((tmp_path / "y.csv.json").read_text())
    assert sidecar["config"]["hop"] == 256
    assert sidecar["frames"] == 87


def test_analyze_hop_override(tmp_path, tone_wav):
    out = tmp_path / "y.csv"
    assert main(["analyze", str(tone_wav), "--out", str(out), "--hop", "512"]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 44
    sidecar = json.loads((tmp_path / "y.csv.json").read_text())
    assert sidecar["config"]["hop"] == 512


def test_analyze_binary(tmp_path, tone_wav):
    binary = tmp_path / "y.f32"
    assert main(["analyze", str(tone_wav), "--binary", str(binary)]) == 0
    raw = np.frombuffer(binary.read_bytes(), dtype="<f4")
    assert raw.size == 87 * 80
    sidecar = json.loads((tmp_path / "y.f32.json").read_text())
    assert sidecar["channels"] == 80
    assert "config" in sidecar


def test_analyze_unreadable_input(tmp_path, capsys):
    out = tmp_path / "y.csv"
    code = main(["analyze", str(tmp_path / "nope.wav"), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_f0_csv(tmp_path, tone_wav):
    out = tmp_path / "f0.csv"
    assert main(["f0", str(tone_wav), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "frame,time_sec,f0_hz,aperiodicity"
    voiced = [float(l.split(",")[2]) for l in lines[1:] if l.split(",")[2]]
    assert len(voiced) > 60
    np.testing.assert_allclose(voiced, 440.0, atol=1.0)


def test_f0_silence_empty_column(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav(path, sine_tone(440.0, 0.4, amplitude=0.0))
    out = tmp_path / "f0.csv"
    assert main(["f0", str(path), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.split(",")[2] == "" for row in rows)


def test_f0_fmin_excludes_low_tone(tmp_path):
    path = tmp_path / "low.wav"
    write_wav(path, sine_tone(220.0, 0.5))
    out = tmp_path / "f0.csv"
    assert main(["f0", str(path), "--out", str(out), "--fmin", "300"]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.split(",")[2] == "" for row in rows)


def test_f0_deterministic(tmp_path, tone_wav):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["f0", str(tone_wav), "--out", str(out1)]) == 0
    assert main(["f0", str(tone_wav), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_shift_identity(tmp_path, tone_wav, capsys):
    code = main(["compare-shift", str(tone_wav), str(tone_wav), "--scope-shift", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["l_yin_shift"] == 0.0
    assert payload["config"]["lambda_yin"] == 45.0


@pytest.fixture
def shifted_pair(tmp_path):
    normal = harmonic_tone(220.0, 0.8)
    shifted = pitch_shifted_copy(normal, -2.0)
    np_path = tmp_path / "normal.wav"
    sp_path = tmp_path / "shifted.wav"
    write_wav(np_path, normal)
    write_wav(sp_path, shifted)
    return np_path, sp_path


def test_compare_shift_correct_and_wrong(tmp_path, shifted_pair):
    np_path, sp_path = shifted_pair
    out = tmp_path / "report.json"
    code = main(
        ["compare-shift", str(np_path), str(sp_path), "--scope-shift", "4", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert abs(report["measured_semitone_offset"] + 2.0) < 0.1

    code = main(
        ["compare-shift", str(np_path), str(sp_path), "--scope-shift", "-4", "--out", str(out)]
    )
    assert code == 1
    assert json.loads(out.read_text())["pass"] is False


def test_compare_shift_no_verdict_exit(tmp_path, shifted_pair):
    np_path, sp_path = shifted_pair
    code = main(
        ["compare-shift", str(np_path), str(sp_path), "--scope-shift", "-4",
         "--no-verdict-exit", "--out", str(tmp_path / "r.json")]
    )
    assert code == 0


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error")
def test_compare_shift_without_unpadded_frames(tmp_path):
    short = tmp_path / "short.wav"
    write_wav(short, harmonic_tone(220.0, 0.1))  # below window + tau_max samples
    out = tmp_path / "report.json"
    code = main(["compare-shift", str(short), str(short), "--scope-shift", "0", "--out", str(out)])
    assert code == 1
    report = _strict_json(out.read_text())
    assert report["pass"] is False
    assert report["l_yin_shift"] is None
    assert "no unpadded frames" in report["reason"]


def test_gradcheck_defaults_pass(tmp_path):
    out = tmp_path / "grad.json"
    assert main(["gradcheck", "--frames", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True
    assert payload["max_rel_error"] < 1e-4
    assert len(payload["reports"]) == 3


def test_gradcheck_large_eps_fails(tmp_path):
    out = tmp_path / "grad.json"
    code = main(["gradcheck", "--frames", "3", "--eps", "0.1", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["all_pass"] is False


def test_gradcheck_zero_frames_vacuous(capsys):
    assert main(["gradcheck", "--frames", "0"]) == 0
    captured = capsys.readouterr()
    assert "vacuous" in captured.err
    assert json.loads(captured.out)["all_pass"] is True


def test_batch_manifest(tmp_path, shifted_pair):
    np_path, sp_path = shifted_pair
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {"normal": str(np_path), "shifted": str(sp_path), "scope_shift": 4},
                {"normal": str(np_path), "shifted": str(np_path), "scope_shift": 0},
            ]
        )
    )
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code = main(
        ["batch", str(manifest), "--out-json", str(out_json), "--out-csv", str(out_csv)]
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["aggregates"]["pairs_evaluated"] == 2
    assert payload["aggregates"]["pass_rate"] == 1.0
    assert "config" in payload
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "s,expected_st,measured_st,overlap,l_yin_shift,pass"
    assert len(lines) == 3


@pytest.mark.filterwarnings("error")
def test_batch_entries_that_are_not_objects(tmp_path, shifted_pair):
    np_path, sp_path = shifted_pair
    short = tmp_path / "short.wav"
    write_wav(short, harmonic_tone(220.0, 0.1))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                1,
                {"normal": str(np_path), "shifted": str(sp_path), "scope_shift": 4},
                ["normal.wav"],
                {"normal": str(short), "shifted": str(short), "scope_shift": 0},
            ]
        )
    )
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code = main(["batch", str(manifest), "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert code == 1  # the short pair fails its verdict
    payload = _strict_json(out_json.read_text())
    entries = payload["entries"]
    assert entries[0]["error"] == "TypeError: manifest entry must be an object, got int"
    assert entries[1]["report"]["pass"] is True
    assert entries[2]["error"] == "TypeError: manifest entry must be an object, got list"
    assert entries[3]["report"]["l_yin_shift"] is None
    assert payload["aggregates"]["pairs_errored"] == 2
    assert payload["aggregates"]["mean_l_yin_shift_by_scope_shift"].keys() == {"4"}
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 5
    assert lines[4] == "0,0.000000,,0.000000,,false"


def test_batch_empty_manifest(tmp_path):
    manifest = tmp_path / "empty.json"
    manifest.write_text("[]")
    assert main(["batch", str(manifest)]) == 0


def test_batch_malformed_manifest(tmp_path, capsys):
    manifest = tmp_path / "bad.json"
    manifest.write_text("{not json")
    assert main(["batch", str(manifest)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path, tone_wav):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"hop": 512, "lambda_yin": 90.0}))
    out = tmp_path / "y.csv"
    code = main(
        ["analyze", str(tone_wav), "--out", str(out), "--config", str(cfg_file), "--hop", "128"]
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "y.csv.json").read_text())
    assert sidecar["config"]["hop"] == 128  # flag beats file
    assert sidecar["config"]["lambda_yin"] == 90.0  # file beats default


def test_keyvalue_config_file(tmp_path, tone_wav):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("hop = 512\n# comment\nf_min = 60\n")
    out = tmp_path / "y.csv"
    assert main(["analyze", str(tone_wav), "--out", str(out), "--config", str(cfg_file)]) == 0
    sidecar = json.loads((tmp_path / "y.csv.json").read_text())
    assert sidecar["config"]["hop"] == 512
    assert sidecar["config"]["f_min"] == 60.0


def test_analyze_deterministic(tmp_path, tone_wav):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["analyze", str(tone_wav), "--out", str(out1)]) == 0
    assert main(["analyze", str(tone_wav), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
