"""CLI subcommands, config flags, exit codes and output determinism."""
import argparse
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from yingram import (
    AnalysisConfig,
    PitchContour,
    Waveform,
    feature,
    harmonic_tone,
    pitch_shifted_copy,
    shift_to_semitones,
    sine_tone,
    vibrato_tone,
    yin,
)
from yingram import cli, gradients
from yingram.cli import _build_parser, _f0_csv_lines, _resolve_config, main
from conftest import INVALID_CONFIGS, changed_value, write_wav
from oracles import f0_csv_lines_loop

FIELDS = [f.name for f in dataclasses.fields(AnalysisConfig)]


def config_flag(name: str) -> str:
    """The CLI flag of config field `name`: --fmin and --fmax keep their
    short spellings, every other field is --name-with-dashes."""
    return {"f_min": "--fmin", "f_max": "--fmax"}.get(name, "--" + name.replace("_", "-"))


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


def test_analyze_csv_and_binary_write_byte_identical_sidecars(tmp_path, tone_wav):
    csv, binary = tmp_path / "y.csv", tmp_path / "y.f32"
    argv = ["analyze", str(tone_wav), "--out", str(csv), "--binary", str(binary), "--hop", "512"]
    assert main(argv) == 0
    sidecar = (tmp_path / "y.csv.json").read_bytes()
    assert sidecar == (tmp_path / "y.f32.json").read_bytes()
    assert json.loads(sidecar)["config"]["hop"] == 512


def test_calls_in_one_process_keep_their_own_flags(tmp_path, tone_wav, capsys):
    # the parser is built once per process: a flag given to one call must
    # not reach the next one's config or sidecar, and usage errors still exit 2
    assert _build_parser() is _build_parser()
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["analyze", str(tone_wav), "--out", str(first), "--hop", "128"]) == 0
    assert main(["analyze", str(tone_wav), "--out", str(second)]) == 0
    assert json.loads((tmp_path / "a.csv.json").read_text())["config"]["hop"] == 128
    assert json.loads((tmp_path / "b.csv.json").read_text())["config"] == AnalysisConfig().to_dict()
    assert len(second.read_text().splitlines()) == 1 + 87
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(tone_wav), "--hop"])
    assert exc.value.code == 2
    assert "--hop: expected one argument" in capsys.readouterr().err


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


def test_f0_rejects_an_empty_out_path(tmp_path, tone_wav, capsys, monkeypatch):
    # once "error: PosixPath('.') has an empty name"
    monkeypatch.chdir(tmp_path)
    assert main(["f0", str(tone_wav), "--out", ""]) == 2
    assert capsys.readouterr().err == "error: empty output path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tone.wav"]


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


_CFG = AnalysisConfig()


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 4096),
    st.lists(
        st.tuples(
            st.one_of(
                st.just(math.nan), st.just(_CFG.f_min), st.just(_CFG.f_max),
                st.floats(_CFG.f_min, _CFG.f_max),
            ),
            st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        ),
        max_size=300,
    ),
)
@example(256, [])
@example(256, [(math.nan, 1.0)])
@example(97, [(_CFG.f_min, 0.0), (_CFG.f_max, 1.0), (math.nan, 1.0)] * 200)
def test_f0_csv_lines_equal_the_per_frame_format(hop, frames):
    f0 = np.array([hz for hz, _ in frames], dtype=np.float64)
    aperiodicity = np.array([ap for _, ap in frames], dtype=np.float64)
    times = np.arange(len(frames)) * (hop / _CFG.sample_rate)
    contour = PitchContour(times, f0, aperiodicity, hop, _CFG.sample_rate)
    assert list(_f0_csv_lines(contour)) == f0_csv_lines_loop(contour)


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


def test_the_lambda_flag_reaches_the_verdict(tmp_path, shifted_pair):
    # the weight scales l_yin_shift exactly and changes no other verdict field
    reports = []
    for extra in ([], ["--lambda-yin", "90"]):
        out = tmp_path / f"report{len(reports)}.json"
        argv = ["compare-shift", *map(str, shifted_pair), "--scope-shift", "4", "--out", str(out)]
        assert main(argv + extra) == 0
        reports.append(json.loads(out.read_text()))
    default, doubled = reports
    assert doubled["l_yin_shift"] == 2.0 * default["l_yin_shift"]
    for key in ("measured_semitone_offset", "voiced_overlap_fraction", "pass"):
        assert doubled[key] == default[key], key


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


@pytest.mark.parametrize("flags, message", [
    (["--probes", "0"], "probes must be at least 1"),
    (["--eps", "nan"], "eps must be finite and positive"),
    (["--eps=-1e-5"], "eps must be finite and positive"),
    (["--tolerance", "inf"], "tolerance must be finite and positive"),
    (["--tolerance", "0"], "tolerance must be finite and positive"),
    (["--frames", "-1"], "n_frames must be at least 0"),
])
def test_gradcheck_rejects_settings_that_check_nothing(tmp_path, capsys, flags, message):
    out = tmp_path / "grad.json"
    assert main(["gradcheck", "--frames", "1", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_gradcheck_zero_frames_vacuous(capsys):
    assert main(["gradcheck", "--frames", "0"]) == 0
    captured = capsys.readouterr()
    assert "vacuous" in captured.err
    assert json.loads(captured.out)["all_pass"] is True


def test_gradcheck_warns_when_every_probe_is_skipped(capsys):
    # at eps 1e-300 each probe falls under the rounding floor: the exit code
    # and the JSON stay as they are, and stderr says the pass is vacuous
    assert main(["gradcheck", "--frames", "2", "--eps", "1e-300"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["all_pass"] is True
    assert [(r["probes_checked"], r["guarded"]) for r in payload["reports"]] == [(0, False)] * 2
    assert captured.err == "warning: no probe was compared, gradcheck passes vacuously\n"
    assert main(["gradcheck", "--frames", "1"]) == 0
    assert capsys.readouterr().err == ""


def _nan_gradient(monkeypatch):
    vjp = gradients._vjp

    def all_nan(*args):
        grad, guarded = vjp(*args)
        return np.full_like(grad, np.nan), guarded

    monkeypatch.setattr(gradients, "_vjp", all_nan)


@pytest.mark.parametrize("frames", ["1", "2", "3"])
def test_a_nan_gradient_fails_gradcheck_with_a_null_error(monkeypatch, capsys, frames):
    # the top-level max once reached the JSON writer as NaN: exit 2 and no report
    _nan_gradient(monkeypatch)
    assert main(["gradcheck", "--frames", frames]) == 1
    payload = _strict_json(capsys.readouterr().out)
    assert payload["all_pass"] is False and payload["max_rel_error"] is None
    assert [r["max_rel_error"] for r in payload["reports"]] == [None] * int(frames)


@pytest.mark.parametrize("nan_at", [0, -1], ids=["first", "last"])
def test_one_nan_report_makes_the_top_level_error_null(monkeypatch, capsys, nan_at):
    # max() over [nan, 0.1] is nan and over [0.1, nan] is 0.1: the order once decided
    reports = [gradients.GradReport(1e-6, 80, 1e-5, True) for _ in range(3)]
    reports[nan_at] = gradients.GradReport(math.nan, 80, 1e-5, False)
    monkeypatch.setattr(cli, "gradcheck_suite", lambda *args, **kwargs: reports)
    assert main(["gradcheck", "--frames", "3"]) == 1
    payload = _strict_json(capsys.readouterr().out)
    assert payload["all_pass"] is False and payload["max_rel_error"] is None


@pytest.mark.parametrize("out", ["report.json", ""], ids=["file", "stdout"])
def test_a_nan_that_reaches_the_json_writer_exits_2(tmp_path, capsys, monkeypatch, shifted_pair, out):
    # the writer once printed a bare `NaN` token; a NaN injected into the
    # payload now fails the command with one stderr line and no output
    monkeypatch.setattr(AnalysisConfig, "to_dict", lambda self: {"lambda_yin": math.nan})
    path = tmp_path / out if out else ""
    args = ["compare-shift", *map(str, shifted_pair), "--scope-shift", "4", "--out", str(path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Out of range float values are not JSON compliant")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["normal.wav", "shifted.wav"]


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


def test_batch_with_an_errored_entry_exits_1(tmp_path, shifted_pair):
    # a manifest whose only failures were error entries once exited 0
    np_path, sp_path = shifted_pair
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"normal": str(np_path), "shifted": str(tmp_path / "missing.wav"), "scope_shift": 4},
        {"normal": str(np_path), "shifted": str(sp_path), "scope_shift": 4},
    ]))
    out_json = tmp_path / "report.json"
    assert main(["batch", str(manifest), "--out-json", str(out_json)]) == 1
    entries = _strict_json(out_json.read_text())["entries"]
    assert entries[0]["error"].startswith("FileNotFoundError") and entries[1]["report"]["pass"] is True


@pytest.fixture
def identity_manifest(tmp_path, tone_wav):
    manifest = tmp_path / "manifest.json"
    entry = {"normal": str(tone_wav), "shifted": str(tone_wav), "scope_shift": 0}
    manifest.write_text(json.dumps([entry]))
    return manifest


@pytest.mark.parametrize("command", [
    ["gradcheck", "--frames", "1", "--probes", "3"],
    ["compare-shift", "{wav}", "{wav}", "--scope-shift", "0"],
    ["batch", "{manifest}"],
])
def test_json_report_on_stdout_equals_the_file(
    tmp_path, tone_wav, identity_manifest, capsys, command
):
    argv = [a.format(wav=tone_wav, manifest=identity_manifest) for a in command]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(argv + ["--out-json" if command[0] == "batch" else "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_batch_csv_alone_prints_nothing(tmp_path, identity_manifest, capsys):
    out_csv = tmp_path / "report.csv"
    assert main(["batch", str(identity_manifest), "--out-csv", str(out_csv)]) == 0
    assert capsys.readouterr().out == ""
    assert out_csv.read_text().splitlines()[1] == "0,0.000000,0.000000,1.000000,0.000000,true"


def test_batch_empty_manifest(tmp_path):
    manifest = tmp_path / "empty.json"
    manifest.write_text("[]")
    assert main(["batch", str(manifest)]) == 0


def test_batch_malformed_manifest(tmp_path, capsys):
    manifest = tmp_path / "bad.json"
    manifest.write_text("{not json")
    assert main(["batch", str(manifest)]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, files, message", [
    (["analyze", "{wav}"], {}, "error: analyze needs --out and/or --binary"),
    (["batch", "{dir}/manifest.json"], {"manifest.json": '{"normal": "a.wav"}'},
     "error: manifest must be a JSON array"),
    (["analyze", "{wav}", "--out", "{dir}/y.csv", "--config", "{dir}/cfg.txt"],
     {"cfg.txt": "hop = 512\nwindow 1024\n"}, "error: bad config line 2: 'window 1024'"),
    # the config is resolved before any command runs, so it is reported first
    (["analyze", "{wav}", "--hop", "0"], {},
     "error: invalid config: hop=0 must be positive"),
], ids=["analyze-without-output", "manifest-not-an-array", "config-line-without-equals",
        "bad-config-before-missing-output"])
def test_input_errors_exit_2_with_one_line(tmp_path, tone_wav, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    before = set(tmp_path.iterdir())
    assert main([a.format(wav=tone_wav, dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")
    assert set(tmp_path.iterdir()) == before


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


def test_every_config_field_has_exactly_one_flag():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        group = next(g for g in sub._action_groups if g.title == "analysis config")
        flags = [opt for a in group._group_actions for opt in a.option_strings]
        assert sorted(flags) == sorted(["--config"] + [config_flag(n) for n in FIELDS]), command
    for name in FIELDS:
        value = changed_value(name)
        args = parser.parse_args(["analyze", "in.wav", config_flag(name), str(value)])
        assert _resolve_config(args) == AnalysisConfig().replace(**{name: value}), name


@pytest.mark.parametrize("source", ["flags", "file"])
@pytest.mark.parametrize("overrides, field", INVALID_CONFIGS)
def test_invalid_config_exits_2(tmp_path, tone_wav, capsys, overrides, field, source):
    argv = ["analyze", str(tone_wav), "--out", str(tmp_path / "y.csv"),
            "--binary", str(tmp_path / "y.f32")]
    cfg_file = tmp_path / "cfg.json"
    if source == "flags":
        for name, value in overrides.items():
            argv += [config_flag(name), str(value)]
    else:
        cfg_file.write_text(json.dumps(overrides))
        argv += ["--config", str(cfg_file)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and field in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert set(tmp_path.iterdir()) <= {tone_wav, cfg_file}


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    """A 1 s pair two semitones apart, its manifest, and a config file whose
    float hop becomes an int of 301 digits."""
    folder = tmp_path_factory.mktemp("pair")
    normal = harmonic_tone(220.0, 1.0)
    write_wav(folder / "normal.wav", normal)
    write_wav(folder / "shifted.wav", pitch_shifted_copy(normal, -2.0))
    entry = {"normal": str(folder / "normal.wav"), "shifted": str(folder / "shifted.wav"),
             "scope_shift": 4}
    (folder / "manifest.json").write_text(json.dumps([entry]))
    (folder / "huge_hop.json").write_text('{"hop": 1e300}')
    return folder


SWEEP_COMMANDS = {
    "analyze": ["analyze", "{pair}/normal.wav", "--out", "{out}/y.csv"],
    "f0": ["f0", "{pair}/normal.wav", "--out", "{out}/f0.csv"],
    "compare-shift": ["compare-shift", "{pair}/normal.wav", "{pair}/shifted.wav",
                      "--scope-shift", "4", "--out", "{out}/report.json"],
    "batch": ["batch", "{pair}/manifest.json", "--out-json", "{out}/batch.json"],
    "gradcheck": ["gradcheck", "--frames", "1", "--out", "{out}/grad.json"],
}
INT_FIELDS = [f.name for f in dataclasses.fields(AnalysisConfig) if f.type == "int"]
EXTREME_INTS = [2**63, -(2**63), 10**30, 2**31]
EXTREME_SETTINGS = {
    f"{name}={value}": [config_flag(name), str(value)]
    for name in INT_FIELDS for value in EXTREME_INTS
} | {
    f"{name}=10**400": [config_flag(name), str(10**400)] for name in INT_FIELDS  # past a float
} | {"file-hop=1e300": ["--config", "{pair}/huge_hop.json"]}


@pytest.mark.parametrize("setting", EXTREME_SETTINGS.values(), ids=EXTREME_SETTINGS.keys())
@pytest.mark.parametrize("command", SWEEP_COMMANDS.values(), ids=SWEEP_COMMANDS.keys())
def test_no_integer_config_value_escapes_as_a_traceback(pair_dir, tmp_path, capsys, command, setting):
    # a hop of 2**63 or more once ended in an OverflowError from the framing
    code = main([a.format(pair=pair_dir, out=tmp_path) for a in command + setting])
    assert code in (0, 1, 2)
    if code == 2:
        assert capsys.readouterr().err.count("\n") == 1


def test_config_file_value_valid_only_with_a_flag(tmp_path, tone_wav, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"f_max": 15000}))  # above Nyquist at 22050 Hz
    out = tmp_path / "y.csv"
    argv = ["analyze", str(tone_wav), "--out", str(out), "--config", str(cfg_file)]
    assert main(argv) == 2
    assert "f_max=15000.0" in capsys.readouterr().err
    assert main(argv + ["--sample-rate", "44100"]) == 0
    config = json.loads((tmp_path / "y.csv.json").read_text())["config"]
    assert (config["sample_rate"], config["f_max"]) == (44100, 15000.0)


def _run_reports(tmp_path, name: str, pairs: list[tuple[str, str, int]], clip: str) -> dict:
    """Every output a pair or clip yields: compare-shift JSON per pair, the
    batch JSON, CSV and exit code, and the analyze and f0 files of one clip."""
    out = tmp_path / name
    out.mkdir()
    manifest = tmp_path / f"{name}.json"
    entries = [{"normal": a, "shifted": b, "scope_shift": s} for a, b, s in pairs]
    manifest.write_text(json.dumps(entries))
    for i, (a, b, s) in enumerate(pairs):
        argv = ["compare-shift", a, b, "--scope-shift", str(s), "--no-verdict-exit"]
        assert main(argv + ["--out", str(out / f"pair{i}.json")]) == 0
    code = main(["batch", str(manifest), "--out-json", str(out / "batch.json"),
                 "--out-csv", str(out / "batch.csv")])
    assert main(["analyze", clip, "--out", str(out / "y.csv"), "--binary", str(out / "y.f32")]) == 0
    assert main(["f0", clip, "--out", str(out / "f0.csv")]) == 0
    return {"batch exit code": code, **{p.name: p.read_bytes() for p in out.iterdir()}}


def _assert_same_report(got, ref, path=""):
    """Equal key by key, except measured_semitone_offset within 1e-12."""
    if isinstance(ref, dict):
        assert isinstance(got, dict) and got.keys() == ref.keys(), path
        for key in ref:
            _assert_same_report(got[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), path
        for i, (g, r) in enumerate(zip(got, ref)):
            _assert_same_report(g, r, f"{path}[{i}]")
    elif path.endswith(".measured_semitone_offset") and ref is not None:
        assert abs(got - ref) < 1e-12, path
    else:
        assert got == ref and type(got) is type(ref), path


def test_reports_match_the_window_kernel(tmp_path, monkeypatch):
    # the clip pass sums hop blocks; on the per-frame transforms (block =
    # window) every output byte is the same, and the reports agree key by
    # key apart from the full-precision measured offset
    rng = np.random.default_rng(7)
    pairs = []
    for i, s in enumerate([-9, -4, -1, 0, 3, 6, 11, 12]):
        f0 = float(rng.uniform(90.0, 300.0))
        normal = harmonic_tone(f0, 1.0, seed=i) if i % 2 else vibrato_tone(f0, 1.0)
        shifted = pitch_shifted_copy(normal, shift_to_semitones(s))
        paths = (tmp_path / f"n{i}.wav", tmp_path / f"s{i}.wav")
        write_wav(paths[0], normal)
        write_wav(paths[1], shifted)
        pairs.append((str(paths[0]), str(paths[1]), s))
    gap = np.zeros(3000)
    clip = np.concatenate((
        gap, vibrato_tone(150.0, 1.5).samples, gap, 0.05 * rng.standard_normal(5000),
        harmonic_tone(260.0, 1.0, seed=3).samples, gap[:1234],
    ))
    write_wav(tmp_path / "clip.wav", Waveform(clip, 22050))
    clip_path = str(tmp_path / "clip.wav")

    blocked = _run_reports(tmp_path, "hop", pairs, clip_path)
    kernel = yin._difference_fft
    monkeypatch.setattr(
        feature, "_difference_fft",
        lambda span, tau_max, window, hop: kernel(
            sliding_window_view(span, window + tau_max)[::hop], tau_max, window
        ),
    )
    reference = _run_reports(tmp_path, "window", pairs, clip_path)

    assert blocked.keys() == reference.keys()
    reports = [f"pair{i}.json" for i in range(len(pairs))] + ["batch.json"]
    for name in reference:
        if name in reports:
            _assert_same_report(json.loads(blocked[name]), json.loads(reference[name]), name)
        else:  # the exit code, batch CSV, analyze CSV and .f32, f0 CSV and sidecars
            assert blocked[name] == reference[name], name
    for name in reports[:-1]:  # every pair is voiced, so its offset is compared
        assert json.loads(reference[name])["measured_semitone_offset"] is not None
