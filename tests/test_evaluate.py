"""Pitch contours, offset measurement and the shift evaluation harness."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from yingram import (
    AnalysisConfig,
    PitchContour,
    Waveform,
    batch_report,
    compute_yingram,
    evaluate_shift_pair,
    extract_pitch_contour,
    harmonic_tone,
    median_semitone_offset,
    pitch_shifted_copy,
    resample,
    shift_consistency_metric,
    shift_to_semitones,
    sine_tone,
)
from yingram import evaluate, feature
from yingram.evaluate import _contour_offsets
from yingram.feature import BLOCK_FRAMES
from conftest import write_wav
from oracles import contour_offsets_loop

SR = 22050


def test_sine_contour_voiced_and_accurate(cfg):
    contour = extract_pitch_contour(sine_tone(440.0, 1.0), cfg)
    n_padded = int(np.isnan(contour.f0[-12:]).sum())
    assert n_padded > 0  # tail frames run past the signal
    voiced = contour.f0[contour.voiced]
    assert len(voiced) > 60
    np.testing.assert_allclose(voiced, 440.0, atol=1.0)
    assert np.all(np.diff(contour.times) > 0)


def test_silence_contour_unvoiced(cfg):
    contour = extract_pitch_contour(Waveform(np.zeros(SR // 2), SR), cfg)
    assert contour.num_voiced == 0


def test_padded_frames_unvoiced(cfg):
    contour = extract_pitch_contour(sine_tone(440.0, 0.5), cfg)
    n = len(sine_tone(440.0, 0.5).samples)
    for k in range(len(contour)):
        if k * cfg.hop + cfg.frame_length > n:
            assert np.isnan(contour.f0[k])


def test_two_plateau_contour():
    # a short window keeps boundary-straddling frames to a handful
    cfg = AnalysisConfig(window=512)
    w = Waveform(
        np.concatenate([sine_tone(220.0, 0.5).samples, sine_tone(330.0, 0.5).samples]),
        SR,
    )
    contour = extract_pitch_contour(w, cfg)
    voiced = contour.f0[contour.voiced]
    at_220 = np.abs(voiced - 220.0) < 2.0
    at_330 = np.abs(voiced - 330.0) < 2.0
    transition = int((~at_220 & ~at_330).sum())
    assert at_220.sum() > 30
    assert at_330.sum() > 30
    assert transition <= 3


def test_offset_identical_contours(cfg):
    a = extract_pitch_contour(sine_tone(440.0, 0.6), cfg)
    offset, overlap = median_semitone_offset(a, a)
    assert offset == 0.0
    assert overlap == 1.0


def test_offset_octave(cfg):
    wide = cfg.replace(f_max=1000.0)  # band must contain both tones
    a = extract_pitch_contour(sine_tone(440.0, 0.6), wide)
    b = extract_pitch_contour(sine_tone(880.0, 0.6), wide)
    offset, _ = median_semitone_offset(a, b)
    assert offset == pytest.approx(12.0, abs=0.05)


def test_offset_one_semitone_down(cfg):
    a = extract_pitch_contour(sine_tone(440.0, 0.6), cfg)
    b = extract_pitch_contour(sine_tone(440.0 * 2 ** (-1 / 12), 0.6), cfg)
    offset, _ = median_semitone_offset(a, b)
    assert offset == pytest.approx(-1.0, abs=0.05)


def test_offset_antisymmetry(cfg):
    a = extract_pitch_contour(sine_tone(330.0, 0.6), cfg)
    b = extract_pitch_contour(sine_tone(415.0, 0.6), cfg)
    ab, _ = median_semitone_offset(a, b)
    ba, _ = median_semitone_offset(b, a)
    assert ab == pytest.approx(-ba, abs=0.01)


def test_offset_requires_overlap(cfg):
    voiced = extract_pitch_contour(sine_tone(440.0, 0.4), cfg)
    silent = extract_pitch_contour(Waveform(np.zeros(SR // 4), SR), cfg)
    with pytest.raises(ValueError, match="no voiced overlap"):
        median_semitone_offset(voiced, silent)


@pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf, "2", True])
def test_offset_rejects_a_time_scale_that_is_not_finite_and_positive(cfg, scale):
    # -1.0 once read b from its end and returned an offset; nan and inf
    # raised IndexError after a RuntimeWarning from the integer cast; "2"
    # raised TypeError, and True was taken for 1.0
    a = extract_pitch_contour(sine_tone(440.0, 1.0), cfg)
    with pytest.raises(ValueError, match="time_scale must be finite and positive"):
        median_semitone_offset(a, a, time_scale=scale)


def test_offset_huge_time_scale_aligns_only_frame_zero(cfg):
    # j = i * 1e30 once overflowed the integer cast (a RuntimeWarning, then
    # IndexError); frames past the end of b are now dropped before it
    a = extract_pitch_contour(sine_tone(440.0, 1.0), cfg)
    assert median_semitone_offset(a, a, time_scale=1e30) == (0.0, 1 / a.num_voiced)
    late = dataclasses.replace(a, f0=np.where(np.arange(len(a)) == 0, np.nan, a.f0))
    with pytest.raises(ValueError, match="no voiced overlap"):
        median_semitone_offset(late, a, time_scale=1e30)


def test_offset_time_scale_near_the_float_limit_warns_nothing(cfg):
    # j = i * 1e308 once raised "RuntimeWarning: overflow encountered in
    # multiply"; the infinite j lie past the end of b and are dropped
    a = extract_pitch_contour(sine_tone(440.0, 1.0), cfg)
    assert median_semitone_offset(a, a, time_scale=1e308) == (0.0, 1 / a.num_voiced)
    assert _contour_offsets(a, a, 1e308).tobytes() == _contour_offsets(a, a, 1e30).tobytes()


def test_offset_requires_matching_timebase(cfg):
    a = extract_pitch_contour(sine_tone(440.0, 0.4), cfg)
    b = extract_pitch_contour(sine_tone(440.0, 0.4), cfg.replace(hop=512))
    with pytest.raises(ValueError, match="hop"):
        median_semitone_offset(a, b)


def test_shift_pair_identity(cfg):
    w = harmonic_tone(220.0, 0.8)
    report = evaluate_shift_pair(w, w, 0, cfg)
    assert report.passed
    assert report.l_yin_shift == 0.0
    assert report.measured_semitone_offset == 0.0
    assert report.expected_semitones == 0.0
    assert report.voiced_overlap_fraction == 1.0


def test_shift_pair_resampled_two_semitones(cfg):
    normal = harmonic_tone(220.0, 0.8)
    shifted = pitch_shifted_copy(normal, -2.0)
    report = evaluate_shift_pair(normal, shifted, 4, cfg)
    assert report.passed
    assert report.measured_semitone_offset == pytest.approx(-2.0, abs=0.1)
    assert report.expected_semitones == -2.0


def test_shift_pair_wrong_shift_fails(cfg):
    normal = harmonic_tone(220.0, 0.8)
    shifted = pitch_shifted_copy(normal, -2.0)
    for wrong_s in (10, -4):
        report = evaluate_shift_pair(normal, shifted, wrong_s, cfg)
        assert not report.passed
        assert report.reason is not None


def test_shift_pair_no_overlap_reason(cfg):
    silent = Waveform(np.zeros(SR // 2), SR)
    report = evaluate_shift_pair(silent, silent, 0, cfg)
    assert not report.passed
    assert "no voiced overlap" in report.reason
    assert np.isnan(report.measured_semitone_offset)


@pytest.mark.filterwarnings("error")
def test_shift_pair_without_unpadded_frames(cfg):
    short = harmonic_tone(220.0, 0.1)  # 2205 samples, below window + tau_max
    report = evaluate_shift_pair(short, short, 0, cfg)
    assert not report.passed
    assert report.l_yin_shift is None
    assert "no unpadded frames" in report.reason
    assert str(cfg.frame_length) in report.reason
    payload = report.to_dict()
    assert payload["l_yin_shift"] is None
    json.dumps(payload, allow_nan=False)


# a pair shorter than one frame, a pair inside one block, and a pair over
# several blocks with a padded tail (BLOCK_FRAMES = 32 frames of hop 256)
@pytest.mark.parametrize("seconds", [0.08, 0.3, 1.0])
@pytest.mark.parametrize("s", [0, 4, -6])
def test_shift_pair_equals_the_public_paths(cfg, seconds, s):
    normal = harmonic_tone(220.0, seconds)
    shifted = pitch_shifted_copy(normal, shift_to_semitones(s))
    report = evaluate_shift_pair(normal, shifted, s, cfg)
    y_normal = compute_yingram(normal, cfg).unpadded()
    y_shifted = compute_yingram(shifted, cfg).unpadded()
    k = min(len(y_normal), len(y_shifted))
    if k == 0:
        assert seconds * SR < cfg.frame_length
        assert (report.l_yin_shift, report.voiced_overlap_fraction) == (None, 0.0)
        assert math.isnan(report.measured_semitone_offset)
        return
    assert report.l_yin_shift == shift_consistency_metric(
        y_normal[:k], y_shifted[:k], s, cfg
    )
    offset, overlap = median_semitone_offset(
        extract_pitch_contour(normal, cfg),
        extract_pitch_contour(shifted, cfg),
        len(shifted.samples) / len(normal.samples),
    )
    assert (report.measured_semitone_offset, report.voiced_overlap_fraction) == (offset, overlap)


def test_each_clip_analysis_frames_the_clip_once(monkeypatch, cfg):
    # one frame count per analysis, and block spans that tile its frames once
    calls, runs = [], []

    def counting(num_samples, frame_len, hop):
        calls.append(num_samples)
        return real_count(num_samples, frame_len, hop)

    def spanning(x, frame_len, hop, first, stop):
        runs.append((first, stop))
        return real_span(x, frame_len, hop, first, stop)

    def tiles(w):
        n = real_count(len(w), cfg.frame_length, cfg.hop)
        return [(k, min(k + BLOCK_FRAMES, n)) for k in range(0, n, BLOCK_FRAMES)]

    real_count, real_span = feature.frame_count, feature._frame_span
    monkeypatch.setattr(feature, "frame_count", counting)
    monkeypatch.setattr(feature, "_frame_span", spanning)
    w = harmonic_tone(220.0, 0.5)
    shifted = pitch_shifted_copy(w, -1.0)
    compute_yingram(w, cfg)
    extract_pitch_contour(w, cfg)
    assert calls == [len(w), len(w)]
    assert runs == tiles(w) * 2
    evaluate_shift_pair(w, shifted, 2, cfg)
    assert calls == [len(w), len(w), len(w), len(shifted)]
    assert runs == tiles(w) * 3 + tiles(shifted)


@pytest.mark.parametrize("s", [2.9, True, "2"])
def test_shift_pair_rejects_non_integer_shift(monkeypatch, cfg, s):
    # 2.9 once reported scope_shift 2.9 and expected -1.45 st beside the
    # metric of s=2, and passed
    a = harmonic_tone(220.0, 0.5)
    monkeypatch.setattr(evaluate, "_analyse", None)  # checked before any analysis
    with pytest.raises(ValueError, match="shift out of range"):
        evaluate_shift_pair(a, pitch_shifted_copy(a, -1.0), s, cfg)


@pytest.mark.parametrize("s", [2.9, True, "2"])
def test_batch_records_non_integer_shift_as_error(tmp_path, cfg, s):
    normal = harmonic_tone(220.0, 0.5)
    write_wav(tmp_path / "n.wav", normal)
    write_wav(tmp_path / "s.wav", pitch_shifted_copy(normal, -1.0))
    pair = {"normal": str(tmp_path / "n.wav"), "shifted": str(tmp_path / "s.wav")}
    report = batch_report([{**pair, "scope_shift": s}, {**pair, "scope_shift": 2}], cfg)
    bad, good = report.entries
    assert "shift out of range" in bad["error"]
    assert "scope_shift" not in bad and "report" not in bad
    assert good["report"].passed
    assert report.csv_lines()[1] == ",,,,,false"
    json.dumps(report.to_dict(), allow_nan=False)


def test_batch_empty(cfg):
    report = batch_report([], cfg)
    assert report.entries == []
    assert report.all_passed
    agg = report.aggregates()
    assert agg["pairs_evaluated"] == 0
    assert agg["pass_rate"] is None


def test_batch_runs_pairs_and_aggregates(tmp_path, cfg):
    # the nine scope shifts of the standard pitch-shift evaluation grid
    normal = harmonic_tone(220.0, 0.5)
    write_wav(tmp_path / "normal.wav", normal)
    shifts = [8, 6, 4, 2, 0, -2, -4, -6, -8]
    manifest = []
    for s in shifts:
        shifted = pitch_shifted_copy(normal, -s / 2.0)
        path = tmp_path / f"shift_{s}.wav"
        write_wav(path, shifted)
        manifest.append(
            {"normal": str(tmp_path / "normal.wav"), "shifted": str(path), "scope_shift": s}
        )
    report = batch_report(manifest, cfg)
    assert len(report.reports) == 9
    assert report.all_passed
    assert [e["scope_shift"] for e in report.entries] == shifts
    agg = report.aggregates()
    assert agg["pass_rate"] == 1.0
    assert set(agg["mean_l_yin_shift_by_scope_shift"]) == {str(s) for s in shifts}
    lines = report.csv_lines()
    assert lines[0] == "s,expected_st,measured_st,overlap,l_yin_shift,pass"
    assert len(lines) == 10  # one row per pair
    assert [int(l.split(",")[0]) for l in lines[1:]] == shifts
    payload = report.to_dict()
    assert payload["config"]["sample_rate"] == SR
    json.dumps(payload)  # serializable


def test_batch_records_errors_and_continues(tmp_path, cfg):
    normal = harmonic_tone(220.0, 0.5)
    write_wav(tmp_path / "n.wav", normal)
    write_wav(tmp_path / "s.wav", pitch_shifted_copy(normal, -1.0))
    manifest = [
        {"normal": str(tmp_path / "n.wav"), "shifted": str(tmp_path / "missing.wav"), "scope_shift": 2},
        {"normal": str(tmp_path / "n.wav"), "shifted": str(tmp_path / "s.wav"), "scope_shift": 2},
    ]
    report = batch_report(manifest, cfg)
    assert len(report.errors) == 1
    assert len(report.reports) == 1
    assert report.reports[0].passed
    assert "error" in report.entries[0]
    assert not report.all_passed  # its CSV row says pass=false, so the batch fails


def _csv_view(entry: dict) -> str:
    """The row a batch CSV must hold for one JSON entry, field by field:
    null or missing is empty, a number `.6f`, and no report fails."""
    report, s = entry.get("report", {}), entry.get("scope_shift")
    expected = report.get("expected_semitones", None if s is None else -s / 2)
    numbers = [expected] + [report.get(k) for k in (
        "measured_semitone_offset", "voiced_overlap_fraction", "l_yin_shift")]
    cells = ["" if v is None else f"{v:.6f}" for v in numbers]
    return ",".join(["" if s is None else str(s), *cells, "true" if report.get("pass") else "false"])


def test_batch_csv_rows_are_the_view_of_the_json_entries(tmp_path, cfg):
    normal = harmonic_tone(220.0, 0.5)
    write_wav(tmp_path / "n.wav", normal)
    write_wav(tmp_path / "s.wav", pitch_shifted_copy(normal, -1.0))
    write_wav(tmp_path / "short.wav", harmonic_tone(220.0, 0.05))
    (tmp_path / "bad.wav").write_bytes(b"RIFF not a wave file")
    n, shifted = str(tmp_path / "n.wav"), str(tmp_path / "s.wav")
    manifest = [
        {"normal": n, "shifted": shifted, "scope_shift": 2},  # passes
        {"normal": n, "shifted": shifted, "scope_shift": -6},  # fails on its offset
        {"normal": n, "shifted": str(tmp_path / "short.wav"), "scope_shift": 2},  # no metric
        {"normal": n, "shifted": str(tmp_path / "bad.wav"), "scope_shift": -3},  # unreadable
        {"normal": n, "shifted": shifted, "scope_shift": 16},  # a shift `Scope` rejects
    ]
    report = batch_report(manifest, cfg)
    entries = json.loads(json.dumps(report.to_dict(), allow_nan=False))["entries"]
    assert [e.get("report", {}).get("pass") for e in entries] == [True, False, False, None, None]
    assert entries[2]["report"]["l_yin_shift"] is None
    assert entries[2]["report"]["measured_semitone_offset"] is None
    assert "error" in entries[3] and entries[3]["scope_shift"] == -3
    assert "error" in entries[4] and "scope_shift" not in entries[4]
    lines = report.csv_lines()
    assert lines[0] == "s,expected_st,measured_st,overlap,l_yin_shift,pass"
    assert lines[1:] == [_csv_view(e) for e in entries]
    assert lines[4:] == ["-3,1.500000,,,,false", ",,,,,false"]


def _contour(voiced, seed: int) -> PitchContour:
    n = len(voiced)
    f0 = np.random.default_rng(seed).uniform(52.0, 508.0, n)
    f0[~np.asarray(voiced, dtype=bool)] = np.nan
    return PitchContour(np.arange(n) * (256 / SR), f0, np.zeros(n), 256, SR)


# lengths 0-2 as well as longer ones; scales that land j = i * scale on
# integers, the ratio branch (None, 1.0), and arbitrary stretches
MASKS = st.one_of(st.lists(st.booleans(), max_size=2), st.lists(st.booleans(), max_size=40))
SCALES = st.one_of(
    st.sampled_from([None, 1.0, 0.25, 0.5, 1.5, 2.0, 3.0]),
    st.floats(0.05, 4.0),
)


@settings(deadline=None, max_examples=300)
@given(MASKS, MASKS, SCALES, st.integers(0, 2**32 - 1))
@example([True] * 5, [True] * 3, 0.5, 0)  # i = 4 lands on j1 == len(b) - 1
@example([True] * 5, [True] * 3, 0.6, 0)  # i = 3 brackets [1, 2], i = 4 runs past b
def test_contour_offsets_equal_loop(mask_a, mask_b, scale, seed):
    a, b = _contour(mask_a, seed), _contour(mask_b, seed + 1)
    got = _contour_offsets(a, b, scale)
    want = contour_offsets_loop(a, b, scale)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_contour_offsets_keep_the_last_frame_of_b():
    a, b = _contour([True] * 5, 0), _contour([True] * 3, 1)
    assert len(_contour_offsets(a, b, 0.5)) == 5  # j = 0, 0.5, ..., 2 = len(b) - 1
    assert len(_contour_offsets(a, b, 0.6)) == 4  # j = 2.4 needs frame 3 of b


def test_shift_pair_nan_offset_fails(monkeypatch, cfg):
    monkeypatch.setattr(evaluate, "median_semitone_offset", lambda *a, **k: (float("nan"), 1.0))
    w = harmonic_tone(220.0, 0.5)
    report = evaluate_shift_pair(w, w, 0, cfg)
    assert not report.passed
    assert report.reason.startswith("offset")
    assert report.l_yin_shift == 0.0


def test_shift_pair_offset_reason_wins_over_overlap(monkeypatch, cfg):
    monkeypatch.setattr(evaluate, "median_semitone_offset", lambda *a, **k: (3.0, 0.1))
    w = harmonic_tone(220.0, 0.5)
    report = evaluate_shift_pair(w, w, 0, cfg)
    assert not report.passed
    assert report.reason == "offset +3.00 st deviates from expected +0.00 st by more than 0.5 st"
    assert report.voiced_overlap_fraction == 0.1
    monkeypatch.setattr(evaluate, "median_semitone_offset", lambda *a, **k: (0.0, 0.1))
    report = evaluate_shift_pair(w, w, 0, cfg)
    assert (report.passed, report.reason) == (False, "voiced overlap 0.10 below 0.5")


def test_shift_pair_resamples_to_the_config_rate(cfg):
    normal = harmonic_tone(220.0, 0.5, sample_rate=44100)
    shifted = pitch_shifted_copy(normal, -1.0)
    report = evaluate_shift_pair(normal, shifted, 2, cfg)
    same = evaluate_shift_pair(resample(normal, SR), resample(shifted, SR), 2, cfg)
    assert report == same
    assert report.passed


OVERFLOWING = Waveform(1e160 * sine_tone(220.0, 0.5).samples, SR)


@pytest.mark.filterwarnings("error")
def test_overflowing_samples_raise():
    with pytest.raises(ValueError, match="non-finite difference values"):
        compute_yingram(OVERFLOWING)
    with pytest.raises(ValueError, match="non-finite difference values"):
        extract_pitch_contour(OVERFLOWING)


@pytest.mark.filterwarnings("error")
def test_batch_records_overflowing_clip(monkeypatch, tmp_path, cfg):
    normal = harmonic_tone(220.0, 0.5)
    loaded = {"n.wav": normal, "big.wav": OVERFLOWING}
    monkeypatch.setattr(evaluate, "load_wav", lambda path: loaded[path.name])
    manifest = [
        {"normal": str(tmp_path / "n.wav"), "shifted": str(tmp_path / "big.wav"), "scope_shift": 0},
        {"normal": str(tmp_path / "n.wav"), "shifted": str(tmp_path / "n.wav"), "scope_shift": 0},
    ]
    report = batch_report(manifest, cfg)
    assert report.entries[0]["error"].startswith("ValueError: non-finite difference values")
    assert report.reports[0].passed
