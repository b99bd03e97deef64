"""Pitch contours, offset measurement and the shift evaluation harness."""
import json

import numpy as np
import pytest

from yingram import (
    AnalysisConfig,
    Waveform,
    batch_report,
    evaluate_shift_pair,
    extract_pitch_contour,
    harmonic_tone,
    median_semitone_offset,
    pitch_shifted_copy,
    sine_tone,
)
from conftest import write_wav

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
