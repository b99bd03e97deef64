"""Yingram computation, valley placement and export formats."""
import json

import numpy as np
import pytest

from yingram import (
    CmndCurve,
    NoteGrid,
    Waveform,
    channel_lags,
    compute_yingram,
    note_to_hz,
    sine_tone,
    vibrato_tone,
    write_yingram_binary,
    write_yingram_csv,
    yingram_frame,
)

SR = 22050


def test_silence_gives_flat_ones(cfg):
    matrix = compute_yingram(Waveform(np.zeros(SR // 3), SR), cfg)
    assert np.all(matrix.values == 1.0)


def test_integer_lag_is_sampled_exactly(rng):
    # at 44000 Hz the reference note's lag is exactly 100 samples
    grid = NoteGrid()
    values = rng.uniform(0.0, 2.0, size=900)
    curve = CmndCurve(values, 44000)
    out = yingram_frame(curve, grid)
    assert 44000 / note_to_hz(69) == 100.0
    assert out[74] == values[100]


def test_interpolation_matches_np_interp(rng):
    values = rng.uniform(0.0, 2.0, size=500)
    curve = CmndCurve(values, SR)
    out = yingram_frame(curve, NoteGrid())
    lags = channel_lags(NoteGrid(), SR)
    expected = np.interp(lags, np.arange(len(values)), values)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_lag_out_of_range(rng):
    curve = CmndCurve(rng.uniform(0.0, 2.0, size=100), SR)
    with pytest.raises(ValueError, match="lag out of range"):
        yingram_frame(curve, NoteGrid())


def test_frame_count_and_shape(cfg):
    matrix = compute_yingram(sine_tone(440.0, 1.0), cfg)
    assert matrix.values.shape == (87, 80)  # ceil(22050 / 256) frames
    assert matrix.values.dtype == np.float32
    assert np.all(matrix.values >= 0.0)
    assert np.all(np.isfinite(matrix.values))


def test_deterministic(cfg):
    w = vibrato_tone(220.0, 0.5, depth_semitones=0.1)
    a = compute_yingram(w, cfg)
    b = compute_yingram(w, cfg)
    assert np.array_equal(a.values, b.values)


def test_sample_rate_mismatch(cfg):
    with pytest.raises(ValueError, match="resample"):
        compute_yingram(sine_tone(440.0, 0.2, 16000), cfg)


def test_valley_at_reference_note(cfg):
    # 440 Hz maps to note 69 = channel 74. A touch of vibrato keeps the
    # argmin off the exact-octave subharmonic lags (see notes in the tests
    # for pure periodic signals).
    w = vibrato_tone(440.0, 1.0, depth_semitones=0.1, rate_hz=5.0)
    matrix = compute_yingram(w, cfg)
    argmins = np.argmin(matrix.unpadded(), axis=1)
    assert np.all(argmins == 74)


def test_valley_at_note_50(cfg):
    freq = note_to_hz(50)
    assert freq == pytest.approx(254.18, abs=0.01)
    w = vibrato_tone(freq, 1.0, depth_semitones=0.1, rate_hz=5.0)
    matrix = compute_yingram(w, cfg)
    argmins = np.argmin(matrix.unpadded(), axis=1)
    ok = np.abs(argmins - 55) <= 1
    assert np.mean(ok) >= 0.9


def test_csv_export(tmp_path, cfg):
    matrix = compute_yingram(sine_tone(330.0, 0.1), cfg)
    out = tmp_path / "y.csv"
    write_yingram_csv(matrix, out)
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "frame"
    assert header[1] == "c0"
    assert header[-1] == "c79"
    assert len(header) == 81
    assert len(lines) == 1 + matrix.num_frames
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(float(matrix.values[0, 0]))


def test_binary_export_roundtrip(tmp_path, cfg):
    matrix = compute_yingram(sine_tone(330.0, 0.1), cfg)
    out = tmp_path / "y.f32"
    write_yingram_binary(matrix, out)
    raw = np.frombuffer(out.read_bytes(), dtype="<f4").reshape(-1, 80)
    np.testing.assert_array_equal(raw, matrix.values)
    sidecar = json.loads((tmp_path / "y.f32.json").read_text())
    assert sidecar["frames"] == matrix.num_frames
    assert sidecar["channels"] == 80
    assert sidecar["hop"] == cfg.hop
    assert sidecar["sample_rate"] == SR
    assert sidecar["grid"]["bins_per_octave"] == 24
    assert sidecar["grid"]["reference_hz"] == 440.0


def test_failed_export_leaves_no_files(tmp_path, cfg):
    matrix = compute_yingram(sine_tone(330.0, 0.1), cfg)
    taken = tmp_path / "taken"
    taken.mkdir()  # the rename onto a directory fails after the temp file is written
    for write in (write_yingram_csv, write_yingram_binary):
        with pytest.raises(OSError):
            write(matrix, taken)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_translation_equivariance_small(cfg):
    # module-level spot check; the acceptance suite covers k in {-8,-4,4,8}
    from yingram import harmonic_tone, pitch_shifted_copy

    base = harmonic_tone(220.0, 0.6)
    y0 = compute_yingram(base, cfg)
    k = 4
    shifted = pitch_shifted_copy(base, -k / 2.0)
    yk = compute_yingram(shifted, cfg)
    frames = min(len(y0.unpadded()), len(yk.unpadded()))
    a = yk.unpadded()[:frames, 10:70]
    b = y0.unpadded()[:frames, 10 + k : 70 + k]
    assert np.mean(np.abs(a - b)) < 0.05
