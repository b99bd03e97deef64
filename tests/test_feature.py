"""Yingram computation, valley placement and export formats."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yingram import (
    DEFAULT_GRID,
    Frame,
    NoteGrid,
    Waveform,
    YingramMatrix,
    channel_lags,
    compute_yingram,
    note_to_hz,
    sine_tone,
    vibrato_tone,
    write_yingram_binary,
    write_yingram_csv,
    yingram_frame,
    yingram_from_frame,
)
from yingram.cli import main
from yingram.feature import _atomic_write, _write_json, yingram_rows
from conftest import write_wav

SR = 22050


def test_silence_gives_flat_ones(cfg):
    matrix = compute_yingram(Waveform(np.zeros(SR // 3), SR), cfg)
    assert np.all(matrix.values == 1.0)


def test_integer_lag_is_sampled_exactly(rng):
    # at 44000 Hz the reference note's lag is exactly 100 samples
    grid = NoteGrid()
    values = rng.uniform(0.0, 2.0, size=900)
    out = yingram_frame(values, 44000, grid)
    assert 44000 / note_to_hz(69) == 100.0
    assert out[74] == values[100]


def test_interpolation_matches_np_interp(rng):
    values = rng.uniform(0.0, 2.0, size=500)
    out = yingram_frame(values, SR, NoteGrid())
    lags = channel_lags(NoteGrid(), SR)
    expected = np.interp(lags, np.arange(len(values)), values)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_lag_out_of_range(rng):
    values = rng.uniform(0.0, 2.0, size=100)
    with pytest.raises(ValueError, match="lag out of range"):
        yingram_frame(values, SR, NoteGrid())


@pytest.mark.parametrize("lags", [
    [-3.5, 10.0],  # once read near tau 424 through a wrapped index
    [math.nan, 10.0],  # once "RuntimeWarning: invalid value encountered in cast"
    [1e304],  # once a 305-digit lag in the message
], ids=["negative", "nan", "huge"])
def test_yingram_rows_rejects_lags_off_the_curve(lags):
    with pytest.raises(ValueError, match="lag out of range") as err:
        yingram_rows(np.linspace(1.0, 0.0, 427), np.array(lags))
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("method", ["fft", "naive"])
def test_yingram_from_frame_rejects_non_finite_samples(rng, method, bad):
    # once "the samples of frames 0..0 are too large for their CMND in float64"
    x = rng.standard_normal(2048 + 426)
    x[7] = bad
    with pytest.raises(ValueError, match=r"non-finite samples: 1 of 2474 .* index 7"):
        yingram_from_frame(x, DEFAULT_GRID, SR, 2048, method=method)


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


@pytest.mark.parametrize("rate, message", [
    (math.nan, "sample_rate must be an integer, got nan"),  # yingram_frame: IndexError
    (True, "sample_rate must be an integer, got True"),
    (22050.5, "sample_rate must be an integer, got 22050.5"),
])
def test_per_frame_features_read_the_integer_rate_rule(rng, rate, message):
    x = rng.standard_normal(2048 + 426)
    values = np.ones(427)
    with pytest.raises(ValueError, match=message):
        yingram_frame(values, rate)
    with pytest.raises(ValueError, match=message):
        yingram_from_frame(x, DEFAULT_GRID, rate, 2048)


def test_yingram_from_frame_reads_the_frame_rate(rng):
    x = rng.standard_normal(2 * 2048 + 852)
    # once the 22050 Hz Yingram of a 44100 Hz frame, without a word
    with pytest.raises(ValueError, match="frame at 44100 Hz, sample_rate is 22050"):
        yingram_from_frame(Frame(x, 0, 44100), DEFAULT_GRID, 22050, 2048)
    np.testing.assert_array_equal(
        yingram_from_frame(Frame(x, 0, 44100), DEFAULT_GRID, 44100, 2048),
        yingram_from_frame(x, DEFAULT_GRID, 44100, 2048),
    )


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


def test_csv_export_exact_text(tmp_path, cfg):
    values = np.array([[1e-9, -0.0, 1.0, 3.4e38]], dtype=np.float32)
    out = tmp_path / "y.csv"
    write_yingram_csv(YingramMatrix(values, cfg.grid, cfg.hop, cfg.sample_rate), out)
    assert out.read_text() == "frame,c0,c1,c2,c3\n0,9.99999972e-10,-0,1,3.39999995e+38\n"


def _assert_csv_is_the_f32(matrix: YingramMatrix, tmp_path) -> None:
    """The matrix's CSV, read back and cast to float32, is its .f32 (NaN by isnan)."""
    csv, binary = tmp_path / "y.csv", tmp_path / "y.f32"
    write_yingram_csv(matrix, csv)
    write_yingram_binary(matrix, binary)
    rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(rows[:, 0], np.arange(len(rows)))
    parsed, stored = rows[:, 1:].astype("<f4").ravel(), np.fromfile(binary, dtype="<f4")
    assert parsed.size == stored.size
    nan = np.isnan(stored)
    np.testing.assert_array_equal(np.isnan(parsed), nan)
    assert parsed[~nan].tobytes() == stored[~nan].tobytes()


def test_csv_of_a_float64_matrix_is_its_f32(tmp_path, cfg):
    # 1/3 is not a float32: the CSV writes the float32 the .f32 stores, not
    # the float64's 17 digits (which parse and cast to the same float32 too)
    values = np.array([[0.1, 1 / 3, 2.0]])
    _assert_csv_is_the_f32(YingramMatrix(values, cfg.grid, cfg.hop, cfg.sample_rate), tmp_path)
    assert (tmp_path / "y.csv").read_text().splitlines()[1] == "0,0.100000001,0.333333343,2"


# bit patterns of subnormals, +-0, +-max finite, +-inf and NaN
_F32_EDGES = [
    0x00000001, 0x007FFFFF, 0x80000001, 0x807FFFFF, 0x00000000, 0x80000000,
    0x7F7FFFFF, 0xFF7FFFFF, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001,
]


def test_csv_parses_back_to_the_f32_edges(tmp_path):
    values = np.array([_F32_EDGES], dtype=np.uint32).view(np.float32)
    _assert_csv_is_the_f32(YingramMatrix(values, DEFAULT_GRID, 256, SR), tmp_path)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 16))
def test_csv_parses_back_to_the_f32_bits(tmp_path_factory, seed, frames, channels):
    # uniform bit patterns reach every exponent; %.8g fails on about 1.5% of them
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**32, size=(frames, channels), dtype=np.uint32)
    edges = rng.random(bits.shape) < 0.25
    bits[edges] = rng.choice(_F32_EDGES, size=int(edges.sum()))
    matrix = YingramMatrix(bits.view(np.float32), DEFAULT_GRID, 256, SR)
    _assert_csv_is_the_f32(matrix, tmp_path_factory.mktemp("bits"))


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


def test_sidecar_extra_may_not_restate_the_metadata(tmp_path, cfg):
    # the sidecar once said "frames": -1 beside a .f32 of 9 frames
    matrix = compute_yingram(sine_tone(330.0, 0.1), cfg)
    with pytest.raises(ValueError, match=r"^sidecar extra keys \['frames', 'hop'\] would overwrite"):
        write_yingram_binary(matrix, tmp_path / "y.f32", extra={"frames": -1, "hop": 1, "note": "x"})
    assert list(tmp_path.iterdir()) == []


def test_csv_and_binary_exports_share_one_sidecar(tmp_path):
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(330.0, 0.3))
    csv, binary = tmp_path / "y.csv", tmp_path / "y.f32"
    assert main(["analyze", str(wav), "--out", str(csv), "--binary", str(binary)]) == 0
    sidecar = (tmp_path / "y.csv.json").read_bytes()
    assert sidecar == (tmp_path / "y.f32.json").read_bytes()
    assert json.loads(sidecar)["grid"] == {
        "start_note": -5, "num_channels": 80, "bins_per_octave": 24,
        "reference_note": 69, "reference_hz": 440.0,
    }


def test_failed_export_leaves_no_files(tmp_path, cfg):
    matrix = compute_yingram(sine_tone(330.0, 0.1), cfg)
    taken = tmp_path / "taken"
    taken.mkdir()  # the rename onto a directory fails after the temp file is written
    for write in (write_yingram_csv, write_yingram_binary):
        with pytest.raises(OSError):
            write(matrix, taken)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_csv_export_streams_rows(tmp_path, cfg):
    # 5200 x 80 values make a 4.8 MiB file; the rows go out one at a time
    values = np.random.default_rng(0).random((5200, 80)).astype(np.float32)
    matrix = YingramMatrix(values, cfg.grid, cfg.hop, cfg.sample_rate)
    out = tmp_path / "y.csv"
    tracemalloc.start()
    try:
        write_yingram_csv(matrix, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 9 << 19
    assert peak < 1 << 20
    lines = out.read_text().splitlines()
    assert len(lines) == 5201
    assert lines[5200] == "5199," + ",".join("%.9g" % v for v in values[-1].tolist())


def test_atomic_write_rejects_a_str(tmp_path):
    with pytest.raises(TypeError, match="not a str"):
        _atomic_write(tmp_path / "x.txt", "one line")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_of_failing_lines_leaves_no_file(tmp_path):
    def lines():
        yield "first"
        raise RuntimeError("source failed midway")

    with pytest.raises(RuntimeError, match="midway"):
        _atomic_write(tmp_path / "x.txt", lines())
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_lines_and_buffers(tmp_path):
    _atomic_write(tmp_path / "a.txt", iter(["a", "", "b"]))
    assert (tmp_path / "a.txt").read_bytes() == b"a\n\nb\n"
    _atomic_write(tmp_path / "empty.txt", [])
    assert (tmp_path / "empty.txt").read_bytes() == b""
    values = np.arange(6, dtype="<f4").reshape(2, 3)
    _atomic_write(tmp_path / "a.f32", values)
    assert (tmp_path / "a.f32").read_bytes() == values.tobytes()


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_the_json_writer_refuses_a_non_finite_float(tmp_path, capsys, value):
    # it once wrote a bare `NaN` or `Infinity` token, which is not JSON
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _write_json(path, {"ok": 1.0, "nested": [{"value": value}]})
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(None, {"value": value})
    assert capsys.readouterr().out == ""

