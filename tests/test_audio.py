"""WAV ingestion, resampling and framing."""
import tracemalloc

import math
import re

import numpy as np
import pytest
import scipy.signal

from yingram import Frame, WavFormatError, Waveform, frame_signal, load_wav, resample, sine_tone
from yingram.audio import frame_count
from conftest import (
    _fmt,
    _riff,
    write_extensible_pcm16,
    write_float32,
    write_mulaw,
    write_pcm16,
    write_pcm24,
    write_pcm32_int,
    write_truncated,
    write_with_extra_chunk,
)
from oracles import fft_peak_hz, resample_unbounded


def test_pcm16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    write_pcm16(path, np.array([0, 16384], dtype=np.int16), sr=8000)
    w = load_wav(path)
    assert w.sample_rate == 8000
    np.testing.assert_allclose(w.samples, [0.0, 0.5])


def test_stereo_averaged_to_mono(tmp_path):
    path = tmp_path / "st.wav"
    # interleaved L/R: (1.0, 0.0) per frame as int16
    write_pcm16(path, np.array([32767, 0, 32767, 0], dtype=np.int16), sr=8000, channels=2)
    w = load_wav(path)
    np.testing.assert_allclose(w.samples, [32767 / 32768 / 2] * 2)


def test_pcm24(tmp_path):
    path = tmp_path / "deep.wav"
    write_pcm24(path, np.array([0, 4194304, -4194304]), sr=8000)
    w = load_wav(path)
    np.testing.assert_allclose(w.samples, [0.0, 0.5, -0.5])


def test_float32_passthrough(tmp_path):
    path = tmp_path / "f.wav"
    samples = np.array([0.25, -0.75, 1.0], dtype=np.float32)
    write_float32(path, samples, sr=44100)
    w = load_wav(path)
    np.testing.assert_allclose(w.samples, samples, rtol=1e-7)
    assert w.sample_rate == 44100


def test_mulaw_rejected(tmp_path):
    path = tmp_path / "mu.wav"
    write_mulaw(path)
    with pytest.raises(WavFormatError, match="unsupported format"):
        load_wav(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "trunc.wav"
    write_truncated(path)
    with pytest.raises(WavFormatError, match="corrupt file"):
        load_wav(path)


def test_not_riff_rejected(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"OggS" + b"\x00" * 64)
    with pytest.raises(WavFormatError, match="unsupported format"):
        load_wav(path)


def test_extensible_pcm16(tmp_path):
    path = tmp_path / "ext.wav"
    write_extensible_pcm16(path, np.array([0, -16384], dtype=np.int16), sr=16000)
    w = load_wav(path)
    np.testing.assert_allclose(w.samples, [0.0, -0.5])


def test_int32_pcm_rejected(tmp_path):
    path = tmp_path / "i32.wav"
    write_pcm32_int(path)
    with pytest.raises(WavFormatError, match="unsupported format"):
        load_wav(path)


def test_extra_chunks_skipped(tmp_path):
    path = tmp_path / "list.wav"
    write_with_extra_chunk(path, np.array([16384], dtype=np.int16))
    w = load_wav(path)
    np.testing.assert_allclose(w.samples, [0.5])


@pytest.mark.parametrize("blob, message", [
    (_riff(_fmt(1, 1, 8000, 16)[:8], b"\x00\x00"), "corrupt file: fmt chunk too short"),
    (_riff(_fmt(0xFFFE, 1, 8000, 16), b"\x00\x00"),
     "corrupt file: extensible fmt chunk too short"),
    (b"RIFF\x00\x00", "corrupt file: shorter than a RIFF header"),
    (b"RIFF\x04\x00\x00\x00WAVE", "corrupt file: missing fmt or data chunk"),
    (_riff(_fmt(1, 0, 8000, 16), b"\x00\x00"), "corrupt file: zero channels"),
    (_riff(_fmt(3, 1, 8000, 32), np.array([0.5, np.nan], dtype="<f4").tobytes()),
     "corrupt file: non-finite samples"),
])
def test_corrupt_files_name_their_fault(tmp_path, blob, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(blob)
    with pytest.raises(WavFormatError, match=f"^{re.escape(message)}$"):
        load_wav(path)


def test_a_trailing_partial_sample_frame_is_dropped(tmp_path):
    path = tmp_path / "odd.wav"
    # one stereo PCM16 frame (L=16384, R=0) and two bytes of the next
    data = np.array([16384, 0, 8192], dtype="<i2").tobytes()
    path.write_bytes(_riff(_fmt(1, 2, 8000, 16), data))
    np.testing.assert_array_equal(load_wav(path).samples, [0.25])


def test_load_wav_does_not_copy_the_data_chunk(tmp_path):
    n = 200_000
    path = tmp_path / "a.wav"
    write_pcm16(path, (np.sin(np.arange(n) * 0.01) * 8000).astype(np.int32))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        w = load_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w.samples) == n
    # the file's bytes, the float64 samples, and less than one more file
    assert peak < 2 * size + 8 * n


def test_waveform_requires_positive_rate():
    with pytest.raises(ValueError):
        Waveform(np.zeros(4), 0)


@pytest.mark.parametrize("rate", [0, -1, math.nan, math.inf, True, 22050.5, 22050.0, "22050"])
def test_one_sample_rate_rule(rate):
    # inf, nan and 22050.5 once failed inside resample, each differently,
    # and True resampled 100 samples as a 1 Hz clip into 2,205,000
    x = np.zeros(100)
    with pytest.raises(ValueError, match="sample_rate must be"):
        Waveform(x, rate)
    with pytest.raises(ValueError, match="sample_rate must be"):
        Frame(x, 0, rate)
    with pytest.raises(ValueError, match="target_sr must be"):
        resample(Waveform(x, 22050), rate)


@pytest.mark.parametrize("samples, shape", [
    (np.zeros((3000, 2)), "(3000, 2)"),  # once failed later with "could not broadcast"
    (np.float64(0.5), "()"),
])
def test_waveform_rejects_samples_that_are_not_1d(samples, shape):
    with pytest.raises(ValueError, match=re.escape(f"samples must be 1-D (mono), got shape {shape}")):
        Waveform(samples, 22050)


def test_numpy_integer_rates_are_stored_as_int():
    w = Waveform(np.zeros(100), np.int64(22050))
    assert type(w.sample_rate) is int
    assert type(Frame(w.samples, 0, np.uint16(22050)).sample_rate) is int
    out = resample(w, np.int32(11025))
    assert type(out.sample_rate) is int and len(out) == 50


def test_resample_identity():
    w = sine_tone(440.0, 0.1)
    out = resample(w, w.sample_rate)
    np.testing.assert_array_equal(out.samples, w.samples)


def test_resample_length():
    w = sine_tone(440.0, 1.0, 44100)
    out = resample(w, 22050)
    assert len(out.samples) == 22050
    assert out.sample_rate == 22050


def test_resample_preserves_tone():
    w = sine_tone(440.0, 1.0, 44100)
    out = resample(w, 22050)
    assert fft_peak_hz(out.samples, 22050) == pytest.approx(440.0, abs=1.0)


def test_resample_round_trip_sine():
    w = sine_tone(440.0, 1.0, 22050)
    back = resample(resample(w, 44100), 22050)
    n = min(len(w.samples), len(back.samples))
    trim = 2000  # discard filter-edge transients
    err = np.max(np.abs(w.samples[trim : n - trim] - back.samples[trim : n - trim]))
    assert err < 1e-3


def test_resample_requires_positive_target():
    with pytest.raises(ValueError):
        resample(sine_tone(440.0, 0.01), 0)


@pytest.mark.parametrize(
    "source, target",
    [(sr, 22050) for sr in (8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000, 88200, 96000)]
    + [(22050, 31183)],  # pitch_shifted_copy at scope shift 12, the largest factor
)
def test_resample_common_rates_match_unbounded_filter(source, target):
    x = np.random.default_rng(source).standard_normal(source // 20)
    out = resample(Waveform(x, source), target)
    assert np.array_equal(out.samples, resample_unbounded(x, source, target))


def test_resample_coprime_rates_bound_the_filter(monkeypatch):
    taps = []
    firwin = scipy.signal.firwin

    def spy(numtaps, *args, **kwargs):
        taps.append(numtaps)
        return firwin(numtaps, *args, **kwargs)

    monkeypatch.setattr(scipy.signal, "firwin", spy)
    x = sine_tone(440.0, 0.05, sample_rate=44100).samples
    out = resample(Waveform(x, 44100), 22051)  # exact ratio needs 2.8M taps
    assert taps and max(taps) <= 64 * 2**15 + 1
    assert len(out.samples) == round(len(x) * 22051 / 44100)
    ideal = 0.6 * np.sin(2.0 * np.pi * 440.0 * np.arange(len(out.samples)) / 22051)
    np.testing.assert_allclose(out.samples[100:-100], ideal[100:-100], atol=1e-3)


def test_resample_rejects_absurd_header_rate():
    w = Waveform(np.zeros(64), 2**32 - 1)  # the largest rate a WAV header holds
    with pytest.raises(ValueError, match="unsupported resampling ratio"):
        resample(w, 22050)


def test_framing_counts_and_starts():
    w = Waveform(np.arange(1000, dtype=float), 22050)
    frames = frame_signal(w, 512, 256)
    assert len(frames) == 4
    assert [f.start_index for f in frames] == [0, 256, 512, 768]


def test_last_frame_padding():
    w = Waveform(np.ones(1000), 22050)
    last = frame_signal(w, 512, 256)[-1]
    assert last.padded
    assert int(np.count_nonzero(last.samples)) == 232  # 1000 - 768 real samples
    assert int(np.sum(last.samples == 0.0)) == 280


def test_single_frame_when_hop_equals_length():
    w = Waveform(np.ones(600), 22050)
    frames = frame_signal(w, 512, 600)
    assert len(frames) == 1
    assert not frames[0].padded


def test_interior_coverage_count():
    n, frame_len, hop = 5000, 512, 256
    w = Waveform(np.ones(n), 22050)
    cover = np.zeros(n + frame_len)
    for f in frame_signal(w, frame_len, hop):
        cover[f.start_index : f.start_index + frame_len] += 1
    expected = -(-frame_len // hop)  # ceil
    interior = cover[frame_len : n - frame_len]
    assert np.all(interior == expected)


def test_framing_validates_arguments():
    w = Waveform(np.ones(100), 22050)
    with pytest.raises(ValueError):
        frame_signal(w, 0, 10)
    with pytest.raises(ValueError):
        frame_signal(w, 10, 0)


@pytest.mark.parametrize("frame_len, hop, message", [
    (10, 2.5, "hop must be an integer, got 2.5"),  # frame_count once returned 400.0
    (10, True, "hop must be an integer, got True"),
    (10, 0, "hop must be at least 1, got 0"),
    (10.0, 5, "frame_len must be an integer, got 10.0"),
    (0, 5, "frame_len must be at least 1, got 0"),
])
def test_frame_lengths_and_hops_read_the_integer_rule(frame_len, hop, message):
    with pytest.raises(ValueError, match=message):
        frame_count(1000, frame_len, hop)
    with pytest.raises(ValueError, match=message):
        frame_signal(Waveform(np.ones(1000), 22050), frame_len, hop)


@pytest.mark.parametrize("num_samples, message", [
    (-5, "num_samples must be at least 0, got -5"),  # once -1 frames
    (1000.5, "num_samples must be an integer, got 1000.5"),  # once 201.0 frames
    (True, "num_samples must be an integer, got True"),
])
def test_frame_count_reads_the_integer_rule_for_its_sample_count(num_samples, message):
    with pytest.raises(ValueError, match=message):
        frame_count(num_samples, 10, 5)


def test_frame_count_of_integer_sample_counts():
    assert frame_count(0, 10, 5) == 0
    assert frame_count(1000, 10, 5) == 200
    assert type(frame_count(np.int64(1001), 10, 5)) is int
