"""WAV ingestion, resampling and framing."""
import tracemalloc

import math
import os
import re
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import assume, given, settings, strategies as st

from yingram import (
    Frame,
    WavFormatError,
    Waveform,
    harmonic_tone,
    load_wav,
    pitch_shifted_copy,
    random_tonal_frame,
    resample,
    shift_to_semitones,
    sine_tone,
    vibrato_tone,
)
from yingram import audio
from yingram.audio import frame_count, frame_signal
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
    set_usable_cores,
)
from oracles import decode_mean, fft_peak_hz, resample_firwin, resample_poly_firwin, resample_unbounded


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
    # channels that cancel to NaN once raised numpy's "invalid value" warning
    (_riff(_fmt(3, 2, 8000, 32), np.array([0.5, 0.5, np.inf, -np.inf], dtype="<f4").tobytes()),
     "corrupt file: non-finite samples"),
    (_riff(_fmt(3, 3, 8000, 32), np.array([np.inf, 1.0, 2.0], dtype="<f4").tobytes()),
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


FORMATS = {"s16": (1, 16), "s24": (1, 24), "f32": (3, 32)}


def _stored(name: str, values: np.ndarray) -> bytes:
    """The data chunk bytes of sample values in format `name`."""
    if name == "s24":
        return np.asarray(values, "<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return np.asarray(values, {"s16": "<i2", "f32": "<f4"}[name]).tobytes()


def _edge_values(name: str) -> np.ndarray:
    if name == "f32":
        tiny = np.finfo(np.float32).smallest_subnormal
        big = np.float32(3.4e38)
        return np.array([0.0, -0.0, tiny, -tiny, 2**-127, -1.0, 1.0, big, -big], np.float32)
    top = 2 ** (FORMATS[name][1] - 1)
    return np.array([-top, top - 1, -1, 0, 1])


def _random_values(name: str, rng, count: int) -> np.ndarray:
    if name == "f32":  # any finite float32: every exponent, subnormals too
        bits = rng.integers(0, 2**32, count, dtype=np.uint64).astype(np.uint32)
        values = bits.view(np.float32)
        return np.where(np.isfinite(values), values, np.float32(-0.0))
    top = 2 ** (FORMATS[name][1] - 1)
    return rng.integers(-top, top, count)


@pytest.mark.parametrize("name", FORMATS)
@pytest.mark.parametrize("n_channels", range(1, 9))
def test_decode_equals_the_mean_of_scaled_channels(tmp_path, name, n_channels):
    # bit for bit against the per-format rule: a frame of each edge value in
    # every channel, then the edge values scattered among random samples, past
    # numpy's 8192-element cast buffer, and a trailing partial frame
    rng = np.random.default_rng(n_channels)
    edges = _edge_values(name)
    values = _random_values(name, rng, 3000 * n_channels)
    values[: len(edges) * n_channels] = np.repeat(edges, n_channels)
    spots = rng.integers(0, len(values), 200)
    values[spots] = rng.choice(edges, len(spots))
    tag, bits = FORMATS[name]
    data = _stored(name, values) + b"\x7f" * int(rng.integers(1, n_channels * bits // 8))
    path = tmp_path / "x.wav"
    path.write_bytes(_riff(_fmt(tag, n_channels, 8000, bits), data))
    expected = decode_mean(data, tag, bits, n_channels)
    assert len(expected) == 3000
    assert load_wav(path).samples.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=60)
@given(
    name=st.sampled_from(["s16", "s24"]),
    n_channels=st.integers(2, 8),
    frames=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_integer_channels_add_to_the_mean_of_scaled_channels(name, n_channels, frames, seed):
    # column adds of full-scale extremes, zeros and random samples, bit for bit
    # against the per-format rule, each frame's channels averaged by `mean`
    rng = np.random.default_rng(seed)
    top = 2 ** (FORMATS[name][1] - 1)
    pool = np.array([-top, top - 1, 0, -1, 1, int(rng.integers(-top, top))])
    values = rng.choice(pool, frames * n_channels)
    tag, bits = FORMATS[name]
    data = _stored(name, values)
    out = np.empty(frames)
    audio._decode_samples(bytearray(b"\0" * (bits == 24)) + data, tag, bits, n_channels, out)
    assert out.tobytes() == decode_mean(data, tag, bits, n_channels).tobytes()


@pytest.mark.parametrize("name", FORMATS)
def test_stereo_decode_holds_no_per_channel_float_copy(tmp_path, name):
    # the traced peak is the file's bytes, the float64 mono samples (8 B per
    # frame), the finite check's bool (1 B), for 24 bits the int32 stage
    # (4 B per sample), and numpy's cast buffers; a float64 copy of every
    # channel, averaged after, adds 16 B per frame
    frames = 50_000
    tag, bits = FORMATS[name]
    values = _random_values(name, np.random.default_rng(bits), 2 * frames)
    path = tmp_path / "st.wav"
    path.write_bytes(_riff(_fmt(tag, 2, 44100, bits), _stored(name, values)))
    stage = 8 * frames if bits == 24 else 0
    tracemalloc.start()
    try:
        w = load_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == frames
    assert peak < path.stat().st_size + 9 * frames + stage + 64 * 1024


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


BLOCK = 6  # stored samples per block read, so a clip of a few frames spans many


def _chunk(cid: bytes, body: bytes) -> bytes:
    """One RIFF chunk, with the pad byte that word-aligns an odd-sized body."""
    return cid + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def _wave(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("layout", ["fmt-data", "fmt-data-list", "data-fmt"])
@pytest.mark.parametrize("name", FORMATS)
@pytest.mark.parametrize("n_channels", [1, 2, 3])
def test_block_reads_equal_the_mean_of_scaled_channels(
    tmp_path, monkeypatch, layout, name, n_channels
):
    # one block less a frame, one block, one block and a frame, and several
    # blocks, each with a trailing partial frame; data chunks of odd size are
    # followed by their pad byte
    monkeypatch.setattr(audio, "_BLOCK_SAMPLES", BLOCK)
    block = BLOCK // n_channels  # frames
    tag, bits = FORMATS[name]
    rng = np.random.default_rng(n_channels)
    fmt = _chunk(b"fmt ", _fmt(tag, n_channels, 8000, bits))
    listing = _chunk(b"LIST", b"INFOx")
    for frames in (block - 1, block, block + 1, 5 * block + 2):
        values = _random_values(name, rng, frames * n_channels)
        data = _stored(name, values) + b"\x7f" * (n_channels * bits // 8 - 1)
        chunks = {
            "fmt-data": (fmt, _chunk(b"data", data)),
            "fmt-data-list": (fmt, _chunk(b"data", data), listing),
            "data-fmt": (_chunk(b"data", data), fmt),
        }[layout]
        path = tmp_path / f"{frames}.wav"
        path.write_bytes(_wave(*chunks))
        samples = load_wav(path).samples
        assert len(samples) == frames
        assert samples.tobytes() == decode_mean(data, tag, bits, n_channels).tobytes()


@pytest.mark.parametrize("n_channels, last", [
    (1, [np.nan]), (2, [np.inf, -np.inf]), (3, [1.0, 2.0, -np.inf]),
])
def test_a_non_finite_sample_in_the_last_block_is_named(tmp_path, monkeypatch, n_channels, last):
    monkeypatch.setattr(audio, "_BLOCK_SAMPLES", BLOCK)
    values = np.full(n_channels * 20, 0.25, "<f4")
    values[-n_channels:] = last
    path = tmp_path / "late.wav"
    path.write_bytes(_riff(_fmt(3, n_channels, 8000, 32), values.tobytes()))
    with pytest.raises(WavFormatError, match="^corrupt file: non-finite samples$"):
        load_wav(path)


@pytest.mark.parametrize("blob, message", [
    # the data chunk claims 1000 bytes and carries 10
    (_wave(_chunk(b"fmt ", _fmt(1, 1, 8000, 16)), b"data" + struct.pack("<I", 1000) + b"\x00" * 10),
     "corrupt file: truncated b'data' chunk"),
    # a LIST chunk after the data runs one byte past the end of the file
    (_wave(_chunk(b"fmt ", _fmt(1, 1, 8000, 16)), _chunk(b"data", b"\x00" * 4),
           b"LIST" + struct.pack("<I", 9) + b"INFOxxxx"),
     "corrupt file: truncated b'LIST' chunk"),
    # so does the fmt chunk, before any data
    (_wave(b"fmt " + struct.pack("<I", 17) + _fmt(1, 1, 8000, 16)),
     "corrupt file: truncated b'fmt ' chunk"),
])
def test_a_truncated_chunk_is_named(tmp_path, blob, message):
    path = tmp_path / "trunc.wav"
    path.write_bytes(blob)
    with pytest.raises(WavFormatError, match=f"^{re.escape(message)}$"):
        load_wav(path)


class _ShrinkingFile:
    """A file whose second `readinto` fills only 100 bytes, as when the file
    shrinks after `load_wav` has walked its chunks."""

    def __init__(self, fh):
        self._fh, self._reads = fh, 0

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def readinto(self, view):
        self._reads += 1
        return self._fh.readinto(view[:100] if self._reads == 2 else view)


def test_a_short_read_of_the_data_chunk_is_named(tmp_path, monkeypatch):
    # once the block kept the previous block's bytes, and 40000 wrong samples came back
    path = tmp_path / "shrinks.wav"
    write_pcm16(path, np.arange(40000) % 2000 - 1000)
    monkeypatch.setattr(audio, "open", lambda *a: _ShrinkingFile(open(*a)), raising=False)
    with pytest.raises(WavFormatError, match=r"^corrupt file: truncated b'data' chunk$"):
        load_wav(path)


@pytest.mark.parametrize("name", FORMATS)
def test_load_wav_holds_the_clip_and_one_block(tmp_path, name):
    # beyond the float64 clip (8 B per frame) the traced peak is one block of
    # the data chunk and its decode, whatever the file's length: neither the
    # file's bytes nor a stage per sample
    tag, bits = FORMATS[name]

    def excess(frames: int) -> int:
        values = _random_values(name, np.random.default_rng(bits), 2 * frames)
        path = tmp_path / f"{frames}.wav"
        path.write_bytes(_riff(_fmt(tag, 2, 44100, bits), _stored(name, values)))
        tracemalloc.start()
        try:
            w = load_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w) == frames
        return peak - 8 * frames

    small, large = excess(50_000), excess(500_000)
    assert large < 256 * 1024
    assert large <= small + 4096


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
    # a clip already at the target rate is returned itself, not copied
    w = sine_tone(440.0, 0.1)
    assert resample(w, w.sample_rate) is w
    assert resample(w, np.int64(w.sample_rate)) is w
    assert pitch_shifted_copy(w, 0.0).samples is w.samples


@pytest.mark.parametrize("tone", [sine_tone, harmonic_tone, vibrato_tone])
@pytest.mark.parametrize("duration", [0.0, 1e-6])
def test_tones_shorter_than_one_sample_are_empty(tone, duration):
    w = tone(150.0, duration)
    assert len(w) == 0 and w.samples.dtype == np.float64 and w.sample_rate == 22050


@pytest.mark.parametrize("tone", [sine_tone, harmonic_tone, vibrato_tone])
@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, -1.0, -1e-9])
def test_tones_read_the_duration_rule(tone, duration):
    # once "cannot convert float NaN", an OverflowError, or an empty clip
    with pytest.raises(ValueError, match=f"^duration must be finite and at least 0, got {duration}$"):
        tone(150.0, duration)


@pytest.mark.parametrize("semitones, message", [
    (math.nan, "semitones must be a finite real, got nan"),
    (math.inf, "semitones must be a finite real, got inf"),
    (-math.inf, "semitones must be a finite real, got -inf"),  # once an OverflowError
    (-1e6, "semitones=-1000000.0 overflows the rate factor"),
    (-12.0 * 1020, "semitones=-12240.0 overflows the rate factor"),  # the factor holds, the rate does not
    # the rate rounds to 0 Hz: once "target_sr must be at least 1, got 0"
    (400.0, "semitones=400.0 takes the rate of 22050 Hz below 1 Hz"),
    (1e300, "semitones=1e+300 takes the rate of 22050 Hz below 1 Hz"),
])
def test_pitch_shifted_copy_reads_the_shift_rule(semitones, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pitch_shifted_copy(sine_tone(150.0, 0.1), semitones)


@pytest.mark.parametrize("call, message", [
    (lambda: sine_tone(220.0, 1e305), "duration=1e+305 s at sample_rate=22050 Hz"),  # once OverflowError
    (lambda: sine_tone(220.0, 1e300), "duration=1e+300 s at sample_rate=22050 Hz"),
    (lambda: sine_tone(220.0, 1.0, sample_rate=10**30), f"duration=1.0 s at sample_rate={10**30} Hz"),
    (lambda: harmonic_tone(220.0, 1.0, sample_rate=10**400), "duration=1.0 s at sample_rate=1000"),
    (lambda: vibrato_tone(220.0, np.float64(1e300)), "duration=1e+300 s at sample_rate=22050 Hz"),
], ids=["product-overflows", "count-too-large", "rate-too-large", "rate-beyond-a-float", "numpy-float"])
def test_tones_read_the_sample_count_rule(call, message):
    # the count is checked before `np.arange`, which once raised numpy's
    # "Maximum allowed size exceeded"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}.* is over the clip limit of "
                                         f"{sys.maxsize} samples$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: sine_tone(math.inf, 0.1), "freq must be a finite real, got inf"),  # once a RuntimeWarning
    (lambda: sine_tone(math.nan, 0.1), "freq must be a finite real, got nan"),  # once an all-NaN clip
    (lambda: sine_tone(220.0, 0.1, amplitude=math.inf), "amplitude must be a finite real, got inf"),
    (lambda: sine_tone(220.0, 0.1, phase=-math.inf), "phase must be a finite real, got -inf"),
    (lambda: harmonic_tone(math.nan, 0.1), "f0 must be a finite real, got nan"),
    (lambda: harmonic_tone(220.0, 0.1, amplitude=math.nan), "amplitude must be a finite real, got nan"),
    (lambda: vibrato_tone(math.inf, 0.1), "f0 must be a finite real, got inf"),
    (lambda: vibrato_tone(220.0, 0.1, depth_semitones=math.nan), "depth_semitones must be a finite real, got nan"),
    (lambda: vibrato_tone(220.0, 0.1, rate_hz=math.inf), "rate_hz must be a finite real, got inf"),
    (lambda: harmonic_tone(220.0, 0.1, n_harmonics=0), "n_harmonics must be at least 1, got 0"),  # once all NaN
    (lambda: harmonic_tone(220.0, 0.1, n_harmonics=2.5), "n_harmonics must be an integer, got 2.5"),
    (lambda: random_tonal_frame(np.random.default_rng(0), 0), "frame_len must be at least 1, got 0"),
])
def test_generators_read_the_parameter_rules(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, named", [
    (lambda: sine_tone(1e308, 0.1), "freq=1e+308, phase=0.0, duration=0.1"),
    (lambda: harmonic_tone(1e307, 0.1), "f0=1e+307, n_harmonics=6, duration=0.1"),
    (lambda: vibrato_tone(220, 0.1, rate_hz=1e308), "f0=220, depth_semitones=0.5, rate_hz=1e+308"),
    (lambda: vibrato_tone(220, 0.1, depth_semitones=1e5), "f0=220, depth_semitones=100000.0"),
], ids=["sine-freq", "harmonic-f0", "vibrato-rate", "vibrato-depth"])
def test_a_phase_that_overflows_is_named(call, named):
    # each once warned (inf * 0 is NaN at t = 0) and returned a NaN clip
    with pytest.raises(ValueError, match=f"^the phase of {re.escape(named)}.* overflows a float$"):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude", [1e308, -1e308, sys.float_info.max])
def test_a_scaled_tone_that_overflows_is_named(amplitude):
    # once a RuntimeWarning and a clip with infinite samples
    named = re.escape(f"amplitude={amplitude}")
    with pytest.raises(ValueError, match=f"^the scaled tone of {named} overflows a float$"):
        harmonic_tone(220.0, 0.1, amplitude=amplitude)


def test_the_phase_rule_changes_no_sample():
    # the same expressions without the rule's flags, to the last bit
    t = np.arange(2205) / 22050
    sine = 0.6 * np.sin(2.0 * np.pi * 220.0 * t + 0.3)
    inst = 180.0 * 2.0 ** (0.5 * np.sin(2.0 * np.pi * 5.0 * t) / 12.0)
    vibrato = 0.6 * np.sin(2.0 * np.pi * np.cumsum(inst) / 22050)
    rng = np.random.default_rng(4)
    x = np.zeros_like(t)
    for h in range(1, 7):
        x += np.sin(2.0 * np.pi * 150.0 * h * t + rng.uniform(0.0, 2.0 * np.pi)) / h
    harmonic = 0.5 * x / np.max(np.abs(x))
    assert sine_tone(220.0, 0.1, phase=0.3).samples.tobytes() == sine.tobytes()
    assert vibrato_tone(180.0, 0.1).samples.tobytes() == vibrato.tobytes()
    assert harmonic_tone(150.0, 0.1, seed=4).samples.tobytes() == harmonic.tobytes()


def test_numpy_parameters_give_the_same_tone():
    # the rules pass a parameter on unchanged, so its type changes no sample
    w = harmonic_tone(220.0, 0.1, n_harmonics=3)
    v = harmonic_tone(np.float64(220.0), np.float64(0.1), np.int64(22050), n_harmonics=np.int32(3))
    assert v.samples.tobytes() == w.samples.tobytes()


def _spy_calls(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Spy on `audio._resample_part`, the one kernel call of each part (or of
    the whole input): (its input, its output) per call, as they return."""
    calls = []
    real = audio._resample_part

    def spy(part, *args):
        calls.append((part, real(part, *args)))
        return calls[-1][1]

    monkeypatch.setattr(audio, "_resample_part", spy)
    return calls


def _oracle(x: np.ndarray, source: int, target: int) -> np.ndarray:
    """`resample`'s samples from one scipy.signal.resample_poly call over the
    whole input, with firwin's filter, at `resample`'s ratio and length."""
    return resample_firwin(x, source, target, *audio._polyphase_factors(source, target))


def _margin(up: int, down: int) -> int:
    """The inputs one output reads, len(fir) / up, rounded up to a multiple of down."""
    return -(-(-(-(64 * max(up, down) + 1) // up)) // down) * down


def _check_parts(calls, x: np.ndarray, source: int, target: int, split: int) -> None:
    """The part rule: below `split` samples, one call on the whole of x;
    from it on, at least two parts whose own samples follow each other in
    input order and start at multiples of down, at most `split` (or down)
    of them to a part, each part reading a margin past its own samples on
    each side, clipped to x."""
    up, down = audio._polyphase_factors(source, target)
    spans = sorted(((part.ctypes.data - x.ctypes.data) // x.itemsize, len(part)) for part, _ in calls)
    if len(x) < split:
        assert spans == [(0, len(x))]
        return
    margin = _margin(up, down)
    own = [0] + [start + margin for start, _ in spans[1:]] + [len(x)]
    assert len(spans) >= 2
    for (start, length), first, stop in zip(spans, own, own[1:]):
        assert first % down == 0 and 0 < stop - first <= max(split, down)
        assert (start, start + length) == (max(first - margin, 0), min(stop + margin, len(x)))


def test_resample_pads_a_short_filter_output_with_zeros(monkeypatch):
    # 48000 -> 47999 Hz: the bounded filter resamples by 32767/32768, so
    # resample_poly returns 65534 samples of a 65536-sample clip, and the
    # length rule asks for round(65536 * 47999 / 48000) = 65535
    calls = _spy_calls(monkeypatch)
    w = Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, 65536), 48000)
    out = resample(w, 47999)
    assert len(calls) == 1 and len(calls[0][1]) == 65534
    assert calls[0][1].tobytes() == resample_poly_firwin(w.samples, 32767, 32768).tobytes()
    assert len(out) == 65535 and out.sample_rate == 47999
    assert out.samples[-1] == 0.0
    assert out.samples[:-1].tobytes() == calls[0][1].tobytes()


def test_resample_pads_a_short_filter_output_with_zeros_on_a_long_input(monkeypatch):
    # the twin of the test above on 2**17 samples, which resample in two
    # parts: resample_poly of the whole clip returns 131068 samples, and the
    # length rule asks for round(131072 * 47999 / 48000) = 131069
    set_usable_cores(monkeypatch, 2)
    x = np.random.default_rng(0).uniform(-0.5, 0.5, 2**17)
    whole = resample_poly_firwin(x, 32767, 32768)
    calls = _spy_calls(monkeypatch)
    out = resample(Waveform(x, 48000), 47999)
    assert len(calls) == 2 and len(whole) == 131068
    assert len(out) == 131069 and out.sample_rate == 47999
    assert out.samples[-1] == 0.0
    assert out.samples[:-1].tobytes() == whole.tobytes()


COMMON_RATES = (8000, 11025, 16000, 22050, 32000, 44100, 48000, 88200, 96000)
COMMON_PAIRS = sorted({pair for target in (22050, 44100) for sr in COMMON_RATES if sr != target
                       for pair in ((sr, target), (target, sr))})
# the capped ratio (32767/32768), and scope-shift copies at 22.05 kHz
SPLIT_PAIRS = COMMON_PAIRS + [(48000, 47999)] + [
    (22050, int(round(22050 * 2.0 ** (-shift_to_semitones(s) / 12.0)))) for s in (1, -12, 15)]
SPLIT_LENGTHS = (2**17 - 1, 2**17, 2**17 + 1, 2**17 + 2**15 + 3)


# split sizes: the real one (one or two parts about it), and ones that cut
# the same inputs into about 4 and about 9 parts
@pytest.mark.parametrize("split", [audio._SPLIT_SAMPLES, 2**15 + 1, 2**14])
@pytest.mark.parametrize("pair", SPLIT_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_split_resample_equals_one_call_bit_for_bit(monkeypatch, pair, split):
    # each pair at one of the lengths about the split threshold, in turn
    n = SPLIT_LENGTHS[SPLIT_PAIRS.index(pair) % len(SPLIT_LENGTHS)]
    x = np.random.default_rng(n).standard_normal(n)
    expected = _oracle(x, *pair)
    set_usable_cores(monkeypatch, 2)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", split)
    calls = _spy_calls(monkeypatch)
    assert resample(Waveform(x, pair[0]), pair[1]).samples.tobytes() == expected.tobytes()
    _check_parts(calls, x, *pair, split)


@settings(deadline=None, max_examples=60)
@given(pair=st.sampled_from(COMMON_PAIRS), n=st.integers(0, 12000).map(lambda k: 2 * k + 1),
       parts=st.integers(2, 8))
def test_split_resample_of_short_odd_inputs_equals_one_call(pair, n, parts):
    # the split forced on short inputs, at about `parts` parts: inputs too
    # short for parts and their margins take one call, the others two or more
    x = np.random.default_rng(n).standard_normal(n)
    expected = _oracle(x, *pair)
    split = max(1, n // parts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audio, "_SPLIT_SAMPLES", split)
        set_usable_cores(patch, 2)
        calls = _spy_calls(patch)
        assert resample(Waveform(x, pair[0]), pair[1]).samples.tobytes() == expected.tobytes()
    if len(calls) > 1:
        _check_parts(calls, x, *pair, split)
    else:
        assert calls[0][0].ctypes.data == x.ctypes.data and len(calls[0][0]) == n
    # every common pair splits once a part holds 1280 samples (the largest
    # margin of a common pair is 640); shorter ones may not
    assert len(calls) >= 2 or split < 1280


@pytest.mark.parametrize("n", [2**15 + 1, 2**17 + 3])
@pytest.mark.parametrize("dtype", [np.int16, np.float32])
@pytest.mark.parametrize("pair", [(44100, 22050), (48000, 22050), (16000, 22050)],
                         ids=lambda p: f"{p[0]}-{p[1]}")
def test_integer_and_float32_samples_resample_as_resample_poly(monkeypatch, pair, dtype, n):
    # resample_poly computes in float64 with a float64 filter, whatever the samples
    set_usable_cores(monkeypatch, 2)
    x = np.clip(np.random.default_rng(n).standard_normal(n) * 8000, -32768, 32767).astype(dtype)
    calls = _spy_calls(monkeypatch)
    out = resample(Waveform(x, pair[0]), pair[1]).samples
    assert out.dtype == np.float64
    assert out.tobytes() == _oracle(x, *pair).tobytes()
    assert len(calls) == (1 if n < audio._SPLIT_SAMPLES else 2)


@settings(deadline=None, max_examples=100)
@given(up=st.integers(1, 60), down=st.integers(1, 60), n=st.integers(0, 6000),
       split=st.integers(64, 8000), cores=st.sampled_from([1, 2]))
def test_resample_poly_equals_scipy_over_random_ratios(up, down, n, split, cores):
    # in lowest terms, as `resample` asks: never 1/1, which resample_poly copies
    g = math.gcd(up, down)
    up, down = up // g, down // g
    assume(up != down)
    x = np.random.default_rng(n).standard_normal(n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audio, "_SPLIT_SAMPLES", split)
        set_usable_cores(patch, cores)
        y = audio._resample_poly(x, up, down, audio._kaiser_sinc(max(up, down)))
    assert y.tobytes() == resample_poly_firwin(x, up, down).tobytes()


def _spy_parts(monkeypatch, x: np.ndarray, act=lambda first: None) -> list[tuple[bool, bool]]:
    """Spy on `audio._resample_part` while `x` resamples: per call, whether
    its input starts at x[0] (the first part, or the whole) and whether it
    runs on the calling thread. `act(first)` runs before the real call."""
    caller, calls = threading.current_thread(), []
    real = audio._resample_part

    def spy(part, *args):
        first = part.ctypes.data == x.ctypes.data
        calls.append((first, threading.current_thread() is caller))
        act(first)
        return real(part, *args)

    monkeypatch.setattr(audio, "_resample_part", spy)
    return calls


LONG = np.random.default_rng(0).standard_normal(2**17)


# (starts at x[0], on the calling thread) per kernel call: one core takes
# one call on the calling thread, two run both parts off it
@pytest.mark.parametrize("cores, calls", [(1, [(True, True)]), (2, [(False, False), (True, False)])])
def test_one_usable_core_resamples_in_one_call(monkeypatch, cores, calls):
    set_usable_cores(monkeypatch, cores)
    spied = _spy_parts(monkeypatch, LONG)
    resample(Waveform(LONG, 44100), 22050)
    assert sorted(spied) == calls


def test_a_short_input_resamples_in_one_call_on_the_calling_thread(monkeypatch):
    # one sample under the split: two usable cores start no thread
    set_usable_cores(monkeypatch, 2)
    spied = _spy_parts(monkeypatch, LONG[:-1])
    resample(Waveform(LONG[:-1], 44100), 22050)
    assert spied == [(True, True)]


def test_the_kernel_resolves_once_on_the_calling_thread_before_any_part(monkeypatch):
    set_usable_cores(monkeypatch, 2)
    caller, resolved, real = threading.current_thread(), [], audio._upfirdn_kernel

    def spy():
        resolved.append(threading.current_thread() is caller)
        return real()

    monkeypatch.setattr(audio, "_upfirdn_kernel", spy)
    spied = _spy_parts(monkeypatch, LONG, lambda first: resolved.append("part"))
    resample(Waveform(LONG, 44100), 22050)
    assert resolved == [True, "part", "part"] and len(spied) == 2


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_the_parts_join_in_input_order_when_the_second_finishes_first(monkeypatch, cores):
    # the first part starts only once the second has returned; three cores
    # still run the parts on two threads
    set_usable_cores(monkeypatch, cores)
    expected = _oracle(LONG, 44100, 22050)
    real, finished, second_done = audio._resample_part, [], threading.Event()

    def spy(part, *args):
        first = part.ctypes.data == LONG.ctypes.data
        if first and cores > 1:
            assert second_done.wait(5.0)
        out = real(part, *args)
        finished.append(first)
        second_done.set()
        return out

    monkeypatch.setattr(audio, "_resample_part", spy)
    assert resample(Waveform(LONG, 44100), 22050).samples.tobytes() == expected.tobytes()
    assert finished == ([True] if cores == 1 else [False, True])


def test_many_parts_join_in_input_order_whatever_order_they_finish(monkeypatch):
    # eight parts of at most 2**14 samples, each after a pause of 0-45 ms set
    # by where it starts, so that they finish out of order
    set_usable_cores(monkeypatch, 2)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", 2**14)
    x = LONG[: 2**17 - 5]
    real, finished = audio._resample_part, []

    def spy(part, *args):
        start = (part.ctypes.data - x.ctypes.data) // x.itemsize
        time.sleep(start * 7919 % 10 / 200)
        out = real(part, *args)
        finished.append(start)
        return out

    monkeypatch.setattr(audio, "_resample_part", spy)
    assert resample(Waveform(x, 44100), 22050).samples.tobytes() == _oracle(x, 44100, 22050).tobytes()
    assert len(finished) == 8 and finished != sorted(finished)


@pytest.mark.parametrize("affinity, cpu_count, cores", [({0, 2, 5}, 8, 3), (None, 4, 4), (None, None, 1)],
                         ids=["affinity", "cpu-count", "unknown"])
def test_usable_cores_read_the_affinity_then_the_core_count(monkeypatch, affinity, cpu_count, cores):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert audio._usable_cores() == cores


def test_the_first_parts_error_wins_when_the_second_fails_first(monkeypatch):
    # as in a serial loop, whichever part fails first
    set_usable_cores(monkeypatch, 2)
    second_failed = threading.Event()

    def act(first):
        if first:
            assert second_failed.wait(5.0)
            raise ValueError("part 1")
        second_failed.set()
        raise ValueError("part 2")

    _spy_parts(monkeypatch, LONG, act)
    with pytest.raises(ValueError, match="^part 1$"):
        resample(Waveform(LONG, 44100), 22050)


def test_no_part_outlives_a_failed_resample(monkeypatch):
    set_usable_cores(monkeypatch, 2)
    threads, finished = threading.active_count(), []

    def act(first):
        if first:
            raise ValueError("part 1")
        time.sleep(0.05)
        finished.append("part 2")

    _spy_parts(monkeypatch, LONG, act)
    with pytest.raises(ValueError, match="^part 1$"):
        resample(Waveform(LONG, 44100), 22050)
    assert finished == ["part 2"]
    assert threading.active_count() == threads


@pytest.mark.parametrize("part", [True, False], ids=["first", "second"])
def test_each_part_runs_under_the_callers_errstate(monkeypatch, part):
    set_usable_cores(monkeypatch, 2)
    expected = _oracle(LONG, 44100, 22050)
    _spy_parts(monkeypatch, LONG, lambda first: first != part or np.float64(1e308) * 10.0)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        resample(Waveform(LONG, 44100), 22050)
    with np.errstate(over="ignore"):
        assert resample(Waveform(LONG, 44100), 22050).samples.tobytes() == expected.tobytes()


FORK_SCRIPT = """
import os, sys, time
import numpy as np
os.sched_getaffinity = lambda pid: {0, 1}  # two usable cores: the long resample splits
from yingram import Waveform, resample
w = Waveform(np.random.default_rng(0).standard_normal(2**18), 44100)
expected = resample(w, 22050).samples.tobytes()
pid = os.fork()
if pid == 0:
    os._exit(0 if resample(w, 22050).samples.tobytes() == expected else 3)
deadline = time.monotonic() + 60.0
while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
    time.sleep(0.01)
if done[0] == 0:  # the child hangs: end it, so no process outlives the test
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    sys.exit("the forked child did not finish")
sys.exit(os.waitstatus_to_exitcode(done[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_a_long_resample_resamples_alike():
    # a thread the parent kept would not exist in the child: a part handed
    # to it would wait forever
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", FORK_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


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
    rates = []
    kaiser_sinc = audio._kaiser_sinc

    def spy(max_rate):
        rates.append(max_rate)
        return kaiser_sinc(max_rate)

    monkeypatch.setattr(audio, "_kaiser_sinc", spy)
    x = sine_tone(440.0, 0.05, sample_rate=44100).samples
    out = resample(Waveform(x, 44100), 22051)  # exact ratio needs 2.8M taps
    assert rates and max(rates) <= 2**15
    assert len(out.samples) == round(len(x) * 22051 / 44100)
    ideal = 0.6 * np.sin(2.0 * np.pi * 440.0 * np.arange(len(out.samples)) / 22051)
    np.testing.assert_allclose(out.samples[100:-100], ideal[100:-100], atol=1e-3)


def _filter_rates() -> list[int]:
    """max(up, down) of every common rate to 22.05 kHz, of scope shifts
    +-1, +-12 and +-15 at 22.05, 44.1 and 48 kHz, and the bound."""
    pairs = [(sr, 22050) for sr in (8000, 11025, 16000, 24000, 32000, 44100, 48000, 88200, 96000)]
    pairs += [(sr, int(round(sr * 2.0 ** (-shift_to_semitones(s) / 12.0))))
              for sr in (22050, 44100, 48000) for s in (1, -1, 12, -12, 15, -15)]
    return sorted({max(audio._polyphase_factors(*pair)) for pair in pairs} | {2**15})


@pytest.mark.parametrize("max_rate", _filter_rates())
def test_kaiser_sinc_equals_firwin_bit_for_bit(max_rate):
    fir = scipy.signal.firwin(64 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 8.6))
    assert audio._kaiser_sinc(max_rate).tobytes() == fir.tobytes()


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
