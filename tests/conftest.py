"""Shared fixtures: WAV file crafting and common tones."""
from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import settings

from yingram import AnalysisConfig, Waveform

# a failing @given test prints its @reproduce_failure line, so a failure seen
# once in a log can be replayed; example counts and seeds stay as they are
settings.register_profile("reproducible", print_blob=True)
settings.load_profile("reproducible")


def _riff(fmt_body: bytes, data: bytes, extra_chunks: bytes = b"") -> bytes:
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    chunks += extra_chunks
    chunks += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _fmt(tag: int, channels: int, sr: int, bits: int) -> bytes:
    block = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, sr, sr * block, block, bits)


def write_pcm16(path, values: np.ndarray, sr: int = 22050, channels: int = 1) -> None:
    data = np.asarray(values, dtype="<i2").tobytes()
    path.write_bytes(_riff(_fmt(1, channels, sr, 16), data))


def write_pcm24(path, values: np.ndarray, sr: int = 22050) -> None:
    out = bytearray()
    for v in np.asarray(values, dtype=np.int32):
        out += int(v & 0xFFFFFF).to_bytes(3, "little")
    path.write_bytes(_riff(_fmt(1, 1, sr, 24), bytes(out)))


def write_float32(path, samples: np.ndarray, sr: int = 22050) -> None:
    data = np.asarray(samples, dtype="<f4").tobytes()
    path.write_bytes(_riff(_fmt(3, 1, sr, 32), data))


# stored format name -> (format tag, bits)
FORMATS = {"s16": (1, 16), "s24": (1, 24), "f32": (3, 32)}


def stored(name: str, values: np.ndarray) -> bytes:
    """The data chunk bytes of sample values in format `name`."""
    if name == "s24":  # the low three bytes of each little-endian int32
        return np.asarray(values, "<i4").reshape(-1).view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return np.asarray(values, {"s16": "<i2", "f32": "<f4"}[name]).tobytes()


def write_stored(path, values: np.ndarray, sr: int, name: str) -> None:
    """A WAV of `values`, one row per frame and one column per channel (1-D
    for mono), stored as `name` (`stored`)."""
    tag, bits = FORMATS[name]
    channels = 1 if np.ndim(values) == 1 else np.shape(values)[1]
    path.write_bytes(_riff(_fmt(tag, channels, sr, bits), stored(name, values)))


def write_wav(path, w: Waveform) -> None:
    """Float32 WAV of a Waveform; lossless enough for analysis tests."""
    write_float32(path, w.samples, w.sample_rate)


def write_mulaw(path, sr: int = 8000) -> None:
    path.write_bytes(_riff(_fmt(7, 1, sr, 8), b"\x00" * 64))


def write_extensible_pcm16(path, values: np.ndarray, sr: int = 22050) -> None:
    """WAVE_FORMAT_EXTENSIBLE wrapper around plain PCM16."""
    base = _fmt(0xFFFE, 1, sr, 16)
    sub_format = struct.pack("<H", 1) + b"\x00" * 14  # PCM GUID prefix
    ext = struct.pack("<HHI", 22, 16, 1) + sub_format
    data = np.asarray(values, dtype="<i2").tobytes()
    path.write_bytes(_riff(base + ext, data))


def write_pcm32_int(path, sr: int = 22050) -> None:
    data = np.zeros(8, dtype="<i4").tobytes()
    path.write_bytes(_riff(_fmt(1, 1, sr, 32), data))


def write_with_extra_chunk(path, values: np.ndarray, sr: int = 22050) -> None:
    """A LIST chunk between fmt and data; readers must skip it."""
    extra = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size, padded
    data = np.asarray(values, dtype="<i2").tobytes()
    path.write_bytes(_riff(_fmt(1, 1, sr, 16), data, extra_chunks=extra))


def write_truncated(path, sr: int = 22050) -> None:
    # data chunk claims 1000 bytes but carries 10
    body = _fmt(1, 1, sr, 16)
    blob = b"RIFF" + struct.pack("<I", 4 + 8 + len(body) + 8 + 10) + b"WAVE"
    blob += b"fmt " + struct.pack("<I", len(body)) + body
    blob += b"data" + struct.pack("<I", 1000) + b"\x00" * 10
    path.write_bytes(blob)


# Configs that must be rejected, as field overrides, each with the field its
# error names.
INVALID_CONFIGS = [
    pytest.param({"window": -5}, "window", id="negative-window"),
    pytest.param({"window": 0}, "window", id="zero-window"),
    pytest.param({"hop": 0}, "hop", id="zero-hop"),
    pytest.param({"sample_rate": 0}, "sample_rate", id="zero-sample-rate"),
    pytest.param({"bins_per_octave": 0}, "bins_per_octave", id="zero-bins-per-octave"),
    pytest.param({"reference_hz": 0.0}, "reference_hz", id="zero-reference-hz"),
    pytest.param({"reference_hz": math.inf}, "reference_hz", id="infinite-reference-hz"),
    pytest.param({"seed": -1}, "seed", id="negative-seed"),
    pytest.param({"sample_rate": 1000}, "sample_rate", id="grid-above-nyquist"),
    pytest.param({"reference_note": -100000}, "sample_rate", id="grid-overflows"),
    pytest.param({"start_note": -100000}, "sample_rate", id="grid-underflows"),
    pytest.param({"num_channels": 79}, "num_channels", id="grid-narrower-than-scopes"),
    pytest.param({"f_min": 600.0, "f_max": 500.0}, "f_min", id="f-min-above-f-max"),
    pytest.param({"f_max": 15000.0}, "f_max", id="f-max-above-nyquist"),
    pytest.param({"f_min": 10.0, "f_max": 20.0}, "f_max", id="empty-f0-lag-range"),
    pytest.param({"lambda_yin": -1.0}, "lambda_yin", id="negative-lambda-yin"),
    pytest.param({"f0_threshold": math.nan}, "f0_threshold", id="nan-f0-threshold"),
    pytest.param({"voicing_cutoff": -1.0}, "voicing_cutoff", id="negative-voicing-cutoff"),
    pytest.param({"shift_tolerance": -0.5}, "shift_tolerance", id="negative-shift-tolerance"),
    pytest.param({"min_overlap": 1.5}, "min_overlap", id="min-overlap-above-one"),
    pytest.param({"hop": 1.5}, "hop", id="fractional-hop"),
    pytest.param({"window": True}, "window", id="bool-window"),
    pytest.param({"seed": False}, "seed", id="bool-seed"),
    pytest.param({"f_max": True}, "f_max", id="bool-f-max"),
    pytest.param({"f_min": "low"}, "f_min", id="non-numeric-f-min"),
    pytest.param({"lambda_yin": [45]}, "lambda_yin", id="list-lambda-yin"),
    # float() of this int overflows; it must read as any other infinite value
    pytest.param({"f_min": 10**400}, "f_min", id="float-field-overflows"),
    # an int field a float cannot hold: every lag and frequency is a float of the rate
    pytest.param({"sample_rate": 10**400}, "sample_rate", id="rate-beyond-a-float"),
    pytest.param({"hop": 10**400}, "hop", id="hop-beyond-a-float"),
    # frames past MAX_FRAME_LENGTH: tau_max 186,889,291, and a 10**9 window
    pytest.param({"reference_hz": 1e-3}, "reference_hz", id="grid-lag-beyond-frame-limit"),
    pytest.param({"window": 10**9}, "window", id="window-beyond-frame-limit"),
]


def changed_value(name: str):
    """A valid value of config field `name` other than its default."""
    value = getattr(AnalysisConfig(), name)
    return value + 1 if isinstance(value, int) else value * 1.5


@pytest.fixture
def cfg() -> AnalysisConfig:
    return AnalysisConfig()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def set_usable_cores(monkeypatch, n: int) -> None:
    """Make `audio._usable_cores` report n usable cores: 1 resamples a long
    input in one call, 2 or more in parts on two threads, on any machine."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(n)), raising=False)
