"""WAV ingestion, band-limited resampling and analysis framing."""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.signal
from numpy.lib.stride_tricks import sliding_window_view

from .grid import _require_int

__all__ = [
    "Waveform",
    "Frame",
    "WavFormatError",
    "load_wav",
    "resample",
    "frame_count",
    "frame_signal",
]

# Kaiser-windowed sinc resampler: 32 zero crossings per side = 64 taps per
# polyphase branch. beta=8.6 puts the stopband around -90 dB, which keeps
# aliasing well below the CMND noise floor.
_SINC_HALF_WIDTH = 32
_KAISER_BETA = 8.6
# Largest polyphase factor: the filter holds 64 * max(up, down) + 1 taps, so
# this caps it at 2097153 (16 MB). It keeps exact every conversion between
# common rates (8 to 192 kHz) and every scope-shift copy at 22.05 kHz
# (`pitch_shifted_copy` by -s/2 semitones, |s| <= 15; s = 12 needs
# 31183/22050). Other pairs resample at the nearest ratio within the cap.
_MAX_POLYPHASE = 1 << 15


class WavFormatError(ValueError):
    """Raised for WAV files we cannot or refuse to decode."""


def _require_mono(samples) -> None:
    """The mono rule of `Waveform` and `Frame`: samples form one 1-D channel."""
    if np.ndim(samples) != 1:
        raise ValueError(f"samples must be 1-D (mono), got shape {np.shape(samples)}")


@dataclass(frozen=True)
class Waveform:
    """Mono sample buffer at a known rate.

    Samples are 1-D float64 with nominal range [-1, 1]; sample_rate is in Hz.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "sample_rate", _require_int(self.sample_rate, "sample_rate", 1))
        _require_mono(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class Frame:
    """One analysis window cut from a waveform: 1-D samples, as `Waveform`.

    Frames past end-of-signal are zero padded and flagged, so the frame count
    is deterministic from the hop alone.
    """

    samples: np.ndarray
    start_index: int
    sample_rate: int
    padded: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sample_rate", _require_int(self.sample_rate, "sample_rate", 1))
        _require_mono(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


def _decode_fmt(chunk: bytes) -> tuple[int, int, int, int]:
    if len(chunk) < 16:
        raise WavFormatError("corrupt file: fmt chunk too short")
    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack(
        "<HHIIHH", chunk[:16]
    )
    if audio_format == 0xFFFE:
        # WAVE_FORMAT_EXTENSIBLE: the real format tag leads the SubFormat GUID
        if len(chunk) < 40:
            raise WavFormatError("corrupt file: extensible fmt chunk too short")
        audio_format = struct.unpack("<H", chunk[24:26])[0]
    return audio_format, n_channels, sample_rate, bits


def _decode_samples(data: bytes, audio_format: int, bits: int) -> np.ndarray:
    if audio_format == 1 and bits == 16:
        return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    if audio_format == 1 and bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        # assemble little-endian 24-bit two's complement into int32
        vals = (
            raw[:, 0].astype(np.int32)
            | (raw[:, 1].astype(np.int32) << 8)
            | (raw[:, 2].astype(np.int32) << 16)
        )
        vals -= (vals & 0x800000) << 1
        return vals.astype(np.float64) / 8388608.0
    if audio_format == 3 and bits == 32:
        return np.frombuffer(data, dtype="<f4").astype(np.float64)
    raise WavFormatError(
        f"unsupported format: audio format tag {audio_format} at {bits} bits"
    )


def load_wav(path: str | os.PathLike) -> Waveform:
    """Load a RIFF/WAVE file as a mono Waveform.

    Supports PCM 16-bit, PCM 24-bit and IEEE float 32-bit, any channel
    count. Multi-channel audio is averaged to mono; integer PCM is scaled
    to [-1, 1].

    Raises:
        WavFormatError: "unsupported format" for codecs outside the list
            above, "corrupt file" for truncated or malformed chunks.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise WavFormatError("corrupt file: shorter than a RIFF header")
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError("unsupported format: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        size = struct.unpack("<I", blob[pos + 4 : pos + 8])[0]
        body = memoryview(blob)[pos + 8 : pos + 8 + size]  # a view, not a copy
        if len(body) < size:
            raise WavFormatError(f"corrupt file: truncated {cid!r} chunk")
        if cid == b"fmt ":
            fmt = _decode_fmt(body)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word aligned

    if fmt is None or data is None:
        raise WavFormatError("corrupt file: missing fmt or data chunk")

    audio_format, n_channels, sample_rate, bits = fmt
    if n_channels < 1:
        raise WavFormatError("corrupt file: zero channels")
    frame_bytes = n_channels * (bits // 8)
    if frame_bytes and len(data) % frame_bytes:
        data = data[: len(data) - (len(data) % frame_bytes)]

    samples = _decode_samples(data, audio_format, bits)
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels).mean(axis=1)
    if not np.all(np.isfinite(samples)):
        raise WavFormatError("corrupt file: non-finite samples")
    return Waveform(samples, sample_rate)


def _polyphase_factors(source_sr: int, target_sr: int) -> tuple[int, int]:
    """(up, down): target_sr / source_sr in lowest terms, or, when a term
    exceeds _MAX_POLYPHASE, the nearest ratio whose terms do not. That
    ratio is off by less than 2 / _MAX_POLYPHASE (about 0.1 cent of pitch).

    Raises:
        ValueError: the rates differ by more than a factor _MAX_POLYPHASE.
    """
    ratio = Fraction(target_sr, source_sr)
    if max(ratio.numerator, ratio.denominator) > _MAX_POLYPHASE:
        small = min(ratio, 1 / ratio)
        if small < Fraction(1, _MAX_POLYPHASE):
            raise ValueError(
                f"unsupported resampling ratio: {source_sr} Hz to {target_sr} Hz "
                f"differ by more than a factor {_MAX_POLYPHASE}"
            )
        small = small.limit_denominator(_MAX_POLYPHASE)
        ratio = small if ratio < 1 else 1 / small
    return ratio.numerator, ratio.denominator


def resample(w: Waveform, target_sr: int) -> Waveform:
    """Resample with a polyphase Kaiser-windowed sinc filter.

    Output length is round(len * target_sr / source_sr). When the rates
    already match the samples pass through unchanged. The filter size is
    bounded (see `_polyphase_factors`), whatever rate a WAV header claims.

    Raises:
        ValueError: for a target rate that is not a positive integer, or
            rates more than a factor 32768 apart.
    """
    target_sr = _require_int(target_sr, "target_sr", 1)
    if target_sr == w.sample_rate:
        return Waveform(w.samples.copy(), target_sr)

    up, down = _polyphase_factors(w.sample_rate, target_sr)
    max_rate = max(up, down)
    numtaps = 2 * _SINC_HALF_WIDTH * max_rate + 1
    fir = scipy.signal.firwin(numtaps, 1.0 / max_rate, window=("kaiser", _KAISER_BETA))
    y = scipy.signal.resample_poly(w.samples, up, down, window=fir)

    n_out = int(np.floor(len(w.samples) * target_sr / w.sample_rate + 0.5))
    if len(y) < n_out:
        y = np.pad(y, (0, n_out - len(y)))
    return Waveform(y[:n_out], target_sr)


def frame_count(num_samples: int, frame_len: int, hop: int) -> int:
    """Number of frames `frame_signal` cuts from num_samples samples:
    ceil(num_samples / hop).

    Raises:
        ValueError: unless num_samples (at least 0), frame_len and hop (at least 1) are integers.
    """
    num_samples = _require_int(num_samples, "num_samples", 0)
    _require_int(frame_len, "frame_len", 1)
    return -(-num_samples // _require_int(hop, "hop", 1))


def _strided_frames(x: np.ndarray, frame_len: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """(frames, padded): a read-only view of the frame_count frames of x, row
    k = x[k*hop : k*hop + frame_len] read from a zero-padded copy of x, and
    flags of the rows that run past the end of x. The one framing rule."""
    count = frame_count(len(x), frame_len, hop)
    buf = np.zeros(max(len(x), max(count - 1, 0) * hop + frame_len), dtype=x.dtype)
    buf[: len(x)] = x
    frames = sliding_window_view(buf, frame_len)[::hop][:count]
    return frames, np.arange(count) * hop + frame_len > len(x)


def frame_signal(w: Waveform, frame_len: int, hop: int) -> list[Frame]:
    """Slice a waveform into hop-spaced frames of frame_len samples.

    Frame k starts at k*hop; the count is ceil(len/hop). Tail frames are
    zero padded and flagged `padded`. Frames are read-only views.
    """
    frames, padded = _strided_frames(np.asarray(w.samples), frame_len, hop)
    return [Frame(f, k * hop, w.sample_rate, bool(padded[k])) for k, f in enumerate(frames)]
