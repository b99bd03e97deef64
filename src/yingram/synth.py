"""Deterministic test tones and resampling-based pitch shifting.

These generators back the desk-scale evaluation protocol: no synthesizer is
available, so known-shift pairs are produced by resampling, which moves
pitch and duration together by an exact factor.
"""
from __future__ import annotations

import sys
from math import inf

import numpy as np

from .audio import Waveform, resample
from .config import AnalysisConfig
from .grid import _require_int

__all__ = [
    "sine_tone",
    "harmonic_tone",
    "vibrato_tone",
    "pitch_shifted_copy",
    "random_tonal_frame",
]


def _require_finite(**values: float) -> None:
    """The rule of every real generator parameter: ValueError naming the
    first of `values` that is not finite."""
    for name, value in values.items():
        if not -inf < value < inf:
            raise ValueError(f"{name} must be finite, got {value}")


def _time_axis(duration: float, sample_rate: int) -> np.ndarray:
    """Sample times of a clip of round(duration * sample_rate) samples: the
    one length rule of the generators. Raises ValueError unless duration is
    finite and at least 0, sample_rate an integer of at least 1, and the count
    at most sys.maxsize; the check allocates nothing."""
    if not 0 <= duration < inf:
        raise ValueError(f"duration must be finite and at least 0, got {duration}")
    sample_rate = _require_int(sample_rate, "sample_rate", 1)
    try:
        n = round(float(duration) * sample_rate)
    except OverflowError:  # the product is infinite, or the rate too large for a float
        n = inf
    if n > sys.maxsize:
        raise ValueError(
            f"duration={duration} s at sample_rate={sample_rate} Hz is over the clip limit "
            f"of {sys.maxsize} samples"
        )
    return np.arange(n) / sample_rate


def sine_tone(
    freq: float,
    duration: float,
    sample_rate: int = AnalysisConfig.sample_rate,
    amplitude: float = 0.6,
    phase: float = 0.0,
) -> Waveform:
    """A plain sine at freq Hz."""
    _require_finite(freq=freq, amplitude=amplitude, phase=phase)
    t = _time_axis(duration, sample_rate)
    return Waveform(amplitude * np.sin(2.0 * np.pi * freq * t + phase), sample_rate)


def harmonic_tone(
    f0: float,
    duration: float,
    sample_rate: int = AnalysisConfig.sample_rate,
    n_harmonics: int = 6,
    amplitude: float = 0.5,
    seed: int = 0,
) -> Waveform:
    """Harmonic series with 1/h amplitude rolloff and seeded phases."""
    _require_finite(f0=f0, amplitude=amplitude)
    n_harmonics = _require_int(n_harmonics, "n_harmonics", 1)
    rng = np.random.default_rng(seed)
    t = _time_axis(duration, sample_rate)
    x = np.zeros_like(t)
    for h in range(1, n_harmonics + 1):
        x += np.sin(2.0 * np.pi * f0 * h * t + rng.uniform(0.0, 2.0 * np.pi)) / h
    return Waveform(amplitude * x / np.max(np.abs(x), initial=0.0), sample_rate)


def vibrato_tone(
    f0: float,
    duration: float,
    sample_rate: int = AnalysisConfig.sample_rate,
    depth_semitones: float = 0.5,
    rate_hz: float = 5.0,
    amplitude: float = 0.6,
) -> Waveform:
    """Sine with sinusoidal pitch vibrato of +-depth_semitones at rate_hz."""
    _require_finite(f0=f0, depth_semitones=depth_semitones, rate_hz=rate_hz, amplitude=amplitude)
    t = _time_axis(duration, sample_rate)
    inst = f0 * 2.0 ** (depth_semitones * np.sin(2.0 * np.pi * rate_hz * t) / 12.0)
    phase = 2.0 * np.pi * np.cumsum(inst) / sample_rate
    return Waveform(amplitude * np.sin(phase), sample_rate)


def pitch_shifted_copy(w: Waveform, semitones: float) -> Waveform:
    """Pitch-shift by resampling and relabeling at the original rate.

    Duration scales by 2^(-semitones/12); the shift is exact up to the
    integer rounding of the intermediate rate (well under a cent). A shift
    too small to change the rate (0 semitones, say) shares `w`'s samples.
    Raises ValueError for a shift that is not finite or whose rate factor
    overflows a float.
    """
    _require_finite(semitones=semitones)
    try:
        target = int(round(w.sample_rate * 2.0 ** (-semitones / 12.0)))
    except OverflowError:
        raise ValueError(f"semitones={semitones} overflows the rate factor") from None
    return Waveform(resample(w, target).samples, w.sample_rate)


def random_tonal_frame(
    rng: np.random.Generator,
    frame_len: int,
    sample_rate: int = AnalysisConfig.sample_rate,
    noise: float = 1e-3,
) -> np.ndarray:
    """One random harmonic frame: log-uniform f0 in 70..400 Hz, four
    harmonics with random amplitudes and phases, plus a little noise.
    Used as the non-silent input population for gradient checks."""
    frame_len = _require_int(frame_len, "frame_len", 1)
    f0 = float(np.exp(rng.uniform(np.log(70.0), np.log(400.0))))
    t = np.arange(frame_len) / sample_rate
    x = np.zeros(frame_len)
    for h in range(1, 5):
        x += rng.uniform(0.2, 1.0) / h * np.sin(
            2.0 * np.pi * f0 * h * t + rng.uniform(0.0, 2.0 * np.pi)
        )
    x = 0.5 * x / np.max(np.abs(x))
    return x + noise * rng.standard_normal(frame_len)
