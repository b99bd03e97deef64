"""YIN primitives: difference function, CMND and a threshold f0 estimator.

Clip analysis runs through `cmnd_blocks`, which computes the CMND rows of a
whole clip in blocks of BLOCK_FRAMES frames. The per-frame functions
(`difference_function`, `cmnd`, `estimate_f0`) are the reference path and
the path the gradients differentiate. Both paths share every rule (the FFT
difference and its clamp, the CMND guard, the lag pick and the parabolic
refinement), so they agree to the last bit.

All arithmetic runs in 64-bit floats; gradient verification elsewhere in the
package depends on that.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .audio import Frame, Waveform, frame_count
from .config import AnalysisConfig, f0_bounds_valid, f0_lag_range

__all__ = [
    "DifferenceCurve",
    "CmndCurve",
    "CmndBlock",
    "CMND_EPS",
    "BLOCK_FRAMES",
    "difference_function",
    "cmnd",
    "cmnd_blocks",
    "require_finite",
    "pick_lags",
    "refine_lags",
    "f0_rows",
    "parabolic_refine",
    "estimate_f0",
]

# Denominator guard for the cumulative mean. Below this the curve is defined
# as 1 everywhere, which marks silence as unvoiced.
CMND_EPS = 1e-8

# Frames per block of `cmnd_blocks`. A block holds the spectra of all its
# frames, so the block size, not the clip length, bounds the working set;
# larger blocks cost memory and gain no speed.
BLOCK_FRAMES = 32


@dataclass(frozen=True)
class DifferenceCurve:
    """Squared-difference values d(tau) for tau = 0..tau_max, along the
    last axis (one row per frame when 2-D)."""

    values: np.ndarray
    window_size: int

    @property
    def tau_max(self) -> int:
        return self.values.shape[-1] - 1


@dataclass(frozen=True)
class CmndCurve:
    """Cumulative mean normalized difference d'(tau) along the last axis;
    d'(0) = 1."""

    values: np.ndarray
    sample_rate: int

    @property
    def tau_max(self) -> int:
        return self.values.shape[-1] - 1


@dataclass(frozen=True)
class CmndBlock:
    """CMND rows of the consecutive frames start, start + 1, ... of a clip.

    values is (frames, tau_max + 1); padded flags the frames that ran past
    end-of-signal.
    """

    start: int
    values: np.ndarray
    padded: np.ndarray

    @property
    def rows(self) -> slice:
        """This block's frames as a slice of the clip's frame axis."""
        return slice(self.start, self.start + len(self.values))

    @property
    def unpadded(self) -> np.ndarray:
        """Rows of the frames fully backed by signal. Padded frames form the
        tail of a clip, so these are frames start, start + 1, ..."""
        return self.values[~self.padded]


def _as_samples(frame) -> np.ndarray:
    if isinstance(frame, Frame):
        return np.asarray(frame.samples, dtype=np.float64)
    return np.asarray(frame, dtype=np.float64)


def _difference_naive(x: np.ndarray, tau_max: int, window: int) -> np.ndarray:
    head = x[:window]
    d = np.empty(tau_max + 1)
    for tau in range(tau_max + 1):
        delta = head - x[tau : tau + window]
        d[tau] = np.dot(delta, delta)
    return d


def _difference_fft(x: np.ndarray, tau_max: int, window: int) -> np.ndarray:
    # d(tau) = p0 + p_tau - 2*c(tau) with p_tau a sliding energy window and
    # c the linear cross-correlation of x[:window] against x, via FFT. Each
    # row of a 2-D x is one frame; a row's result does not depend on the
    # other rows.
    n = scipy.fft.next_fast_len(x.shape[-1])
    spec_all = scipy.fft.rfft(x, n, axis=-1)
    spec_head = scipy.fft.rfft(x[..., :window], n, axis=-1)
    corr = scipy.fft.irfft(np.conj(spec_head) * spec_all, n, axis=-1)[..., : tau_max + 1]
    energy = np.cumsum(x * x, axis=-1)
    csum = np.concatenate((np.zeros(x.shape[:-1] + (1,)), energy), axis=-1)
    taus = np.arange(tau_max + 1)
    p0 = csum[..., window, None]
    p_tau = csum[..., taus + window] - csum[..., taus]
    d = p0 + p_tau - 2.0 * corr
    # cancellation noise sits ~1e-13 relative to the summed energies; clamp
    # well above it (and far below real CMND valleys at ~1e-6 relative) so
    # constant or silent frames produce exact zeros like the naive path
    d[d < 1e-11 * (p0 + p_tau)] = 0.0
    return d


def difference_function(
    frame: Frame | np.ndarray,
    tau_max: int,
    window: int = AnalysisConfig.window,
    method: str = "fft",
) -> DifferenceCurve:
    """Compute d(tau) = sum_{j<window} (x[j] - x[j+tau])^2 for tau = 0..tau_max.

    Args:
        frame: analysis frame; must hold at least window + tau_max samples.
        tau_max: largest lag, inclusive.
        window: integration window W in samples.
        method: "fft" for the accelerated path, "naive" for direct summation.
            Both produce the same values up to float rounding.
    """
    x = _as_samples(frame)
    if len(x) < window + tau_max:
        raise ValueError(
            f"insufficient frame length: need {window + tau_max}, got {len(x)}"
        )
    if method == "naive":
        d = _difference_naive(x, tau_max, window)
    elif method == "fft":
        d = _difference_fft(x, tau_max, window)
    else:
        raise ValueError(f"unknown method {method!r}")
    return DifferenceCurve(d, window)


def cmnd(d: DifferenceCurve, sample_rate: int) -> CmndCurve:
    """Cumulative mean normalized difference of a DifferenceCurve, row by
    row when it is 2-D.

    d'(0) = 1 and d'(tau) = d(tau) * tau / sum_{j<=tau} d(j). Where the
    cumulative sum falls below CMND_EPS the value is defined as 1, so
    silence yields a flat curve and is marked unvoiced downstream.
    """
    return CmndCurve(_cmnd_terms(d.values)[0], sample_rate)


def _cmnd_terms(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, csum, guarded) of `cmnd` along the last axis of difference
    values d: the one place its rule is written. A guarded lag has value 1,
    zero gradient and a csum of 1.0, so every quotient by csum is safe."""
    csum = np.zeros_like(d)
    np.cumsum(d[..., 1:], axis=-1, out=csum[..., 1:])
    guarded = csum < CMND_EPS
    csum[guarded] = 1.0
    values = np.where(guarded, 1.0, d * np.arange(d.shape[-1]) / csum)
    return values, csum, guarded


def require_finite(values: np.ndarray, name: str) -> None:
    """Raise ValueError("non-finite <name>: ...") if any entry is NaN or inf."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(
            f"non-finite {name}: {int(bad.sum())} of {bad.size} entries are NaN "
            f"or inf, the first at index {int(np.argmax(bad))}"
        )


def cmnd_blocks(w: Waveform, config: AnalysisConfig) -> Iterator[CmndBlock]:
    """CMND rows of every analysis frame of a clip, BLOCK_FRAMES at a time.

    Frames are cut as `frame_signal` cuts them: window + tau_max samples
    every hop, zero padded past end-of-signal. Row k equals
    cmnd(difference_function(frame_k, tau_max, window)) exactly. The clip is
    validated here, before the first block is computed.

    Raises:
        ValueError: the waveform is not at the config's sample rate or
            holds non-finite samples (before the first block), or a block's
            difference values or their CMND sums overflow (as that block is
            computed).
    """
    if w.sample_rate != config.sample_rate:
        raise ValueError(
            f"waveform at {w.sample_rate} Hz, config expects {config.sample_rate}; "
            "resample first"
        )
    x = np.asarray(w.samples, dtype=np.float64)
    require_finite(x, "samples")
    count = frame_count(len(x), config.frame_length, config.hop)
    return _blocks(x, count, config)


def _blocks(x: np.ndarray, count: int, cfg: AnalysisConfig) -> Iterator[CmndBlock]:
    if count == 0:
        return
    frame_len, hop = cfg.frame_length, cfg.hop
    buf = np.zeros(max(len(x), (count - 1) * hop + frame_len))
    buf[: len(x)] = x
    frames = sliding_window_view(buf, frame_len)[::hop][:count]
    for start in range(0, count, BLOCK_FRAMES):
        block = frames[start : start + BLOCK_FRAMES]
        with np.errstate(over="ignore", invalid="ignore"):
            # d stays bound until the next block's replaces it: freed earlier,
            # the heap top is trimmed and the next block's FFT faults it back in
            d = _difference_fft(block, cfg.tau_max, cfg.window)
            values, csum, _ = _cmnd_terms(d)
            # d >= 0, so the last CMND denominator times tau_max bounds every
            # d, every cumulative sum and every numerator d(tau) * tau
            bound = csum[:, -1] * cfg.tau_max
        if not np.isfinite(bound).all():
            raise ValueError(
                f"non-finite difference values: the samples of frames {start}.."
                f"{start + len(block) - 1} are too large for their CMND in float64"
            )
        ends = np.arange(start, start + len(block)) * hop + frame_len
        yield CmndBlock(start, values, ends > len(x))


def refine_lags(values: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Refine integer lags, one per row of `values`, to the vertex of the
    parabola through each lag and its neighbors, clamped to [tau-1, tau+1].

    Lags on a row's boundary, and lags whose three points are collinear
    (zero curvature), return unchanged.
    """
    taus = np.asarray(taus)
    length = values.shape[-1]
    if length < 3:
        return taus.astype(np.float64)
    rows = np.arange(len(taus))
    inner = (taus > 0) & (taus < length - 1)
    t = np.clip(taus, 1, length - 2)
    a, b, cc = values[rows, t - 1], values[rows, t], values[rows, t + 1]
    denom = a - 2.0 * b + cc
    flat = denom == 0.0
    vertex = t + (a - cc) / (2.0 * np.where(flat, 1.0, denom))
    refined = np.minimum(np.maximum(vertex, t - 1.0), t + 1.0)
    return np.where(inner & ~flat, refined, taus.astype(np.float64))


def parabolic_refine(c: CmndCurve, tau: int) -> float:
    """Refine an integer lag to the vertex of the parabola through its
    neighbors, clamped to [tau-1, tau+1]. Boundary lags return unchanged.
    The one-row case of `refine_lags`."""
    return float(refine_lags(np.asarray(c.values)[None], np.array([tau]))[0])


def pick_lags(
    values: np.ndarray, sample_rate: int, threshold: float, f_min: float, f_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Choose the period lag of every row of `values`: the first local
    minimum under the threshold inside [sr/f_max, sr/f_min], else the first
    global minimum of that range.

    From the first value under the threshold the lag descends while the
    next value is smaller, stopping at the top of the range.

    Returns (integer lags, aperiodicity = d' at those lags).
    """
    lo, hi = f0_lag_range(sample_rate, f_min, f_max, values.shape[-1] - 1)
    if lo > hi:
        raise ValueError(
            f"invalid f0 bounds: lag range [{lo}, {hi}] is empty for "
            f"f_min={f_min}, f_max={f_max} at {sample_rate} Hz"
        )
    seg = values[:, lo : hi + 1]
    rows = np.arange(len(seg))
    last = seg.shape[1] - 1
    # stop[q]: where a descent reaching offset q ends, i.e. the first q' >= q
    # whose next value is not smaller (or the top of the range)
    falls = seg[:, 1:] < seg[:, :-1]
    stop = np.where(falls, last, np.arange(last))
    stop = np.concatenate((stop, np.full((len(seg), 1), last)), axis=1)
    stop = np.minimum.accumulate(stop[:, ::-1], axis=1)[:, ::-1]
    below = seg < threshold
    first = np.argmax(below, axis=1)
    offset = np.where(below.any(axis=1), stop[rows, first], np.argmin(seg, axis=1))
    taus = lo + offset
    return taus, values[rows, taus]


def _pick_lag(
    vals: np.ndarray, sample_rate: int, threshold: float, f_min: float, f_max: float
) -> tuple[int, float]:
    """`pick_lags` of a single CMND curve: (integer lag, aperiodicity)."""
    taus, aperiodicity = pick_lags(
        np.asarray(vals)[None], sample_rate, threshold, f_min, f_max
    )
    return int(taus[0]), float(aperiodicity[0])


def f0_rows(
    values: np.ndarray,
    sample_rate: int,
    threshold: float,
    f_min: float,
    f_max: float,
    voicing_cutoff: float,
) -> tuple[np.ndarray, np.ndarray]:
    """YIN f0 of every CMND row: (f0_hz, aperiodicity), f0 NaN when unvoiced.

    The lag from `pick_lags` is refined by `refine_lags`; f0 = sr / lag,
    clamped into [f_min, f_max] (refinement can overshoot the search range
    by less than one lag). Rows whose aperiodicity exceeds voicing_cutoff
    are unvoiced.
    """
    taus, aperiodicity = pick_lags(values, sample_rate, threshold, f_min, f_max)
    voiced = aperiodicity <= voicing_cutoff
    f0 = np.full(len(taus), np.nan)
    hz = sample_rate / refine_lags(values[voiced], taus[voiced])
    f0[voiced] = np.minimum(np.maximum(hz, f_min), f_max)
    return f0, aperiodicity


def estimate_f0(
    c: CmndCurve,
    threshold: float = AnalysisConfig.f0_threshold,
    f_min: float = AnalysisConfig.f_min,
    f_max: float = AnalysisConfig.f_max,
    voicing_cutoff: float = AnalysisConfig.voicing_cutoff,
) -> tuple[float, float] | None:
    """Estimate (f0_hz, aperiodicity) from a CMND curve, or None if unvoiced.

    The one-row case of `f0_rows`: the chosen integer lag is refined
    parabolically, f0 = sr / lag is clamped into [f_min, f_max], and an
    aperiodicity (d' at the integer lag) above voicing_cutoff reports the
    frame as unvoiced.
    """
    if not f0_bounds_valid(c.sample_rate, f_min, f_max):
        raise ValueError(
            f"invalid f0 bounds: need 0 < f_min < f_max <= sr/2, got "
            f"[{f_min}, {f_max}] at {c.sample_rate} Hz"
        )
    f0, aperiodicity = f0_rows(
        np.asarray(c.values)[None], c.sample_rate, threshold, f_min, f_max, voicing_cutoff
    )
    if np.isnan(f0[0]):
        return None
    return float(f0[0]), float(aperiodicity[0])
