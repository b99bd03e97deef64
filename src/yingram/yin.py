"""YIN primitives: difference function, CMND and a threshold f0 estimator.

Every stage passes plain float64 arrays with the lag along the last axis:
`difference_function` returns d, `cmnd` returns d', and `estimate_f0` and
`parabolic_refine` read d'. A 2-D array holds one frame per row.

Clip analysis runs through `cmnd_blocks`, which computes the CMND rows of a
whole clip in blocks of BLOCK_FRAMES frames. The per-frame functions are the
reference path and the path the gradients differentiate. Both paths share
every rule (the FFT difference and its clamp, the CMND guard and overflow
check, the lag pick and the parabolic refinement), so they agree to the
last bit.

All arithmetic runs in 64-bit floats; gradient verification elsewhere in the
package depends on that.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .audio import Frame, Waveform, _strided_frames
from .config import AnalysisConfig, f0_bounds_valid, f0_lag_range

__all__ = [
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


def _difference_naive(x: np.ndarray, tau_max: int, window: int) -> np.ndarray:
    head = x[..., :window]
    d = np.empty(x.shape[:-1] + (tau_max + 1,))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: see _cmnd_terms
        for tau in range(tau_max + 1):
            delta = head - x[..., tau : tau + window]
            d[..., tau] = np.einsum("...j,...j->...", delta, delta)
    return d


@np.errstate(over="ignore", invalid="ignore")  # overflow: see _cmnd_terms
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
) -> np.ndarray:
    """Compute d(tau) = sum_{j<window} (x[j] - x[j+tau])^2 for tau = 0..tau_max,
    along the last axis of the frame (one row per frame when 2-D).

    Args:
        frame: analysis frame, or a stack of frames; each must hold at least
            window + tau_max samples.
        tau_max: largest lag, inclusive.
        window: integration window W in samples.
        method: "fft" for the accelerated path, "naive" for direct summation.
            Both produce the same values up to float rounding.
    """
    x = np.asarray(frame.samples if isinstance(frame, Frame) else frame, dtype=np.float64)
    if x.shape[-1] < window + tau_max:
        raise ValueError(
            f"insufficient frame length: need {window + tau_max}, got {x.shape[-1]}"
        )
    if method == "naive":
        return _difference_naive(x, tau_max, window)
    if method == "fft":
        return _difference_fft(x, tau_max, window)
    raise ValueError(f"unknown method {method!r}")


def cmnd(d: np.ndarray) -> np.ndarray:
    """Cumulative mean normalized difference of difference values d along
    their last axis (row by row when 2-D).

    d'(0) = 1 and d'(tau) = d(tau) * tau / sum_{j<=tau} d(j). Where the
    cumulative sum falls below CMND_EPS the value is defined as 1, so
    silence yields a flat curve and is marked unvoiced downstream.

    Raises:
        ValueError: "non-finite difference values" when d holds NaN or inf
            or its CMND sums overflow float64.
    """
    return _cmnd_terms(np.asarray(d, dtype=np.float64))[0]


def _cmnd_terms(d: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, csum, guarded) of `cmnd` along the last axis of difference
    values d: the one place its rule is written. A guarded lag has value 1,
    zero gradient and a csum of 1.0, so every quotient by csum is safe.
    Rows whose sums overflow raise ValueError naming them as frames start,
    start + 1, ..."""
    csum = np.zeros_like(d)
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(d[..., 1:], axis=-1, out=csum[..., 1:])
        # d >= 0, so the last CMND sum times tau_max bounds every d, every
        # cumulative sum and every numerator d(tau) * tau
        bad = ~np.isfinite(csum[..., -1] * (d.shape[-1] - 1))
    if bad.any():
        frames = start + np.flatnonzero(bad)
        raise ValueError(
            f"non-finite difference values: the samples of frames {frames[0]}.."
            f"{frames[-1]} are too large for their CMND in float64"
        )
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
            computed; the message names the clip's frames).
    """
    if w.sample_rate != config.sample_rate:
        raise ValueError(
            f"waveform at {w.sample_rate} Hz, config expects {config.sample_rate}; "
            "resample first"
        )
    x = np.asarray(w.samples, dtype=np.float64)
    require_finite(x, "samples")
    return _blocks(x, config)


def _blocks(x: np.ndarray, cfg: AnalysisConfig) -> Iterator[CmndBlock]:
    frames, padded = _strided_frames(x, cfg.frame_length, cfg.hop)
    for start in range(0, len(frames), BLOCK_FRAMES):
        rows = slice(start, start + BLOCK_FRAMES)
        # d and csum live until the next block's replace them: freed earlier,
        # the heap top is trimmed and the next block's FFT faults it back in
        d = _difference_fft(frames[rows], cfg.tau_max, cfg.window)
        values, csum, _ = _cmnd_terms(d, start)
        yield CmndBlock(start, values, padded[rows])


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


def parabolic_refine(values: np.ndarray, tau: int) -> float:
    """Refine an integer lag of a CMND curve to the vertex of the parabola
    through its neighbors, clamped to [tau-1, tau+1]. Boundary lags return
    unchanged. The one-row case of `refine_lags`."""
    return float(refine_lags(np.asarray(values)[None], np.array([tau]))[0])


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
    values: np.ndarray,
    sample_rate: int,
    threshold: float = AnalysisConfig.f0_threshold,
    f_min: float = AnalysisConfig.f_min,
    f_max: float = AnalysisConfig.f_max,
    voicing_cutoff: float = AnalysisConfig.voicing_cutoff,
) -> tuple[float, float] | None:
    """Estimate (f0_hz, aperiodicity) from the CMND curve of a frame sampled
    at sample_rate, or None if unvoiced.

    The one-row case of `f0_rows`: the chosen integer lag is refined
    parabolically, f0 = sr / lag is clamped into [f_min, f_max], and an
    aperiodicity (d' at the integer lag) above voicing_cutoff reports the
    frame as unvoiced.
    """
    if not f0_bounds_valid(sample_rate, f_min, f_max):
        raise ValueError(
            f"invalid f0 bounds: need 0 < f_min < f_max <= sr/2, got "
            f"[{f_min}, {f_max}] at {sample_rate} Hz"
        )
    f0, aperiodicity = f0_rows(
        np.asarray(values)[None], sample_rate, threshold, f_min, f_max, voicing_cutoff
    )
    if np.isnan(f0[0]):
        return None
    return float(f0[0]), float(aperiodicity[0])
