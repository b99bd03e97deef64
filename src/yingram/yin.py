"""YIN primitives: difference function, CMND and a threshold f0 estimator.

Every stage passes plain float64 arrays with the lag along the last axis:
`difference_function` returns d, `cmnd` returns d', and `estimate_f0` and
`parabolic_refine` read d'. A 2-D array holds one frame per row.

This module holds array kernels only. Clip analysis (`feature._analyse`)
runs `_difference_fft` on each block's span of clip samples and
`_cmnd_terms` on the block's rows; the per-frame functions, which take
stacks of independent frames, are the reference path and the path the
gradients differentiate. Both paths share every rule (d = p0 + p_tau - 2c
and its clamp, the CMND guard and overflow check, the lag pick and the
parabolic refinement). Only the sums are taken differently: when the hop
divides the window, clip analysis adds up the correlations and energies of
hop blocks that overlapping frames share, so its d agrees with the
per-frame path to the rounding of the energies summed, not to the last
bit: at the default config within 1e-13 of p0 + p_tau at each lag.
Otherwise each segment is one frame, and the two paths run the same
transforms and cumsums bit for bit.

All arithmetic runs in 64-bit floats; gradient verification elsewhere in the
package depends on that.
"""
from __future__ import annotations

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .audio import Frame
from .config import AnalysisConfig, f0_lag_range
from .grid import _require_int, _require_real

__all__ = [
    "CMND_EPS",
    "difference_function",
    "cmnd",
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


def _difference_naive(x: np.ndarray, tau_max: int, window: int) -> np.ndarray:
    head = x[..., :window]
    d = np.empty(x.shape[:-1] + (tau_max + 1,))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: see _cmnd_terms
        for tau in range(tau_max + 1):
            delta = head - x[..., tau : tau + window]
            d[..., tau] = np.einsum("...j,...j->...", delta, delta)
    return d


@np.errstate(over="ignore", invalid="ignore")  # overflow: see _cmnd_terms
def _difference_fft(x: np.ndarray, tau_max: int, window: int, hop: int | None = None) -> np.ndarray:
    # d(tau) = p0 + p_tau - 2*c(tau) with c(tau) = sum_{j<window} x[j]*x[j+tau]
    # and p_tau = sum_{j<window} x[j+tau]^2, both summed from segments of
    # head + tau_max samples: segment s contributes g(tau) = sum_{j<head}
    # s[j]*s[j+tau], via FFT, and e(tau) = sum_{j<head} s[j+tau]^2, from one
    # cumsum of its squares. Without a hop, each row of x is one frame and one
    # segment, head = window, independent of the other rows. With one, x is
    # the span of clip samples that consecutive frames hop apart read
    # (`audio._frame_span`): head = hop when the hop divides the window, else
    # window, segment m starts at m*hop, and frame k sums the window // head
    # segments k, k+1, ... Each segment is transformed once, at
    # next_fast_len(segment length), real=True for hop heads (720 points at
    # the default config, against 2475 for a frame): the per-frame
    # length rule is the bit-for-bit reference. Either way p0 = p_tau(0).
    head = hop if hop and window % hop == 0 else window
    segments = x if hop is None else sliding_window_view(x, head + tau_max)[::hop]
    blocks = window // head
    n = scipy.fft.next_fast_len(segments.shape[-1], real=blocks > 1)
    # each temporary goes as soon as it has been read, and the squares and
    # their cumsum share one array, so a block's peak is its two spectra and
    # one padded input, not every stage's arrays at once
    spectrum = scipy.fft.rfft(segments[..., :head], n, axis=-1)
    np.conjugate(spectrum, out=spectrum)
    spectrum *= scipy.fft.rfft(segments, n, axis=-1)
    corr = scipy.fft.irfft(spectrum, n, axis=-1)[..., : tau_max + 1]
    del spectrum
    if blocks > 1:  # a contiguous copy for the segment sums frees the transform's other lags
        corr = np.ascontiguousarray(corr)
    csum = np.empty(segments.shape[:-1] + (head + tau_max + 1,))
    csum[..., 0] = 0.0
    np.square(segments[..., : head + tau_max], out=csum[..., 1:])
    np.cumsum(csum[..., 1:], axis=-1, out=csum[..., 1:])
    p_tau = csum[..., head:] - csum[..., : tau_max + 1]
    del csum
    if blocks > 1:
        corr, p_tau = _frame_sums(corr, p_tau, blocks)
    floor = p_tau[..., :1] + p_tau  # p0 + p_tau, the summed energies
    del p_tau
    d = floor - 2.0 * corr
    del corr
    # cancellation noise sits ~1e-13 relative to the summed energies; clamp
    # well above it (and far below real CMND valleys at ~1e-6 relative) so
    # constant or silent frames produce exact zeros like the naive path
    floor *= 1e-11
    d[d < floor] = 0.0
    return d


def _frame_sums(g: np.ndarray, e: np.ndarray, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """The correlation and energy terms of each frame from those of its hop
    segments: frame k sums segments k..k+blocks-1 in order; a running sum
    over the clip would round differently and flip float32 Yingram values."""
    rows = len(g) - blocks + 1
    corr, p_tau = g[:rows] + g[1 : rows + 1], e[:rows] + e[1 : rows + 1]
    for b in range(2, blocks):
        corr += g[b : b + rows]
        p_tau += e[b : b + rows]
    return corr, p_tau


def difference_function(
    frame: Frame | np.ndarray,
    tau_max: int,
    window: int = AnalysisConfig.window,
    method: str = "fft",
) -> np.ndarray:
    """Compute d(tau) = sum_{j<window} (x[j] - x[j+tau])^2 for tau = 0..tau_max,
    along the last axis of the frame (one row per frame when 2-D).

    Args:
        frame: analysis frame, or a stack of frames, one per row.
        tau_max: largest lag, inclusive.
        window: integration window W in samples.
        method: "fft" for the accelerated path, "naive" for direct summation.
            Both produce the same values up to float rounding.

    Raises:
        ValueError: for a window below 1 or a tau_max below 0 (or either not
            an integer), "insufficient frame length" for a frame shorter than
            window + tau_max, "non-finite samples" for a NaN or inf sample, and
            for an unknown method.
    """
    x = np.asarray(frame.samples if isinstance(frame, Frame) else frame, dtype=np.float64)
    need = _require_int(window, "window", 1) + _require_int(tau_max, "tau_max", 0)
    length = x.shape[-1] if x.ndim else 0  # a 0-D frame holds no samples
    if length < need:
        raise ValueError(f"insufficient frame length: need {need}, got {length}")
    require_finite(x, "samples")
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
            or its CMND sums overflow float64, and for d with no lag axis or an empty one.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim == 0 or d.shape[-1] == 0:
        raise ValueError(f"cmnd needs at least one lag, got shape {d.shape}")
    return _cmnd_terms(d)[0]


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
    unchanged. The one-row case of `refine_lags`. Raises ValueError unless
    values is one 1-D curve and tau an integer lag on it (0 <= tau < len)."""
    values, tau = np.asarray(values), _require_int(tau, "tau", 0)
    if values.ndim != 1 or tau >= len(values):
        raise ValueError(
            f"parabolic_refine needs a 1-D curve holding lag {tau}, got shape {values.shape}"
        )
    return float(refine_lags(values[None], np.array([tau]))[0])


def pick_lags(
    values: np.ndarray, sample_rate: int, threshold: float, f_min: float, f_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Choose the period lag of every row of `values`: the first local
    minimum under the threshold inside [sr/f_max, sr/f_min], else the first
    global minimum of that range.

    From the first value under the threshold the lag descends while the
    next value is smaller, stopping at the top of the range.

    Returns (integer lags, aperiodicity = d' at those lags).

    Raises:
        ValueError: for a threshold `_require_real` rejects, and for the rates
            and bands `f0_lag_range` rejects ("invalid f0 bounds") on this curve length.
    """
    _require_real(threshold=threshold)
    lo, hi = f0_lag_range(sample_rate, f_min, f_max, values.shape[-1] - 1)
    seg = values[:, lo : hi + 1]
    rows = np.arange(len(seg))
    below = seg < threshold
    first = np.argmax(below, axis=1)
    # the descent ends at the first offset at or after `first` whose next
    # value is not smaller, or at the top of the range
    ends = np.ones(seg.shape, dtype=bool)
    ends[:, :-1] = ~(seg[:, 1:] < seg[:, :-1])
    stop = np.argmax(ends & (np.arange(seg.shape[1]) >= first[:, None]), axis=1)
    offset = np.where(below.any(axis=1), stop, np.argmin(seg, axis=1))
    taus = lo + offset
    return taus, values[rows, taus]


def _pick_lag(
    vals: np.ndarray, sample_rate: int, threshold: float, f_min: float, f_max: float
) -> tuple[int, float]:
    """`pick_lags` of a single CMND curve: (integer lag, aperiodicity)."""
    taus, aperiodicity = pick_lags(np.asarray(vals)[None], sample_rate, threshold, f_min, f_max)
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
    are unvoiced. Raises ValueError for a voicing_cutoff `_require_real`
    rejects, and for the inputs `pick_lags` rejects.
    """
    _require_real(voicing_cutoff=voicing_cutoff)
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

    Raises:
        ValueError: unless values is one 1-D curve, and for the rates,
            thresholds and bands `f0_rows` rejects.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"estimate_f0 needs one 1-D CMND curve, got shape {values.shape}")
    f0, aperiodicity = f0_rows(values[None], sample_rate, threshold, f_min, f_max, voicing_cutoff)
    if np.isnan(f0[0]):
        return None
    return float(f0[0]), float(aperiodicity[0])
