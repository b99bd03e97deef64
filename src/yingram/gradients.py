"""Analytic waveform gradients of Yingram channels, with FD verification.

The Yingram of a frame is differentiable almost everywhere: channel lags are
input-independent, so the only non-smooth point is the CMND silence guard,
where the gradient is defined as zero. The reverse-mode chain below walks
linear interpolation -> CMND quotient -> quadratic difference function and is
exact up to float64 rounding.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .audio import Frame
from .config import AnalysisConfig
from .grid import DEFAULT_GRID, NoteGrid, _require_int, _require_positive, channel_lags, tau_max_for
from .feature import _lag_brackets, _record, yingram_rows
from .synth import random_tonal_frame
from .yin import _cmnd_terms, _difference_fft, difference_function, require_finite

__all__ = ["GradReport", "yingram_vjp", "finite_diff_check", "gradcheck_suite"]

DEFAULT_FD_EPS = 1e-5
DEFAULT_FD_TOLERANCE = 1e-4
DEFAULT_PROBES = 25

# Central differences at eps=1e-5 in float64 carry ~5e-11 of absolute
# rounding noise. Gradient components below this fraction of the frame's
# peak gradient are skipped: their "relative error" would measure noise.
LOW_SIGNAL_FRACTION = 1e-3


@dataclass(frozen=True)
class GradReport:
    """Outcome of one finite-difference verification run."""

    max_rel_error: float
    checked_channels: int
    eps: float
    passed: bool
    tolerance: float = DEFAULT_FD_TOLERANCE
    probes_checked: int = 0
    probes_skipped: int = 0
    guarded: bool = False

    def to_dict(self) -> dict:
        return _record(self)


def _check_fd_settings(eps: float, probes: int, tolerance: float) -> None:
    _require_int(probes, "probes", 1)
    _require_positive(eps, "eps")
    _require_positive(tolerance, "tolerance")


def _checked_inputs(
    frame: Frame, grid: NoteGrid, cotangent: np.ndarray, window: int | None
) -> tuple[np.ndarray, np.ndarray, int, int, np.ndarray]:
    """(samples, channel lags, tau_max, window, cotangent) of a gradient
    request: a Frame, a finite cotangent of one entry per channel, and a
    window of len(frame) - tau_max (at least 1) by default, as the analysis
    frames; the forward's `difference_function` checks that the window fits
    and that the samples are finite."""
    if not isinstance(frame, Frame):
        raise ValueError("yingram_vjp needs a Frame (it carries the sample rate)")
    x = np.asarray(frame.samples, dtype=np.float64)
    tau_max = tau_max_for(grid, frame.sample_rate)
    if window is None:
        window = max(len(x) - tau_max, 1)
    cot = np.asarray(cotangent, dtype=np.float64)
    if cot.shape != (grid.num_channels,):
        raise ValueError(
            f"dimension error: cotangent must have {grid.num_channels} entries"
        )
    require_finite(cot, "cotangent")
    return x, channel_lags(grid, frame.sample_rate), tau_max, window, cot


def yingram_vjp(
    frame: Frame, grid: NoteGrid, cotangent: np.ndarray, window: int | None = None
) -> np.ndarray:
    """Gradient of sum_c cotangent[c] * Y[c] with respect to the frame samples.

    The window defaults to len(frame) - tau_max(grid, rate), matching the
    analysis framing. Channels whose lags sit in the CMND guard region
    contribute zero gradient; a fully guarded (silent) frame returns all
    zeros and emits a warning. Non-finite samples or cotangent entries raise
    ValueError, since either would turn the whole gradient into NaN; so do
    a frame that is not a `Frame`, frames too large for the forward's CMND
    (and only those) and grids `tau_max_for` rejects.
    """
    x, lags, tau_max, window, cot = _checked_inputs(frame, grid, cotangent, window)
    grad, guarded = _vjp(lags, x, tau_max, window, cot)
    if guarded[-1] and np.any(cot != 0.0):
        warnings.warn(
            "guarded region: CMND denominator below epsilon on checked "
            "channels, gradient defined as zero there",
            stacklevel=2,
        )
    return grad


def _vjp(lags: np.ndarray, x: np.ndarray, tau_max: int, window: int,
         cot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, guarded) for checked inputs. guarded: the CMND guard mask of
    lags 0 up to the highest lag any channel reads; the CMND sums grow with
    tau, so when that lag is guarded, all are."""
    values, csum, guarded = _cmnd_terms(difference_function(x, tau_max, window, method="fft"))
    floors, ceils, frac = _lag_brackets(lags, tau_max)
    taus = np.arange(tau_max + 1)

    # adjoint on d'; a guarded lag holds the constant 1, so none flows through it
    adj_dp = np.zeros(tau_max + 1)
    np.add.at(adj_dp, floors, cot * (1.0 - frac))
    np.add.at(adj_dp, ceils, cot * frac)
    adj_dp[guarded] = 0.0

    # adjoint on d through d'(t) = d(t) * t / csum(t), csum(t) = sum_{1<=k<=t} d(k):
    #   dd'(t)/dd(k) = (t * [k == t] - d'(t) * [1 <= k <= t]) / csum(t),
    # where d'(t) <= t, so nothing here overflows unless the forward does
    adj_d = adj_dp * taus / csum
    adj_d[1:] -= np.cumsum((adj_dp * values / csum)[::-1])[::-1][1:]  # sums over t >= k

    return _difference_adjoint(x, adj_d, window), guarded[: ceils.max() + 1]


def _difference_adjoint(x: np.ndarray, adj_d: np.ndarray, window: int) -> np.ndarray:
    """Gradient of sum_k adj_d[k] * d(k) over x, d(k) = sum_{j<W} (x[j] - x[j+k])^2.

    With b = adj_d (lag 0 dropped: d(0) is identically zero) and n = len(x),
        grad[m] = 2*[m < W]*(x[m]*sum_k b_k - sum_k b_k*x[m+k])
                + 2*(x[m]*sum_{k: 0 <= m-k < W} b_k - sum_k b_k*x[m-k]*[0 <= m-k < W]).
    The correlation and the convolution are FFT products of length >= n, which
    is long enough that neither wraps (m+k <= W-1+tau_max < n); the windowed
    sum of b is two lookups into one cumulative sum.
    """
    n = len(x)
    tau_max = len(adj_d) - 1
    b = np.array(adj_d, dtype=np.float64)
    b[0] = 0.0
    size = scipy.fft.next_fast_len(n, real=True)
    spec_b = scipy.fft.rfft(b, size)
    corr = scipy.fft.irfft(np.conj(spec_b) * scipy.fft.rfft(x, size), size)[:window]
    conv = scipy.fft.irfft(spec_b * scipy.fft.rfft(x[:window], size), size)[:n]
    prefix = np.concatenate(([0.0], np.cumsum(b)))  # prefix[j] = sum_{k<j} b_k
    m = np.arange(n)
    in_window = prefix[np.minimum(m, tau_max) + 1] - prefix[np.clip(m - window + 1, 0, tau_max + 1)]
    grad = 2.0 * (x * in_window - conv)
    grad[:window] += 2.0 * (x[:window] * prefix[-1] - corr)
    return grad


def finite_diff_check(
    frame: Frame,
    grid: NoteGrid = DEFAULT_GRID,
    eps: float = DEFAULT_FD_EPS,
    probes: int = DEFAULT_PROBES,
    cotangent: np.ndarray | None = None,
    seed: int = 0,
    tolerance: float = DEFAULT_FD_TOLERANCE,
    window: int | None = None,
) -> GradReport:
    """Compare yingram_vjp against central differences at probed samples.
    Without a cotangent, a standard-normal one is drawn from `seed`.

    For each probed index i the scalar L(x) = <cotangent, Y(x)> is differenced
    as (L(x + eps*e_i) - L(x - eps*e_i)) / (2*eps) and compared to the
    analytic gradient with relative error |a - n| / max(|a|, |n|, 1e-12).
    Probes whose analytic and numeric magnitudes both fall below
    LOW_SIGNAL_FRACTION of the frame's peak gradient, or below the rounding
    floor eps_machine * max|L(x +- eps*e_i)| / eps, are skipped and counted;
    so are probes whose step moves a lag across the CMND guard.
    A frame whose channels all read guarded CMND lags (a silent frame, say)
    has a zero gradient by definition; it passes with the comparison skipped
    and the report flagged `guarded`. A NaN relative error fails the
    report. Raises ValueError for probes that is not an integer of at least
    1 (a bool is not), a seed that is not an integer of at least 0, an eps
    or tolerance that is not finite and positive, and for any frame, grid,
    window or cotangent yingram_vjp rejects, silent and overflowing frames included.
    """
    _check_fd_settings(eps, probes, tolerance)
    rng = np.random.default_rng(_require_int(seed, "seed", 0))
    if cotangent is None:
        cotangent = rng.standard_normal(grid.num_channels)
    x, lags, tau_max, win, cot = _checked_inputs(frame, grid, cotangent, window)
    analytic, guard = _vjp(lags, x, tau_max, win, cot)

    def loss(i: int, step: float) -> tuple[float, bool]:
        # L(x + step*e_i) as yingram_from_frame computes it, and whether the
        # step moves a lag across the guard: the difference then measures
        # the guard, where the gradient is defined, not derived
        samples = x.copy()
        samples[i] += step
        values, _, moved = _cmnd_terms(_difference_fft(samples, tau_max, win))
        return float(np.dot(cot, yingram_rows(values, lags))), (moved[: len(guard)] != guard).any()

    guarded = bool(guard[-1])
    worst, n_probe, skipped = 0.0, probes, probes  # a guarded frame compares nothing
    if not guarded:
        peak_floor = LOW_SIGNAL_FRACTION * np.max(np.abs(analytic))
        n_probe, skipped = min(probes, len(x)), 0
        for i in rng.choice(len(x), size=n_probe, replace=False):
            (up, up_moved), (down, down_moved) = loss(i, eps), loss(i, -eps)
            numeric = (up - down) / (2.0 * eps)
            rounding_floor = np.finfo(float).eps * max(abs(up), abs(down)) / eps
            # np.maximum, unlike max, propagates NaN, so a NaN error is kept
            scale = np.maximum(abs(analytic[i]), abs(numeric))
            if up_moved or down_moved or scale < max(peak_floor, rounding_floor):
                skipped += 1
                continue
            worst = np.maximum(worst, abs(analytic[i] - numeric) / np.maximum(scale, 1e-12))
    return GradReport(
        max_rel_error=float(worst),
        checked_channels=int(np.count_nonzero(cot)),
        eps=eps,
        passed=bool(worst < tolerance),
        tolerance=tolerance,
        probes_checked=int(n_probe - skipped),
        probes_skipped=int(skipped),
        guarded=guarded,
    )


def gradcheck_suite(
    n_frames: int,
    config: AnalysisConfig | None = None,
    eps: float = DEFAULT_FD_EPS,
    probes: int = DEFAULT_PROBES,
    tolerance: float = DEFAULT_FD_TOLERANCE,
) -> list[GradReport]:
    """Run finite_diff_check over seeded random tonal frames.

    The frame population, probe indices and cotangents all derive from
    config.seed, so a given configuration always produces the same reports.
    Raises ValueError for a negative or non-integer n_frames, and for the
    settings `finite_diff_check` rejects.
    """
    _require_int(n_frames, "n_frames", 0)
    _check_fd_settings(eps, probes, tolerance)
    cfg = config or AnalysisConfig()
    rng = np.random.default_rng(cfg.seed)
    reports = []
    for i in range(n_frames):
        samples = random_tonal_frame(rng, cfg.frame_length, cfg.sample_rate)
        frame = Frame(samples, 0, cfg.sample_rate, padded=False)
        reports.append(
            finite_diff_check(
                frame,
                cfg.grid,
                eps=eps,
                probes=probes,
                seed=cfg.seed + 7919 * (i + 1),
                tolerance=tolerance,
                window=cfg.window,
            )
        )
    return reports
