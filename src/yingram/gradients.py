"""Analytic waveform gradients of Yingram channels, with FD verification.

The Yingram of a frame is differentiable almost everywhere: channel lags are
input-independent, so the only non-smooth point is the CMND silence guard,
where the gradient is defined as zero. The reverse-mode chain below walks
linear interpolation -> CMND quotient -> quadratic difference function and is
exact up to float64 rounding.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .audio import Frame
from .grid import DEFAULT_GRID, NoteGrid, channel_lags, tau_max_for
from .feature import yingram_from_frame
from .yin import CMND_EPS, difference_function, require_finite

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
        return {
            "max_rel_error": self.max_rel_error,
            "checked_channels": self.checked_channels,
            "eps": self.eps,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "probes_checked": self.probes_checked,
            "probes_skipped": self.probes_skipped,
            "guarded": self.guarded,
        }


def _check_fd_settings(eps: float, probes: int, tolerance: float) -> None:
    if probes < 1:
        raise ValueError(f"probes must be at least 1, got {probes}")
    for name, value in (("eps", eps), ("tolerance", tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _frame_samples(frame) -> tuple[np.ndarray, int]:
    if isinstance(frame, Frame):
        return np.asarray(frame.samples, dtype=np.float64), frame.sample_rate
    raise TypeError("yingram_vjp needs a Frame (it carries the sample rate)")


def yingram_vjp(
    frame: Frame,
    grid: NoteGrid = DEFAULT_GRID,
    cotangent: np.ndarray | None = None,
    window: int | None = None,
) -> np.ndarray:
    """Gradient of sum_c cotangent[c] * Y[c] with respect to the frame samples.

    The window defaults to len(frame) - tau_max(grid, rate), matching the
    analysis framing. Channels whose lags sit in the CMND guard region
    contribute zero gradient; a fully guarded (silent) frame returns all
    zeros and emits a warning. Non-finite samples or cotangent entries raise
    ValueError, since either would turn the whole gradient into NaN.
    """
    x, sample_rate = _frame_samples(frame)
    require_finite(x, "samples")
    tau_max = tau_max_for(grid, sample_rate)
    if window is None:
        window = len(x) - tau_max
    if window < 1 or len(x) < window + tau_max:
        raise ValueError(
            f"insufficient frame length: need window + tau_max = "
            f"{max(window, 1) + tau_max}, got {len(x)}"
        )
    cot = np.zeros(grid.num_channels) if cotangent is None else np.asarray(
        cotangent, dtype=np.float64
    )
    if cot.shape != (grid.num_channels,):
        raise ValueError(
            f"dimension error: cotangent must have {grid.num_channels} entries"
        )
    require_finite(cot, "cotangent")

    lags = channel_lags(grid, sample_rate)
    floors = np.floor(lags).astype(int)
    ceils = np.ceil(lags).astype(int)
    frac = lags - floors

    d = difference_function(x, tau_max, window, method="fft").values
    csum = np.concatenate(([0.0], np.cumsum(d[1:])))
    taus = np.arange(tau_max + 1)
    guarded = csum < CMND_EPS
    guarded[0] = True  # d'(0) is the constant 1

    if guarded[max(ceils.max(), floors.max())] and np.any(cot != 0.0):
        warnings.warn(
            "guarded region: CMND denominator below epsilon on checked "
            "channels, gradient defined as zero there",
            stacklevel=2,
        )

    # adjoint on d'
    adj_dp = np.zeros(tau_max + 1)
    np.add.at(adj_dp, floors, cot * (1.0 - frac))
    np.add.at(adj_dp, ceils, cot * frac)

    # adjoint on d through d'(tau) = d(tau) * tau / csum(tau):
    #   dd'(t)/dd(k) = t/csum(t) * [k == t]  -  t*d(t)/csum(t)^2 * [1 <= k <= t]
    live = ~guarded
    safe = np.where(live, csum, 1.0)
    adj_d = np.zeros(tau_max + 1)
    adj_d[live] = adj_dp[live] * taus[live] / safe[live]
    tail = np.zeros(tau_max + 1)
    tail[live] = adj_dp[live] * taus[live] * d[live] / safe[live] ** 2
    rev = np.cumsum(tail[::-1])[::-1]  # rev[k] = sum_{t >= k} tail[t]
    adj_d[1:] -= rev[1:]
    adj_d[0] = 0.0

    return _difference_adjoint(x, adj_d, window)


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

    For each probed index i the scalar L(x) = <cotangent, Y(x)> is differenced
    as (L(x + eps*e_i) - L(x - eps*e_i)) / (2*eps) and compared to the
    analytic gradient with relative error |a - n| / max(|a|, |n|, 1e-12).
    Probes whose analytic and numeric magnitudes both fall below
    LOW_SIGNAL_FRACTION of the frame's peak gradient are skipped and counted.
    A fully guarded (silent) frame passes trivially with the comparison
    skipped and the report flagged `guarded`. A NaN relative error fails the
    report. Raises ValueError for probes < 1 or an eps or tolerance that is
    not finite and positive.
    """
    _check_fd_settings(eps, probes, tolerance)
    x, sample_rate = _frame_samples(frame)
    tau_max = tau_max_for(grid, sample_rate)
    win = window if window is not None else len(x) - tau_max

    rng = np.random.default_rng(seed)
    if cotangent is None:
        cotangent = rng.standard_normal(grid.num_channels)
    cot = np.asarray(cotangent, dtype=np.float64)
    checked_channels = int(np.count_nonzero(cot))

    d = difference_function(x, tau_max, win, method="fft").values
    if np.sum(d[1:]) < CMND_EPS:
        return GradReport(
            max_rel_error=0.0,
            checked_channels=checked_channels,
            eps=eps,
            passed=True,
            tolerance=tolerance,
            probes_checked=0,
            probes_skipped=probes,
            guarded=True,
        )

    analytic = yingram_vjp(frame, grid, cot, window=win)
    floor = LOW_SIGNAL_FRACTION * np.max(np.abs(analytic))

    def loss(samples: np.ndarray) -> float:
        return float(np.dot(cot, yingram_from_frame(samples, grid, sample_rate, win)))

    n_probe = min(probes, len(x))
    indices = rng.choice(len(x), size=n_probe, replace=False)
    worst = 0.0
    skipped = 0
    for i in indices:
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        numeric = (loss(xp) - loss(xm)) / (2.0 * eps)
        # np.maximum, unlike max, propagates NaN, so a NaN error is kept
        scale = np.maximum(abs(analytic[i]), abs(numeric))
        if scale < floor:
            skipped += 1
            continue
        worst = np.maximum(worst, abs(analytic[i] - numeric) / np.maximum(scale, 1e-12))
    return GradReport(
        max_rel_error=float(worst),
        checked_channels=checked_channels,
        eps=eps,
        passed=bool(worst < tolerance),
        tolerance=tolerance,
        probes_checked=int(n_probe - skipped),
        probes_skipped=int(skipped),
        guarded=False,
    )


def gradcheck_suite(
    n_frames: int,
    config=None,
    eps: float = DEFAULT_FD_EPS,
    probes: int = DEFAULT_PROBES,
    tolerance: float = DEFAULT_FD_TOLERANCE,
) -> list[GradReport]:
    """Run finite_diff_check over seeded random tonal frames.

    The frame population, probe indices and cotangents all derive from
    config.seed, so a given configuration always produces the same reports.
    """
    from .config import AnalysisConfig
    from .synth import random_tonal_frame

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
