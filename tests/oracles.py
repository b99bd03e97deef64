"""Independent brute-force oracles.

Everything here recomputes expected values with plain loops and library-free
arithmetic so the tests stay decoupled from the implementation's reductions.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.signal


def difference_brute(x: np.ndarray, tau_max: int, window: int) -> np.ndarray:
    """Direct double-loop squared-difference function."""
    x = np.asarray(x, dtype=np.float64)
    d = np.zeros(tau_max + 1)
    for tau in range(tau_max + 1):
        acc = 0.0
        for j in range(window):
            diff = x[j] - x[j + tau]
            acc += diff * diff
        d[tau] = acc
    return d


def cmnd_brute(d: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    out = np.ones(len(d))
    running = 0.0
    for tau in range(1, len(d)):
        running += d[tau]
        out[tau] = 1.0 if running < eps else d[tau] * tau / max(running, eps)
    return out


def mean_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise L1 mean via plain Python accumulation."""
    total = 0.0
    count = 0
    for x, y in zip(np.asarray(a).ravel(), np.asarray(b).ravel()):
        total += abs(float(x) - float(y))
        count += 1
    return total / count


def exp_l1_mean(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    count = 0
    for x, y in zip(np.asarray(a).ravel(), np.asarray(b).ravel()):
        total += abs(math.exp(-float(x)) - math.exp(-float(y)))
        count += 1
    return total / count


def crop_rows(matrix: np.ndarray, s: int) -> np.ndarray:
    """Channel window 15+s .. 64+s, rebuilt column by column."""
    out = np.empty((matrix.shape[0], 50))
    for c in range(50):
        out[:, c] = matrix[:, 15 + s + c]
    return out


def fft_peak_hz(samples: np.ndarray, sr: int) -> float:
    spectrum = np.abs(np.fft.rfft(samples))
    return float(np.fft.rfftfreq(len(samples), 1.0 / sr)[np.argmax(spectrum)])


def pick_lag_loop(
    vals: np.ndarray, sample_rate: int, threshold: float, f_min: float, f_max: float
) -> tuple[int, float]:
    """The scalar lag-pick loop: the first local minimum under the threshold
    inside [sr/f_max, sr/f_min], else the global minimum of that range."""
    lo = max(1, int(np.floor(sample_rate / f_max)))
    hi = min(len(vals) - 2, int(np.ceil(sample_rate / f_min)))
    tau = lo
    while tau <= hi:
        if vals[tau] < threshold:
            while tau + 1 <= hi and vals[tau + 1] < vals[tau]:
                tau += 1
            return tau, float(vals[tau])
        tau += 1
    tau = lo + int(np.argmin(vals[lo : hi + 1]))
    return tau, float(vals[tau])


def parabolic_refine_scalar(vals: np.ndarray, tau: int) -> float:
    """The scalar parabolic refinement: vertex through tau's neighbors,
    clamped to [tau-1, tau+1]; boundary lags and flat triples unchanged."""
    if tau <= 0 or tau >= len(vals) - 1:
        return float(tau)
    a, b, cc = vals[tau - 1], vals[tau], vals[tau + 1]
    denom = a - 2.0 * b + cc
    if denom == 0.0:
        return float(tau)
    vertex = tau + (a - cc) / (2.0 * denom)
    return float(min(max(vertex, tau - 1.0), tau + 1.0))


def resample_unbounded(samples: np.ndarray, source_sr: int, target_sr: int) -> np.ndarray:
    """The resampler with an unbounded filter: the exact ratio in lowest
    terms, 64 * max(up, down) + 1 Kaiser-sinc taps, and an output length of
    round(len * target_sr / source_sr). Equal rates pass through."""
    if source_sr == target_sr:
        return np.array(samples, dtype=np.float64)
    g = math.gcd(target_sr, source_sr)
    up, down = target_sr // g, source_sr // g
    max_rate = max(up, down)
    fir = scipy.signal.firwin(64 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 8.6))
    y = scipy.signal.resample_poly(samples, up, down, window=fir)
    n_out = int(np.floor(len(samples) * target_sr / source_sr + 0.5))
    return np.pad(y, (0, max(0, n_out - len(y))))[:n_out]


def difference_adjoint_loop(
    x: np.ndarray, adj_d: np.ndarray, window: int, tau_max: int
) -> np.ndarray:
    """The per-lag adjoint of d(k) = sum_{j<window} (x[j] - x[j+k])^2: the
    gradient of sum_{k=1..tau_max} adj_d[k] * d(k) over x, one lag at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros(len(x))
    head = x[:window]
    for k in range(1, tau_max + 1):
        bk = adj_d[k]
        if bk == 0.0:
            continue
        e = head - x[k : k + window]
        grad[:window] += (2.0 * bk) * e
        grad[k : k + window] -= (2.0 * bk) * e
    return grad


def contour_offsets_loop(a, b, time_scale: float | None) -> np.ndarray:
    """Per-frame semitone offsets of contour b over contour a, one voiced
    frame of a at a time: the frame-indexed log ratio when time_scale is None
    or 1.0, else log2(f0_b) interpolated linearly at j = i * time_scale,
    skipping frames whose bracketing lags of b are unvoiced or past its end."""
    if time_scale is None or time_scale == 1.0:
        n = min(len(a), len(b))
        co = a.voiced[:n] & b.voiced[:n]
        return 12.0 * np.log2(b.f0[:n][co] / a.f0[:n][co])
    log_b = np.log2(b.f0)
    out = []
    for i in np.nonzero(a.voiced)[0]:
        j = i * time_scale
        j0 = int(np.floor(j))
        j1 = int(np.ceil(j))
        if j1 >= len(b) or np.isnan(log_b[j0]) or np.isnan(log_b[j1]):
            continue
        lb = log_b[j0] + (log_b[j1] - log_b[j0]) * (j - j0)
        out.append(12.0 * (lb - np.log2(a.f0[i])))
    return np.asarray(out)


def yingram_vjp_csum_squared(
    x: np.ndarray, lags: np.ndarray, cot: np.ndarray, window: int, tau_max: int,
    eps: float = 1e-8,
) -> np.ndarray:
    """The Yingram VJP with the CMND quotient rule written on d, one lag at
    a time: adj_d[k] = adj_dp[k]*k/csum(k) - sum_{t>=k} adj_dp[t]*t*d(t)/csum(t)^2.
    It squares the CMND sums, so it overflows for frames above about 1e75;
    at unit scale it is the reference for the VJP that reads d'."""
    x = np.asarray(x, dtype=np.float64)
    head = x[:window]
    d = np.array([np.sum((head - x[k : k + window]) ** 2) for k in range(tau_max + 1)])
    csum = np.concatenate(([0.0], np.cumsum(d[1:])))
    guarded = csum < eps
    adj_dp = np.zeros(tau_max + 1)
    for c, lag in enumerate(lags):
        lo = math.floor(lag)
        frac = lag - lo
        adj_dp[lo] += cot[c] * (1.0 - frac)
        adj_dp[math.ceil(lag)] += cot[c] * frac
    adj_dp[guarded] = 0.0
    adj_d = np.zeros(tau_max + 1)
    for t in range(1, tau_max + 1):
        if adj_dp[t] == 0.0:
            continue
        adj_d[t] += adj_dp[t] * t / csum[t]
        adj_d[1 : t + 1] -= adj_dp[t] * t * d[t] / csum[t] ** 2
    return difference_adjoint_loop(x, adj_d, window, tau_max)
