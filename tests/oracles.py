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
