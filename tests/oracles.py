"""Independent brute-force oracles.

Everything here recomputes expected values with plain loops and library-free
arithmetic so the tests stay decoupled from the implementation's reductions.
"""
from __future__ import annotations

import math

import numpy as np


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
