"""Independent brute-force oracles.

Everything here recomputes expected values with plain loops and library-free
arithmetic so the tests stay decoupled from the implementation's reductions.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft
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


def decode_mean(data: bytes, audio_format: int, bits: int, n_channels: int) -> np.ndarray:
    """The per-format WAV decode: a trailing partial frame dropped, every
    sample of every channel scaled to [-1, 1] in float64 (PCM 16 and 24-bit
    by 2^15 and 2^23, float32 as is), then each frame's channels averaged
    with `mean`."""
    frame_bytes = n_channels * (bits // 8)
    data = data[: len(data) - len(data) % frame_bytes]
    if audio_format == 1 and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == 1 and bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        vals = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        vals -= (vals & 0x800000) << 1  # two's complement
        samples = vals.astype(np.float64) / 8388608.0
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    return samples if n_channels == 1 else samples.reshape(-1, n_channels).mean(axis=1)


@functools.lru_cache
def _firwin(max_rate: int) -> np.ndarray:
    fir = scipy.signal.firwin(64 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 8.6))
    fir.flags.writeable = False
    return fir


def resample_poly_firwin(samples: np.ndarray, up: int, down: int) -> np.ndarray:
    """scipy.signal.resample_poly by up / down with the resampler's filter:
    64 * max(up, down) + 1 Kaiser-sinc taps from firwin."""
    return scipy.signal.resample_poly(samples, up, down, window=_firwin(max(up, down)))


def resample_firwin(samples: np.ndarray, source_sr: int, target_sr: int, up: int, down: int) -> np.ndarray:
    """`resample_poly_firwin` by up / down, zero padded or cut to an output
    length of round(len * target_sr / source_sr)."""
    y = resample_poly_firwin(samples, up, down)
    n_out = int(np.floor(len(samples) * target_sr / source_sr + 0.5))
    return np.pad(y, (0, max(0, n_out - len(y))))[:n_out]


def resample_unbounded(samples: np.ndarray, source_sr: int, target_sr: int) -> np.ndarray:
    """The resampler with an unbounded filter: `resample_firwin` at the exact
    ratio in lowest terms. Equal rates pass through."""
    if source_sr == target_sr:
        return np.array(samples, dtype=np.float64)
    g = math.gcd(target_sr, source_sr)
    return resample_firwin(samples, source_sr, target_sr, target_sr // g, source_sr // g)


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


def contour_offsets_loop(a, b, time_scale: float) -> np.ndarray:
    """Per-frame semitone offsets of contour b over contour a, one voiced
    frame of a at a time: the frame-indexed log ratio when time_scale is
    1.0, else log2(f0_b) interpolated linearly at j = i * time_scale,
    skipping frames whose bracketing lags of b are unvoiced or past its end."""
    if time_scale == 1.0:
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


@np.errstate(over="ignore", invalid="ignore")
def difference_fft_per_frame(x: np.ndarray, tau_max: int, window: int) -> np.ndarray:
    """The per-frame FFT difference function that the hop-block kernel
    replaced in clip analysis, kept verbatim: three next_fast_len(row)
    transforms per row, the energy cumsum of the whole row, p_tau gathered
    by index, and the clamp. `_difference_fft` on a stack of independent
    rows (no hop), and on a clip span with a hop that does not divide the
    window (each segment one frame, head = window), must equal it bit for
    bit on those frames. With a hop that divides the window the kernel
    transforms hop segments at next_fast_len(hop + tau_max, real=True) and
    sums their energies, so it only agrees with this to rounding."""
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
    d[d < 1e-11 * (p0 + p_tau)] = 0.0
    return d


def difference_adjoint_separate(x: np.ndarray, adj_d: np.ndarray, window: int) -> np.ndarray:
    """The FFT adjoint of the difference function in its one-call-per-array
    layout, kept verbatim: b, x and x[:window] each transformed on its own,
    and the correlation conj(B)·X and the convolution B·Xh each inverted on
    its own, 5 transform calls. `gradients._difference_adjoint`, which stacks
    them into 2, must equal it bit for bit."""
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


def yingram_vjp_separate(
    x: np.ndarray, lags: np.ndarray, cot: np.ndarray, window: int, tau_max: int,
    eps: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """The Yingram VJP in its one-call-per-array layout, kept verbatim: the
    forward of `difference_fft_per_frame`, the CMND terms, the channel
    cotangents scattered onto the lags by two np.add.at calls (floors, then
    ceilings), the CMND adjoint and `difference_adjoint_separate`: 8
    transform calls. Returns (gradient, guard mask of lags 0 up to the
    highest lag a channel reads); `gradients._vjp` must equal both bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    d = difference_fft_per_frame(x, tau_max, window)
    csum = np.zeros_like(d)
    np.cumsum(d[1:], out=csum[1:])
    guarded = csum < eps
    csum[guarded] = 1.0
    values = np.where(guarded, 1.0, d * np.arange(len(d)) / csum)
    ceils = np.ceil(lags).astype(int)
    floors = np.floor(lags).astype(int)
    frac = lags - floors
    adj_dp = np.zeros(tau_max + 1)
    np.add.at(adj_dp, floors, cot * (1.0 - frac))
    np.add.at(adj_dp, ceils, cot * frac)
    adj_dp[guarded] = 0.0
    adj_d = adj_dp * np.arange(tau_max + 1) / csum
    adj_d[1:] -= np.cumsum((adj_dp * values / csum)[::-1])[::-1][1:]
    return difference_adjoint_separate(x, adj_d, window), guarded[: ceils.max() + 1]


def f0_csv_lines_loop(contour) -> list[str]:
    """The contour CSV as the f0 command formatted it frame by frame, from
    numpy scalars: an f0 that `np.isnan` flags is an empty field."""
    lines = ["frame,time_sec,f0_hz,aperiodicity"]
    for k in range(len(contour)):
        hz = "" if np.isnan(contour.f0[k]) else f"{contour.f0[k]:.4f}"
        lines.append(
            f"{k},{contour.times[k]:.6f},{hz},{contour.aperiodicity[k]:.6f}"
        )
    return lines
