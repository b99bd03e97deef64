"""YIN kernels: difference function, CMND, refinement, f0 estimation."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yingram import (
    cmnd,
    difference_function,
    estimate_f0,
    note_to_hz,
    parabolic_refine,
    sine_tone,
)
from yingram.yin import CMND_EPS, _cmnd_terms, _pick_lag, f0_rows, pick_lags
from oracles import cmnd_brute, difference_brute

SR = 22050
TAU_MAX = 426
FRAME_LEN = 2048 + TAU_MAX


def _sine_frame(freq, sr=SR, amp=0.6, phase=0.0, n=FRAME_LEN):
    t = np.arange(n) / sr
    return amp * np.sin(2 * np.pi * freq * t + phase)


@pytest.mark.parametrize("method", ["naive", "fft"])
def test_zero_frame(method):
    d = difference_function(np.zeros(FRAME_LEN), TAU_MAX, 2048, method=method)
    assert np.all(d == 0.0)


@pytest.mark.parametrize("method", ["naive", "fft"])
def test_constant_frame(method):
    d = difference_function(np.full(FRAME_LEN, 0.7), TAU_MAX, 2048, method=method)
    assert np.all(d >= 0.0)
    assert np.all(d < 1e-9)


def test_exact_period_sine():
    # period of exactly 100 samples = 220.5 Hz at 22050
    x = _sine_frame(220.5)
    d = difference_function(x, TAU_MAX, 2048, method="naive")
    assert d[100] < 1e-6 * d[50]
    assert d[0] == 0.0


def test_difference_matches_brute_force(rng):
    x = rng.standard_normal(64)
    fast = difference_function(x, 16, 48, method="fft")
    naive = difference_function(x, 16, 48, method="naive")
    brute = difference_brute(x, 16, 48)
    np.testing.assert_allclose(naive, brute, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fast, brute, rtol=1e-9, atol=1e-9)


def test_fft_equals_naive_on_random_frames(rng):
    for _ in range(20):
        x = rng.standard_normal(FRAME_LEN)
        a = difference_function(x, TAU_MAX, 2048, method="fft")
        b = difference_function(x, TAU_MAX, 2048, method="naive")
        assert np.max(np.abs(a - b)) / np.max(b) < 1e-6


def test_insufficient_frame_length():
    with pytest.raises(ValueError, match="insufficient frame length"):
        difference_function(np.zeros(100), TAU_MAX, 2048)
    with pytest.raises(ValueError, match="need 2474, got 100"):
        difference_function(np.zeros((3, 100)), TAU_MAX, 2048)
    with pytest.raises(ValueError, match="insufficient frame length: need 1, got 0"):
        difference_function(np.float64(1.0), 0, 1)  # once an IndexError


@pytest.mark.parametrize("method", ["naive", "fft"])
@pytest.mark.parametrize("tau_max, window, message", [
    (TAU_MAX, 0, "window must be at least 1, got 0"),
    (TAU_MAX, -5, "window must be at least 1, got -5"),  # once gave d(0) = 0.23
    (TAU_MAX, 2048.0, "window must be an integer, got 2048.0"),
    (-1, 2048, "tau_max must be at least 0, got -1"),
    (TAU_MAX, 2049, "insufficient frame length: need 2475, got 2474"),
])
def test_difference_function_frame_rule(rng, method, tau_max, window, message):
    with pytest.raises(ValueError, match=message):
        difference_function(rng.standard_normal(FRAME_LEN), tau_max, window, method=method)


@pytest.mark.parametrize("method", ["naive", "fft"])
def test_stack_of_frames_is_row_by_row(rng, method):
    frames = rng.standard_normal((3, 64))
    d = difference_function(frames, 16, 48, method=method)
    assert d.shape == (3, 17)
    for row, x in zip(d, frames):
        np.testing.assert_array_equal(row, difference_function(x, 16, 48, method=method))
    np.testing.assert_array_equal(cmnd(d)[1], cmnd(d[1]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["naive", "fft"])
def test_cmnd_rejects_overflowing_rows(method):
    frames = np.stack([_sine_frame(220.0), 1e160 * _sine_frame(220.0)])
    d = difference_function(frames, TAU_MAX, 2048, method=method)  # no warning
    with pytest.raises(ValueError, match=r"non-finite difference values: .* frames 1\.\.1 "):
        cmnd(d)
    with pytest.raises(ValueError, match="non-finite difference values"):
        cmnd(np.array([0.0, 1.0, np.nan]))


def test_cmnd_starts_at_one(rng):
    d = difference_function(rng.standard_normal(FRAME_LEN), TAU_MAX, 2048)
    curve = cmnd(d)
    assert curve[0] == 1.0
    assert np.all(curve >= 0.0)


def test_cmnd_of_silence_is_all_ones():
    d = difference_function(np.zeros(FRAME_LEN), TAU_MAX, 2048)
    assert np.all(cmnd(d) == 1.0)


def test_cmnd_matches_brute_force(rng):
    x = rng.standard_normal(64)
    d = difference_function(x, 16, 48, method="naive")
    np.testing.assert_allclose(
        cmnd(d), cmnd_brute(d), rtol=1e-12, atol=1e-12
    )


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([1e-12, 1e-9, 1e-6, 1.0]))
def test_cmnd_terms_equal_running_sum_oracle(seed, length, scale):
    # at scales 1e-9 and 1e-6 the running sum crosses CMND_EPS inside a row
    d = np.random.default_rng(seed).random((3, length)) * scale
    values, csum, guarded = _cmnd_terms(d)
    np.testing.assert_array_equal(cmnd(d), values)
    for row, got_values, got_csum, got_guarded in zip(d, values, csum, guarded):
        np.testing.assert_array_equal(got_values, cmnd_brute(row))
        sums = np.concatenate(([0.0], np.cumsum(row[1:])))
        np.testing.assert_array_equal(got_guarded, sums < CMND_EPS)
        np.testing.assert_array_equal(got_csum, np.where(sums < CMND_EPS, 1.0, sums))


@pytest.mark.parametrize("alpha", [0.5, 3.0, 17.0])
def test_cmnd_amplitude_invariance(rng, alpha):
    x = rng.standard_normal(FRAME_LEN)
    base = cmnd(difference_function(x, TAU_MAX, 2048))
    scaled = cmnd(difference_function(alpha * x, TAU_MAX, 2048))
    np.testing.assert_allclose(scaled, base, atol=1e-9)


def test_cmnd_dips_at_period():
    x = _sine_frame(220.5)
    vals = cmnd(difference_function(x, TAU_MAX, 2048))
    assert vals[100] < 0.05
    assert vals[100] <= vals[99] and vals[100] <= vals[101]


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12))
def test_cmnd_nonnegative_any_input(values):
    d = difference_function(np.array(values), 4, 8)
    curve = cmnd(d)
    assert curve[0] == 1.0
    assert np.all(curve >= 0.0)
    assert np.all(np.isfinite(curve))


def test_parabolic_symmetric_cases():
    assert parabolic_refine(np.array([9, 1, 0, 1, 9]), 2) == 2.0
    assert parabolic_refine(np.array([9, 0.3, 0.1, 0.3, 9]), 2) == 2.0


def test_parabolic_asymmetric_case():
    # vertex of the parabola through (1, 0.4), (2, 0.1), (3, 0.2)
    refined = parabolic_refine(np.array([9, 0.4, 0.1, 0.2, 9]), 2)
    coeffs = np.polyfit([1, 2, 3], [0.4, 0.1, 0.2], 2)
    vertex = -coeffs[1] / (2 * coeffs[0])
    assert refined == pytest.approx(vertex, abs=1e-12)
    assert refined == pytest.approx(2.25)


def test_parabolic_boundary_returns_input():
    assert parabolic_refine(np.array([1.0, 0.5, 0.7]), 0) == 0.0
    assert parabolic_refine(np.array([1.0, 0.5, 0.7]), 2) == 2.0


@pytest.mark.parametrize("values, tau, message", [
    (np.ones(10), 20, "parabolic_refine needs a 1-D curve holding lag 20, got shape (10,)"),
    (np.ones(10), 10, "parabolic_refine needs a 1-D curve holding lag 10, got shape (10,)"),
    (np.ones((2, 10)), 3, "parabolic_refine needs a 1-D curve holding lag 3, got shape (2, 10)"),
    (np.ones(10), -3, "tau must be at least 0, got -3"),
    (np.ones(10), 4.5, "tau must be an integer, got 4.5"),
])
def test_parabolic_refine_rejects_a_lag_off_its_curve(values, tau, message):
    # a lag past the end, or below 0, once came back unchanged; 4.5 and a
    # 2-D curve raised IndexError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parabolic_refine(values, tau)


@pytest.mark.parametrize("d", [np.array([]), np.zeros((3, 0)), np.float64(1.0)],
                         ids=["empty", "rows-without-lags", "0-D"])
def test_cmnd_rejects_an_empty_lag_axis(d):
    with pytest.raises(ValueError, match=re.escape(f"cmnd needs at least one lag, got shape {d.shape}")):
        cmnd(d)


def test_difference_function_rejects_an_unknown_method():
    with pytest.raises(ValueError, match=r"^unknown method 'bogus'$"):
        difference_function(np.zeros(FRAME_LEN), TAU_MAX, 2048, method="bogus")


def test_estimate_f0_sine():
    curve = cmnd(difference_function(_sine_frame(440.0), TAU_MAX, 2048))
    result = estimate_f0(curve, SR)
    assert result is not None
    f0, aperiodicity = result
    assert f0 == pytest.approx(440.0, abs=1.0)
    assert aperiodicity < 0.05


def test_estimate_f0_silence_unvoiced():
    curve = cmnd(difference_function(np.zeros(FRAME_LEN), TAU_MAX, 2048))
    assert estimate_f0(curve, SR) is None


def test_estimate_f0_white_noise_mostly_unvoiced(rng):
    unvoiced = 0
    for _ in range(100):
        x = rng.standard_normal(FRAME_LEN)
        curve = cmnd(difference_function(x, TAU_MAX, 2048))
        unvoiced += estimate_f0(curve, SR) is None
    assert unvoiced >= 95


def test_estimate_f0_invalid_bounds():
    curve = cmnd(difference_function(_sine_frame(440.0), TAU_MAX, 2048))
    with pytest.raises(ValueError, match="invalid f0 bounds"):
        estimate_f0(curve, SR, f_min=500.0, f_max=100.0)


F0_KERNELS = {
    "pick_lags": lambda values, f_min, f_max, sr=SR: pick_lags(values, sr, 0.1, f_min, f_max),
    "f0_rows": lambda values, f_min, f_max, sr=SR: f0_rows(values, sr, 0.1, f_min, f_max, 0.25),
    "estimate_f0": lambda values, f_min, f_max, sr=SR: estimate_f0(values[0], sr, 0.1, f_min, f_max),
    "_pick_lag": lambda values, f_min, f_max, sr=SR: _pick_lag(values[0], sr, 0.1, f_min, f_max),
}


@pytest.mark.parametrize("f_min, f_max", [
    (0.0, 508.0),  # once a ZeroDivisionError
    (-5.0, 508.0),
    (math.nan, 508.0),
    (52.0, SR / 2 + 1),  # above Nyquist, once accepted
    (52.0, math.nan),
])
@pytest.mark.parametrize("kernel", F0_KERNELS.values(), ids=F0_KERNELS.keys())
def test_f0_kernels_read_the_band_rule(kernel, f_min, f_max):
    values = cmnd(difference_function(np.stack([_sine_frame(440.0)] * 2), TAU_MAX, 2048))
    with pytest.raises(ValueError, match="invalid f0 bounds: need 0 < f_min < f_max"):
        kernel(values, f_min, f_max)


@pytest.mark.parametrize("rate, message", [
    (22050.5, "sample_rate must be an integer, got 22050.5"),  # once 220.014 Hz
    (True, "sample_rate must be an integer, got True"),  # once "invalid f0 bounds ... True Hz"
    (math.nan, "sample_rate must be an integer, got nan"),
    (0, "sample_rate must be at least 1, got 0"),
])
@pytest.mark.parametrize("kernel", F0_KERNELS.values(), ids=F0_KERNELS.keys())
def test_f0_kernels_read_the_integer_rate_rule(kernel, rate, message):
    values = cmnd(difference_function(np.stack([_sine_frame(220.0)] * 2), TAU_MAX, 2048))
    with pytest.raises(ValueError, match=message):
        kernel(values, 52.0, 508.0, sr=rate)
    assert kernel(values, 52.0, 508.0, sr=np.int64(SR)) is not None


def test_estimate_f0_grid_edge_note():
    # f(74) = 508.355 Hz sits right at the default f_max of 508
    freq = note_to_hz(74)
    curve = cmnd(difference_function(_sine_frame(freq), TAU_MAX, 2048))
    result = estimate_f0(curve, SR)
    assert result is not None
    assert abs(1200 * np.log2(result[0] / freq)) < 10


@pytest.mark.parametrize("m", [5, 25, 45, 65, 74])
def test_f0_accuracy_on_grid_notes(m):
    freq = note_to_hz(m)
    w = sine_tone(freq, 0.5, SR)
    good = total = 0
    for start in range(0, len(w.samples) - FRAME_LEN, 1024):
        frame = w.samples[start : start + FRAME_LEN]
        result = estimate_f0(cmnd(difference_function(frame, TAU_MAX, 2048)), SR)
        total += 1
        if result is not None and abs(1200 * np.log2(result[0] / freq)) < 10:
            good += 1
    assert total > 0
    assert good / total >= 0.95
