"""YIN kernels: difference function, CMND, refinement, f0 estimation."""
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
from yingram.yin import CMND_EPS, _cmnd_terms
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
