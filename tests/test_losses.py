"""The three Yingram objectives against brute-force oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yingram import (
    LossConfig,
    compute_yingram,
    decoding_loss,
    recon_loss,
    shift_consistency_metric,
    sine_tone,
)
from oracles import crop_rows, exp_l1_mean, mean_abs_diff


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: decoding_loss(np.zeros((0, 50)), np.zeros((0, 50))),
    lambda: recon_loss(*[np.zeros((0, 50))] * 4),
    lambda: shift_consistency_metric(np.zeros((0, 80)), np.zeros((0, 80)), 0),
], ids=["decoding_loss", "recon_loss", "shift_consistency_metric"])
def test_losses_reject_empty_inputs(call):
    # the mean of an empty slice once came back as nan after a RuntimeWarning
    with pytest.raises(ValueError, match="dimension error: empty inputs"):
        call()


def test_decoding_loss_identity(rng):
    y = rng.uniform(0, 2, (9, 50))
    assert decoding_loss(y, y) == 0.0


def test_decoding_loss_constant_gap():
    a = np.zeros((6, 50))
    b = np.full((6, 50), 0.1)
    assert decoding_loss(a, b) == pytest.approx(4.5, abs=1e-12)


def test_decoding_loss_matches_oracle(rng):
    a = rng.uniform(0, 2, (13, 50))
    b = rng.uniform(0, 2, (13, 50))
    expected = 45.0 * mean_abs_diff(a, b)
    assert decoding_loss(a, b) == pytest.approx(expected, abs=1e-12)


def test_decoding_loss_symmetry(rng):
    a = rng.uniform(0, 2, (5, 50))
    b = rng.uniform(0, 2, (5, 50))
    assert decoding_loss(a, b) == decoding_loss(b, a)


def test_decoding_loss_shape_mismatch(rng):
    with pytest.raises(ValueError, match="dimension error"):
        decoding_loss(np.zeros((3, 50)), np.zeros((4, 50)))


def test_recon_loss_identity(rng):
    y = rng.uniform(0, 2, (7, 50))
    ys = rng.uniform(0, 2, (7, 50))
    assert recon_loss(y, ys, y, ys) == 0.0


def test_recon_loss_single_entry_closed_form():
    # one entry differing 0 vs 1 contributes |1 - e^-1| = 0.63212 pre-lambda
    a = np.array([[0.0]])
    b = np.array([[1.0]])
    zero = np.array([[0.0]])
    got = recon_loss(a, zero, b, zero)
    assert got == pytest.approx(45.0 * (1.0 - math.exp(-1.0)), abs=1e-12)
    assert 1.0 - math.exp(-1.0) == pytest.approx(0.63212, abs=1e-5)


def test_recon_loss_matches_oracle(rng):
    mats = [rng.uniform(0, 2, (11, 50)) for _ in range(4)]
    expected = 45.0 * (exp_l1_mean(mats[0], mats[2]) + exp_l1_mean(mats[1], mats[3]))
    assert recon_loss(*mats) == pytest.approx(expected, abs=1e-12)


def test_recon_loss_shape_mismatch(rng):
    good = np.zeros((3, 50))
    with pytest.raises(ValueError, match="dimension error"):
        recon_loss(good, good, good, np.zeros((3, 49)))


def test_lambda_scaling_is_exact(rng):
    a = rng.uniform(0, 2, (6, 50))
    b = rng.uniform(0, 2, (6, 50))
    assert decoding_loss(a, b, LossConfig(90.0)) == 2.0 * decoding_loss(a, b)
    mats = [rng.uniform(0, 2, (6, 50)) for _ in range(4)]
    assert recon_loss(*mats, LossConfig(90.0)) == 2.0 * recon_loss(*mats)
    ya = rng.uniform(0, 2, (6, 80))
    yb = rng.uniform(0, 2, (6, 80))
    assert shift_consistency_metric(ya, yb, 3, LossConfig(90.0)) == 2.0 * (
        shift_consistency_metric(ya, yb, 3)
    )


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        LossConfig(0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "45"])
def test_lambda_must_be_finite(value):
    with pytest.raises(ValueError, match="lambda_yin must be finite and positive"):
        LossConfig(value)


def test_exponential_core_bounded(rng):
    # Yingram values are >= 0, so every exp term lives in (0, 1]
    ya = rng.uniform(0, 5, (8, 80))
    yb = rng.uniform(0, 5, (8, 80))
    assert shift_consistency_metric(ya, yb, 0) <= 45.0
    mats = [rng.uniform(0, 5, (8, 50)) for _ in range(4)]
    assert recon_loss(*mats) <= 90.0


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_losses_nonnegative_and_zero_iff_equal(seed):
    r = np.random.default_rng(seed)
    a = r.uniform(0, 2, (4, 50))
    b = r.uniform(0, 2, (4, 50))
    assert decoding_loss(a, b) >= 0.0
    assert decoding_loss(a, a) == 0.0
    if not np.array_equal(a, b):
        assert decoding_loss(a, b) > 0.0


def test_shift_metric_matches_oracle(rng):
    ya = rng.uniform(0, 2, (10, 80))
    yb = rng.uniform(0, 2, (10, 80))
    s = 5
    expected = 45.0 * exp_l1_mean(crop_rows(ya, s), crop_rows(yb, 0))
    assert shift_consistency_metric(ya, yb, s) == pytest.approx(expected, abs=1e-12)


def test_shift_metric_zero_on_exact_translation(rng):
    ya = rng.uniform(0, 2, (12, 80))
    for s in (-15, -4, 0, 7, 15):
        # rolled copy: yb[:, c] = ya[:, c + s] for every in-range channel
        yb = np.roll(ya, -s, axis=1)
        assert shift_consistency_metric(ya, yb, s) == 0.0


def test_shift_metric_same_input_zero(rng):
    y = rng.uniform(0, 2, (12, 80))
    assert shift_consistency_metric(y, y, 0) == 0.0


def test_shift_metric_truncates_with_warning(rng):
    ya = rng.uniform(0, 2, (12, 80))
    yb = rng.uniform(0, 2, (10, 80))
    with pytest.warns(UserWarning, match="truncating"):
        got = shift_consistency_metric(ya, yb, 2)
    assert got == shift_consistency_metric(ya[:10], yb, 2)


def test_shift_metric_channel_mismatch(rng):
    with pytest.raises(ValueError, match="dimension error"):
        shift_consistency_metric(np.zeros((4, 80)), np.zeros((4, 60)), 0)


def test_shift_metric_prefers_true_shift_for_sine_pairs(cfg):
    # 415.305 Hz is one semitone below 440; the matching scope shift is s=2
    for seed in range(10):
        r = np.random.default_rng(seed)
        normal = sine_tone(440.0, 0.6, phase=r.uniform(0, 2 * np.pi))
        shifted = sine_tone(440.0 * 2 ** (-1 / 12), 0.6, phase=r.uniform(0, 2 * np.pi))
        yn = compute_yingram(normal, cfg).unpadded()
        ys = compute_yingram(shifted, cfg).unpadded()
        right = shift_consistency_metric(yn, ys, 2)
        wrong = shift_consistency_metric(yn, ys, 6)
        assert right < wrong
