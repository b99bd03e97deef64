"""The three Yingram objectives against brute-force oracles."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yingram import (
    AnalysisConfig,
    compute_yingram,
    crop_scope,
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
    doubled = AnalysisConfig(lambda_yin=90.0)
    assert decoding_loss(a, b, doubled) == 2.0 * decoding_loss(a, b)
    mats = [rng.uniform(0, 2, (6, 50)) for _ in range(4)]
    assert recon_loss(*mats, doubled) == 2.0 * recon_loss(*mats)
    ya = rng.uniform(0, 2, (6, 80))
    yb = rng.uniform(0, 2, (6, 80))
    assert shift_consistency_metric(ya, yb, 3, doubled) == 2.0 * (
        shift_consistency_metric(ya, yb, 3)
    )


def test_lambda_must_be_positive():
    with pytest.raises(ValueError, match="^invalid config: lambda_yin=0.0 must be positive$"):
        AnalysisConfig(lambda_yin=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "45"])
def test_lambda_must_be_finite(value):
    with pytest.raises(ValueError, match="^invalid config: lambda_yin="):
        AnalysisConfig(lambda_yin=value)


# loss -> (function, the names of its matrix arguments, their shape, its other arguments)
LOSS_INPUTS = {
    "decoding_loss": (decoding_loss, ["target", "prediction"], (3, 50), ()),
    "recon_loss": (recon_loss, ["y_crop", "y_crop_shift", "synth_default", "synth_shifted"],
                   (3, 50), ()),
    "shift_consistency_metric": (shift_consistency_metric, ["y_normal", "y_shifted_audio"],
                                 (3, 80), (0,)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("loss, name", [
    (loss, name) for loss, (_, names, _, _) in LOSS_INPUTS.items() for name in names
])
def test_losses_reject_non_finite_inputs(loss, name, value):
    # each once returned nan or inf, or a finite loss for +inf (e^-inf = 0)
    fn, names, shape, rest = LOSS_INPUTS[loss]
    matrices = [np.zeros(shape) for _ in names]
    matrices[names.index(name)][1, 7] = value
    with pytest.raises(ValueError, match=f"^non-finite {name}: 1 of "):
        fn(*matrices, *rest)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("least", [-1000.0, -709.5], ids=["entry", "sum"])
@pytest.mark.parametrize("loss, name", [
    (loss, name) for loss in ("recon_loss", "shift_consistency_metric")
    for name in LOSS_INPUTS[loss][1]
])
def test_exponential_losses_name_an_overflowing_argument(loss, name, least):
    # e^1000 overflows, and a mean of e^709.5 entries sums past the float
    # range: each once returned inf after an overflow RuntimeWarning
    fn, names, shape, rest = LOSS_INPUTS[loss]
    matrices = [np.zeros(shape) for _ in names]
    matrices[names.index(name)][:] = least
    message = rf"^the e\^-{name} term is too large for a float: its least entry is {least}$"
    with pytest.raises(ValueError, match=message):
        fn(*matrices, *rest)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target, prediction", [(1e308, -1e308), (1.7e308, 0.1e308), (1e307, -1e306)],
                         ids=["difference", "mean", "sum"])
def test_decoding_loss_names_an_overflowing_difference(target, prediction):
    # the difference, or the mean's sum (150 entries of 1.7e308 or 1.1e307),
    # overflows: each once returned inf after an overflow RuntimeWarning
    message = (f"the |target - prediction| term is too large for a float at lambda_yin=45.0: "
               f"target spans [{target!r}, {target!r}], prediction spans [{prediction!r}, {prediction!r}]")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decoding_loss(np.full((3, 50), target), np.full((3, 50), prediction))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target, prediction, loss", [
    (np.array([[2**62]]), np.array([[-2**62]]), 45.0 * 2.0**63),  # once -4.15e20: int64 wrapped
    (np.array([[2**63 - 1, 0]]), np.array([[-2**63, 0]]), 45.0 * 2.0**63),
    (np.array([[2**64 - 1]], np.uint64), np.array([[0]], np.uint64), 45.0 * 2.0**64),
    (np.array([[True, False]]), np.array([[False, False]]), 22.5),  # once a TypeError
], ids=["int64", "int64-extremes", "uint64", "bool"])
def test_decoding_loss_reads_integer_entries_as_floats(target, prediction, loss):
    assert decoding_loss(target, prediction) == loss


def test_decoding_loss_keeps_float32_bits(rng):
    a, b = rng.uniform(-3, 3, (6, 50)).astype(np.float32), rng.uniform(-3, 3, (6, 50)).astype(np.float32)
    assert decoding_loss(a, b) == float(AnalysisConfig.lambda_yin * np.mean(np.abs(a - b)))


@pytest.mark.filterwarnings("error")
def test_recon_loss_reads_integer_entries_as_floats():
    # -(-2**63) wraps round in int64, so e^-y once read e^-(2**63) = 0
    z = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(ValueError, match=r"^the e\^-y_crop term is too large for a float"):
        recon_loss(np.array([[-2**63]]), z, z, z)
    assert recon_loss(np.array([[-2]]), z, z, z) == 45.0 * (math.exp(2.0) - 1.0)


# each loss of object matrices, and of the same values as float64
OBJECT_LOSSES = {
    "decoding_loss": lambda m: decoding_loss(m, np.zeros((3, 80))),
    "recon_loss": lambda m: recon_loss(m, np.zeros((3, 80)), np.ones((3, 80)), m),
    "shift_consistency_metric": lambda m: shift_consistency_metric(m, np.zeros((3, 80)), 2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(OBJECT_LOSSES))
def test_object_matrices_of_reals_read_as_float64(rng, name):
    # numpy's isfinite once raised TypeError on an object matrix of reals
    values = rng.uniform(0.0, 1.0, (3, 80))
    mixed = values.astype(object)
    mixed[0, :3] = [1, True, np.float32(0.5)]  # an int, a bool and a numpy scalar
    expected = OBJECT_LOSSES[name](mixed.astype(np.float64))
    assert OBJECT_LOSSES[name](mixed) == expected  # bit for bit
    mixed[1, 7] = 1 + 2j
    with pytest.raises(ValueError, match="must be real, got dtype object"):
        OBJECT_LOSSES[name](mixed)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("loss, first", [
    ("decoding_loss", 10.0), ("recon_loss", -5.0), ("shift_consistency_metric", -5.0),
])
def test_a_weight_that_overflows_names_lambda_yin(loss, first):
    # each once returned inf after an overflow RuntimeWarning; decoding_loss
    # then said its term of 10.0 was too large for a float
    fn, names, shape, rest = LOSS_INPUTS[loss]
    matrices = [np.zeros(shape) for _ in names]
    matrices[0][:] = first
    unweighted = fn(*matrices, *rest, AnalysisConfig(lambda_yin=1.0))
    message = f"lambda_yin=1e+308 weighs the loss past the float range: the unweighted loss is {unweighted!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*matrices, *rest, AnalysisConfig(lambda_yin=1e308))


def _draw(rng, dtype, shape, low, high):
    """Uniform entries of dtype in [low, high); bool entries are fair coins."""
    if dtype == np.bool_:
        return rng.random(shape) < 0.5
    if dtype == np.int64:
        return rng.integers(int(low), int(high), shape)
    return rng.uniform(low, high, shape).astype(dtype)


# dtype -> (the decoding range, the e^-Y range): float32's e^-Y overflows past 88.7
DTYPE_RANGES = {np.float64: (1e305, -700), np.float32: (1e33, -80), np.int64: (2**62, -700),
                np.bool_: (1, 0)}


@pytest.mark.parametrize("dtype", DTYPE_RANGES, ids=lambda d: np.dtype(d).name)
def test_the_overflow_rule_changes_no_loss(rng, dtype):
    # the bare expressions in the same order, so finite losses keep their bits:
    # integer and bool entries read as float64, float32 stays float32 (NEP 50),
    # and the shift metric reads every matrix as float64
    wide, low = DTYPE_RANGES[dtype]
    real = lambda m: m.astype(np.float64) if m.dtype.kind in "biu" else m
    lam = AnalysisConfig.lambda_yin
    a, b = (_draw(rng, dtype, (6, 50), -wide, wide) for _ in range(2))
    assert decoding_loss(a, b).hex() == float(lam * np.mean(np.abs(real(a) - real(b)))).hex()
    mats = [_draw(rng, dtype, (6, 50), low, 5) for _ in range(4)]
    y, ys, gd, gs = map(real, mats)
    bare = np.mean(np.abs(np.exp(-y) - np.exp(-gd))) + np.mean(np.abs(np.exp(-ys) - np.exp(-gs)))
    assert recon_loss(*mats).hex() == float(lam * bare).hex()
    ya, yb = (_draw(rng, dtype, (6, 80), low, 5) for _ in range(2))
    na, nb = (np.asarray(m, np.float64) for m in (ya, yb))
    bare = np.mean(np.abs(np.exp(-crop_scope(na, 3)) - np.exp(-crop_scope(nb, 0))))
    assert shift_consistency_metric(ya, yb, 3).hex() == float(lam * bare).hex()


# (loss, stage) -> (the first matrix's entries, the others', lambda_yin, the message)
OVERFLOW_STAGES = {
    ("decoding_loss", "term"): (1e308, -1e308, 45.0,
                                "the |target - prediction| term is too large for a float at lambda_yin=45.0: "
                                "target spans [1e+308, 1e+308], prediction spans [-1e+308, -1e+308]"),
    ("decoding_loss", "sum"): (1e307, -1e306, 45.0,
                               "the |target - prediction| term is too large for a float at lambda_yin=45.0: "
                               "target spans [1e+307, 1e+307], prediction spans [-1e+306, -1e+306]"),
    ("decoding_loss", "weight"): (10.0, 0.0, 1e308, "lambda_yin=1e+308 weighs the loss past the float "
                                  "range: the unweighted loss is 10.0"),
    # every e^-Y entry is inf, and inf - inf is NaN: the tie names the first argument
    ("recon_loss", "term"): (-1000.0, -1000.0, 45.0,
                             "the e^-y_crop term is too large for a float: its least entry is -1000.0"),
    ("recon_loss", "sum"): (-709.5, 0.0, 45.0,
                            "the e^-y_crop term is too large for a float: its least entry is -709.5"),
    ("recon_loss", "weight"): (-5.0, 0.0, 1e308, "lambda_yin=1e+308 weighs the loss past the float "
                               "range: the unweighted loss is 147.4131591025766"),
    ("shift_consistency_metric", "term"): (-1000.0, -1000.0, 45.0, "the e^-y_normal term is too "
                                           "large for a float: its least entry is -1000.0"),
    ("shift_consistency_metric", "sum"): (-709.5, 0.0, 45.0, "the e^-y_normal term is too large "
                                          "for a float: its least entry is -709.5"),
    ("shift_consistency_metric", "weight"): (-5.0, 0.0, 1e308, "lambda_yin=1e+308 weighs the loss "
                                             "past the float range: the unweighted loss is 147.4131591025766"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("loss, stage", OVERFLOW_STAGES, ids=[f"{l}-{s}" for l, s in OVERFLOW_STAGES])
def test_each_overflow_stage_raises_its_message(loss, stage):
    # a term, a sum and a weight past the float range, under one rule for all three losses
    first, others, lambda_yin, message = OVERFLOW_STAGES[loss, stage]
    fn, names, shape, rest = LOSS_INPUTS[loss]
    matrices = [np.full(shape, first)] + [np.full(shape, others) for _ in names[1:]]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*matrices, *rest, AnalysisConfig(lambda_yin=lambda_yin))


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
