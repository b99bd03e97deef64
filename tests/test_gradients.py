"""Analytic VJP against finite differences, plus its structural properties."""
import json
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from yingram import (
    AnalysisConfig,
    Frame,
    NoteGrid,
    difference_function,
    finite_diff_check,
    gradcheck_suite,
    random_tonal_frame,
    yingram_from_frame,
    yingram_vjp,
)
from yingram import feature, gradients
from yingram.feature import _channel_brackets
from yingram.gradients import _difference_adjoint
from yingram.grid import channel_lags
from yingram.yin import cmnd
from oracles import (
    difference_adjoint_loop,
    difference_adjoint_separate,
    difference_fft_per_frame,
    yingram_vjp_csum_squared,
    yingram_vjp_separate,
)

SR = 22050
GRID = NoteGrid()
FRAME_LEN = 2048 + 426


def _frame(samples):
    return Frame(np.asarray(samples, dtype=float), 0, SR, padded=False)


def _loss(samples, cot):
    return float(np.dot(cot, yingram_from_frame(samples, GRID, SR, 2048)))


def test_one_hot_matches_central_differences(rng):
    x = rng.standard_normal(FRAME_LEN)
    cot = np.zeros(80)
    cot[40] = 1.0
    grad = yingram_vjp(_frame(x), GRID, cot)
    eps = 1e-5
    gmax = np.max(np.abs(grad))
    checked = 0
    for i in rng.choice(FRAME_LEN, size=10, replace=False):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        numeric = (_loss(xp, cot) - _loss(xm, cot)) / (2 * eps)
        if max(abs(grad[i]), abs(numeric)) < 1e-3 * gmax:
            continue
        rel = abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-12)
        assert rel < 1e-4
        checked += 1
    assert checked > 0


def test_zero_cotangent_gives_zero_gradient(rng):
    x = rng.standard_normal(FRAME_LEN)
    grad = yingram_vjp(_frame(x), GRID, np.zeros(80))
    assert np.all(grad == 0.0)


def test_constant_frame_is_guarded(rng):
    cot = rng.standard_normal(80)
    with pytest.warns(UserWarning, match="guarded region"):
        grad = yingram_vjp(_frame(np.full(FRAME_LEN, 0.7)), GRID, cot)
    assert np.all(grad == 0.0)


def test_linearity(rng):
    x = rng.standard_normal(FRAME_LEN)
    frame = _frame(x)
    u = rng.standard_normal(80)
    v = rng.standard_normal(80)
    a, b = 1.7, -0.3
    combined = yingram_vjp(frame, GRID, a * u + b * v)
    separate = a * yingram_vjp(frame, GRID, u) + b * yingram_vjp(frame, GRID, v)
    scale = np.max(np.abs(separate))
    np.testing.assert_allclose(combined, separate, rtol=1e-10, atol=1e-10 * scale)


@pytest.mark.parametrize("channel", [10, 40, 74])
def test_amplitude_invariance_makes_radial_derivative_zero(rng, channel):
    # Y is homogeneous of degree 0, so <grad Y[c], x> ~ 0 (Euler's relation)
    x = rng.standard_normal(FRAME_LEN)
    cot = np.zeros(80)
    cot[channel] = 1.0
    grad = yingram_vjp(_frame(x), GRID, cot)
    radial = abs(np.dot(grad, x))
    assert radial < 1e-6 * np.linalg.norm(grad) * np.linalg.norm(x)


def test_finite_diff_check_passes_on_tonal_frame(rng):
    x = random_tonal_frame(rng, FRAME_LEN)
    report = finite_diff_check(_frame(x), GRID, eps=1e-5, probes=25, seed=3)
    assert report.passed
    assert report.max_rel_error < 1e-4
    assert report.checked_channels == 80
    assert not report.guarded


def test_finite_diff_check_fails_at_large_eps(rng):
    x = random_tonal_frame(rng, FRAME_LEN)
    report = finite_diff_check(_frame(x), GRID, eps=0.1, probes=25, seed=3)
    assert not report.passed


def test_finite_diff_check_silent_frame_flagged():
    report = finite_diff_check(_frame(np.zeros(FRAME_LEN)), GRID)
    assert report.passed
    assert report.guarded
    assert report.probes_checked == 0


@pytest.mark.parametrize("cotangent, message", [
    (np.full(80, np.nan), "non-finite cotangent"),
    (np.ones(7), "cotangent must have 80 entries"),
])
def test_finite_diff_check_checks_silent_frames(cotangent, message):
    with pytest.raises(ValueError, match=message):
        finite_diff_check(_frame(np.zeros(FRAME_LEN)), GRID, cotangent=cotangent)


@pytest.mark.filterwarnings("error")
def test_finite_diff_check_silent_frame_with_valid_cotangent():
    report = finite_diff_check(_frame(np.zeros(FRAME_LEN)), GRID, cotangent=np.ones(80), probes=7)
    assert (report.passed, report.guarded, report.max_rel_error) == (True, True, 0.0)
    assert (report.probes_checked, report.probes_skipped, report.checked_channels) == (0, 7, 80)


def _silent_but_tail(k):
    """A silent frame except for its last k samples, or a tonal frame."""
    if k == "tonal":
        return random_tonal_frame(np.random.default_rng(4), FRAME_LEN)
    x = np.zeros(FRAME_LEN)
    x[FRAME_LEN - k :] = 1.0
    return x


@pytest.mark.filterwarnings("error")
def test_finite_diff_check_frame_that_only_unread_lags_see():
    # only d(426) is nonzero, and no channel reads lag 426: every channel
    # reads a guarded lag, so the gradient is zero by definition
    report = finite_diff_check(_frame(_silent_but_tail(1)), window=2048)
    assert (report.passed, report.guarded, report.probes_checked) == (True, True, 0)
    assert report.max_rel_error == 0.0


def _vjp_warns(frame, cot):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yingram_vjp(frame, GRID, cot, window=2048)
    return any("guarded region" in str(w.message) for w in caught)


@pytest.mark.parametrize("k", [0, 1, 2, 3, "tonal"])
def test_finite_diff_check_guarded_iff_vjp_warns(k):
    x = _silent_but_tail(k)
    cot = np.random.default_rng(5).standard_normal(80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check itself never warns
        report = finite_diff_check(_frame(x), GRID, cotangent=cot, probes=3, window=2048)
    assert report.guarded == _vjp_warns(_frame(x), cot)
    assert report.guarded == (k in (0, 1))


@pytest.mark.parametrize("k", [1, "tonal"])
def test_finite_diff_check_runs_forward_once(monkeypatch, k):
    x = _silent_but_tail(k)
    calls = {"checked": 0, "forward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gradients, "_checked_inputs", counted("checked", gradients._checked_inputs))
    monkeypatch.setattr(gradients, "_frame_terms", counted("forward", gradients._frame_terms))
    finite_diff_check(_frame(x), GRID, probes=4)
    # the probes run their own forwards on the FFT kernel, without the checks
    assert calls == {"checked": 1, "forward": 1}


def test_finite_diff_check_sine_frame_both_regimes():
    t = np.arange(FRAME_LEN) / SR
    frame = _frame(0.6 * np.sin(2 * np.pi * 440.0 * t))
    fine = finite_diff_check(frame, GRID, eps=1e-5, probes=25, seed=1)
    assert fine.passed
    assert fine.max_rel_error < 1e-4
    coarse = finite_diff_check(frame, GRID, eps=0.1, probes=25, seed=1)
    assert not coarse.passed  # truncation error dominates at this step size


def test_report_pass_consistent_with_tolerance(rng):
    x = random_tonal_frame(rng, FRAME_LEN)
    report = finite_diff_check(_frame(x), GRID, seed=5)
    assert report.passed == (report.max_rel_error < report.tolerance)


def test_gradcheck_suite_deterministic():
    a = gradcheck_suite(3, AnalysisConfig())
    b = gradcheck_suite(3, AnalysisConfig())
    assert [r.max_rel_error for r in a] == [r.max_rel_error for r in b]
    assert all(r.passed for r in a)


def test_vjp_rejects_short_frames(rng):
    with pytest.raises(ValueError, match="insufficient frame length"):
        yingram_vjp(_frame(np.zeros(100)), GRID, np.zeros(80))


def test_vjp_short_frame_message_names_the_length_and_the_minimum():
    # the default window is at least 1, so the minimum is 1 + tau_max = 427
    for frame in (np.zeros(100), np.zeros(426)):
        with pytest.raises(ValueError, match=f"need 427, got {len(frame)}$"):
            yingram_vjp(_frame(frame), GRID, np.ones(80))


@pytest.mark.parametrize("window, message", [
    (-5, "window must be at least 1, got -5"),
    (0, "window must be at least 1, got 0"),
    (2049, "insufficient frame length: need 2475, got 2474"),
])
def test_gradients_read_the_frame_rule_of_difference_function(rng, window, message):
    frame = _frame(random_tonal_frame(rng, FRAME_LEN))
    with pytest.raises(ValueError, match=message):
        yingram_vjp(frame, GRID, np.ones(80), window=window)
    with pytest.raises(ValueError, match=message):
        finite_diff_check(frame, GRID, window=window)


def test_vjp_requires_a_cotangent(rng):
    # a missing cotangent once gave an all-zero gradient without a word
    with pytest.raises(TypeError):
        yingram_vjp(_frame(rng.standard_normal(FRAME_LEN)), GRID)


def test_vjp_rejects_bad_cotangent(rng):
    x = rng.standard_normal(FRAME_LEN)
    with pytest.raises(ValueError, match="dimension error"):
        yingram_vjp(_frame(x), GRID, np.zeros(79))


@st.composite
def adjoint_cases(draw):
    window = draw(st.integers(1, 2048))
    tau_max = draw(st.one_of(st.integers(1, window), st.integers(window, 2 * window + 8)))
    n = window + tau_max + draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = random_tonal_frame(rng, n) if draw(st.booleans()) else rng.standard_normal(n)
    adj_d = rng.standard_normal(tau_max + 1)
    kind = draw(st.sampled_from(["dense", "cut", "zero"]))
    if kind == "cut":
        adj_d[draw(st.integers(1, tau_max)) :] = 0.0
    elif kind == "zero":
        adj_d[:] = 0.0
    return x, adj_d, window, tau_max


@settings(deadline=None, max_examples=60)
@given(adjoint_cases())
def test_difference_adjoint_matches_loop(case):
    x, adj_d, window, tau_max = case
    reference = difference_adjoint_loop(x, adj_d, window, tau_max)
    got = _difference_adjoint(x, adj_d, window)
    assert got.shape == reference.shape
    np.testing.assert_allclose(got, reference, rtol=0, atol=1e-12 * np.max(np.abs(reference)))


@pytest.mark.parametrize("channels", [slice(0, 80), slice(15, 65)], ids=["full", "scope"])
def test_vjp_matches_loop_reference(monkeypatch, channels):
    rng = np.random.default_rng(11)
    frames = [random_tonal_frame(rng, FRAME_LEN) for _ in range(4)]
    cots = []
    for _ in frames:
        cot = np.zeros(80)
        cot[channels] = rng.standard_normal(80)[channels]
        cots.append(cot)
    fast = [yingram_vjp(_frame(x), GRID, cot) for x, cot in zip(frames, cots)]
    monkeypatch.setattr(
        gradients,
        "_difference_adjoint",
        lambda x, adj_d, window: difference_adjoint_loop(x, adj_d, window, len(adj_d) - 1),
    )
    for x, cot, got in zip(frames, cots, fast):
        reference = yingram_vjp(_frame(x), GRID, cot)
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-12 * np.max(np.abs(reference)))


def test_vjp_rejects_non_finite_samples(rng):
    x = random_tonal_frame(rng, FRAME_LEN)
    x[100] = np.nan
    with pytest.raises(ValueError, match=r"non-finite samples: 1 of 2474 .* index 100"):
        yingram_vjp(_frame(x), GRID, np.ones(80))


def test_vjp_rejects_non_finite_cotangent(rng):
    x = random_tonal_frame(rng, FRAME_LEN)
    cot = np.ones(80)
    cot[30] = np.inf
    with pytest.raises(ValueError, match=r"non-finite cotangent: 1 of 80 .* index 30"):
        yingram_vjp(_frame(x), GRID, cot)


@pytest.mark.parametrize("call", [
    lambda frame: yingram_vjp(frame, GRID, np.ones(80)),
    lambda frame: finite_diff_check(frame, GRID),
], ids=["yingram_vjp", "finite_diff_check"])
@pytest.mark.parametrize("stack, shape", [
    (lambda x: np.stack([x, x]), "(2, 2474)"),  # once an IndexError
    (lambda x: np.float64(x[0]), "()"),  # once "len() of unsized object"
], ids=["2-D", "0-D"])
def test_gradients_need_a_mono_frame(rng, call, stack, shape):
    x = random_tonal_frame(rng, FRAME_LEN)
    with pytest.raises(ValueError, match=re.escape(f"samples must be 1-D (mono), got shape {shape}")):
        call(Frame(stack(x), 0, SR))


@pytest.mark.parametrize("call", [
    lambda x: yingram_vjp(x, GRID, np.ones(80)),
    lambda x: finite_diff_check(x, GRID),
], ids=["yingram_vjp", "finite_diff_check"])
def test_vjp_rejects_a_bare_array(rng, call):
    # a bare array once raised TypeError, unlike every other input error
    x = random_tonal_frame(rng, FRAME_LEN)
    with pytest.raises(ValueError, match=r"^yingram_vjp needs a Frame \(it carries the sample rate\)$"):
        call(x)


@pytest.mark.parametrize("rate", [math.inf, 22050.5])
def test_vjp_rejects_a_rate_that_is_not_an_integer(rng, rate):
    # inf once raised OverflowError, and a frame at 22050.5 Hz got a gradient
    x = random_tonal_frame(rng, FRAME_LEN)
    with pytest.raises(ValueError, match="sample_rate must be"):
        yingram_vjp(Frame(x, 0, rate), GRID, np.ones(80))


@pytest.mark.parametrize("settings_, message", [
    ({"probes": 0}, "probes must be at least 1"),
    ({"eps": math.nan}, "eps must be finite and positive"),
    ({"eps": math.inf}, "eps must be finite and positive"),
    ({"eps": 0.0}, "eps must be finite and positive"),
    ({"tolerance": math.nan}, "tolerance must be finite and positive"),
    ({"tolerance": -1e-4}, "tolerance must be finite and positive"),
    ({"probes": 2.5}, "probes must be an integer"),
    ({"probes": True}, "probes must be an integer"),
    ({"eps": True}, "eps must be finite and positive"),
    ({"tolerance": "1e-4"}, "tolerance must be finite and positive"),
])
def test_finite_diff_check_rejects_settings_that_check_nothing(rng, settings_, message):
    frame = _frame(random_tonal_frame(rng, FRAME_LEN))
    with pytest.raises(ValueError, match=message):
        finite_diff_check(frame, GRID, **settings_)
    with pytest.raises(ValueError, match=message):  # even with no frame to check
        gradcheck_suite(0, **settings_)


@pytest.mark.parametrize("n_frames, message", [
    (-1, "n_frames must be at least 0"),  # once an empty, passing suite
    (1.5, "n_frames must be an integer"),
    (True, "n_frames must be an integer"),
])
def test_gradcheck_suite_rejects_frame_counts(n_frames, message):
    with pytest.raises(ValueError, match=message):
        gradcheck_suite(n_frames)


OVERFLOWING = 1e160 * np.sin(2 * np.pi * 220.0 * np.arange(FRAME_LEN) / SR)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda x: finite_diff_check(_frame(x), GRID, probes=5),
    lambda x: yingram_vjp(_frame(x), GRID, np.ones(80)),
    lambda x: yingram_from_frame(x, GRID, SR, 2048),
    lambda x: cmnd(difference_function(x, 426, 2048)),
], ids=["finite_diff_check", "yingram_vjp", "yingram_from_frame", "cmnd"])
def test_overflowing_frame_raises(call):
    # d(k) of samples near 1e160 overflows float64; once it produced NaN
    with pytest.raises(ValueError, match="non-finite difference values"):
        call(OVERFLOWING)


def test_finite_diff_check_fails_on_nan_error(monkeypatch, rng):
    x = random_tonal_frame(rng, 64 + 426)
    vjp = gradients._vjp

    def one_nan(*args):
        grad, guarded = vjp(*args)
        grad[len(grad) // 2] = np.nan
        return grad, guarded

    monkeypatch.setattr(gradients, "_vjp", one_nan)
    report = finite_diff_check(_frame(x), GRID, probes=len(x), window=64)
    assert not report.passed
    assert math.isnan(report.max_rel_error)


def test_a_nan_grad_report_serialises_to_null():
    # `to_dict` once passed the NaN through, to a bare `NaN` token in the JSON
    report = gradients.GradReport(math.nan, checked_channels=80, eps=1e-5, passed=False)
    record = report.to_dict()
    assert record["max_rel_error"] is None and record["pass"] is False
    assert "passed" not in record
    json.dumps(record, allow_nan=False)


@pytest.mark.filterwarnings("error")
def test_finite_diff_check_passes_frame_with_zero_gradient():
    # only d(425) and d(426) are nonzero and d'(425) = 425 whatever their
    # scale, so the true gradient is zero; steps that lift the guarded lags
    # below 425 out of the guard, and rounding at the loss scale, once failed it
    report = finite_diff_check(_frame(_silent_but_tail(2)), window=2048)
    assert (report.passed, report.guarded) == (True, False)
    assert report.probes_checked + report.probes_skipped == 25


@st.composite
def tonal_vjp_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = draw(st.sampled_from([64, 517, 2048]))
    x = random_tonal_frame(rng, window + 426)
    cot = rng.standard_normal(80)
    if draw(st.booleans()):  # a scope-only cotangent, as the losses give
        cot[:15] = cot[65:] = 0.0
    return x, cot, window


@settings(deadline=None, max_examples=40)
@given(tonal_vjp_cases())
def test_vjp_matches_csum_squared_reference(case):
    # the CMND adjoint reads d' and csum; the reference differentiates the
    # quotient on d, squaring csum, which is exact at unit scale
    x, cot, window = case
    reference = yingram_vjp_csum_squared(x, channel_lags(GRID, SR), cot, window, 426)
    got = yingram_vjp(_frame(x), GRID, cot, window)
    np.testing.assert_allclose(got, reference, rtol=0, atol=1e-12 * np.max(np.abs(reference)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e75, 1e100, 1e140])
def test_vjp_scales_up_to_the_forward_bound(scale):
    # Y is homogeneous of degree 0, so grad(c*x) = grad(x) / c; squaring the
    # CMND sums once overflowed here, though the forward accepts these frames
    rng = np.random.default_rng(6)
    x = random_tonal_frame(rng, FRAME_LEN)
    cot = rng.standard_normal(80)
    unit = yingram_vjp(_frame(x), GRID, cot)
    scaled = scale * yingram_vjp(_frame(scale * x), GRID, cot)
    np.testing.assert_allclose(scaled, unit, rtol=0, atol=1e-12 * np.max(np.abs(unit)))


# ------------------------------------------------ the stacked transform layout
# The per-frame forward and the VJP stack their transforms; the oracles keep
# the one-call-per-array layout, and every result must keep its bits.

TAU_MAX = 426


def _layout_frame(kind, window, rng):
    n = window + TAU_MAX + (37 if kind == "noise" else 0)  # a frame longer than its window, too
    if kind == "tonal":
        return random_tonal_frame(rng, n)
    if kind == "noise":
        return rng.standard_normal(n)
    x = np.zeros(n)
    if kind == "tail":  # silent but its last samples: guarded on every lag a channel reads
        x[-3:] = 1.0
    return x


@pytest.mark.parametrize("channels", [slice(0, 80), slice(15, 65)], ids=["full", "scope"])
@pytest.mark.parametrize("window", [64, 517, 2048])
@pytest.mark.parametrize("kind", ["tonal", "noise", "silent", "tail"])
def test_vjp_keeps_the_bits_of_separate_transforms(kind, window, channels):
    rng = np.random.default_rng(window)
    x = _layout_frame(kind, window, rng)
    cot = np.zeros(80)
    cot[channels] = rng.standard_normal(80)[channels]
    want, want_guard = yingram_vjp_separate(x, channel_lags(GRID, SR), cot, window, TAU_MAX)
    samples, brackets, tau_max, window, cot = gradients._checked_inputs(_frame(x), GRID, cot, window)
    got, guard = gradients._vjp(brackets, samples, tau_max, window, cot)
    assert np.array_equal(got, want) and np.array_equal(guard, want_guard)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the silent frames warn of the guard
        assert np.array_equal(yingram_vjp(_frame(x), GRID, cot, window), want)
    assert np.array_equal(difference_function(x, TAU_MAX, window),
                          difference_fft_per_frame(x, TAU_MAX, window))


@pytest.mark.parametrize("window", [64, 517, 2048])
def test_stacked_forward_keeps_the_bits_of_one_frame_calls(window):
    rng = np.random.default_rng(window)
    kinds = ["tonal", "noise", "silent", "tail"]
    n = window + TAU_MAX
    stack = np.stack([_layout_frame(k, window, rng)[:n] for k in kinds * 2])
    stack[4:] *= 1e-3
    want = np.stack([difference_fft_per_frame(row, TAU_MAX, window) for row in stack])
    assert np.array_equal(difference_function(stack, TAU_MAX, window), want)
    assert np.array_equal(difference_function(stack.reshape(2, 4, n), TAU_MAX, window),
                          want.reshape(2, 4, -1))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 64, 517, 2048]),
       st.integers(0, TAU_MAX), st.integers(0, 40), st.sampled_from([1e-3, 1.0, 1e6]))
def test_difference_adjoint_keeps_the_bits_of_separate_transforms(seed, window, tau_max, extra,
                                                                  scale):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal(window + tau_max + extra)
    adj_d = rng.standard_normal(tau_max + 1)
    adj_d[rng.random(tau_max + 1) < 0.3] = 0.0  # guarded lags carry no cotangent
    assert np.array_equal(_difference_adjoint(x, adj_d, window),
                          difference_adjoint_separate(x, adj_d, window))


def _count_transforms(monkeypatch) -> dict:
    counts = {"rfft": 0, "irfft": 0}
    for name, transform in [(name, getattr(scipy.fft, name)) for name in counts]:
        def counted(*args, _name=name, _transform=transform, **kwargs):
            counts[_name] += 1
            return _transform(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    return counts


def test_a_frame_takes_one_transform_pair_forward_and_two_back(monkeypatch):
    # one rfft and one irfft forward; the VJP of the frame just forwarded
    # reuses its CMND terms and adds one stacked rfft and one stacked irfft
    # for its adjoint; the VJP of another frame runs its own forward
    x = random_tonal_frame(np.random.default_rng(1), FRAME_LEN)
    counts = _count_transforms(monkeypatch)
    yingram_from_frame(x, GRID, SR, 2048)
    assert counts == {"rfft": 1, "irfft": 1}
    counts.update(rfft=0, irfft=0)
    yingram_vjp(_frame(x), GRID, np.ones(80), 2048)
    assert counts == {"rfft": 1, "irfft": 1}
    counts.update(rfft=0, irfft=0)
    yingram_vjp(_frame(x[::-1]), GRID, np.ones(80), 2048)
    assert counts == {"rfft": 2, "irfft": 2}


@pytest.mark.parametrize("probes, window, forwards", [(25, None, 1), (40, 517, 2), (3, 64, 1)])
def test_finite_diff_check_stacks_its_probe_forwards(monkeypatch, probes, window, forwards):
    # 2 x probes perturbed frames, 64 to a stack; a stack of one probe's two
    # frames gives the same report, bit for bit
    frame = _frame(random_tonal_frame(np.random.default_rng(probes), (window or 2048) + TAU_MAX))
    calls = []
    kernel = gradients._difference_fft
    monkeypatch.setattr(gradients, "_difference_fft", lambda x, *a: calls.append(x.shape) or kernel(x, *a))
    stacked = finite_diff_check(frame, GRID, probes=probes, seed=3, window=window)
    assert len(calls) == forwards and sum(shape[0] for shape in calls) == 2 * probes
    monkeypatch.setattr(gradients, "_PROBE_ROWS", 2)
    assert finite_diff_check(frame, GRID, probes=probes, seed=3, window=window) == stacked
    assert stacked.probes_checked + stacked.probes_skipped == probes


@pytest.mark.filterwarnings("error")
def test_an_overflowing_probe_raises_as_a_one_frame_forward():
    # the frame fits, the frame plus a step of 1e200 does not
    x = random_tonal_frame(np.random.default_rng(2), FRAME_LEN)
    with pytest.raises(ValueError, match=r"^non-finite difference values: the samples of "
                                         r"frames 0\.\.0 are too large for their CMND"):
        finite_diff_check(_frame(x), GRID, eps=1e200, probes=30)


def test_the_vjp_caches_are_read_only_and_built_once():
    brackets = _channel_brackets(GRID, SR)
    bounds = gradients._window_bounds(FRAME_LEN, 2048, TAU_MAX)
    assert _channel_brackets(GRID, SR) is brackets
    assert gradients._window_bounds(FRAME_LEN, 2048, TAU_MAX) is bounds
    for array in (*brackets, *bounds):
        assert not array.flags.writeable


# A VJP right after the forward of the same frame reuses that forward's CMND
# terms (`feature._frame_terms`); its gradient keeps the cold bits.


def _forwards(patch) -> list:
    """The frames `_frame_terms` (and a naive forward) run a forward for."""
    calls = []
    real = feature.difference_function
    patch.setattr(feature, "difference_function", lambda x, *a, **k: calls.append(x) or real(x, *a, **k))
    return calls


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.integers(0, FRAME_LEN - 1), st.booleans()),
                                           max_size=40))
def test_a_vjp_after_its_forward_keeps_the_cold_bits(seed, zeros):
    rng = np.random.default_rng(seed)
    x = random_tonal_frame(rng, FRAME_LEN)
    for i, negative in zeros:
        x[i] = -0.0 if negative else 0.0
    cot = rng.standard_normal(80)
    want, _ = yingram_vjp_separate(x, channel_lags(GRID, SR), cot, 2048, TAU_MAX)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feature, "_last_frame", None)
        cold = yingram_vjp(_frame(x), GRID, cot, 2048)
        patch.setattr(feature, "_last_frame", None)
        yingram_from_frame(x, GRID, SR, 2048)
        calls = _forwards(patch)
        warm = yingram_vjp(_frame(x.copy()), GRID, cot, 2048)
    assert calls == []  # a hit
    assert warm.tobytes() == cold.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["changed-in-place", "float32", "window", "naive", "raised",
                                  "signed-zero"])
def test_a_vjp_runs_its_own_forward_where_the_memo_holds_another(monkeypatch, case):
    x = random_tonal_frame(np.random.default_rng(5), FRAME_LEN)
    cot = np.random.default_rng(6).standard_normal(80)
    samples, window = x, 2048
    monkeypatch.setattr(feature, "_last_frame", None)
    if case == "raised":  # the forward's CMND overflows, after its transforms
        samples = x * 1e200
        with pytest.raises(ValueError, match="too large for their CMND"):
            yingram_from_frame(samples, GRID, SR, window)
        assert feature._last_frame is None
    else:
        yingram_from_frame(x, GRID, SR, window, method="naive" if case == "naive" else "fft")
    if case == "changed-in-place":
        x[7] += 1e-3
    elif case == "float32":
        samples = x.astype(np.float32)
    elif case == "window":
        window = 2047
    elif case == "signed-zero":
        x[3] = 0.0
        yingram_from_frame(x, GRID, SR, window)
        samples = x.copy()
        samples[3] = -0.0
    calls = _forwards(monkeypatch)
    frame = Frame(samples, 0, SR)
    if case == "raised":
        with pytest.raises(ValueError, match="too large for their CMND"):
            yingram_vjp(frame, GRID, cot, window)
        assert len(calls) == 1
        return
    got = yingram_vjp(frame, GRID, cot, window)
    assert len(calls) == 1
    monkeypatch.setattr(feature, "_last_frame", None)
    assert got.tobytes() == yingram_vjp(frame, GRID, cot, window).tobytes()


def test_the_memo_holds_one_frame(monkeypatch):
    x = random_tonal_frame(np.random.default_rng(7), FRAME_LEN)
    yingram_from_frame(x, GRID, SR, 2048)  # the lag caches, built once
    monkeypatch.setattr(feature, "_last_frame", None)
    tracemalloc.start()
    try:
        for i in range(1000):
            x[0] = i * 1e-3  # distinct frames
            yingram_from_frame(x, GRID, SR, 2048)
        # blocks of 1 KB or more: the frames and lag arrays held, not numpy's
        # small-object caches, which grow by a few KB over the loop
        held = sum(t.size for t in tracemalloc.take_snapshot().traces if t.size >= 1024)
    finally:
        tracemalloc.stop()
    # one frame's samples and its two float64 lag arrays: about 27 KB here
    assert x.nbytes < held < 2 * x.nbytes
    assert np.array_equal(feature._last_frame[0], x)


def test_threads_alternating_forward_and_vjp_get_the_cold_bits():
    rng = np.random.default_rng(8)
    frames = [random_tonal_frame(rng, FRAME_LEN) for _ in range(4)]
    cot = rng.standard_normal(80)
    cold = [gradients._vjp(_channel_brackets(GRID, SR), x, TAU_MAX, 2048, cot)[0] for x in frames]
    got = {k: [] for k in range(len(frames))}

    def work(k):
        for _ in range(100):
            yingram_from_frame(frames[k], GRID, SR, 2048)
            got[k].append(yingram_vjp(_frame(frames[k]), GRID, cot, 2048))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:  # four threads switching often, so one replaces the entry another just read
        threads = [threading.Thread(target=work, args=(k,)) for k in got]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, grads in got.items():
        assert len(grads) == 100 and all(g.tobytes() == cold[k].tobytes() for g in grads)
