"""Analytic VJP against finite differences, plus its structural properties."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yingram import (
    AnalysisConfig,
    Frame,
    NoteGrid,
    finite_diff_check,
    gradcheck_suite,
    random_tonal_frame,
    yingram_from_frame,
    yingram_vjp,
)
from yingram import gradients
from yingram.gradients import _difference_adjoint
from oracles import difference_adjoint_loop

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


@pytest.mark.parametrize("settings_, message", [
    ({"probes": 0}, "probes must be at least 1"),
    ({"eps": math.nan}, "eps must be finite and positive"),
    ({"eps": math.inf}, "eps must be finite and positive"),
    ({"eps": 0.0}, "eps must be finite and positive"),
    ({"tolerance": math.nan}, "tolerance must be finite and positive"),
    ({"tolerance": -1e-4}, "tolerance must be finite and positive"),
])
def test_finite_diff_check_rejects_settings_that_check_nothing(rng, settings_, message):
    frame = _frame(random_tonal_frame(rng, FRAME_LEN))
    with pytest.raises(ValueError, match=message):
        finite_diff_check(frame, GRID, **settings_)
    with pytest.raises(ValueError, match=message):  # even with no frame to check
        gradcheck_suite(0, **settings_)


def test_finite_diff_check_fails_on_nan_error(rng):
    # samples near 1e160 overflow d(k) to inf, so both gradients are NaN
    frame = _frame(1e160 * random_tonal_frame(rng, FRAME_LEN))
    with np.errstate(all="ignore"):
        report = finite_diff_check(frame, GRID, eps=1e155, probes=5)
    assert not report.passed
    assert math.isnan(report.max_rel_error)
