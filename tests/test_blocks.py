"""The blocked CMND kernel and the vectorised lag pick against the
per-frame reference path."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yingram import (
    AnalysisConfig,
    Waveform,
    cmnd,
    compute_yingram,
    difference_function,
    estimate_f0,
    extract_pitch_contour,
    frame_signal,
    yingram_from_frame,
)
from yingram.yin import BLOCK_FRAMES, cmnd_blocks, f0_rows, pick_lags, refine_lags
from oracles import parabolic_refine_scalar, pick_lag_loop

SR = 22050
CFG = AnalysisConfig()
HOP = CFG.hop
FRAME_LEN = CFG.frame_length  # 2474

# shorter than one frame, exact multiples of hop, a last full frame that
# ends on the last sample, and more than one block
LENGTHS = st.one_of(
    st.integers(1, FRAME_LEN - 1),
    st.integers(1, 40).map(lambda k: k * HOP),
    st.integers(0, 40).map(lambda k: FRAME_LEN + k * HOP),
    st.integers(BLOCK_FRAMES * HOP + 1, BLOCK_FRAMES * HOP + 3 * FRAME_LEN),
)


@st.composite
def clips(draw):
    n = draw(LENGTHS)
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).standard_normal(n) * draw(st.sampled_from([1e-3, 0.5, 40.0]))
    if draw(st.booleans()):  # a silent stretch
        start = draw(st.integers(0, n - 1))
        x[start : start + draw(st.integers(1, 3 * FRAME_LEN))] = 0.0
    return Waveform(x, SR)


def _frames(w, cfg=CFG):
    return frame_signal(w, cfg.frame_length, cfg.hop)


@settings(deadline=None, max_examples=25)
@given(clips())
def test_blocks_equal_per_frame_cmnd(w):
    frames = _frames(w)
    covered = 0
    for block in cmnd_blocks(w, CFG):
        assert block.start == covered
        assert 0 < len(block.values) <= BLOCK_FRAMES
        for row, padded, frame in zip(block.values, block.padded, frames[block.rows]):
            ref = cmnd(difference_function(frame, CFG.tau_max, CFG.window))
            np.testing.assert_array_equal(row, ref)
            assert padded == frame.padded
        covered += len(block.values)
    assert covered == len(frames)


@settings(deadline=None, max_examples=25)
@given(clips())
def test_yingram_and_contour_equal_per_frame_path(w):
    frames = _frames(w)
    matrix = compute_yingram(w, CFG)
    contour = extract_pitch_contour(w, CFG)
    assert matrix.values.shape == (len(frames), CFG.num_channels)
    for k, frame in enumerate(frames):
        ref = yingram_from_frame(frame, CFG.grid, SR, CFG.window).astype(np.float32)
        np.testing.assert_array_equal(matrix.values[k], ref)
        assert matrix.padded[k] == frame.padded
        if frame.padded:
            assert np.isnan(contour.f0[k]) and contour.aperiodicity[k] == 1.0
            continue
        curve = cmnd(difference_function(frame, CFG.tau_max, CFG.window))
        result = estimate_f0(curve, SR, CFG.f0_threshold, CFG.f_min, CFG.f_max, CFG.voicing_cutoff)
        if result is None:
            assert np.isnan(contour.f0[k])
        else:
            assert (contour.f0[k], contour.aperiodicity[k]) == result


@pytest.mark.parametrize("hop", [97, 4000])
def test_blocks_follow_hop_and_frame_count(hop):
    cfg = CFG.replace(hop=hop)
    w = Waveform(np.random.default_rng(hop).standard_normal(BLOCK_FRAMES * 97 + 5000), SR)
    frames = _frames(w, cfg)
    values = np.concatenate([b.values for b in cmnd_blocks(w, cfg)])
    assert len(values) == len(frames)
    for k in (0, len(frames) // 2, len(frames) - 1):
        ref = cmnd(difference_function(frames[k], cfg.tau_max, cfg.window))
        np.testing.assert_array_equal(values[k], ref)


def test_empty_clip_has_no_blocks():
    assert list(cmnd_blocks(Waveform(np.zeros(0), SR), CFG)) == []
    assert compute_yingram(Waveform(np.zeros(0), SR), CFG).values.shape == (0, 80)
    assert len(extract_pitch_contour(Waveform(np.zeros(0), SR), CFG)) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("analyse", [compute_yingram, extract_pitch_contour])
def test_non_finite_samples_rejected(analyse, bad):
    x = np.random.default_rng(0).standard_normal(SR)
    x[1234] = bad
    with pytest.raises(ValueError, match=r"non-finite samples: 1 of 22050 .* index 1234"):
        analyse(Waveform(x, SR), CFG)


def test_rate_mismatch_rejected():
    with pytest.raises(ValueError, match="resample first"):
        cmnd_blocks(Waveform(np.zeros(100), 16000), CFG)


# -- lag pick and refinement against the scalar loops

# sr = 100 keeps the lag range [sr/f_max, sr/f_min] inside short rows
PICK_SR = 100
BOUNDS = st.sampled_from([(5.0, 50.0), (10.0, 40.0), (20.0, 25.0), (6.0, 20.0)])
# few distinct values, so ties and values equal to the threshold are common
LEVELS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 1.5])


@settings(deadline=None, max_examples=300)
@given(
    st.integers(4, 24).flatmap(
        lambda n: st.lists(st.lists(LEVELS, min_size=n, max_size=n), min_size=1, max_size=6)
    ),
    BOUNDS,
    st.sampled_from([0.1, 0.2, 0.6]),
)
def test_pick_lags_matches_scalar_loop(rows, bounds, threshold):
    f_min, f_max = bounds
    values = np.array(rows)
    hi = min(values.shape[1] - 2, int(np.ceil(PICK_SR / f_min)))
    if max(1, int(PICK_SR // f_max)) > hi:
        with pytest.raises(ValueError, match="lag range"):
            pick_lags(values, PICK_SR, threshold, f_min, f_max)
        return
    taus, aperiodicity = pick_lags(values, PICK_SR, threshold, f_min, f_max)
    for row, tau, ap in zip(values, taus, aperiodicity):
        assert (tau, ap) == pick_lag_loop(row, PICK_SR, threshold, f_min, f_max)


@pytest.mark.parametrize(
    "row, expected",
    [
        # no dip under the threshold: the first global minimum of [2, 6]
        ([1, 1, 0.9, 0.5, 0.7, 0.5, 0.8, 1], 3),
        # a descent that runs to hi = 6 (the row's end) and stops there
        ([1, 1, 0.9, 0.05, 0.04, 0.03, 0.02, 0.01], 6),
        # ties: the descent stops at the first of two equal values
        ([1, 1, 0.09, 0.05, 0.05, 0.01, 0.9, 1], 3),
    ],
)
def test_pick_lags_edge_cases(row, expected):
    values = np.array([row], dtype=float)
    taus, _ = pick_lags(values, PICK_SR, 0.1, 10.0, 50.0)
    assert taus[0] == expected
    assert (taus[0], values[0, taus[0]]) == pick_lag_loop(values[0], PICK_SR, 0.1, 10.0, 50.0)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(LEVELS, min_size=n, max_size=n), min_size=1, max_size=5)
    ),
    st.data(),
)
def test_refine_lags_matches_scalar(rows, data):
    values = np.array(rows)
    taus = np.array([data.draw(st.integers(0, values.shape[1] - 1)) for _ in rows])
    refined = refine_lags(values, taus)
    for row, tau, got in zip(values, taus, refined):
        assert got == parabolic_refine_scalar(row, int(tau))


def test_refine_lags_flat_vertex_and_boundaries():
    # a - 2b + c == 0 exactly at tau 2: the lag comes back unchanged
    values = np.array([[1.0, 0.75, 0.5, 0.25, 0.9], [0.9, 0.4, 0.1, 0.2, 0.9], [0.9, 0.4, 0.1, 0.2, 0.9]])
    refined = refine_lags(values, np.array([2, 2, 4]))
    assert refined[0] == 2.0
    assert refined[1] == pytest.approx(2.25)
    assert refined[2] == 4.0


def test_f0_rows_matches_scalar_rule():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.2, size=(40, 427))
    values[::3, 120] = 0.01  # a clear dip in every third row
    f0, aperiodicity = f0_rows(values, SR, 0.1, 52.0, 508.0, 0.25)
    for row, hz, ap in zip(values, f0, aperiodicity):
        tau, ref_ap = pick_lag_loop(row, SR, 0.1, 52.0, 508.0)
        assert ap == ref_ap
        if ref_ap > 0.25:
            assert np.isnan(hz)
        else:
            assert hz == min(max(SR / parabolic_refine_scalar(row, tau), 52.0), 508.0)
