"""The clip pass (its block spans and CMND kernels) and the vectorised lag
pick against the per-frame reference path."""
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from yingram import (
    AnalysisConfig,
    Waveform,
    compute_yingram,
    difference_function,
    extract_pitch_contour,
    feature,
    harmonic_tone,
    sine_tone,
    vibrato_tone,
    yingram_from_frame,
)
from yingram import audio, yin
from yingram.audio import _frame_span, frame_count, frame_signal
from yingram.feature import BLOCK_FRAMES
from yingram.yin import (
    _cmnd_terms,
    _difference_fft,
    cmnd,
    estimate_f0,
    f0_rows,
    pick_lags,
    refine_lags,
)
from conftest import write_float32
from oracles import (
    difference_fft_per_frame,
    difference_fft_two_calls,
    parabolic_refine_scalar,
    pick_lag_loop,
)

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
    x = np.random.default_rng(seed).standard_normal(n)
    if draw(st.booleans()):  # a voiced tone under a little noise, so f0 is compared too
        f0 = draw(st.floats(60.0, 500.0))
        x = np.sin(2.0 * np.pi * f0 * np.arange(n) / SR) + draw(st.sampled_from([0.0, 1e-2])) * x
    x *= draw(st.sampled_from([1e-3, 0.5, 40.0]))
    if draw(st.booleans()):  # a silent stretch
        start = draw(st.integers(0, n - 1))
        x[start : start + draw(st.integers(1, 3 * FRAME_LEN))] = 0.0
    return Waveform(x, SR)


def _frames(w, cfg=CFG):
    return frame_signal(w, cfg.frame_length, cfg.hop)


def _span_frames(span, frame_len, hop):
    """The frames a span of clip samples holds: rows frame_len long, hop apart."""
    return sliding_window_view(span, frame_len)[::hop]


@settings(deadline=None, max_examples=25)
@given(clips())
def test_blocks_equal_per_frame_cmnd(w):
    # the clip pass's block spans, framed, through the window kernel and CMND
    frames = _frames(w)
    assert frame_count(len(w), FRAME_LEN, HOP) == len(frames)
    for start in range(0, len(frames), BLOCK_FRAMES):
        stop = min(start + BLOCK_FRAMES, len(frames))
        span, padded = _frame_span(w.samples, FRAME_LEN, HOP, start, stop)
        assert padded.tolist() == [frame.padded for frame in frames[start:stop]]
        d = _difference_fft(_span_frames(span, FRAME_LEN, HOP), CFG.tau_max, CFG.window)
        values = _cmnd_terms(d, start)[0]
        for row, frame in zip(values, frames[start:stop]):
            ref = cmnd(difference_function(frame, CFG.tau_max, CFG.window))
            np.testing.assert_array_equal(row, ref)


# a clip no frame fits, one shorter than a frame, exactly one frame, and
# one longer than several blocks of the drawn hop
SPAN_LENGTHS = {
    "empty": lambda frame_len, hop: st.just(0),
    "short": lambda frame_len, hop: st.integers(1, frame_len - 1),
    "one frame": lambda frame_len, hop: st.just(frame_len),
    "several blocks": lambda frame_len, hop: st.integers(0, 600).map(
        lambda extra: frame_len + 3 * BLOCK_FRAMES * min(hop, 600) + extra),
}


@settings(deadline=None, max_examples=200)
@given(
    frame_len=st.integers(2, 3000),
    # in-range hops, and hops whose k * hop does not fit in int64
    hop=st.one_of(st.integers(1, 600), st.integers(2**63 - 1, 10**30)),
    length=st.sampled_from(sorted(SPAN_LENGTHS)),
    data=st.data(),
)
def test_padded_flags_equal_the_product_rule(frame_len, hop, length, data):
    # frame k is padded when k * hop + frame_len runs past the clip, the
    # product taken in Python ints
    draw = data.draw
    n = draw(SPAN_LENGTHS[length](frame_len, hop))
    count = max(frame_count(n, frame_len, hop), 1)
    first = draw(st.integers(0, count - 1))
    stop = draw(st.integers(first + 1, min(first + BLOCK_FRAMES, count)))
    span, padded = _frame_span(np.zeros(n), frame_len, hop, first, stop)
    assert padded.tolist() == [k * hop + frame_len > n for k in range(first, stop)]
    assert len(span) == (stop - 1 - first) * hop + frame_len


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
        # the clip pass sums hop blocks, the frame path one window: f0 and
        # aperiodicity may differ in their last bits, voicing may not. The
        # aperiodicity of a clean tone nears 0, where its last bits are the
        # cancellation residue of d, so it is held to 1e-12 absolute: a CMND
        # value's scale is 1
        if result is None:
            assert np.isnan(contour.f0[k])
        else:
            assert contour.f0[k] == pytest.approx(result[0], rel=1e-12, abs=0.0)
            assert contour.aperiodicity[k] == pytest.approx(result[1], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("hop", [97, 4000])
def test_blocks_follow_hop_and_frame_count(hop):
    # a hop that does not divide the window keeps the per-frame transforms,
    # so rows and contour equal the frame path bit for bit
    cfg = CFG.replace(hop=hop)
    n = BLOCK_FRAMES * 97 + 5000
    rng = np.random.default_rng(hop)
    w = Waveform(np.sin(2.0 * np.pi * 180.0 * np.arange(n) / SR) + 0.3 * rng.standard_normal(n), SR)
    frames = _frames(w, cfg)
    matrix = compute_yingram(w, cfg)
    contour = extract_pitch_contour(w, cfg)
    assert len(matrix.values) == len(contour) == len(frames)
    assert matrix.padded.tolist() == [frame.padded for frame in frames]
    for k in (0, len(frames) // 2, len(frames) - 1):
        ref = yingram_from_frame(frames[k], cfg.grid, SR, cfg.window).astype(np.float32)
        np.testing.assert_array_equal(matrix.values[k], ref)
    for k, frame in enumerate(frames):
        if frame.padded:
            continue
        curve = cmnd(difference_function(frame, cfg.tau_max, cfg.window))
        f0, aperiodicity = f0_rows(
            curve[None], SR, cfg.f0_threshold, cfg.f_min, cfg.f_max, cfg.voicing_cutoff
        )
        assert contour.f0[k : k + 1].tobytes() == f0.tobytes()  # NaN when unvoiced
        assert contour.aperiodicity[k] == aperiodicity[0]
    assert contour.num_voiced > 0


# -- the hop-block difference kernel against the window kernel


@st.composite
def hop_runs(draw):
    """(span, tau_max, window, hop): the span of a run of consecutive frames,
    hop apart, of a seeded clip, with window a multiple of hop. Clips may be
    shorter than one frame, and runs may end on the clip's last, padded frame."""
    hop = draw(st.integers(1, 96))
    window = hop * draw(st.integers(1, 9))
    tau_max = draw(st.integers(0, 300))
    frame_len = window + tau_max
    n = draw(st.one_of(st.integers(1, frame_len), st.integers(frame_len, frame_len + 40 * hop)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):  # a tone dominates: CMND dips near zero
        x += 50.0 * np.sin(2.0 * np.pi * draw(st.floats(0.001, 0.2)) * np.arange(n))
    if draw(st.booleans()):  # a loud head: sums carried across frames lose the quiet tail
        x[: draw(st.integers(0, n))] *= 1e6
    total = frame_count(n, frame_len, hop)
    count = draw(st.integers(1, total))
    start = total - count if draw(st.booleans()) else draw(st.integers(0, total - count))
    return _frame_span(x, frame_len, hop, start, start + count)[0], tau_max, window, hop


@settings(deadline=None, max_examples=200)
@given(hop_runs())
# a loud ramp into silence: the two kernels differ by 1.1e-12 of the frame's
# peak d, the window kernel being the one further from the direct sum
@example(run=(np.array([41.57225326, 42.24199504, 42.88635846, 43.5034048, 44.09596495,
                        0.0, 0.0, 0.0, 0.0]), 1, 4, 2))
def test_hop_blocks_match_window_kernel(run):
    span, tau_max, window, hop = run
    rows = _span_frames(span, window + tau_max, hop)
    blocked = _difference_fft(span, tau_max, window, hop)
    ref = _difference_fft(rows, tau_max, window)
    assert blocked.shape == ref.shape == (len(rows), tau_max + 1)
    # both kernels round on the scale of the energies they transform and sum.
    # The frame's energy E, the sum of its squares, bounds every segment, and
    # p0 + p_tau <= 2E; with a window far shorter than tau_max, p0 + p_tau
    # alone is too small a scale (gaps of 1.4e-13 of it occur). A lag that
    # one kernel clamps to 0 and the other does not may differ by up to the
    # clamp, 1e-11 (p0 + p_tau) <= 2e-11 E
    energy = np.square(rows).sum(axis=1, keepdims=True)
    clamped = (blocked == 0.0) != (ref == 0.0)
    assert (np.abs(blocked - ref) <= np.where(clamped, 3e-11, 3e-13) * energy).all()


def _tone_in_noise(rng):
    return sine_tone(196.0, 10.0).samples + 0.1 * rng.standard_normal(10 * SR)


def _loud_noise_head(rng):
    # a 1e3 noise head before a 1e-3 tone: 1e12 apart in energy
    quiet = 1e-3 * sine_tone(196.0, 10.0).samples
    quiet[: 10 * SR // 4] = 1e3 * rng.standard_normal(10 * SR // 4)
    return quiet


POLICY_CLIPS = {
    "harmonic": lambda rng: harmonic_tone(140.0, 10.0, seed=1).samples,
    "vibrato": lambda rng: vibrato_tone(220.0, 10.0).samples,
    "tone-in-noise": _tone_in_noise,
    "loud-noise-head": _loud_noise_head,
}


@pytest.mark.parametrize("name", POLICY_CLIPS)
def test_hop_blocks_keep_the_output_policy(monkeypatch, name):
    # the hop-block kernel sums correlations and energies in another order
    # than the window kernel: a stored float32 value may move by 1 ulp,
    # padding and voicing not at all, f0 only in its last bits
    w = Waveform(POLICY_CLIPS[name](np.random.default_rng(16)), SR)
    matrix, contour = compute_yingram(w, CFG), extract_pitch_contour(w, CFG)
    kernel = yin._difference_fft
    monkeypatch.setattr(
        feature, "_difference_fft",
        lambda span, tau_max, window, hop: kernel(
            _span_frames(span, window + tau_max, hop), tau_max, window
        ),
    )
    ref_matrix, ref_contour = compute_yingram(w, CFG), extract_pitch_contour(w, CFG)
    np.testing.assert_array_max_ulp(matrix.values, ref_matrix.values, maxulp=1)
    assert matrix.padded.tolist() == ref_matrix.padded.tolist()
    assert contour.voiced.tolist() == ref_contour.voiced.tolist()
    assert ref_contour.num_voiced > len(ref_contour) // 2
    voiced = ref_contour.voiced
    np.testing.assert_allclose(contour.f0[voiced], ref_contour.f0[voiced], rtol=1e-13, atol=0.0)


WINDOW_CONFIGS = [  # (window, tau_max, hop): each makes one segment per frame
    (2048, 426, None), (2048, 426, 97), (48, 16, 5), (64, 20, 64), (300, 0, 2048), (1, 7, 3),
]


@pytest.mark.parametrize("window, tau_max, hop", WINDOW_CONFIGS)
@pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 1e100])
def test_window_kernel_is_the_per_frame_reference(window, tau_max, hop, scale):
    # bit for bit: a clip span cut at the hop, strided stacks, independent
    # rows, rows longer than a frame, and single 1-D frames
    rng = np.random.default_rng(window + tau_max)
    frame_len = window + tau_max
    x = scale * rng.standard_normal(5 * frame_len + 3)
    stack = _span_frames(x, frame_len, hop or 64)
    loose = scale * rng.standard_normal((4, frame_len + 37))
    if hop:
        got = _difference_fft(x, tau_max, window, hop)
        assert got.tobytes() == difference_fft_per_frame(stack, tau_max, window).tobytes()
    for frames in (stack, loose, stack[0], loose[1]):
        got = _difference_fft(frames, tau_max, window)
        assert got.tobytes() == difference_fft_per_frame(frames, tau_max, window).tobytes()


@pytest.mark.parametrize("hop", [CFG.hop, 97])
def test_analyse_transform_lengths(monkeypatch, hop):
    # the clip pass cuts each block's span into segments of head + tau_max
    # samples and transforms each segment and its head, zero padded: hop
    # heads at the real-FFT fast length of hop + tau_max (720 by default)
    # when the hop divides the window, whole frames and window heads at
    # next_fast_len(frame_length) otherwise; a fallback to frame-length
    # transforms fails here
    lengths = set()
    rfft = scipy.fft.rfft

    def recording(x, n=None, *args, **kwargs):
        lengths.add(x.shape[-1] if n is None else n)  # the transform's length
        return rfft(x, n, *args, **kwargs)

    monkeypatch.setattr(yin.scipy.fft, "rfft", recording)
    cfg = CFG.replace(hop=hop)
    compute_yingram(Waveform(np.random.default_rng(0).standard_normal(SR // 2), SR), cfg)
    head = hop if cfg.window % hop == 0 else cfg.window
    n = scipy.fft.next_fast_len(head + cfg.tau_max, real=head < cfg.window)
    assert lengths == {n}


# -- the pass that skips padded frames, from one scratch array per pass,
# against the full pass of the two-call kernel

PASS_CONFIGS = [CFG, CFG.replace(hop=97), CFG.replace(window=1024, hop=512)]


@st.composite
def skipping_passes(draw):
    """(cfg, source rate, source kind, clip length at the config rate, seed):
    no clip, one sample short of a frame, a frame, k hops past it and one
    sample either side, and three blocks and one hop either side."""
    cfg = draw(st.sampled_from(PASS_CONFIGS))
    frame_len, hop = cfg.frame_length, cfg.hop
    k = draw(st.integers(1, 12))
    length = draw(st.sampled_from([
        0, frame_len - 1, frame_len, frame_len + k * hop - 1, frame_len + k * hop,
        frame_len + k * hop + 1, 3 * BLOCK_FRAMES * hop - hop, 3 * BLOCK_FRAMES * hop + hop,
    ]))
    return (cfg, draw(st.sampled_from([SR, 2 * SR])), draw(st.sampled_from(["waveform", "wav"])),
            length, draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(skipping_passes())
def test_the_skipping_pass_keeps_the_full_pass_bits(case):
    # every row and contour entry a caller reads keeps the bits of a full
    # pass through the kernel that zero padded each transform itself; the
    # rows the skipping pass leaves out are NaN, never unset memory
    cfg, rate, kind, length, seed = case
    n = length * rate // SR  # round(n * SR / rate) is `length`
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    x = 0.5 * np.sin(2.0 * np.pi * rng.uniform(80.0, 400.0) * t) + 0.05 * rng.standard_normal(n)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.wav"
        write_float32(path, x, rate)

        def analyse(padded_rows=True):
            if kind == "waveform":
                return feature._analyse(Waveform(x, rate), cfg, padded_rows)
            with audio._WavFile(path) as wav:
                return feature._analyse(wav, cfg, padded_rows)

        with mock.patch.object(feature, "_difference_fft", difference_fft_two_calls):
            ref_matrix, ref_contour = analyse()
        matrix, contour = analyse()
        skip_matrix, skip_contour = analyse(padded_rows=False)
    assert len(ref_contour) == frame_count(length, cfg.frame_length, cfg.hop)
    assert matrix.values.tobytes() == ref_matrix.values.tobytes()
    for m in (matrix, skip_matrix):
        assert m.padded.tolist() == ref_matrix.padded.tolist()
    assert skip_matrix.unpadded().tobytes() == ref_matrix.unpadded().tobytes()
    assert np.isnan(skip_matrix.values[skip_matrix.padded]).all()
    for c in (contour, skip_contour):
        for name in ("times", "f0", "aperiodicity"):
            assert getattr(c, name).tobytes() == getattr(ref_contour, name).tobytes(), name


def _working_set(seconds):
    """Traced peak of compute_yingram on a tone, less the arrays it returns."""
    w = sine_tone(220.0, seconds)
    tracemalloc.start()
    try:
        matrix = compute_yingram(w, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - matrix.values.nbytes - matrix.padded.nbytes


def test_clip_pass_working_set_does_not_grow_with_the_clip():
    # a block's span, not the clip, bounds it: a zero-padded copy of the
    # whole clip once put 9.7 MB more on it at 60 s than at 5 s
    assert abs(_working_set(60.0) - _working_set(5.0)) <= 1e6


def test_clip_pass_working_set_stays_under_its_bound():
    # one scratch array holds a block's transform inputs, cumsum and frame
    # sums in turn: 2.87 MB were traced when scipy zero padded each
    # transform's input itself, and a (2r, 720) stack of a block's heads and
    # segments traced 3.9 MB
    _working_set(5.0)  # the caches, built
    assert _working_set(60.0) <= 2.9e6


def test_empty_clip_has_no_blocks():
    matrix = compute_yingram(Waveform(np.zeros(0), SR), CFG)
    assert matrix.values.shape == (0, 80) and matrix.padded.shape == (0,)
    assert len(extract_pitch_contour(Waveform(np.zeros(0), SR), CFG)) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("analyse", [compute_yingram, extract_pitch_contour])
def test_non_finite_samples_rejected(analyse, bad):
    x = np.random.default_rng(0).standard_normal(SR)
    x[1234] = bad
    with pytest.raises(ValueError, match=r"non-finite samples: 1 of 22050 .* index 1234"):
        analyse(Waveform(x, SR), CFG)


def test_rate_mismatch_rejected():
    message = "waveform at 16000 Hz, config expects 22050; resample first"
    for analyse in (compute_yingram, extract_pitch_contour):
        with pytest.raises(ValueError, match=message):
            analyse(Waveform(np.zeros(100), 16000), CFG)


def _silent_then_noise_then_tone():
    # silent frames hit the CMND guard; loud noise frames stress the clamp
    x = harmonic_tone(180.0, 2.0, SR, seed=3).samples.copy()
    x[: SR // 2] = 0.0
    x[SR // 2 : SR] = 2.0 * np.random.default_rng(3).standard_normal(SR // 2)
    return Waveform(x, SR)


INVARIANCE_CLIPS = {
    "harmonic 2.3 s": lambda: harmonic_tone(147.0, 2.3, SR, seed=1),
    "vibrato 3.1 s": lambda: vibrato_tone(233.0, 3.1, SR, depth_semitones=1.0),
    "silent and noise heads": _silent_then_noise_then_tone,
}


@pytest.mark.parametrize("hop", [256, 300, 512])
@pytest.mark.parametrize("clip", sorted(INVARIANCE_CLIPS))
def test_block_size_changes_no_byte(monkeypatch, clip, hop):
    # every segment's transform and cumsum depends only on its own samples,
    # and frame sums run within a block, so the block size may move no bit
    # of the clip pass's outputs (a streaming pass rests on this)
    w, cfg = INVARIANCE_CLIPS[clip](), CFG.replace(hop=hop)

    def outputs():
        matrix, contour = feature._analyse(w, cfg)
        return [a.tobytes() for a in (matrix.values, matrix.padded, contour.f0,
                                      contour.aperiodicity)]

    reference = outputs()
    for frames in (1, 3, 127, 129, 10000):
        monkeypatch.setattr(feature, "BLOCK_FRAMES", frames)
        assert outputs() == reference, f"BLOCK_FRAMES={frames}"


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
