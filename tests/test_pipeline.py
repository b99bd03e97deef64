"""The pipeline: `feature._analyse` of a clip at any rate resamples it as it
analyses it, and must equal resampling first and analysing after, byte for
byte, error for error, with no thread left and a working set that does not
hold the resampled clip."""
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yingram import (
    AnalysisConfig,
    Waveform,
    compute_yingram,
    extract_pitch_contour,
    load_wav,
    resample,
    vibrato_tone,
)
from yingram import audio, feature
from yingram.cli import _f0_csv_lines, main
from yingram.feature import _atomic_write, write_yingram_binary, write_yingram_csv
from conftest import set_usable_cores, write_float32

CFG = AnalysisConfig()
SR = CFG.sample_rate
RATES = (8000, 16000, 44100, 48000, 96000)


def _bytes(result) -> list[bytes]:
    matrix, contour = result
    return [a.tobytes() for a in (matrix.values, matrix.padded, contour.times, contour.f0,
                                  contour.aperiodicity)]


def _serial(w: Waveform, cfg: AnalysisConfig = CFG) -> list[bytes]:
    return _bytes(feature._analyse(resample(w, cfg.sample_rate), cfg))


def _clip(n: int, sample_rate: int, seed: int = 0) -> Waveform:
    """A voiced tone under noise, n samples at sample_rate."""
    t = np.arange(n) / sample_rate
    noise = np.random.default_rng(seed).standard_normal(n)
    return Waveform(np.sin(2 * np.pi * 180.0 * t) + 0.05 * noise, sample_rate)


def _step(source: int, target: int, split: int) -> int:
    """Own input samples per part of a long input: the largest multiple of
    down within `split`, at least down."""
    down = audio._polyphase_factors(source, target)[1]
    return max(down, split // down * down)


def _lengths(source: int, cfg: AnalysisConfig, split: int) -> dict[str, int]:
    """Source lengths whose resampled clip is shorter than one frame, than
    one hop, and than one margin, that end on a part boundary, and odd."""
    up, down = audio._polyphase_factors(source, cfg.sample_rate)
    margin = -(-(-(-(64 * max(up, down) + 1) // up)) // down) * down
    to_source = source / cfg.sample_rate
    step = _step(source, cfg.sample_rate, split)
    return {"frame": int((cfg.frame_length - 1) * to_source), "hop": int((cfg.hop - 1) * to_source),
            "margin": margin - 1, "boundary": 3 * step, "odd": 5 * step + 12345}


CASES = [(source, SR, split, cores, length)
         for source in RATES for split in (2**12, 2**14) for cores in (1, 2)
         for length in ("frame", "hop", "margin", "boundary", "odd")] + [
         (48000, 47999, 2**15, 2, length) for length in ("frame", "boundary", "odd")]


@pytest.mark.parametrize("source, target, split, cores, length", CASES,
                         ids=lambda v: str(v))
def test_the_pipeline_equals_resampling_then_analysing(monkeypatch, source, target, split, cores,
                                                        length):
    cfg = CFG if target == SR else CFG.replace(sample_rate=target)
    set_usable_cores(monkeypatch, cores)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", split)
    w = _clip(_lengths(source, cfg, split)[length], source)
    assert _bytes(feature._analyse(w, cfg)) == _serial(w, cfg)


@settings(deadline=None, max_examples=40)
@given(source=st.sampled_from(RATES + (SR,)), n=st.integers(0, 40000),
       split=st.integers(256, 8192), cores=st.sampled_from([1, 2]))
def test_the_pipeline_equals_resampling_then_analysing_at_any_length(source, n, split, cores):
    w = _clip(n, source, seed=n)
    with pytest.MonkeyPatch.context() as patch:
        set_usable_cores(patch, cores)
        patch.setattr(audio, "_SPLIT_SAMPLES", split)
        assert _bytes(feature._analyse(w, CFG)) == _serial(w)


def test_the_cli_writes_the_bytes_of_resampling_then_analysing(tmp_path, monkeypatch):
    # 3 s at 48 kHz, past _SPLIT_SAMPLES: the pipeline runs in two parts
    set_usable_cores(monkeypatch, 2)
    wav = tmp_path / "in.wav"
    write_float32(wav, _clip(3 * 48000, 48000).samples, 48000)
    assert main(["analyze", str(wav), "--out", str(tmp_path / "a.csv"),
                 "--binary", str(tmp_path / "a.f32")]) == 0
    assert main(["f0", str(wav), "--out", str(tmp_path / "f0.csv")]) == 0
    serial = resample(load_wav(wav), SR)
    write_yingram_csv(compute_yingram(serial, CFG), tmp_path / "s.csv")
    write_yingram_binary(compute_yingram(serial, CFG), tmp_path / "s.f32")
    _atomic_write(tmp_path / "s0.csv", _f0_csv_lines(extract_pitch_contour(serial, CFG)))
    for got, expected in (("a.csv", "s.csv"), ("a.f32", "s.f32"), ("f0.csv", "s0.csv")):
        assert (tmp_path / got).read_bytes() == (tmp_path / expected).read_bytes(), got


# -- errors come in the serial path's order: a resampling part's error (the
# lowest part's), then non-finite samples of the whole resampled clip, then
# a block's CMND overflow

def _overflowing(late: str) -> Waveform:
    """5 s at 48 kHz whose first 0.2 s overflow their CMND, and whose last
    0.1 s are `late`: finite, or so large that resampling overflows."""
    x = 0.1 * np.random.default_rng(5).standard_normal(5 * 48000)
    x[:9600] *= 1e155
    if late == "overflowing":
        x[-4800:] = 1.7e308
    return Waveform(x, 48000)


def _raised(run) -> str:
    with pytest.raises(ValueError) as raised:
        run()
    return str(raised.value)


def _hold_the_last_part(monkeypatch, w: Waveform) -> threading.Event:
    """Resample `w` in parts of 8000 own samples, and hold the part that
    reads its end until a block has overflowed its CMND: the event that
    block sets."""
    set_usable_cores(monkeypatch, 2)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", 2**13)
    end, block_failed = w.samples.ctypes.data + w.samples.nbytes, threading.Event()
    cmnd, part = feature._cmnd_terms, audio._resample_part

    def cmnd_spy(*args):
        try:
            return cmnd(*args)
        except ValueError:
            block_failed.set()
            raise

    def part_spy(x, *args):
        if x.ctypes.data + x.nbytes == end:
            assert block_failed.wait(5.0)
        return part(x, *args)

    monkeypatch.setattr(feature, "_cmnd_terms", cmnd_spy)
    monkeypatch.setattr(audio, "_resample_part", part_spy)
    return block_failed


@pytest.mark.parametrize("late, message", [
    ("finite", "non-finite difference values: the samples of frames 0.."),
    ("overflowing", "non-finite samples: "),
])
def test_non_finite_samples_come_before_a_blocks_overflow(monkeypatch, late, message):
    w = _overflowing(late)
    serial = _raised(lambda: feature._analyse(resample(w, SR), CFG))
    block_failed = _hold_the_last_part(monkeypatch, w)
    assert _raised(lambda: feature._analyse(w, CFG)) == serial
    assert serial.startswith(message) and block_failed.is_set()


def test_a_parts_error_comes_first_and_the_lowest_wins(monkeypatch):
    # the parts reading the last 20000 samples fail, the last one only once
    # a block has overflowed its CMND
    w = _overflowing("finite")
    block_failed = _hold_the_last_part(monkeypatch, w)
    held, late = audio._resample_part, len(w) - 20000

    def failing(x, *args):
        first = (x.ctypes.data - w.samples.ctypes.data) // x.itemsize
        y = held(x, *args)
        if first >= late:
            raise ValueError(f"part from sample {first}")
        return y

    monkeypatch.setattr(audio, "_resample_part", failing)
    margin = 320  # 48 kHz to 22.05 kHz: one output reads 140 inputs, rounded up to down
    lowest = min(a - margin for a in range(8000, len(w), 8000) if a - margin >= late)
    assert _raised(lambda: feature._analyse(w, CFG)) == f"part from sample {lowest}"
    assert block_failed.is_set()
    assert _raised(lambda: resample(w, SR)) == f"part from sample {lowest}"


def test_no_thread_outlives_the_pipeline(monkeypatch):
    # the worker thread lingers 50 ms once it finds no part left to claim:
    # the pipeline returns, or raises, only after it has ended
    set_usable_cores(monkeypatch, 2)
    work = audio._Resampling._work

    def lingering(self):
        work(self)
        time.sleep(0.05)

    monkeypatch.setattr(audio._Resampling, "_work", lingering)
    threads = threading.active_count()
    feature._analyse(_clip(3 * 48000, 48000), CFG)
    assert threading.active_count() == threads
    with pytest.raises(ValueError, match="non-finite difference values"):
        feature._analyse(_overflowing("finite"), CFG)
    assert threading.active_count() == threads


def test_a_non_finite_sample_no_frame_reads_still_raises():
    # frames 2474 samples long, 5000 apart: sample 3000 lies between the
    # first two, so only the whole clip's check sees it
    x = _clip(20000, SR).samples.copy()
    x[3000] = np.nan
    with pytest.raises(ValueError, match=r"^non-finite samples: 1 of 20000 .* index 3000$"):
        feature._analyse(Waveform(x, SR), CFG.replace(hop=5000))


@pytest.mark.parametrize("where", ["calling thread", "worker thread"])
def test_each_part_of_the_pipeline_runs_under_the_callers_errstate(monkeypatch, where):
    # as in tests/test_audio.py: a part overflows on the thread named
    set_usable_cores(monkeypatch, 2)
    w = _clip(3 * 48000, 48000)
    caller, worker_ran, part = threading.current_thread(), threading.Event(), audio._resample_part

    def spy(*args):
        on_caller = threading.current_thread() is caller
        if not on_caller:
            worker_ran.set()
        elif where == "worker thread":
            assert worker_ran.wait(5.0)
        if on_caller == (where == "calling thread"):
            np.float64(1e308) * 10.0
        return part(*args)

    monkeypatch.setattr(audio, "_resample_part", spy)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        feature._analyse(w, CFG)
    with np.errstate(over="ignore"):
        assert _bytes(feature._analyse(w, CFG)) == _serial(w)


# -- the working set: the pipeline holds a window of parts and one block
# besides its outputs (the matrix and the contour), not the resampled clip

def _working_set(run) -> int:
    """Traced peak of run(), an `_analyse`, less the arrays it returns."""
    tracemalloc.start()
    try:
        matrix, contour = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in (matrix.values, matrix.padded, contour.times, contour.f0,
                                         contour.aperiodicity))


@pytest.mark.parametrize("seconds", [10.0, 60.0])
def test_the_pipeline_holds_a_window_of_parts_and_one_block(monkeypatch, seconds):
    set_usable_cores(monkeypatch, 2)
    w = Waveform(vibrato_tone(220.0, seconds, 48000).samples, 48000)
    resampled = resample(w, SR)
    block = _working_set(lambda: feature._analyse(resampled, CFG))  # the clip pass alone
    clip_bytes = resampled.samples.nbytes
    del resampled
    parts, part = [], audio._resample_part

    def sized(*args):
        parts.append(args[-1].base.nbytes)  # the part's outputs, its dropped ones included
        return part(*args)

    monkeypatch.setattr(audio, "_resample_part", sized)
    pipeline = _working_set(lambda: feature._analyse(w, CFG))
    window = (audio._WINDOW_PARTS + 2) * max(parts)
    assert pipeline <= window + block, (pipeline, max(parts), block)
    assert len(parts) > 2 and (seconds < 60 or window + block < clip_bytes)
