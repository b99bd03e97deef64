"""The stream: every command hands `feature._analyse` the open WAV file
(`audio._WavFile`); `compare-shift` and `batch` hand it both files of a pair
through `evaluate.evaluate_shift_pair`. Resampled, each part decodes its own
samples; at the config rate, each block decodes its span. Either way the
outputs are the bytes of `_analyse(load_wav(path))`, the errors come in its
order, no thread is left, and the working set does not grow with the clip."""
import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from yingram import AnalysisConfig, Scope, WavFormatError, evaluate_shift_pair, load_wav
from yingram import audio, feature
from yingram.cli import main
from conftest import set_usable_cores, write_stored, write_truncated

CFG = AnalysisConfig()
SR = CFG.sample_rate
FULL_SCALE = {"s16": 2**15 - 1, "s24": 2**23 - 1, "f32": 1.0}


def _values(seconds: float, rate: int, name: str, channels: int = 1) -> np.ndarray:
    """A vibrato tone under noise, each channel quieter than the last, in the
    stored type's scale: one row per frame (1-D for mono)."""
    t = np.arange(int(seconds * rate)) / rate
    tone = np.sin(2 * np.pi * (190.0 * t + 2.0 * np.sin(2 * np.pi * 3.0 * t)))
    mono = 0.6 * tone + 0.05 * np.random.default_rng(0).standard_normal(len(t))
    frames = np.outer(mono, 1.0 - 0.2 * np.arange(channels)) * FULL_SCALE[name]
    frames = frames if name == "f32" else np.round(frames)
    return frames[:, 0] if channels == 1 else frames


def _wav(tmp_path, seconds: float, rate: int, name: str = "s16", channels: int = 1):
    path = tmp_path / f"{rate}-{name}-{channels}.wav"
    write_stored(path, _values(seconds, rate, name, channels), rate, name)
    return path


def _bytes(result) -> list[bytes]:
    matrix, contour = result
    return [a.tobytes() for a in (matrix.values, matrix.padded, contour.times, contour.f0,
                                  contour.aperiodicity)]


def _stream(path, cfg: AnalysisConfig = CFG):
    with audio._WavFile(path) as wav:
        return feature._analyse(wav, cfg)


def _raised(run, kind=ValueError) -> str:
    with pytest.raises(kind) as raised:
        run()
    return str(raised.value)


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("name", ["s16", "s24", "f32"])
@pytest.mark.parametrize("rate", [22050, 44100, 48000])
def test_the_stream_equals_analysing_the_loaded_clip(tmp_path, monkeypatch, rate, name, channels):
    # 1.5 s in parts of 2**14 own samples, on two threads
    path = _wav(tmp_path, 1.5, rate, name, channels)
    expected = _bytes(feature._analyse(load_wav(path), CFG))
    set_usable_cores(monkeypatch, 2)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", 2**14)
    assert _bytes(_stream(path)) == expected


# part sizes (own input samples) shorter than one hop, than one frame and,
# at 44.1 kHz, than one margin (130 samples: one part), and a long one;
# block sizes of one frame, a few, the default and more than the clip. At
# the config rate a file has no parts, and only the block size applies
SWEEP = [(rate, split, frames, 1 + k % 2) for k, (rate, split, frames) in enumerate(
    (rate, split, frames) for rate in (22050, 44100, 48000) for split in (100, 300, 1000, 2**14)
    for frames in (1, 3, 128, 10000))]


@pytest.mark.parametrize("rate, split, frames, cores", SWEEP, ids=lambda v: str(v))
def test_part_and_block_sizes_change_no_byte(tmp_path, monkeypatch, rate, split, frames, cores):
    path = _wav(tmp_path, 0.7, rate)
    expected = _bytes(feature._analyse(load_wav(path), CFG))
    set_usable_cores(monkeypatch, cores)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", split)
    monkeypatch.setattr(feature, "BLOCK_FRAMES", frames)
    assert _bytes(_stream(path)) == expected


def _shrink_on_first_read(monkeypatch, path, keep: int) -> None:
    """Cut `path` to its first `keep` bytes once its first read has returned."""
    pread = audio._pread

    def shrinking(fd, view, offset):
        got = pread(fd, view, offset)
        if os.path.getsize(path) > keep:
            os.truncate(path, keep)
        return got

    monkeypatch.setattr(audio, "_pread", shrinking)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("rate", [22050, 48000])
def test_a_file_that_shrinks_during_the_run_is_named(tmp_path, monkeypatch, capsys, rate, cores):
    set_usable_cores(monkeypatch, cores)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", 2**14)
    path = _wav(tmp_path, 3.0, rate)
    size = path.stat().st_size
    _shrink_on_first_read(monkeypatch, path, size // 2)
    threads = threading.active_count()
    message = _raised(lambda: _stream(path), WavFormatError)
    assert message == "corrupt file: truncated b'data' chunk"
    assert threading.active_count() == threads
    path = _wav(tmp_path, 3.0, rate)  # whole again, for the CLI
    assert main(["f0", str(path), "--out", str(tmp_path / "f0.csv")]) == 2
    assert tuple(capsys.readouterr()) == ("", f"error: {message}\n")
    assert not (tmp_path / "f0.csv").exists()


# -- errors come in the order of decoding the whole file first: header
# errors, decoding errors in file order, the ratio error, a part's error,
# the whole clip's non-finite count, then a block's CMND overflow

@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("rate", [22050, 48000])
@pytest.mark.parametrize("first, message", [
    ("non-finite", "corrupt file: non-finite samples"),
    ("shrink", "corrupt file: truncated b'data' chunk"),
])
def test_decoding_errors_come_in_file_order(tmp_path, monkeypatch, rate, cores, first, message):
    # a NaN sample and the point the file shrinks to, one early, one late
    set_usable_cores(monkeypatch, cores)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", 2**14)
    values = _values(3.0, rate, "f32")
    nan_at, cut_at = (1000, len(values) * 8 // 10) if first == "non-finite" else \
        (len(values) * 9 // 10, len(values) * 2 // 10)
    values[nan_at] = np.nan
    path = tmp_path / "late.wav"
    for run in (lambda: feature._analyse(load_wav(path), CFG), lambda: _stream(path)):
        write_stored(path, values, rate, "f32")
        with pytest.MonkeyPatch.context() as patch:
            _shrink_on_first_read(patch, path, path.stat().st_size - 4 * (len(values) - cut_at))
            assert _raised(run, WavFormatError) == message


@pytest.mark.parametrize("nan", [False, True], ids=["clean", "non-finite"])
def test_a_decoding_error_comes_before_the_ratio_error(tmp_path, capsys, nan):
    # 800 MHz is more than 32768 times 22.05 kHz
    values = _values(0.01, 100000, "f32")
    values[-1] = np.nan if nan else values[-1]
    path = tmp_path / "fast.wav"
    write_stored(path, values, 800_000_000, "f32")
    message = ("corrupt file: non-finite samples" if nan else
               "unsupported resampling ratio: 800000000 Hz to 22050 Hz differ by more than a factor 32768")
    assert _raised(lambda: feature._analyse(load_wav(path), CFG)) == message
    assert _raised(lambda: _stream(path)) == message
    assert main(["f0", str(path), "--out", str(tmp_path / "f0.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("nan", [False, True], ids=["clean", "non-finite"])
def test_a_decoding_error_comes_before_a_parts_error(tmp_path, monkeypatch, nan, cores):
    # every part fails, and the file holds a NaN in its last part, or none
    set_usable_cores(monkeypatch, cores)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", 2**14)
    values = _values(3.0, 48000, "f32")
    values[-100] = np.nan if nan else values[-100]
    path = tmp_path / "late.wav"
    write_stored(path, values, 48000, "f32")

    def failing(*args):
        raise ValueError("a part")

    monkeypatch.setattr(audio, "_resample_part", failing)
    expected = "corrupt file: non-finite samples" if nan else "a part"
    assert _raised(lambda: feature._analyse(load_wav(path), CFG)) == expected
    assert _raised(lambda: _stream(path)) == expected


@pytest.mark.parametrize("cores", [1, 2])
def test_the_clips_non_finite_count_comes_before_a_blocks_error(tmp_path, monkeypatch, cores):
    # each part's last output turns NaN, and the first block fails: the
    # count over the whole clip comes first, as when the whole clip was
    # resampled before its first block
    set_usable_cores(monkeypatch, cores)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", 2**14)
    path = _wav(tmp_path, 3.0, 48000, "f32")
    part, cmnd, blocks = audio._resample_part, feature._cmnd_terms, []

    def nan_part(*args):
        y = part(*args)
        args[-1][-1] = np.nan
        return y

    def failing_block(d, start):
        blocks.append(start)
        raise ValueError("a block")

    monkeypatch.setattr(audio, "_resample_part", nan_part)
    monkeypatch.setattr(feature, "_cmnd_terms", failing_block)
    expected = _raised(lambda: feature._analyse(load_wav(path), CFG))
    assert expected.startswith("non-finite samples: ") and blocks == [0]
    assert _raised(lambda: _stream(path)) == expected and blocks == [0, 0]


@pytest.mark.parametrize("where", [3000, 23000], ids=["between frames", "past the last frame"])
def test_a_non_finite_sample_no_frame_reads_is_named(tmp_path, monkeypatch, where):
    # frames 2474 samples long, 5000 apart, one to a block, over 24000
    # samples: sample 3000 lies between the first two, sample 23000 past the
    # last, which ends at 22474, and no block reads either
    monkeypatch.setattr(feature, "BLOCK_FRAMES", 1)
    values = _values(24000 / SR, SR, "f32")
    values[where] = np.inf
    path = tmp_path / "gap.wav"
    write_stored(path, values, SR, "f32")
    cfg = CFG.replace(hop=5000)
    assert _raised(lambda: _stream(path, cfg), WavFormatError) == "corrupt file: non-finite samples"


# -- a pair's errors come in the order of `load_wav` of the normal file, then
# of the shifted one, then scoring: each fault in either file, or in both

def _pair_file(path, fault: str):
    """A 0.3 s tone at path, clean or with `fault`; "missing" writes nothing."""
    values = _values(0.3, SR, "f32")
    if fault == "bad header":
        path.write_bytes(b"RIFX" + bytes(40))
    elif fault == "truncated":  # a data chunk that claims more than it carries
        write_truncated(path)
    elif fault != "missing":
        if fault == "non-finite":
            values[len(values) // 2] = np.nan
        # 800 MHz is more than 32768 times 22.05 kHz
        rate = {"rate 0": 0, "rate too far": 800_000_000}.get(fault, SR)
        write_stored(path, values, rate, "f32")
    return path


def _whole_clip(normal, shifted, s: int):
    """The whole-clip path: the report of, or the error raised by,
    `evaluate_shift_pair(load_wav(normal), load_wav(shifted), s)`."""
    try:
        return evaluate_shift_pair(load_wav(normal), load_wav(shifted), s, CFG).to_dict()
    except (OSError, ValueError) as exc:
        return exc


PAIR_FAULTS = ["clean", "missing", "bad header", "non-finite", "truncated", "rate 0", "rate too far"]


@pytest.mark.parametrize("s", [0, 16], ids=["s=0", "s=16 out of range"])
@pytest.mark.parametrize("shifted_fault", PAIR_FAULTS)
@pytest.mark.parametrize("normal_fault", PAIR_FAULTS)
def test_a_pairs_errors_come_as_from_the_whole_clips(tmp_path, capsys, normal_fault, shifted_fault, s):
    normal = _pair_file(tmp_path / "normal.wav", normal_fault)
    shifted = _pair_file(tmp_path / "shifted.wav", shifted_fault)
    expected = _whole_clip(normal, shifted, s)
    out = tmp_path / "report.json"
    code = main(["compare-shift", str(normal), str(shifted), "--scope-shift", str(s), "--out", str(out)])
    err = capsys.readouterr().err
    if isinstance(expected, Exception):
        assert (code, err, out.exists()) == (2, f"error: {expected}\n", False)
    else:
        assert (code, err) == (0 if expected["pass"] else 1, "")
        assert json.loads(out.read_text()) == {**expected, "config": CFG.to_dict()}
    # a batch entry reads its shift before its files, and records what it raises
    try:
        Scope(s)
    except ValueError as exc:
        expected = exc
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"normal": str(normal), "shifted": str(shifted), "scope_shift": s}]))
    code = main(["batch", str(manifest), "--out-json", str(tmp_path / "batch.json")])
    entry = json.loads((tmp_path / "batch.json").read_text())["entries"][0]
    if isinstance(expected, Exception):
        assert (code, entry["error"]) == (1, f"{type(expected).__name__}: {expected}")
    else:
        assert (code, entry["report"]) == (0 if expected["pass"] else 1, expected)


@pytest.mark.parametrize("rate", [22050, 48000])
def test_no_thread_outlives_the_stream(tmp_path, monkeypatch, rate):
    # the worker thread lingers 50 ms once it finds no part left to claim:
    # the pass returns, or raises, only after it has ended
    set_usable_cores(monkeypatch, 2)
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", 2**14)
    work = audio._Resampling._work

    def lingering(self):
        work(self)
        time.sleep(0.05)

    monkeypatch.setattr(audio._Resampling, "_work", lingering)
    path = _wav(tmp_path, 3.0, rate)
    threads = threading.active_count()
    _stream(path)
    assert threading.active_count() == threads
    _shrink_on_first_read(monkeypatch, path, path.stat().st_size // 2)
    with pytest.raises(WavFormatError, match="truncated"):
        _stream(path)
    assert threading.active_count() == threads


def test_many_parts_on_four_threads_under_a_short_switch_interval_keep_every_byte(tmp_path, monkeypatch):
    # two passes at once, each on two threads, hand over control every
    # microsecond while 3 s of 48 kHz run as 75 parts read 3 frames at a
    # time: a lost update of the claimed, done or released counts would
    # change a byte or hang
    set_usable_cores(monkeypatch, 2)
    path = _wav(tmp_path, 3.0, 48000)
    expected = _bytes(feature._analyse(load_wav(path), CFG))
    monkeypatch.setattr(audio, "_SPLIT_SAMPLES", 2**11)
    monkeypatch.setattr(feature, "BLOCK_FRAMES", 3)
    results = []

    def passes():
        results.extend(_bytes(_stream(path)) for _ in range(2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runners = [threading.Thread(target=passes, daemon=True) for _ in range(2)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners)
    assert results == [expected] * 4


# -- the working set of the CLI pass, less its outputs, does not grow with
# the clip

def _cli_working_set(tmp_path, seconds: float, rate: int) -> int:
    """Traced peak of an `analyze --out --binary` of a tone, less the
    matrix, its padded flags and the contour that the pass builds."""
    path = _wav(tmp_path, seconds, rate)
    out = tmp_path / "y.csv"
    tracemalloc.start()
    try:
        assert main(["analyze", str(path), "--out", str(out), "--binary", str(tmp_path / "y.f32")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    frames = json.loads(out.with_name("y.csv.json").read_text())["frames"]
    return peak - frames * (4 * CFG.grid.num_channels + 1 + 3 * 8)


@pytest.mark.parametrize("rate", [22050, 48000])
def test_the_cli_pass_working_set_does_not_grow_with_the_clip(tmp_path, monkeypatch, rate):
    # a 10 s clip and a 3 min one; the decoded 3 min clip alone is 8 B a
    # sample, 32 MB at 22.05 kHz and 69 MB at 48 kHz
    set_usable_cores(monkeypatch, 2)
    short, long = (_cli_working_set(tmp_path, seconds, rate) for seconds in (10.0, 180.0))
    assert long <= short + 1e6, (short, long)
