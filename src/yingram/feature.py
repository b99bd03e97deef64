"""Yingram computation: CMND sampled at note-grid lags, plus file export.

A Yingram frame holds one CMND value per grid channel, obtained by linear
interpolation between the integer lags bracketing each note's fractional
period. Low values mark strong periodicity at that note. One pass over a
clip's frames (`_analyse`) yields its Yingram and its pitch contour.

A purely periodic signal has equally deep CMND valleys at every multiple of
its period, so the argmin channel of an exact steady sine may sit on an
octave-subharmonic channel, by how the grid's fractional lags straddle the
valleys. A little pitch drift (the tests use +-0.1 semitone of vibrato)
lifts the long-lag valleys and pins the argmin to the fundamental's channel.
"""
from __future__ import annotations

import itertools
import json
import os
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .audio import Frame, Waveform, _frame_span, _Resampling, _WavFile, frame_count
from .config import AnalysisConfig
from .grid import DEFAULT_GRID, NoteGrid, _lag_table, _require_real_dtype, channel_lags, tau_max_for
from .yin import _cmnd_terms, _difference_fft, _non_finite, cmnd, difference_function, f0_rows

__all__ = [
    "YingramMatrix",
    "PitchContour",
    "yingram_rows",
    "yingram_frame",
    "yingram_from_frame",
    "compute_yingram",
    "extract_pitch_contour",
    "write_yingram_csv",
    "write_yingram_binary",
]

# Frames per block of `_analyse`. A block holds its span of clip samples (a
# view, or a copy: decoded from the file, joined from two resampled parts or
# padded at the clip's end) and the spectra and energy cumsums of its
# segments, so the block size, not the clip length, bounds the working set:
# 2.9 MB traced at 5 s and at 60 s. Each block also
# transforms the window // hop - 1 hop segments past its last frame's start
# again. On a 2-core VM, in 7 alternating rounds (best, median), with equal
# output bytes: a 10 s tone took 53, 60 ms at 32 frames and 40, 44 ms at
# 128; a 60 s vibrato 206, 257 ms and 184, 225 ms. A 60 s 48 kHz vibrato,
# resampled as it was analysed, took 159-168 ms at 32 frames, 133-144 at
# 128 and 147-157 at 512 (best of 7, 3 alternating fresh-process rounds).
# Blocks run serially on the calling thread: two at once on two threads took
# the vibrato to 160, 186 ms, but their peaks add up or not by the threads'
# timing, so the traced working set of a 5 s clip fell more than 1 MB below
# that of a 60 s clip in 7 of 100 runs.
BLOCK_FRAMES = 128
# glibc's malloc maps each block's temporaries (0.4-0.8 MB apiece at the
# default config) from the system and returns them once freed, unless the
# free of a larger mapping has raised its dynamic mmap threshold (and, with
# it, the heap's trim threshold). Whole-clip arrays raised it in passing;
# streamed, a 48 kHz `analyze` of long_clips faulted 2-5 thousand pages back
# in per op, 3-8% of its time, against none. `_raise_mmap_threshold` maps and
# frees one untouched array of this many bytes, once per process, so no page
# of it is ever resident.
_MMAP_THRESHOLD_BYTES = 1 << 23


@dataclass
class YingramMatrix:
    """frames x channels feature matrix on a note grid.

    values[t][c] is the interpolated CMND of frame t at the lag of note
    start_note + c. `padded`, one bool per row, flags frames past end-of-signal.
    """

    values: np.ndarray
    grid: NoteGrid
    hop: int
    sample_rate: int
    padded: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        rows = len(self.values)
        self.padded = np.zeros(rows, bool) if self.padded is None else np.asarray(self.padded, bool)
        if self.padded.shape != (rows,):
            raise ValueError(f"padded must hold one flag per row: {rows} rows, got shape {self.padded.shape}")

    @property
    def num_frames(self) -> int:
        return len(self.values)

    @property
    def num_channels(self) -> int:
        return self.values.shape[1]

    def unpadded(self) -> np.ndarray:
        """Rows of frames that were fully backed by signal."""
        return self.values[~self.padded]


@dataclass
class PitchContour:
    """Per-frame f0 track: NaN f0 means unvoiced. Times step by hop/sr."""

    times: np.ndarray
    f0: np.ndarray
    aperiodicity: np.ndarray
    hop: int
    sample_rate: int

    def __len__(self) -> int:
        return len(self.times)

    @property
    def voiced(self) -> np.ndarray:
        return ~np.isnan(self.f0)

    @property
    def num_voiced(self) -> int:
        return int(self.voiced.sum())


def yingram_rows(values: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Sample CMND values, one curve per row (or a single 1-D curve), at the
    fractional lags of the grid channels.

    Y[ch] = d'(floor(tau)) + (d'(ceil(tau)) - d'(floor(tau))) * frac(tau)
    with tau = lags[ch]. Integer lags reproduce the curve value exactly.
    Raises ValueError("lag out of range: ...") unless every lag is at least 0
    and its ceiling at most the curve's last lag, so a NaN lag raises too.
    """
    return _sample_at(values, _lag_brackets(lags, values.shape[-1] - 1))


def _sample_at(values: np.ndarray, brackets: tuple) -> np.ndarray:
    """values at the fractional lags whose (floors, ceils, frac) are `brackets`."""
    floors, ceils, frac = brackets
    return values[..., floors] * (1.0 - frac) + values[..., ceils] * frac


def _lag_brackets(lags: np.ndarray, tau_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(floors, ceils, frac) of fractional lags: the one bracket rule of
    `yingram_rows` and, through `_channel_brackets`, of `yingram_frame`,
    `_analyse` and the VJP; raises as `yingram_rows`."""
    ceils = np.ceil(lags)
    _require_on_curve(lags, tau_max, np.min(lags), ceils.max())  # before the cast
    floors = np.floor(lags).astype(int)
    return floors, ceils.astype(int), lags - floors


def _require_on_curve(lags: np.ndarray, tau_max: int, low, top) -> None:
    """ValueError("lag out of range: ...") unless the least of `lags`, low, is
    at least 0 and the greatest of their ceilings, top, at most tau_max, a
    curve's last lag; NaN fails both."""
    if not (low >= 0 and top <= tau_max):
        raise ValueError(
            f"lag out of range: the curve covers lags 0..{tau_max:.6g}, "
            f"the lags span {np.min(lags):.6g}..{np.max(lags):.6g}"
        )


@lru_cache
def _channel_brackets(grid: NoteGrid, sample_rate: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only `_lag_brackets` of `channel_lags(grid, sample_rate)` on lags
    0..tau_max_for(grid, sample_rate), built once per (grid, rate) beside
    `grid._lag_table`, for a rate `channel_lags` has checked."""
    brackets = _lag_brackets(_lag_table(grid, sample_rate), tau_max_for(grid, sample_rate))
    for array in brackets:
        array.flags.writeable = False
    return brackets


def yingram_frame(
    values: np.ndarray, sample_rate: int, grid: NoteGrid = DEFAULT_GRID
) -> np.ndarray:
    """Sample the CMND curve of a frame at sample_rate at every grid
    channel's fractional lag (the one-curve case of `yingram_rows`, with the
    lags of note start_note + ch). Raises ValueError for a rate `channel_lags`
    rejects and for a curve that stops short of the lags ("lag out of range")."""
    lags = channel_lags(grid, sample_rate)  # the rate rule, before the cache
    brackets = _channel_brackets(grid, sample_rate)
    # channel 0 holds the lowest note: the greatest lag, and the greatest ceiling
    _require_on_curve(lags, values.shape[-1] - 1, lags[-1], brackets[1][0])
    return _sample_at(values, brackets)


def yingram_from_frame(
    frame: Frame | np.ndarray,
    grid: NoteGrid,
    sample_rate: int,
    window: int,
    method: str = "fft",
) -> np.ndarray:
    """One frame end to end: difference function, CMND, grid sampling.

    Runs in float64; compute_yingram stores float32. Raises ValueError for a
    Frame not at sample_rate, non-finite samples (`difference_function`) and
    difference values that overflow (`cmnd`).
    """
    tau_max = tau_max_for(grid, sample_rate)
    if isinstance(frame, Frame) and frame.sample_rate != sample_rate:
        raise ValueError(f"frame at {frame.sample_rate} Hz, sample_rate is {sample_rate}")
    d = difference_function(frame, tau_max, window, method=method)
    return yingram_frame(cmnd(d), sample_rate, grid)


def _analyse(source: Waveform | _WavFile, cfg: AnalysisConfig) -> tuple[YingramMatrix, PitchContour]:
    """The Yingram and the pitch contour of one clip, a Waveform or an open
    WAV file at any rate, decoded and resampled to the config's rate in
    parts (`audio._Resampling`) as it is analysed: each block starts once
    the samples it reads are final, and then releases those before the next
    block's, so beyond the outputs only a few parts and one block's span are
    held, whatever the clip's length. One pass over the frames under
    `audio._frame_span`'s framing rule, BLOCK_FRAMES at a time. Each block
    hands the difference kernel its span of clip samples (a view, or a copy
    decoded from the file or joining two parts, zero padded only past the
    clip's end). A frame's CMND is cmnd(difference_function(frame, tau_max,
    window)), with the correlation and the energies summed from hop blocks
    when the hop divides the window (d to about 1e-13 of p0 + p_tau, a
    stored value to 1 float32 ulp; exact otherwise). Every frame gets a
    Yingram row; padded frames are flagged and stay unvoiced (f0 NaN,
    aperiodicity 1), the others get the f0 of `f0_rows`.

    Raises, in the order of decoding and resampling the whole clip and then
    analysing it: a decoding error (in file order), a resampling error (as
    `resample`), ValueError for non-finite samples of the resampled clip,
    and for a block whose difference values overflow their CMND (naming
    the clip's frames).
    """
    _raise_mmap_threshold()
    with _Resampling(source, cfg.sample_rate) as clip:
        n = frame_count(len(clip), cfg.frame_length, cfg.hop)
        brackets = _channel_brackets(cfg.grid, cfg.sample_rate)
        padded = np.empty(n, dtype=bool)
        rows = np.empty((n, cfg.grid.num_channels), dtype=np.float32)
        f0, aperiodicity = np.empty(n), np.empty(n)
        for start in range(0, n, BLOCK_FRAMES):
            block = slice(start, min(start + BLOCK_FRAMES, n))
            span, padded[block] = _frame_span(clip, cfg.frame_length, cfg.hop, block.start, block.stop)
            clip.release(block.stop * cfg.hop)  # where the next block's span starts
            try:
                values = _cmnd_terms(_difference_fft(span, cfg.tau_max, cfg.window, cfg.hop), start)[0]
            except ValueError:  # the clip's errors, then its non-finite samples, come first
                _require_finite_clip(clip)
                raise
            rows[block] = _sample_at(values, brackets)
            f0[block], aperiodicity[block] = f0_rows(
                values, cfg.sample_rate, cfg.f0_threshold, cfg.f_min, cfg.f_max, cfg.voicing_cutoff
            )
        _require_finite_clip(clip)
    f0[padded], aperiodicity[padded] = np.nan, 1.0
    times = np.arange(n) * (cfg.hop / cfg.sample_rate)
    matrix = YingramMatrix(rows, cfg.grid, cfg.hop, cfg.sample_rate, padded)
    return matrix, PitchContour(times, f0, aperiodicity, cfg.hop, cfg.sample_rate)


@lru_cache(maxsize=None)
def _raise_mmap_threshold() -> None:
    """See _MMAP_THRESHOLD_BYTES; elsewhere than glibc, an untouched array
    allocated and freed."""
    np.empty(_MMAP_THRESHOLD_BYTES, np.uint8)


def _require_finite_clip(clip: _Resampling) -> None:
    """Run the clip's parts left (`_Resampling.finish`, raising its errors),
    then `require_finite`'s error for the non-finite samples of the whole
    clip, a frame's or not."""
    count, first = clip.finish()
    if count:
        raise _non_finite("samples", count, len(clip), first)


def _require_config_rate(w: Waveform, cfg: AnalysisConfig) -> AnalysisConfig:
    """cfg, for a clip at its rate; ValueError otherwise."""
    if w.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"waveform at {w.sample_rate} Hz, config expects {cfg.sample_rate}; "
            "resample first"
        )
    return cfg


def compute_yingram(w: Waveform, config: AnalysisConfig | None = None) -> YingramMatrix:
    """Yingram of a whole waveform under the given analysis config (`_analyse`).

    The waveform is framed at window + tau_max samples every hop; each frame
    contributes one row. Values are stored as float32 (internal math is float64).
    Raises ValueError for a waveform not at the config's rate ("resample first").
    """
    return _analyse(w, _require_config_rate(w, config or AnalysisConfig()))[0]


def extract_pitch_contour(w: Waveform, config: AnalysisConfig | None = None) -> PitchContour:
    """Frame-wise f0 over a waveform (`_analyse`): padded tail frames are
    unvoiced, the others follow the CMND threshold rule with parabolic
    refinement (`f0_rows`); aperiodicity is the CMND at the chosen integer lag.
    Raises ValueError for a waveform not at the config's rate ("resample first")."""
    return _analyse(w, _require_config_rate(w, config or AnalysisConfig()))[1]


def write_yingram_csv(matrix: YingramMatrix, path) -> None:
    """CSV export: header frame,c0..c{N-1}, then one row per frame, each line
    ended by "\n" on every platform, streamed in chunks of rows.

    The values are the float32 matrix `write_yingram_binary` writes, each at
    9 significant digits (%.9g), which read back to the same float32 bits,
    parsed directly or as float64 and then cast: nine digits always
    round-trip binary32 (IEEE 754-2008, 5.12.2), as the 9-digit decimal lies
    within 5e-9, relative, of a normal float32, while half its ulp is more
    than 2.9e-8, relative. Eight digits do not.

    The bytes are Python's `'%.9g' % float(v)` for every value, but a value v
    with 1e-4 <= v < 999.9, in decade X (10^X <= v < 10^(X+1)), gets its
    digits from numpy arithmetic (`_csv_rows`): q = v * 10^(8-X) is exact in
    float64, since v's 24-bit significand times 5^(8-X) <= 5^12 needs at most
    52 bits, so rounding q to an integer D, the 9 digits, is exact as well,
    and D * 10^(X+4) is the value in 12-decimal fixed point, below 2^53.
    Every other value, and any q whose fraction lies within _CSV_TIE_BAND of
    1/2 (Python rounds an exact tie to even), is formatted by Python: +-0,
    negatives, NaN, +-inf, subnormals and values below 1e-4 or from 999.9 up.
    Raises ValueError as `_export_values`, before the file is written.
    """
    values = _export_values(matrix)
    frames, channels = values.shape
    step = max(1, _CSV_CHUNK_VALUES // max(channels, 1))
    header = "frame" + "".join(f",c{c}" for c in range(channels))
    chunks = (_csv_rows(values[t:t + step], t) for t in range(0, frames, step))
    _atomic_write(path, itertools.chain([header], chunks))


# per decade X = -4..2 of a value on `_csv_rows`' fast path, 10^(8-X) and
# 10^(X+4), and the decade edges; and the most values a chunk of rows holds
# (51 rows of 80 channels trace 0.5 MiB)
_CSV_SCALE = np.array([1e12, 1e11, 1e10, 1e9, 1e8, 1e7, 1e6])
_CSV_SHIFT = 10 ** np.arange(7, dtype=np.int64)
_CSV_EDGES = np.array([1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
_CSV_TIE_BAND = 2.0 ** -20
_CSV_CHUNK_VALUES = 1 << 12


def _ascii_digits(n: np.ndarray, width: int) -> np.ndarray:
    """The last `width` digits of each integer of n as ASCII, one row each,
    leading zeros NUL but the units digit."""
    p = 10 ** np.arange(width - 1, -1, -1)
    return np.where((n[:, None] >= p) | (p == 1), n[:, None] // p % 10 + 48, 0).astype(np.uint8)


@lru_cache(maxsize=None)
def _csv_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of each 4-digit fraction word, then of each without its
    trailing zeros, and of each integer part 0..999, then of each with its
    point, NUL padded to 4 bytes read as one uint32; read-only, built on the
    first export, as it takes 2 ms."""
    word, p = np.arange(10000)[:, None], 10 ** np.arange(3, -1, -1)
    digits = word // p % 10 + 48
    words = np.concatenate([digits, np.where(word % (10 * p), digits, 0)]).astype(np.uint8)
    heads = np.pad(_ascii_digits(np.arange(1000), 3), ((0, 0), (0, 1)))
    heads = np.concatenate([heads, heads | [0, 0, 0, ord(".")]]).astype(np.uint8)
    tables = words.view(np.uint32).ravel(), heads.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _csv_rows(values: np.ndarray, first: int) -> bytes:
    """The CSV lines of float32 rows `values`, the first numbered `first`;
    see `write_yingram_csv` for the digits. Each field gets 16 bytes, and its
    separator 4: a value's integer part and point, then three fraction
    words. Every byte %.9g omits (a trailing zero, a bare point, padding) is
    NUL, and one translate drops them all."""
    rows, channels = values.shape
    flat = values.ravel()
    with np.errstate(invalid="ignore"):  # casting a signalling NaN warns
        v = flat.astype(np.float64)
    slow = ~((v >= 1e-4) & (v < 999.9))
    v[slow] = 1.0
    x = np.searchsorted(_CSV_EDGES, v, side="right")  # X + 4
    q = v * _CSV_SCALE[x]
    d = np.floor(q)
    q -= d
    slow |= np.abs(q - 0.5) < _CSV_TIE_BAND
    d += q > 0.5
    fixed = d.astype(np.int64) * _CSV_SHIFT[x]  # the value times 10^12
    words, heads = _csv_tables()
    cells = np.empty((rows, channels + 1, 5), dtype=np.uint32)
    value_cells = cells[:, 1:, :4]
    zeros = np.ones(flat.size, dtype=bool)  # the words after this one are all 0
    for k in (3, 2, 1):
        rest = fixed // 10**4
        word = fixed - rest * 10**4
        value_cells[..., k] = words.take(word + 10000 * zeros).reshape(rows, channels)
        zeros &= word == 0
        fixed = rest
    value_cells[..., 0] = heads.take(fixed + 1000 * ~zeros).reshape(rows, channels)
    if slow.any():
        text = np.array(["%.9g" % u for u in flat[slow].tolist()], dtype="S16")
        value_cells[slow.reshape(rows, channels)] = text.view(np.uint32).reshape(-1, 4)
    width = len(str(first + rows - 1))
    index = cells[:, 0, :4].view(np.uint8)
    index[:, :width], index[:, width:] = _ascii_digits(np.arange(first, first + rows), width), 0
    cells[..., 4] = ord(",")
    cells[:, -1, 4] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def write_yingram_binary(matrix: YingramMatrix, path, extra: dict | None = None) -> None:
    """Raw little-endian float32 row-major matrix, plus its `_sidecar` JSON at
    path + ".json"; a bad matrix (`_export_values`) or `extra` raises before
    either file is written."""
    values = _export_values(matrix)
    sidecar = _sidecar(matrix, extra)
    _atomic_write(path, np.ascontiguousarray(values, dtype="<f4"))
    _write_json(str(path) + ".json", sidecar)


def _export_values(matrix: YingramMatrix) -> np.ndarray:
    """The matrix's values as the float32 array both writers export, or
    ValueError for complex values (`_require_real_dtype`) or values that are
    not frames x channels."""
    _require_real_dtype(matrix.values, "Yingram values")
    values = np.asarray(matrix.values)
    if values.ndim != 2:
        raise ValueError(f"Yingram values must be frames x channels, got shape {values.shape}")
    return values.astype(np.float32, copy=False)


def _sidecar(matrix: YingramMatrix, extra: dict | None = None) -> dict:
    """The one builder of an export's JSON sidecar: the matrix's shape, timing
    and grid, then `extra` (say, the config). An `extra` key that is also a
    metadata key raises ValueError: the sidecar would contradict the file it
    describes."""
    metadata = {
        "frames": int(matrix.num_frames),
        "channels": int(matrix.num_channels),
        "hop": int(matrix.hop),
        "sample_rate": int(matrix.sample_rate),
        "dtype": "float32_le",
        "layout": "row_major_frames_x_channels",
        "grid": asdict(matrix.grid),
    }
    clash = sorted(metadata.keys() & (extra or {}).keys())
    if clash:
        raise ValueError(f"sidecar extra keys {clash} would overwrite the matrix metadata")
    return {**metadata, **(extra or {})}


def _record(report) -> dict:
    """A report's JSON record: its fields, `passed` named `pass`, a NaN float as None."""
    return {"pass" if k == "passed" else k: None if isinstance(v, float) and v != v else v
            for k, v in asdict(report).items()}


def _write_json(path, payload: dict) -> None:
    """Pretty, key-sorted JSON with a trailing newline, written atomically to
    `path`, or the same text printed to stdout when `path` is empty or None.
    A NaN or infinite float raises ValueError: the JSON never holds one."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if not path:
        print(text)
    else:
        _atomic_write(path, [text])


def _atomic_write(path, data: bytes | np.ndarray | Iterable[str | bytes]) -> None:
    """Stream a bytes-like buffer, or an iterable of text lines, each encoded
    as UTF-8 and ended by "\n", and of bytes chunks, each written as it is,
    to a temp file beside `path`, then rename it into place, so a reader never
    sees a partial file; the temp file is removed when the write fails, and
    an OSError that names it alone names `path` instead. A str raises
    TypeError: it would iterate as one-character lines. An empty path raises
    ValueError."""
    if isinstance(data, str):
        raise TypeError("_atomic_write takes a buffer or an iterable of lines, not a str")
    if not os.fspath(path):
        raise ValueError("empty output path")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            if isinstance(data, (bytes, bytearray, memoryview, np.ndarray)):
                fh.buffer.write(data)
            else:
                for item in data:
                    if isinstance(item, bytes):  # after the text before it
                        fh.flush()
                        fh.buffer.write(item)
                    else:
                        fh.write(f"{item}\n")
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp) and exc.filename2 is None:
            exc.filename = str(path)
        raise
