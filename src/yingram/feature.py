"""Yingram computation: CMND sampled at note-grid lags, plus file export.

A Yingram frame holds one CMND value per grid channel, obtained by linear
interpolation between the integer lags bracketing each note's fractional
period. Low values mark strong periodicity at that note. One pass over a
clip's CMND blocks (`_analyse`) yields its Yingram and its pitch contour.
"""
from __future__ import annotations

import itertools
import json
import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import Frame, Waveform, frame_count
from .config import AnalysisConfig
from .grid import DEFAULT_GRID, NoteGrid, channel_lags, tau_max_for
from .yin import cmnd, cmnd_blocks, difference_function, f0_rows

__all__ = [
    "YingramMatrix",
    "PitchContour",
    "yingram_rows",
    "yingram_frame",
    "yingram_from_frame",
    "compute_yingram",
    "extract_pitch_contour",
    "yingram_metadata",
    "write_yingram_csv",
    "write_yingram_binary",
]


@dataclass
class YingramMatrix:
    """frames x channels feature matrix on a note grid.

    values[t][c] is the interpolated CMND of frame t at the lag of note
    start_note + c. `padded` flags frames that ran past end-of-signal.
    """

    values: np.ndarray
    grid: NoteGrid
    hop: int
    sample_rate: int
    padded: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.padded is None:
            self.padded = np.zeros(len(self.values), dtype=bool)

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
    """
    floors, ceils, frac = _lag_brackets(lags, values.shape[-1] - 1)
    return values[..., floors] * (1.0 - frac) + values[..., ceils] * frac


def _lag_brackets(lags: np.ndarray, tau_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(floors, ceils, frac) of fractional lags; raises if a ceiling passes tau_max."""
    ceils = np.ceil(lags).astype(int)
    if tau_max < ceils.max():
        raise ValueError(
            f"lag out of range: curve covers tau <= {tau_max}, grid needs {ceils.max()}"
        )
    floors = np.floor(lags).astype(int)
    return floors, ceils, lags - floors


def yingram_frame(
    values: np.ndarray, sample_rate: int, grid: NoteGrid = DEFAULT_GRID
) -> np.ndarray:
    """Sample the CMND curve of a frame at sample_rate at every grid
    channel's fractional lag (the one-curve case of `yingram_rows`, with the
    lags of note start_note + ch).
    """
    return yingram_rows(values, channel_lags(grid, sample_rate))


def yingram_from_frame(
    frame: Frame | np.ndarray,
    grid: NoteGrid,
    sample_rate: int,
    window: int,
    method: str = "fft",
) -> np.ndarray:
    """One frame end to end: difference function, CMND, grid sampling.

    Runs in float64; compute_yingram handles storage precision. A frame
    whose difference values overflow float64 raises ValueError (`cmnd`).
    """
    tau_max = tau_max_for(grid, sample_rate)
    d = difference_function(frame, tau_max, window, method=method)
    return yingram_frame(cmnd(d), sample_rate, grid)


def _analyse(w: Waveform, cfg: AnalysisConfig) -> tuple[YingramMatrix, PitchContour]:
    """The Yingram and the pitch contour of one clip, from a single pass over
    its CMND blocks: the one reader of `cmnd_blocks` outside `yin`.

    Every frame gets a Yingram row; padded frames are flagged and stay
    unvoiced (f0 NaN, aperiodicity 1), the others get the f0 of `f0_rows`.
    """
    blocks = cmnd_blocks(w, cfg)
    lags = channel_lags(cfg.grid, cfg.sample_rate)
    n = frame_count(len(w.samples), cfg.frame_length, cfg.hop)
    rows = np.empty((n, cfg.grid.num_channels), dtype=np.float32)
    padded = np.empty(n, dtype=bool)
    f0, aperiodicity = np.full(n, np.nan), np.ones(n)
    for block in blocks:
        rows[block.rows] = yingram_rows(block.values, lags)
        padded[block.rows] = block.padded
        kept = block.unpadded  # frames start, start + 1, ...
        frames = slice(block.start, block.start + len(kept))
        f0[frames], aperiodicity[frames] = f0_rows(
            kept, cfg.sample_rate, cfg.f0_threshold, cfg.f_min, cfg.f_max, cfg.voicing_cutoff
        )
    times = np.arange(n) * (cfg.hop / cfg.sample_rate)
    matrix = YingramMatrix(rows, cfg.grid, cfg.hop, cfg.sample_rate, padded)
    return matrix, PitchContour(times, f0, aperiodicity, cfg.hop, cfg.sample_rate)


def compute_yingram(w: Waveform, config: AnalysisConfig | None = None) -> YingramMatrix:
    """Yingram of a whole waveform under the given analysis config (`_analyse`).

    The waveform is framed at window + tau_max samples every hop; each frame
    contributes one row. Values are stored as float32 (internal math is float64).
    """
    return _analyse(w, config or AnalysisConfig())[0]


def extract_pitch_contour(w: Waveform, config: AnalysisConfig | None = None) -> PitchContour:
    """Frame-wise f0 over a waveform (`_analyse`): padded tail frames are
    unvoiced, the others follow the CMND threshold rule with parabolic
    refinement (`f0_rows`); aperiodicity is the CMND at the chosen integer lag."""
    return _analyse(w, config or AnalysisConfig())[1]


def write_yingram_csv(matrix: YingramMatrix, path) -> None:
    """CSV export: header frame,c0..c{N-1}, then one row per frame, streamed."""
    header = "frame," + ",".join(f"c{c}" for c in range(matrix.num_channels))
    # one row at a time: a whole-matrix tolist() holds 32 bytes per value
    rows = (f"{t}," + ",".join(map(repr, row.tolist())) for t, row in enumerate(matrix.values))
    _atomic_write(path, itertools.chain([header], rows))


def yingram_metadata(matrix: YingramMatrix) -> dict:
    """Sidecar contents: shape, timing and grid parameters."""
    return {
        "frames": int(matrix.num_frames),
        "channels": int(matrix.num_channels),
        "hop": int(matrix.hop),
        "sample_rate": int(matrix.sample_rate),
        "dtype": "float32_le",
        "layout": "row_major_frames_x_channels",
        "grid": {
            "start_note": matrix.grid.start_note,
            "num_channels": matrix.grid.num_channels,
            "bins_per_octave": matrix.grid.bins_per_octave,
            "reference_note": matrix.grid.reference_note,
            "reference_hz": matrix.grid.reference_hz,
        },
    }


def write_yingram_binary(matrix: YingramMatrix, path, extra: dict | None = None) -> None:
    """Raw little-endian float32 row-major matrix plus a JSON sidecar at
    path + ".json" describing its shape, timing and grid. `extra` entries
    (e.g. the resolved analysis config) are merged into the sidecar."""
    _atomic_write(path, np.ascontiguousarray(matrix.values, dtype="<f4"))
    _write_json(str(path) + ".json", {**yingram_metadata(matrix), **(extra or {})})


def _write_json(path, payload: dict) -> None:
    """Pretty, key-sorted JSON with a trailing newline, written atomically."""
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _atomic_write(path, data: bytes | np.ndarray | Iterable[str]) -> None:
    """Stream a bytes-like buffer, or text lines each ended by a newline, to a
    temp file beside `path`, then rename it into place, so a reader never
    sees a partial file; the temp file is removed when the write fails. A
    str raises TypeError: it would iterate as one-character lines."""
    if isinstance(data, str):
        raise TypeError("_atomic_write takes a buffer or an iterable of lines, not a str")
    binary = isinstance(data, (bytes, bytearray, memoryview, np.ndarray))
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb" if binary else "w") as fh:
            if binary:
                fh.write(data)
            else:
                fh.writelines(f"{line}\n" for line in data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
