"""Yingram computation: CMND sampled at note-grid lags, plus file export.

A Yingram frame holds one CMND value per grid channel, obtained by linear
interpolation between the integer lags bracketing each note's fractional
period. Low values mark strong periodicity at that note.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import Frame, Waveform, frame_count
from .config import AnalysisConfig
from .grid import DEFAULT_GRID, NoteGrid, channel_lags, tau_max_for
from .yin import CmndCurve, cmnd, cmnd_blocks, difference_function

__all__ = [
    "YingramMatrix",
    "yingram_rows",
    "yingram_frame",
    "yingram_from_frame",
    "compute_yingram",
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


def yingram_rows(values: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Sample CMND values, one curve per row (or a single 1-D curve), at the
    fractional lags of the grid channels.

    Y[ch] = d'(floor(tau)) + (d'(ceil(tau)) - d'(floor(tau))) * frac(tau)
    with tau = lags[ch]. Integer lags reproduce the curve value exactly.
    """
    ceils = np.ceil(lags).astype(int)
    tau_max = values.shape[-1] - 1
    if tau_max < ceils.max():
        raise ValueError(
            f"lag out of range: curve covers tau <= {tau_max}, grid needs {ceils.max()}"
        )
    floors = np.floor(lags).astype(int)
    frac = lags - floors
    return values[..., floors] * (1.0 - frac) + values[..., ceils] * frac


def yingram_frame(c: CmndCurve, grid: NoteGrid = DEFAULT_GRID) -> np.ndarray:
    """Sample a CMND curve at every grid channel's fractional lag (the
    one-curve case of `yingram_rows`, with the lags of note start_note + ch).
    """
    return yingram_rows(c.values, channel_lags(grid, c.sample_rate))


def yingram_from_frame(
    frame: Frame | np.ndarray,
    grid: NoteGrid,
    sample_rate: int,
    window: int,
    method: str = "fft",
) -> np.ndarray:
    """One frame end to end: difference function, CMND, grid sampling.

    Runs in float64; compute_yingram handles storage precision.
    """
    tau_max = tau_max_for(grid, sample_rate)
    d = difference_function(frame, tau_max, window, method=method)
    return yingram_frame(cmnd(d, sample_rate), grid)


def compute_yingram(w: Waveform, config: AnalysisConfig | None = None) -> YingramMatrix:
    """Yingram of a whole waveform under the given analysis config.

    The waveform is framed at window + tau_max samples every hop; each frame
    contributes one row, read from the clip's CMND blocks (`cmnd_blocks`).
    Values are stored as float32 (internal math is float64).
    """
    cfg = config or AnalysisConfig()
    blocks = cmnd_blocks(w, cfg)
    grid = cfg.grid
    lags = channel_lags(grid, cfg.sample_rate)
    n = frame_count(len(w.samples), cfg.frame_length, cfg.hop)
    rows = np.empty((n, grid.num_channels), dtype=np.float32)
    padded = np.empty(n, dtype=bool)
    for block in blocks:
        rows[block.rows] = yingram_rows(block.values, lags)
        padded[block.rows] = block.padded
    return YingramMatrix(rows, grid, cfg.hop, cfg.sample_rate, padded)


def write_yingram_csv(matrix: YingramMatrix, path) -> None:
    """CSV export: header frame,c0..c{N-1}, one row per frame."""
    n = matrix.num_channels
    header = "frame," + ",".join(f"c{c}" for c in range(n))
    lines = [header]
    for t, row in enumerate(matrix.values):
        lines.append(f"{t}," + ",".join(repr(float(v)) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


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
    _atomic_write(path, np.ascontiguousarray(matrix.values, dtype="<f4").tobytes())
    _write_json(str(path) + ".json", {**yingram_metadata(matrix), **(extra or {})})


def _write_json(path, payload: dict) -> None:
    """Pretty, key-sorted JSON with a trailing newline, written atomically."""
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _atomic_write(path, data: str | bytes) -> None:
    """Write text or bytes to a temp file beside `path`, then rename it into
    place, so a reader never sees a partial file. The temp file is removed
    when the write fails."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
