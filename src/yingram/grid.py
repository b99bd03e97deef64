"""24-TET note grid, lag conversion and scope crop/shift arithmetic.

The grid anchors note 69 at 440 Hz with 24 notes per octave and spans 80
channels from note -5 to 74 (51.9 to 508.4 Hz). The scope is the 50-channel
window starting at channel 15 + s for an integer shift s in [-15, 15];
shifting the scope by s corresponds to -s/2 semitones of output pitch.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import ceil

import numpy as np

__all__ = [
    "NoteGrid",
    "Scope",
    "DEFAULT_GRID",
    "SCOPE_LENGTH",
    "SCOPE_START",
    "MAX_SHIFT",
    "note_to_hz",
    "note_to_lag",
    "channel_lags",
    "tau_max_for",
    "crop_scope",
    "shift_to_semitones",
]

SCOPE_LENGTH = 50
SCOPE_START = 15  # 0-indexed first channel of the unshifted scope
MAX_SHIFT = 15


@dataclass(frozen=True)
class NoteGrid:
    start_note: int = -5
    num_channels: int = 80
    bins_per_octave: int = 24
    reference_note: int = 69
    reference_hz: float = 440.0

    @property
    def notes(self) -> range:
        return range(self.start_note, self.start_note + self.num_channels)


DEFAULT_GRID = NoteGrid()


@dataclass(frozen=True)
class Scope:
    """A 50-channel window into the 80-channel axis at shift s: the one
    rule for a shift. s is a Python or numpy integer (stored as int); a bool,
    float or string raises, so 2.9 is never truncated to 2."""

    shift: int
    length: int = SCOPE_LENGTH

    def __post_init__(self):
        s = self.shift
        if isinstance(s, bool) or not isinstance(s, numbers.Integral) or abs(s) > MAX_SHIFT:
            raise ValueError(
                f"shift out of range: s={s!r}, must be an integer in [-{MAX_SHIFT}, {MAX_SHIFT}]"
            )
        object.__setattr__(self, "shift", int(s))

    @property
    def start_channel(self) -> int:
        return SCOPE_START + self.shift

    @property
    def stop_channel(self) -> int:
        return self.start_channel + self.length


def note_to_hz(note: int | float, grid: NoteGrid = DEFAULT_GRID) -> float:
    """Equal-temperament frequency of a note index.

    The octave part is factored out as an exact power of two, so
    note_to_hz(m + bins_per_octave) == 2 * note_to_hz(m) holds to the last
    bit and the reference note maps to reference_hz exactly.
    """
    octave, rem = divmod(note - grid.reference_note, grid.bins_per_octave)
    return grid.reference_hz * (2.0 ** octave) * (2.0 ** (rem / grid.bins_per_octave))


def note_to_lag(note: int | float, sample_rate: int, grid: NoteGrid = DEFAULT_GRID) -> float:
    """Fractional lag in samples of a note's period; strictly decreasing in note."""
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    return sample_rate / note_to_hz(note, grid)


def channel_lags(grid: NoteGrid, sample_rate: int) -> np.ndarray:
    """Per-channel fractional lags, channel c holding note start_note + c."""
    return np.array(
        [note_to_lag(m, sample_rate, grid) for m in grid.notes], dtype=np.float64
    )


def tau_max_for(grid: NoteGrid, sample_rate: int) -> int:
    """Largest lag the analysis needs: the lowest note's interpolation
    ceiling plus one (426 for the default grid at 22050 Hz)."""
    return ceil(note_to_lag(grid.start_note, sample_rate, grid)) + 1


def _matrix_values(matrix) -> np.ndarray:
    values = getattr(matrix, "values", matrix)
    return np.asarray(values)


def crop_scope(matrix, s: int) -> np.ndarray:
    """Crop a (frames x 80) Yingram to the 50 scope channels at shift s.

    Row c of the output equals channel 15 + s + c of the input (0-indexed),
    i.e. the unshifted scope covers channels 15..64.
    """
    scope = Scope(s)
    values = _matrix_values(matrix)
    if values.ndim != 2 or values.shape[1] < scope.stop_channel:
        raise ValueError(
            f"dimension error: expected (frames, >= {scope.stop_channel}) matrix, "
            f"got {values.shape}"
        )
    return values[:, scope.start_channel : scope.stop_channel]


def shift_to_semitones(s: int) -> float:
    """Pitch shift produced by scope shift s: -s/2 semitones (2 bins per
    semitone on the 24-bin octave)."""
    return -s / 2.0
