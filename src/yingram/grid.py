"""24-TET note grid, lag conversion and scope crop/shift arithmetic.

The grid anchors note 69 at 440 Hz with 24 notes per octave and spans 80
channels from note -5 to 74 (51.9 to 508.4 Hz). The scope is the 50-channel
window starting at channel 15 + s for an integer shift s in [-15, 15];
shifting the scope by s corresponds to -s/2 semitones of output pitch.
"""
from __future__ import annotations

import numbers
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, inf, nan

import numpy as np

__all__ = [
    "NoteGrid",
    "Scope",
    "DEFAULT_GRID",
    "SCOPE_LENGTH",
    "SCOPE_START",
    "MAX_SHIFT",
    "MAX_FRAME_LENGTH",
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

# Longest lag of a grid's lowest note, and longest analysis frame (window +
# tau_max) a config may ask for. Clip analysis (`feature._analyse`) holds the
# span of BLOCK_FRAMES frames and the spectra of its segments at once, each
# segment at most one frame long, so this bounds its working set; common
# configs need under 3000 samples.
MAX_FRAME_LENGTH = 1 << 16


def _integer(value) -> int | None:
    """The integer test: value as int if it is an Integral other than a bool, else None."""
    return int(value) if isinstance(value, numbers.Integral) and type(value) is not bool else None


def _real(value) -> float | None:
    """The real-number test: value as a finite float if it is a Real (not a bool), else None."""
    if isinstance(value, numbers.Real) and type(value) is not bool:
        with suppress(OverflowError):  # an int past the float range
            if -inf < (stored := float(value)) < inf:  # a long double may round to inf
                return stored
    return None


def _require_int(value, name: str, least: float = -inf) -> int:
    """value as int if `_integer` holds it and it is at least `least`, else
    ValueError: the rule of sample rates, frame and hop lengths, lags, counts and seeds."""
    if (stored := _integer(value)) is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if stored < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return stored


def _require_positive(value, name: str) -> float:
    """value as float if `_real` holds it and it is above zero, else
    ValueError: the rule of step sizes, time scales and reference_hz."""
    if (stored := _real(value)) is None or not stored > 0:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return stored


def _require_real(**values) -> None:
    """ValueError naming the first of `values` that `_real` rejects: the rule
    of f0 thresholds and of the generators' real parameters."""
    for name, value in values.items():
        if _real(value) is None:
            raise ValueError(f"{name} must be a finite real, got {value!r}")


def _require_real_dtype(values, name: str) -> None:
    """ValueError for complex values: the real-sample rule of samples, CMND
    curves, cotangents and loss matrices, read before any float64 cast, which
    would drop the imaginary part with only numpy's ComplexWarning. An
    object array is read value by value: a complex value in it would
    otherwise escape as a TypeError from the cast or from np.isfinite."""
    values = np.asarray(values)
    if np.iscomplexobj(values) or values.dtype == object and any(
        isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real) for v in values.flat
    ):
        raise ValueError(f"{name} must be real, got dtype {values.dtype}")


def _require_float_int(value, name: str) -> int:
    """value as int if it is an integer of at least 1 that a float holds, else
    ValueError: the rule of sample rates and hops, which lags, frequencies and
    times are computed from in floats."""
    stored = _require_int(value, name, 1)
    if _real(stored) is None:
        raise ValueError(f"{name}={value} is beyond the float range")
    return stored


@dataclass(frozen=True)
class NoteGrid:
    """Channel c holds note start_note + c. Raises ValueError unless the notes
    are integers, bins_per_octave and num_channels at least 1, and reference_hz finite and > 0."""

    start_note: int = -5
    num_channels: int = 80
    bins_per_octave: int = 24
    reference_note: int = 69
    reference_hz: float = 440.0

    def __post_init__(self):
        for name, least in (("start_note", -inf), ("reference_note", -inf),
                            ("bins_per_octave", 1), ("num_channels", 1)):
            object.__setattr__(self, name, _require_int(getattr(self, name), name, least))
        object.__setattr__(self, "reference_hz", _require_positive(self.reference_hz, "reference_hz"))

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

    def __post_init__(self):
        s = self.shift
        if _integer(s) is None or abs(s) > MAX_SHIFT:
            raise ValueError(
                f"shift out of range: s={s!r}, must be an integer in [-{MAX_SHIFT}, {MAX_SHIFT}]"
            )
        object.__setattr__(self, "shift", int(s))

    @property
    def start_channel(self) -> int:
        return SCOPE_START + self.shift

    @property
    def stop_channel(self) -> int:
        return self.start_channel + SCOPE_LENGTH


def note_to_hz(note: int | float, grid: NoteGrid = DEFAULT_GRID) -> float:
    """Equal-temperament frequency of a note index.

    The octave part is factored out as an exact power of two, so
    note_to_hz(m + bins_per_octave) == 2 * note_to_hz(m) holds to the last
    bit and the reference note maps to reference_hz exactly. Raises
    ValueError for a note whose frequency is not finite and positive in a
    float (a note `_real` rejects, or one too far from the reference).
    """
    hz = nan
    if _real(note) is not None:
        octave, rem = divmod(note - grid.reference_note, grid.bins_per_octave)
        try:
            hz = grid.reference_hz * (2.0 ** octave) * (2.0 ** (rem / grid.bins_per_octave))
        except OverflowError:
            hz = inf
    if not 0 < hz < inf:
        raise ValueError(f"note {note!r} has no finite positive frequency on {grid}, got {hz} Hz")
    return hz


def note_to_lag(note: int | float, sample_rate: int, grid: NoteGrid = DEFAULT_GRID) -> float:
    """Fractional lag in samples of a note's period; strictly decreasing in note.

    Raises:
        ValueError: for the rates `_require_float_int` rejects, and for the notes
            `note_to_hz` rejects.
    """
    return _require_float_int(sample_rate, "sample_rate") / note_to_hz(note, grid)


def _require_grid(grid) -> NoteGrid:
    """grid if it is a NoteGrid, else ValueError: the rule of every grid argument."""
    if not isinstance(grid, NoteGrid):
        raise ValueError(f"grid must be a NoteGrid, got {type(grid).__name__}")
    return grid


def channel_lags(grid: NoteGrid, sample_rate: int) -> np.ndarray:
    """Read-only table of the `note_to_lag` of each grid note, channel c holding
    note start_note + c, cached per (grid, rate). Raises ValueError, on every call, for a grid
    that is not a NoteGrid, a rate `_require_float_int` rejects, and "does not hold" for a
    grid with a note at or above Nyquist or a lowest lag above MAX_FRAME_LENGTH."""
    return _lag_table(_require_grid(grid), _require_float_int(sample_rate, "sample_rate"))


@lru_cache
def _lag_table(grid: NoteGrid, sample_rate: int) -> np.ndarray:
    """The span rule, then the table: every grid note must lie at a lag of at
    most MAX_FRAME_LENGTH samples (the lowest sets tau_max) and below Nyquist.
    A pair that fails raises, and `lru_cache` stores no exception."""
    low_hz = top_hz = nan  # a note without a finite positive frequency is out of range
    with suppress(ValueError):
        low_hz = note_to_hz(grid.start_note, grid)
        top_hz = note_to_hz(grid.notes[-1], grid)
    if not (sample_rate / MAX_FRAME_LENGTH <= low_hz and top_hz < sample_rate / 2):
        raise ValueError(
            f"sample_rate={sample_rate!r} does not hold {grid}: its notes span {low_hz:.6g}.."
            f"{top_hz:.6g} Hz, which must lie at or above {sample_rate / MAX_FRAME_LENGTH:.6g} Hz "
            f"(a lag of at most {MAX_FRAME_LENGTH} samples) and below Nyquist ({sample_rate / 2} Hz)"
        )
    lags = np.array([note_to_lag(m, sample_rate, grid) for m in grid.notes])
    lags.flags.writeable = False
    return lags


def tau_max_for(grid: NoteGrid, sample_rate: int) -> int:
    """Largest lag the analysis needs: the lowest note's interpolation
    ceiling plus one (426 for the default grid at 22050 Hz, at most
    MAX_FRAME_LENGTH + 1); raises for the rates and grids `channel_lags` rejects."""
    return ceil(channel_lags(grid, sample_rate)[0]) + 1


def _matrix_values(matrix, dtype=None) -> np.ndarray:
    return np.asarray(getattr(matrix, "values", matrix), dtype=dtype)


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
    semitone on the 24-bin octave); raises for a shift `Scope` rejects."""
    return -Scope(s).shift / 2.0
