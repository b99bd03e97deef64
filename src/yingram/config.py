"""Shared analysis configuration: the package-wide defaults and the one place
a configuration is checked.

Grid defaults live in `NoteGrid`; every other default lives here, and the
functions that take the same values as raw arguments read their defaults
from this class.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

from .grid import MAX_SHIFT, SCOPE_LENGTH, SCOPE_START, NoteGrid, note_to_hz, tau_max_for

__all__ = [
    "AnalysisConfig",
    "MAX_FRAME_LENGTH",
    "coerce_field",
    "f0_bounds_valid",
    "f0_lag_range",
    "load_config_file",
    "read_config_file",
]


def f0_bounds_valid(sample_rate: int, f_min: float, f_max: float) -> bool:
    """The f0 search band rule: 0 < f_min < f_max <= sample_rate / 2."""
    return 0.0 < f_min < f_max <= sample_rate / 2


def f0_lag_range(sample_rate: int, f_min: float, f_max: float, tau_max: int) -> tuple[int, int]:
    """Integer lags (lo, hi) the f0 search covers: [sr/f_max, sr/f_min],
    kept inside [1, tau_max - 1] so every lag has two neighbors. The range
    is empty when lo > hi."""
    lo = max(1, math.floor(sample_rate / f_max))
    hi = min(tau_max - 1, math.ceil(sample_rate / f_min))
    return lo, hi


# Longest analysis frame (window + tau_max) a config may ask for. Clip
# analysis holds BLOCK_FRAMES frames and their spectra at once, so this
# bounds its working set; common configs need under 3000 samples.
MAX_FRAME_LENGTH = 1 << 16


def _require_int(value, name: str, least: int) -> int:
    """value as int if it is an integer (numpy integers count, bools do not) of
    at least `least`, else ValueError: the rule of sample rates and gradcheck counts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _invalid(name: str, value, rule: str) -> ValueError:
    return ValueError(f"invalid config: {name}={value!r} {rule}")


def _note_hz(note: int, grid: NoteGrid) -> float:
    try:
        return note_to_hz(note, grid)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class AnalysisConfig:
    """Every tunable of the analysis pipeline; reports echo the resolved
    values so results stay reproducible.

    Construction validates the values (`ValueError` "invalid config: ..."
    naming the field and its value): sample_rate, window, hop and
    bins_per_octave are positive, seed is non-negative, every float is
    finite, reference_hz is positive, the grid lies between 0 Hz and
    Nyquist and holds every scope shift, a frame (window + tau_max) is at
    most MAX_FRAME_LENGTH samples, 0 < f_min < f_max <= sr/2, the f0
    lag range is not empty, lambda_yin is positive, and f0_threshold,
    shift_tolerance and min_overlap (at most 1) are non-negative.
    """

    sample_rate: int = 22050
    window: int = 2048
    hop: int = 256
    start_note: int = NoteGrid.start_note
    num_channels: int = NoteGrid.num_channels
    bins_per_octave: int = NoteGrid.bins_per_octave
    reference_note: int = NoteGrid.reference_note
    reference_hz: float = NoteGrid.reference_hz
    lambda_yin: float = 45.0
    f0_threshold: float = 0.1
    voicing_cutoff: float = 0.25
    f_min: float = 52.0
    f_max: float = 508.0
    shift_tolerance: float = 0.5  # semitones
    min_overlap: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise _invalid(f.name, value, "must be an integer")
            elif isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise _invalid(f.name, value, "must be a number")
            elif not math.isfinite(value):
                raise _invalid(f.name, value, "must be finite")
        for name in ("sample_rate", "window", "hop", "bins_per_octave", "reference_hz", "lambda_yin"):
            if getattr(self, name) <= 0:
                raise _invalid(name, getattr(self, name), "must be positive")
        for name in ("seed", "f0_threshold", "voicing_cutoff", "shift_tolerance"):
            if getattr(self, name) < 0:
                raise _invalid(name, getattr(self, name), "must not be negative")
        if not 0.0 <= self.min_overlap <= 1.0:
            raise _invalid("min_overlap", self.min_overlap, "must lie in [0, 1]")
        scope_channels = SCOPE_START + MAX_SHIFT + SCOPE_LENGTH
        if self.num_channels < scope_channels:
            raise _invalid(
                "num_channels", self.num_channels,
                f"must be at least {scope_channels} to hold every scope shift",
            )
        grid = self.grid
        top = grid.start_note + grid.num_channels - 1
        low_hz, top_hz = _note_hz(grid.start_note, grid), _note_hz(top, grid)
        # the lowest note sets tau_max, so its lag must be a finite number
        if not (
            low_hz > 0.0
            and math.isfinite(self.sample_rate / low_hz)
            and top_hz < self.sample_rate / 2
        ):
            raise _invalid(
                "sample_rate", self.sample_rate,
                f"does not hold {grid}: its notes span {low_hz:.6g}..{top_hz:.6g} Hz, "
                f"which must lie above 0 Hz and below Nyquist ({self.sample_rate / 2} Hz)",
            )
        if self.frame_length > MAX_FRAME_LENGTH:
            raise _invalid(
                "window", self.window,
                f"plus tau_max={self.tau_max} (the lag of the lowest note of {grid}) "
                f"makes a frame of {self.frame_length} samples, above {MAX_FRAME_LENGTH}",
            )
        if not f0_bounds_valid(self.sample_rate, self.f_min, self.f_max):
            raise _invalid(
                "f_min", self.f_min,
                f"and f_max={self.f_max!r} must satisfy 0 < f_min < f_max <= "
                f"sample_rate/2 = {self.sample_rate / 2}",
            )
        lo, hi = f0_lag_range(self.sample_rate, self.f_min, self.f_max, self.tau_max)
        if lo > hi:
            raise _invalid(
                "f_max", self.f_max,
                f"leaves the f0 lag range [{lo}, {hi}] empty (f_min={self.f_min!r}, "
                f"tau_max={self.tau_max})",
            )

    @property
    def grid(self) -> NoteGrid:
        return NoteGrid(
            start_note=self.start_note,
            num_channels=self.num_channels,
            bins_per_octave=self.bins_per_octave,
            reference_note=self.reference_note,
            reference_hz=self.reference_hz,
        )

    @property
    def tau_max(self) -> int:
        return tau_max_for(self.grid, self.sample_rate)

    @property
    def frame_length(self) -> int:
        return self.window + self.tau_max

    def replace(self, **overrides) -> "AnalysisConfig":
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_TYPES = {
    f.name: int if f.type == "int" else float for f in dataclasses.fields(AnalysisConfig)
}


def coerce_field(name: str, value):
    """A config-file or command-line value as the type of field `name`.

    Strings are parsed; an integral float becomes an int for an int field,
    and an int becomes a float for a float field. A value that does not
    convert without loss (a bool, a fractional hop, a list, an unparsable
    string) is returned as is, for `AnalysisConfig` to reject by name.

    Raises:
        ValueError: for an unknown key.
    """
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ValueError(f"unknown config key: {name}")
    if isinstance(value, str):
        try:
            return kind(value)
        except ValueError:
            return value
    if isinstance(value, bool):
        return value
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if kind is float and isinstance(value, int):
        return float(value)
    return value


def read_config_file(path: str | Path) -> dict:
    """The field values of a config file, either JSON or key=value lines,
    coerced by `coerce_field` but not yet validated as a whole.

    Unknown keys are rejected so typos fail loudly.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        items = json.loads(text).items()
    else:
        items = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {lineno}: {line!r}")
            key, _, value = line.partition("=")
            items.append((key.strip(), value))
    return {key: coerce_field(key, value) for key, value in items}


def load_config_file(path: str | Path, base: AnalysisConfig | None = None) -> AnalysisConfig:
    """Read a config file, either JSON or key=value lines, over `base`."""
    return (base or AnalysisConfig()).replace(**read_config_file(path))
