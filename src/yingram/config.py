"""Shared analysis configuration: the package-wide defaults and the one place
a configuration is checked.

Grid defaults live in `NoteGrid`; every other default lives here, and the
functions that take the same values as raw arguments read their defaults
from this class.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .grid import MAX_FRAME_LENGTH, MAX_SHIFT, NoteGrid, Scope, tau_max_for
from .grid import _integer, _real, _require_float_int, _require_int

__all__ = [
    "AnalysisConfig",
    "coerce_field",
    "f0_lag_range",
    "load_config_file",
    "read_config_file",
]


def f0_lag_range(sample_rate: int, f_min: float, f_max: float, tau_max: int) -> tuple[int, int]:
    """Integer lags (lo, hi) the f0 search covers: [sr/f_max, sr/f_min],
    kept inside [1, tau_max - 1] so every lag has two neighbors: the one
    f0-band rule. Raises ValueError for a rate `_require_float_int` rejects or a
    tau_max that is not an integer, and "invalid f0 bounds: ..." unless f_min
    and f_max are reals `_real` holds, 0 < f_min < f_max <= sample_rate / 2
    and the range is not empty (lo <= hi)."""
    sample_rate = _require_float_int(sample_rate, "sample_rate")
    low, high = _real(f_min), _real(f_max)
    if low is None or high is None or not 0.0 < low < high <= sample_rate / 2:
        raise ValueError(
            f"invalid f0 bounds: need 0 < f_min < f_max <= sr/2, got f_min={f_min!r}, "
            f"f_max={f_max!r} at {sample_rate} Hz"
        )
    lo = max(1, math.floor(sample_rate / high))
    hi = min(_require_int(tau_max, "tau_max") - 1, math.ceil(sample_rate / low))
    if lo > hi:
        raise ValueError(
            f"invalid f0 bounds: lag range [{lo}, {hi}] is empty for "
            f"f_min={f_min}, f_max={f_max} at {sample_rate} Hz"
        )
    return lo, hi


def _invalid(name: str, value, rule: str) -> ValueError:
    return ValueError(f"invalid config: {name}={value!r} {rule}")


@dataclass(frozen=True)
class AnalysisConfig:
    """Every tunable of the analysis pipeline; reports echo the resolved
    values so results stay reproducible.

    Construction validates the values (`ValueError` "invalid config: ..."
    naming the field and its value) and stores them as plain int and float,
    so a config built from numpy scalars writes the same reports and sidecars:
    sample_rate, window, hop and bins_per_octave are positive, seed is
    non-negative, every float is finite, reference_hz is positive, the grid
    holds every scope shift, a frame (window + tau_max) is at most
    MAX_FRAME_LENGTH samples, lambda_yin is positive, and f0_threshold,
    shift_tolerance and min_overlap (at most 1) are non-negative. The rule
    that a float holds the hop and the rate (`_require_float_int`), the grid's
    span rule (`tau_max_for`) and the f0-band rule (`f0_lag_range`) are read
    from their homes, their messages prefixed with "invalid config: ".
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
            stored = _integer(value) if f.type == "int" else _real(value)
            if stored is None:
                rule = "must be an integer" if f.type == "int" else "must be a finite number"
                raise _invalid(f.name, value, rule)
            object.__setattr__(self, f.name, stored)
        for name in ("sample_rate", "window", "hop", "bins_per_octave", "reference_hz", "lambda_yin"):
            if getattr(self, name) <= 0:
                raise _invalid(name, getattr(self, name), "must be positive")
        for name in ("seed", "f0_threshold", "voicing_cutoff", "shift_tolerance"):
            if getattr(self, name) < 0:
                raise _invalid(name, getattr(self, name), "must not be negative")
        if not 0.0 <= self.min_overlap <= 1.0:
            raise _invalid("min_overlap", self.min_overlap, "must lie in [0, 1]")
        scope_channels = Scope(MAX_SHIFT).stop_channel
        if self.num_channels < scope_channels:
            raise _invalid(
                "num_channels", self.num_channels,
                f"must be at least {scope_channels} to hold every scope shift",
            )
        try:  # the hop rule, the grid's span rule and the f0-band rule, read from their homes
            _require_float_int(self.hop, "hop")
            f0_lag_range(self.sample_rate, self.f_min, self.f_max, self.tau_max)
        except ValueError as exc:
            raise ValueError(f"invalid config: {exc}") from None
        if self.frame_length > MAX_FRAME_LENGTH:
            raise _invalid(
                "window", self.window,
                f"plus tau_max={self.tau_max} (the lag of the lowest note of {self.grid}) "
                f"makes a frame of {self.frame_length} samples, above {MAX_FRAME_LENGTH}",
            )

    # resolved once, after __post_init__ has normalised the fields they read
    @functools.cached_property
    def grid(self) -> NoteGrid:
        return NoteGrid(**{f.name: getattr(self, f.name) for f in dataclasses.fields(NoteGrid)})

    @functools.cached_property
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
    """A config-file or command-line value parsed for field `name`.

    Strings are parsed as the field's type, and an integral float becomes an
    int for an int field. Any other value is returned as is, for
    `AnalysisConfig` to store (an int in a float field becomes a float) or to
    reject by name (a bool, a fractional hop, a list, an unparsable string).

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
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def read_config_file(path: str | Path) -> dict:
    """The field values of a config file, either JSON or key=value lines,
    parsed by `coerce_field` (a float field may hold an int) but not yet validated.

    Unknown keys are rejected so typos fail loudly. The file is read as
    UTF-8, whatever the locale, after a byte-order mark if it has one.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
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


def load_config_file(path: str | Path) -> AnalysisConfig:
    """Read a config file, either JSON or key=value lines, over the defaults."""
    return AnalysisConfig(**read_config_file(path))
