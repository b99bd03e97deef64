"""Note grid, lag conversion and crop/shift arithmetic."""
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from yingram import (
    DEFAULT_GRID,
    AnalysisConfig,
    Frame,
    NoteGrid,
    Scope,
    channel_lags,
    crop_scope,
    finite_diff_check,
    note_to_hz,
    note_to_lag,
    shift_to_semitones,
    tau_max_for,
    yingram_from_frame,
    yingram_vjp,
)
from yingram import config as config_module
from yingram.config import f0_lag_range
from yingram.feature import yingram_frame
from yingram.grid import _lag_table
from yingram.yin import pick_lags


def test_reference_note_exact():
    assert note_to_hz(69) == 440.0
    assert note_to_hz(69, NoteGrid(reference_hz=1e300)) == 1e300


def test_octave_below_reference_exact():
    assert note_to_hz(45) == 220.0


def test_top_note():
    # oracle: direct formula evaluation
    assert note_to_hz(74) == pytest.approx(440.0 * 2.0 ** (5 / 24), rel=1e-15)
    assert 508.3 <= note_to_hz(74) <= 508.4


def test_bottom_note():
    assert note_to_hz(-5) == pytest.approx(440.0 * 2.0 ** (-74 / 24), rel=1e-15)
    assert note_to_hz(-5) == pytest.approx(51.913087, abs=1e-5)


@given(st.integers(min_value=-5, max_value=50))
def test_octave_doubling_is_exact(m):
    assert note_to_hz(m + 24) == 2.0 * note_to_hz(m)


@pytest.mark.parametrize("call, note, hz", [
    (lambda: note_to_hz(10**6), "1000000", "inf"),  # once an OverflowError
    (lambda: note_to_hz(-10**6), "-1000000", "0.0"),
    (lambda: note_to_hz(math.nan), "nan", "nan"),  # once returned NaN
    (lambda: note_to_hz(math.inf), "inf", "nan"),
    (lambda: note_to_hz(24 * 60, NoteGrid(reference_hz=1e300)), "1440", "inf"),  # the product overflows
    (lambda: note_to_lag(-10**6, 22050), "-1000000", "0.0"),  # once a ZeroDivisionError
], ids=["overflows", "underflows", "nan", "inf", "product-overflows", "lag-of-0-hz"])
def test_notes_read_the_frequency_rule(call, note, hz):
    with pytest.raises(ValueError, match=rf"^note {re.escape(note)} has no finite positive "
                                         rf"frequency on NoteGrid\(.*\), got {re.escape(hz)} Hz$"):
        call()


def test_frequency_strictly_increasing():
    freqs = [note_to_hz(m) for m in range(-5, 75)]
    assert all(b > a for a, b in zip(freqs, freqs[1:]))


def test_lag_values():
    assert note_to_lag(69, 22050) == pytest.approx(22050 / 440, rel=1e-15)
    assert note_to_lag(69, 22050) == pytest.approx(50.113636, abs=1e-5)
    assert note_to_lag(45, 22050) == pytest.approx(100.227273, abs=1e-5)
    # formula value; cross-check f(-5) = 51.913 Hz
    assert note_to_lag(-5, 22050) == pytest.approx(22050 / note_to_hz(-5), rel=1e-15)
    assert note_to_lag(-5, 22050) == pytest.approx(424.748386, abs=1e-5)


def test_lag_strictly_decreasing():
    lags = channel_lags(NoteGrid(), 22050)
    assert np.all(np.diff(lags) < 0)


def test_lag_requires_positive_rate():
    with pytest.raises(ValueError):
        note_to_lag(69, 0)


RATE_RULE_CALLS = {
    "note_to_lag": lambda sr: note_to_lag(69, sr),
    "channel_lags": lambda sr: channel_lags(NoteGrid(), sr),
    "tau_max_for": lambda sr: tau_max_for(NoteGrid(), sr),
}


@pytest.mark.parametrize("rate, message", [
    (math.nan, "sample_rate must be an integer, got nan"),  # once a nan lag
    (True, "sample_rate must be an integer, got True"),  # once a lag of 0.0023
    (22050.5, "sample_rate must be an integer, got 22050.5"),
    (0, "sample_rate must be at least 1, got 0"),
    (-22050, "sample_rate must be at least 1, got -22050"),
])
@pytest.mark.parametrize("call", RATE_RULE_CALLS.values(), ids=RATE_RULE_CALLS.keys())
def test_lags_read_the_integer_rate_rule(call, rate, message):
    with pytest.raises(ValueError, match=message):
        call(rate)


@pytest.mark.parametrize("rate", [8000, 22050, 44100, np.int64(48000)])
def test_channel_lags_equal_note_to_lag_bit_for_bit(rate):
    grid = NoteGrid()
    expected = [note_to_lag(m, rate, grid) for m in grid.notes]
    assert channel_lags(grid, rate).tolist() == expected


def test_tau_max_default_grid():
    assert tau_max_for(NoteGrid(), 22050) == 426


def test_channel_lags_table_is_read_only():
    lags = channel_lags(NoteGrid(), 22050)
    with pytest.raises(ValueError, match="read-only"):
        lags[0] = 1.0
    assert channel_lags(NoteGrid(), 22050)[0] == note_to_lag(-5, 22050)


@pytest.mark.parametrize("rate", [22050.0, True, math.nan])
def test_cached_lags_still_read_the_rate_rule(rate):
    # 22050.0 == 22050 and True == 1 as cache keys: a cache hit must not skip the rule
    channel_lags(NoteGrid(), 22050)
    with pytest.raises(ValueError, match="sample_rate must be an integer"):
        channel_lags(NoteGrid(), rate)


def _table_builds_and_hits() -> tuple[int, int]:
    info = _lag_table.cache_info()
    return info.misses, info.hits


def test_the_lag_table_is_built_once_per_grid_and_rate():
    grid = NoteGrid(reference_hz=437.5)  # a grid no other test looks up
    builds, hits = _table_builds_and_hits()
    first = channel_lags(grid, 22050)
    assert _table_builds_and_hits() == (builds + 1, hits)
    assert channel_lags(grid, np.int64(22050)) is first
    assert _table_builds_and_hits() == (builds + 1, hits + 1)
    channel_lags(grid, 44100)
    assert _table_builds_and_hits() == (builds + 2, hits + 1)


def test_a_pair_the_span_rule_rejects_raises_on_every_call():
    # the span rule runs inside the cached table, and a cache stores no exception
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^sample_rate=22050 does not hold NoteGrid\(") as exc:
            channel_lags(NoteGrid(start_note=200), 22050)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


# 36 grids x 9 rates; six of the pairs fail the span rule
SWEEP_GRIDS = [
    NoteGrid(start_note=note, bins_per_octave=bins, reference_hz=hz)
    for note in (-40, -5, 0, 30) for bins in (12, 24, 36) for hz in (415.3, 440.0, 466.2)
]
SWEEP_RATES = (8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000, 96000)


def test_tau_max_is_the_lowest_lag_formula():
    held = 0
    for grid, rate in itertools.product(SWEEP_GRIDS, SWEEP_RATES):
        try:
            tau_max = tau_max_for(grid, rate)
        except ValueError as exc:
            assert "does not hold" in str(exc)
            continue
        assert tau_max == math.ceil(rate / note_to_hz(grid.start_note, grid)) + 1
        held += 1
    assert held > 100


@pytest.mark.parametrize("fields, message", [
    # a negative reference once read the Yingram through wrapped negative indices
    ({"reference_hz": -440.0}, "reference_hz must be finite and positive, got -440.0"),
    ({"reference_hz": 0.0}, "reference_hz must be finite and positive, got 0.0"),
    ({"reference_hz": math.nan}, "reference_hz must be finite and positive, got nan"),
    ({"reference_hz": math.inf}, "reference_hz must be finite and positive, got inf"),
    ({"reference_hz": True}, "reference_hz must be finite and positive, got True"),
    ({"reference_hz": "440"}, "reference_hz must be finite and positive, got '440'"),  # once "got 440"
    ({"bins_per_octave": 0}, "bins_per_octave must be at least 1, got 0"),  # ZeroDivisionError
    ({"bins_per_octave": True}, "bins_per_octave must be an integer, got True"),
    ({"bins_per_octave": 2.5}, "bins_per_octave must be an integer, got 2.5"),
    ({"num_channels": 0}, "num_channels must be at least 1, got 0"),
    ({"start_note": 2.5}, "start_note must be an integer, got 2.5"),  # once a TypeError
])
def test_note_grid_reads_the_field_rules(fields, message):
    with pytest.raises(ValueError, match=message):
        NoteGrid(**fields)


def test_note_grid_stores_plain_numbers():
    grid = NoteGrid(np.int64(-5), np.int32(80), np.int64(24), np.int16(69), np.float32(440.0))
    assert grid == DEFAULT_GRID
    assert [type(v) for v in dataclasses.astuple(grid)] == [int, int, int, int, float]
    assert type(NoteGrid(reference_hz=440).reference_hz) is float


def _tonal_frame():
    t = np.arange(2048 + 426) / 22050
    return np.sin(2 * np.pi * 220.0 * t) + 0.3 * np.sin(2 * np.pi * 660.0 * t)


# every reader of a grid's lags, called at 22050 Hz on a 2474-sample frame
LAG_READERS = {
    "channel_lags": lambda grid: channel_lags(grid, 22050),
    "tau_max_for": lambda grid: tau_max_for(grid, 22050),
    "yingram_frame": lambda grid: yingram_frame(np.linspace(1.0, 0.0, 427), 22050, grid),
    "yingram_from_frame": lambda grid: yingram_from_frame(_tonal_frame(), grid, 22050, 2048),
    "yingram_vjp": lambda grid: yingram_vjp(Frame(_tonal_frame(), 0, 22050), grid, np.ones(80)),
    "finite_diff_check": lambda grid: finite_diff_check(Frame(_tonal_frame(), 0, 22050), grid),
}


@pytest.mark.parametrize("grid", [
    NoteGrid(start_note=200),  # once silently sampled lags under 2
    NoteGrid(reference_note=-100000),  # once an OverflowError
    NoteGrid(start_note=-100000),  # notes at 0 Hz
    NoteGrid(reference_hz=1e-300),  # once a 305-digit lag in "lag out of range"
    NoteGrid(reference_hz=1e-3),  # a lowest lag of 186,889,289 samples
], ids=["above-nyquist", "overflows", "underflows", "lag-near-1e304", "lag-beyond-frame-limit"])
@pytest.mark.parametrize("read", LAG_READERS.values(), ids=LAG_READERS.keys())
def test_lag_readers_read_the_span_rule(read, grid):
    with pytest.raises(ValueError, match=r"sample_rate=22050 does not hold NoteGrid\("):
        read(grid)


@pytest.mark.parametrize("read", [LAG_READERS["yingram_frame"], LAG_READERS["yingram_vjp"]],
                         ids=["yingram_frame", "yingram_vjp"])
def test_a_huge_finite_lag_raises_without_a_cast_warning(read):
    # reference_hz=1e-300 has lags near 1e304; their cast to int once raised
    # "RuntimeWarning: invalid value encountered in cast", and then a message
    # with a 305-digit lag. The span rule now bounds the lag of the lowest note.
    with pytest.raises(ValueError, match=r"a lag of at most 65536 samples"):
        read(NoteGrid(reference_hz=1e-300))


@pytest.mark.parametrize("overrides", [
    {"sample_rate": 1000}, {"reference_note": -100000}, {"start_note": -100000},
])
def test_config_reads_the_span_rule_of_the_grid(overrides):
    grid_fields = {k: v for k, v in overrides.items() if k != "sample_rate"}
    with pytest.raises(ValueError) as span:
        tau_max_for(NoteGrid(**grid_fields), overrides.get("sample_rate", 22050))
    with pytest.raises(ValueError) as config:
        AnalysisConfig(**overrides)
    assert str(config.value) == f"invalid config: {span.value}"


@pytest.mark.parametrize("overrides", [
    {"f_min": 600.0, "f_max": 500.0}, {"f_max": 15000.0}, {"f_min": 10.0, "f_max": 20.0},
])
def test_config_reads_the_f0_band_rule(overrides):
    band = {"f_min": 52.0, "f_max": 508.0, **overrides}
    with pytest.raises(ValueError) as rule:
        f0_lag_range(22050, band["f_min"], band["f_max"], 426)
    with pytest.raises(ValueError) as picked:
        pick_lags(np.ones((1, 427)), 22050, 0.1, band["f_min"], band["f_max"])
    with pytest.raises(ValueError) as config:
        AnalysisConfig(**overrides)
    assert str(picked.value) == str(rule.value)
    assert str(config.value) == f"invalid config: {rule.value}"


def test_config_resolves_its_grid_once(monkeypatch):
    calls = []

    def counting(grid, sample_rate):
        calls.append(sample_rate)
        return tau_max_for(grid, sample_rate)

    monkeypatch.setattr(config_module, "tau_max_for", counting)
    cfg = AnalysisConfig()
    assert cfg.grid is cfg.grid
    assert len(calls) == 1
    assert (cfg.tau_max, cfg.frame_length, cfg.tau_max) == (426, 2474, 426)
    assert len(calls) == 1
    assert cfg.replace(hop=128).tau_max == 426
    assert len(calls) == 2


def test_scope_arithmetic():
    assert Scope(0).start_channel == 15
    assert Scope(8).start_channel == 23
    assert Scope(-15).start_channel == 0
    assert Scope(15).stop_channel == 80
    with pytest.raises(ValueError, match="shift out of range"):
        Scope(16)


@pytest.mark.parametrize("s", [2.9, True, "2", 2.0, np.bool_(True)])
def test_scope_rejects_non_integer_shifts(rng, s):
    # once truncated (2.9 -> 2) or taken as 1 (True) instead of rejected
    with pytest.raises(ValueError, match="shift out of range"):
        Scope(s)
    with pytest.raises(ValueError, match="shift out of range"):
        crop_scope(rng.standard_normal((3, 80)), s)


def test_scope_stores_numpy_integers_as_int():
    scope = Scope(np.int64(-3))
    assert type(scope.shift) is int and scope.shift == -3
    assert scope.start_channel == 12


def test_crop_default_scope_selects_middle(rng):
    y = rng.standard_normal((7, 80))
    assert np.array_equal(crop_scope(y, 0), y[:, 15:65])
    assert np.array_equal(crop_scope(y, 8), y[:, 23:73])


def test_crop_row_identity_all_shifts(rng):
    y = rng.standard_normal((11, 80))
    for s in range(-15, 16):
        cropped = crop_scope(y, s)
        assert cropped.shape == (11, 50)
        for c in range(50):
            assert np.array_equal(cropped[:, c], y[:, 15 + s + c])


@pytest.mark.parametrize("shape", [(3, 79), (80,)])
def test_crop_rejects_a_matrix_without_the_scope(shape):
    with pytest.raises(ValueError, match=re.escape(
        f"dimension error: expected (frames, >= 80) matrix, got {shape}"
    )):
        crop_scope(np.zeros(shape), 15)


def test_crop_shift_out_of_range(rng):
    y = rng.standard_normal((3, 80))
    with pytest.raises(ValueError, match="shift out of range"):
        crop_scope(y, 16)
    with pytest.raises(ValueError, match="shift out of range"):
        crop_scope(y, -16)


@pytest.mark.parametrize(
    "s,semitones",
    [(8, -4.0), (6, -3.0), (4, -2.0), (2, -1.0), (0, 0.0),
     (-2, 1.0), (-4, 2.0), (-6, 3.0), (-8, 4.0)],
)
def test_shift_to_semitones_table(s, semitones):
    assert shift_to_semitones(s) == semitones
