"""Note grid, lag conversion and crop/shift arithmetic."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from yingram import (
    NoteGrid,
    Scope,
    channel_lags,
    crop_scope,
    note_to_hz,
    note_to_lag,
    shift_to_semitones,
    tau_max_for,
)


def test_reference_note_exact():
    assert note_to_hz(69) == 440.0


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


def test_tau_max_default_grid():
    assert tau_max_for(NoteGrid(), 22050) == 426


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
