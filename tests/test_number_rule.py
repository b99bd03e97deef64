"""One number rule at every public numeric parameter.

A parameter that takes a real reads `grid._real` (a real other than a bool
that a float holds finitely); one that takes an integer reads
`grid._integer`. A value either test rejects raises ValueError naming the
parameter, with no numpy warning first. No case passes a huge valid count:
`gradcheck_suite(10**400)` would loop for good.
"""
import dataclasses
import math
import re
import time
import warnings
from contextlib import suppress

import numpy as np
import pytest

from yingram import (
    AnalysisConfig,
    DEFAULT_GRID,
    Frame,
    NoteGrid,
    PitchContour,
    Scope,
    Waveform,
    channel_lags,
    crop_scope,
    difference_function,
    evaluate_shift_pair,
    finite_diff_check,
    gradcheck_suite,
    harmonic_tone,
    median_semitone_offset,
    note_to_hz,
    note_to_lag,
    pitch_shifted_copy,
    random_tonal_frame,
    resample,
    shift_consistency_metric,
    shift_to_semitones,
    sine_tone,
    tau_max_for,
    vibrato_tone,
    yingram_from_frame,
    yingram_vjp,
)
from yingram.audio import frame_count, frame_signal
from yingram.config import f0_lag_range
from yingram.feature import yingram_frame
from yingram.losses import decoding_loss, recon_loss
from yingram.yin import cmnd, estimate_f0, f0_rows, parabolic_refine, pick_lags

BAD_REALS = {"bool": True, "str": "2", "nan": math.nan, "inf": math.inf,
             "int-past-float": 10**400, "complex": 1j,
             "long-double-past-float": np.longdouble("1e400")}  # inf where it is a double
BAD_INTEGERS = {"bool": True, "str": "2", "fraction": 2.5, "nan": math.nan}

SR = 22050
TAU_MAX = tau_max_for(DEFAULT_GRID, SR)
CURVE = np.ones(TAU_MAX + 1)
ROWS = CURVE[None]
MATRIX = np.zeros((2, DEFAULT_GRID.num_channels))
CLIP = Waveform(np.zeros(64), SR)
CONTOUR = PitchContour(np.zeros(2), np.full(2, 200.0), np.zeros(2), 256, SR)
SAMPLES = random_tonal_frame(np.random.default_rng(0), 2048 + TAU_MAX)
FRAME = Frame(SAMPLES, 0, SR)
COTANGENT = np.ones(DEFAULT_GRID.num_channels)
F0_BAND = {"f_min": 52.0, "f_max": 508.0}


def _fields(cls, kind: str) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type == kind]


def _config_field(name):
    return lambda v: AnalysisConfig(**{name: v})


def _grid_field(name):
    return lambda v: NoteGrid(**{name: v})


def _f0_calls(prefix, call, names):
    """The f0-band parameters `names` of a (threshold, voicing_cutoff,
    f_min, f_max)-taking call, each called with the others at their defaults."""
    base = {"threshold": 0.1, "voicing_cutoff": 0.25, **F0_BAND}
    return {f"{prefix}.{name}": (lambda name: lambda v: call(**{**base, name: v}))(name)
            for name in names}


# "function.parameter" -> a call that passes the value there, every other argument valid
REAL_PARAMETERS = {
    "NoteGrid.reference_hz": _grid_field("reference_hz"),
    **{f"AnalysisConfig.{name}": _config_field(name) for name in _fields(AnalysisConfig, "float")},
    "note_to_hz.note": lambda v: note_to_hz(v),
    "note_to_lag.note": lambda v: note_to_lag(v, SR),
    "f0_lag_range.f_min": lambda v: f0_lag_range(SR, v, 508.0, TAU_MAX),
    "f0_lag_range.f_max": lambda v: f0_lag_range(SR, 52.0, v, TAU_MAX),
    **_f0_calls("pick_lags", lambda threshold, voicing_cutoff, f_min, f_max:
                pick_lags(ROWS, SR, threshold, f_min, f_max),
                ["threshold", "f_min", "f_max"]),
    **_f0_calls("f0_rows", lambda threshold, voicing_cutoff, f_min, f_max:
                f0_rows(ROWS, SR, threshold, f_min, f_max, voicing_cutoff),
                ["threshold", "voicing_cutoff", "f_min", "f_max"]),
    **_f0_calls("estimate_f0", lambda **kw: estimate_f0(CURVE, SR, **kw),
                ["threshold", "voicing_cutoff", "f_min", "f_max"]),
    "median_semitone_offset.time_scale": lambda v: median_semitone_offset(CONTOUR, CONTOUR, v),
    "finite_diff_check.eps": lambda v: finite_diff_check(FRAME, eps=v),
    "finite_diff_check.tolerance": lambda v: finite_diff_check(FRAME, tolerance=v),
    "gradcheck_suite.eps": lambda v: gradcheck_suite(0, eps=v),
    "gradcheck_suite.tolerance": lambda v: gradcheck_suite(0, tolerance=v),
    "sine_tone.freq": lambda v: sine_tone(v, 0.01),
    "sine_tone.duration": lambda v: sine_tone(220.0, v),
    "sine_tone.amplitude": lambda v: sine_tone(220.0, 0.01, amplitude=v),
    "sine_tone.phase": lambda v: sine_tone(220.0, 0.01, phase=v),
    "harmonic_tone.f0": lambda v: harmonic_tone(v, 0.01),
    "harmonic_tone.duration": lambda v: harmonic_tone(220.0, v),
    "harmonic_tone.amplitude": lambda v: harmonic_tone(220.0, 0.01, amplitude=v),
    "vibrato_tone.f0": lambda v: vibrato_tone(v, 0.01),
    "vibrato_tone.duration": lambda v: vibrato_tone(220.0, v),
    "vibrato_tone.depth_semitones": lambda v: vibrato_tone(220.0, 0.01, depth_semitones=v),
    "vibrato_tone.rate_hz": lambda v: vibrato_tone(220.0, 0.01, rate_hz=v),
    "vibrato_tone.amplitude": lambda v: vibrato_tone(220.0, 0.01, amplitude=v),
    "pitch_shifted_copy.semitones": lambda v: pitch_shifted_copy(CLIP, v),
    "random_tonal_frame.noise": lambda v: random_tonal_frame(np.random.default_rng(0), 8, SR, v),
}

INTEGER_PARAMETERS = {
    **{f"NoteGrid.{name}": _grid_field(name) for name in _fields(NoteGrid, "int")},
    **{f"AnalysisConfig.{name}": _config_field(name) for name in _fields(AnalysisConfig, "int")},
    "Scope.shift": lambda v: Scope(v),
    "crop_scope.s": lambda v: crop_scope(MATRIX, v),
    "shift_to_semitones.s": lambda v: shift_to_semitones(v),
    "shift_consistency_metric.s": lambda v: shift_consistency_metric(MATRIX, MATRIX, v),
    "evaluate_shift_pair.s": lambda v: evaluate_shift_pair(CLIP, CLIP, v),
    "note_to_lag.sample_rate": lambda v: note_to_lag(69, v),
    "channel_lags.sample_rate": lambda v: channel_lags(DEFAULT_GRID, v),
    "tau_max_for.sample_rate": lambda v: tau_max_for(DEFAULT_GRID, v),
    "f0_lag_range.sample_rate": lambda v: f0_lag_range(v, 52.0, 508.0, TAU_MAX),
    "f0_lag_range.tau_max": lambda v: f0_lag_range(SR, 52.0, 508.0, v),
    "pick_lags.sample_rate": lambda v: pick_lags(ROWS, v, 0.1, **F0_BAND),
    "f0_rows.sample_rate": lambda v: f0_rows(ROWS, v, 0.1, 52.0, 508.0, 0.25),
    "estimate_f0.sample_rate": lambda v: estimate_f0(CURVE, v),
    "parabolic_refine.tau": lambda v: parabolic_refine(CURVE, v),
    "difference_function.tau_max": lambda v: difference_function(SAMPLES, v),
    "difference_function.window": lambda v: difference_function(SAMPLES, TAU_MAX, v),
    "yingram_frame.sample_rate": lambda v: yingram_frame(CURVE, v),
    "yingram_from_frame.sample_rate": lambda v: yingram_from_frame(SAMPLES, DEFAULT_GRID, v, 2048),
    "yingram_from_frame.window": lambda v: yingram_from_frame(SAMPLES, DEFAULT_GRID, SR, v),
    "Waveform.sample_rate": lambda v: Waveform(np.zeros(4), v),
    "Frame.start_index": lambda v: Frame(np.zeros(4), v, SR),
    "Frame.sample_rate": lambda v: Frame(np.zeros(4), 0, v),
    "resample.target_sr": lambda v: resample(CLIP, v),
    "frame_signal.frame_len": lambda v: frame_signal(CLIP, v, 16),
    "frame_signal.hop": lambda v: frame_signal(CLIP, 16, v),
    "frame_count.num_samples": lambda v: frame_count(v, 16, 4),
    "yingram_vjp.window": lambda v: yingram_vjp(FRAME, DEFAULT_GRID, COTANGENT, v),
    "finite_diff_check.probes": lambda v: finite_diff_check(FRAME, probes=v),
    "finite_diff_check.seed": lambda v: finite_diff_check(FRAME, seed=v),
    "finite_diff_check.window": lambda v: finite_diff_check(FRAME, window=v),
    "gradcheck_suite.n_frames": lambda v: gradcheck_suite(v),
    "gradcheck_suite.probes": lambda v: gradcheck_suite(0, probes=v),
    "sine_tone.sample_rate": lambda v: sine_tone(220.0, 0.01, v),
    "harmonic_tone.sample_rate": lambda v: harmonic_tone(220.0, 0.01, v),
    "harmonic_tone.n_harmonics": lambda v: harmonic_tone(220.0, 0.01, n_harmonics=v),
    "harmonic_tone.seed": lambda v: harmonic_tone(220.0, 0.01, seed=v),
    "vibrato_tone.sample_rate": lambda v: vibrato_tone(220.0, 0.01, v),
    "random_tonal_frame.frame_len": lambda v: random_tonal_frame(np.random.default_rng(0), v),
    "random_tonal_frame.sample_rate": lambda v: random_tonal_frame(np.random.default_rng(0), 8, v),
}

CASES = [
    pytest.param(call, value, parameter.split(".")[1], id=f"{parameter}-{label}")
    for parameters, bad in ((REAL_PARAMETERS, BAD_REALS), (INTEGER_PARAMETERS, BAD_INTEGERS))
    for parameter, call in parameters.items()
    for label, value in bad.items()
]


@pytest.mark.parametrize("call, value, name", CASES)
def test_a_value_the_number_rule_rejects_raises_naming_its_parameter(call, value, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(name)) as caught:
            call(value)
    if isinstance(value, str):
        # by its repr: the positive, duration, note and f0-band rules once said "got 2"
        assert repr(value) in str(caught.value)


@pytest.mark.parametrize("parameter, value", [
    ("sine_tone.freq", 220.0), ("note_to_hz.note", 69), ("note_to_lag.sample_rate", SR),
    ("estimate_f0.threshold", 0.1), ("f0_rows.voicing_cutoff", 0.25), ("Frame.start_index", 3),
    ("f0_lag_range.tau_max", TAU_MAX), ("harmonic_tone.seed", 7), ("random_tonal_frame.noise", 0.0),
    ("random_tonal_frame.sample_rate", SR), ("finite_diff_check.seed", 5),
])
def test_a_sweep_call_fails_on_its_value_only(parameter, value):
    {**REAL_PARAMETERS, **INTEGER_PARAMETERS}[parameter](value)


def test_the_sweep_runs_in_under_two_seconds():
    start = time.perf_counter()
    for case in CASES:
        call, value, _ = case.values
        with warnings.catch_warnings(), suppress(ValueError):
            warnings.simplefilter("ignore")
            call(value)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("parameter", [
    "note_to_lag.sample_rate", "channel_lags.sample_rate", "tau_max_for.sample_rate",
    "yingram_frame.sample_rate", "estimate_f0.sample_rate", "f0_lag_range.sample_rate",
    "random_tonal_frame.sample_rate",
])
def test_an_integer_rate_past_the_float_range_is_named(parameter):
    # once an OverflowError from the rate's int-to-float conversion
    with pytest.raises(ValueError, match=f"^sample_rate={10**400} is beyond the float range$"):
        INTEGER_PARAMETERS[parameter](10**400)


SCOPE = np.zeros((2, 50))

# how complex values reach an entry point: in a complex dtype, or as Python
# complex numbers in an object array (once a TypeError from a float cast or
# from np.isfinite); a complex64 request keeps its dtype in the first form
COMPLEX_FORMS = {
    "complex": lambda a, dtype=complex: a.astype(dtype),
    "object": lambda a, dtype=complex: a.astype(dtype).astype(object),
}

# entry point -> (a call that passes complex values, in a form given as c,
# there, the name the message gives); every value is real, held as complex
COMPLEX_ENTRY_POINTS = {
    "Waveform": (lambda c: Waveform(c(SAMPLES), SR), "samples"),
    "Frame": (lambda c: Frame(c(SAMPLES), 0, SR), "samples"),
    "Frame of a list": (lambda c: Frame(list(c(SAMPLES)), 0, SR), "samples"),
    "difference_function": (lambda c: difference_function(c(SAMPLES), TAU_MAX), "samples"),
    "difference_function of a stack": (lambda c: difference_function(c(SAMPLES)[None], TAU_MAX),
                                       "samples"),
    "cmnd": (lambda c: cmnd(c(CURVE, np.complex64)), "difference values"),
    "yingram_from_frame": (lambda c: yingram_from_frame(c(SAMPLES), DEFAULT_GRID, SR, 2048),
                           "samples"),
    "yingram_vjp.cotangent": (lambda c: yingram_vjp(FRAME, DEFAULT_GRID, c(COTANGENT)),
                              "cotangent"),
    "finite_diff_check.cotangent": (lambda c: finite_diff_check(FRAME, cotangent=c(COTANGENT)),
                                    "cotangent"),
    "decoding_loss": (lambda c: decoding_loss(SCOPE, c(SCOPE)), "prediction"),
    "recon_loss": (lambda c: recon_loss(SCOPE, SCOPE, c(SCOPE), SCOPE), "synth_default"),
    "shift_consistency_metric": (lambda c: shift_consistency_metric(c(MATRIX), MATRIX, 0),
                                 "y_normal"),
}


@pytest.mark.filterwarnings("error")  # numpy's ComplexWarning would raise first
@pytest.mark.parametrize("form", sorted(COMPLEX_FORMS))
@pytest.mark.parametrize("entry", sorted(COMPLEX_ENTRY_POINTS))
def test_complex_values_raise_at_the_boundary(entry, form):
    # a float64 cast once dropped the imaginary part with only a ComplexWarning,
    # and resample returned a complex Waveform
    call, name = COMPLEX_ENTRY_POINTS[entry]
    # a list of Python complex numbers reads as complex128
    dtype = "complex(64|128)" if form == "complex" or entry == "Frame of a list" else "object"
    with pytest.raises(ValueError, match=rf"^{name} must be real, got dtype {dtype}$"):
        call(COMPLEX_FORMS[form])
