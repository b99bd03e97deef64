"""Yingram pitch analysis: YIN/CMND kernels, note-grid features, scope-shift
arithmetic, differentiable feature gradients, losses and a pitch-shift
evaluation harness."""

from .audio import Frame, WavFormatError, Waveform, frame_signal, load_wav, resample
from .config import AnalysisConfig, load_config_file
from .evaluate import (
    BatchReport,
    PitchContour,
    ShiftReport,
    batch_report,
    evaluate_shift_pair,
    extract_pitch_contour,
    median_semitone_offset,
)
from .feature import (
    YingramMatrix,
    compute_yingram,
    write_yingram_binary,
    write_yingram_csv,
    yingram_frame,
    yingram_from_frame,
)
from .gradients import GradReport, finite_diff_check, gradcheck_suite, yingram_vjp
from .grid import (
    DEFAULT_GRID,
    NoteGrid,
    Scope,
    channel_lags,
    crop_scope,
    note_to_hz,
    note_to_lag,
    shift_to_semitones,
    tau_max_for,
)
from .losses import decoding_loss, recon_loss, shift_consistency_metric
from .synth import (
    harmonic_tone,
    pitch_shifted_copy,
    random_tonal_frame,
    sine_tone,
    vibrato_tone,
)
from .yin import cmnd, difference_function, estimate_f0, parabolic_refine

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "BatchReport",
    "DEFAULT_GRID",
    "Frame",
    "GradReport",
    "NoteGrid",
    "PitchContour",
    "Scope",
    "ShiftReport",
    "WavFormatError",
    "Waveform",
    "YingramMatrix",
    "batch_report",
    "channel_lags",
    "cmnd",
    "compute_yingram",
    "crop_scope",
    "decoding_loss",
    "difference_function",
    "estimate_f0",
    "evaluate_shift_pair",
    "extract_pitch_contour",
    "finite_diff_check",
    "frame_signal",
    "gradcheck_suite",
    "harmonic_tone",
    "load_config_file",
    "load_wav",
    "median_semitone_offset",
    "note_to_hz",
    "note_to_lag",
    "parabolic_refine",
    "pitch_shifted_copy",
    "random_tonal_frame",
    "recon_loss",
    "resample",
    "shift_consistency_metric",
    "shift_to_semitones",
    "sine_tone",
    "tau_max_for",
    "vibrato_tone",
    "write_yingram_binary",
    "write_yingram_csv",
    "yingram_frame",
    "yingram_from_frame",
    "yingram_vjp",
]
