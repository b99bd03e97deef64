"""Yingram-based scalar objectives.

Three closely related L1 reductions: a plain decoding loss on cropped
matrices, a negative-exponential reconstruction loss, and the
shift-consistency metric that scores how well pitch-shifted audio realizes a
scope shift. The e^-Y transform maps the CMND dips (periodicity evidence)
toward 1 and the flat regions toward e^-1..0, so differences at the dips
dominate the L1 mean. Means run over all entries, which keeps the default
weight comparable across clip lengths.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import AnalysisConfig
from .grid import _matrix_values, _require_positive, crop_scope

__all__ = [
    "LossConfig",
    "decoding_loss",
    "recon_loss",
    "shift_consistency_metric",
]


@dataclass(frozen=True)
class LossConfig:
    lambda_yin: float = AnalysisConfig.lambda_yin

    def __post_init__(self):
        _require_positive(self.lambda_yin, "lambda_yin")


def _require_same_shape(*arrays: np.ndarray) -> None:
    """One shape for all arrays, with at least one entry: the mean of an
    empty array is NaN, not a loss."""
    shapes = {a.shape for a in arrays}
    if len(shapes) > 1:
        raise ValueError(f"dimension error: shapes differ: {sorted(shapes)}")
    if arrays[0].size == 0:
        raise ValueError(f"dimension error: empty inputs of shape {arrays[0].shape}")


def decoding_loss(
    target: np.ndarray, prediction: np.ndarray, config: LossConfig | None = None
) -> float:
    """lambda_yin times the mean absolute difference of two cropped matrices."""
    cfg = config or LossConfig()
    target = np.asarray(target)
    prediction = np.asarray(prediction)
    _require_same_shape(target, prediction)
    return float(cfg.lambda_yin * np.mean(np.abs(target - prediction)))


def recon_loss(
    y_crop: np.ndarray,
    y_crop_shift: np.ndarray,
    synth_default: np.ndarray,
    synth_shifted: np.ndarray,
    config: LossConfig | None = None,
) -> float:
    """Negative-exponential reconstruction loss over both synthesis branches:
    lambda_yin * (mean|e^-y_crop - e^-synth_default|
                  + mean|e^-y_crop_shift - e^-synth_shifted|)."""
    cfg = config or LossConfig()
    arrays = [np.asarray(a) for a in (y_crop, y_crop_shift, synth_default, synth_shifted)]
    _require_same_shape(*arrays)
    y, ys, gd, gs = arrays
    default_term = np.mean(np.abs(np.exp(-y) - np.exp(-gd)))
    shifted_term = np.mean(np.abs(np.exp(-ys) - np.exp(-gs)))
    return float(cfg.lambda_yin * (default_term + shifted_term))


def shift_consistency_metric(
    y_normal, y_shifted_audio, s: int, config: LossConfig | None = None
) -> float:
    """Score how well shifted audio realizes scope shift s; lower is better.

    Compares e^-crop(Y_normal, s) against e^-crop(Y_shifted_audio, 0) under
    an L1 mean scaled by lambda_yin. Inputs are full Yingram matrices (or
    their raw arrays); frame counts are aligned by truncating to the shorter
    input, with a warning, since paired clips often differ by a frame.
    """
    cfg = config or LossConfig()
    normal = _matrix_values(y_normal, np.float64)
    shifted = _matrix_values(y_shifted_audio, np.float64)
    if normal.ndim != 2 or shifted.ndim != 2 or normal.shape[1] != shifted.shape[1]:
        raise ValueError(
            f"dimension error: expected matrices with matching channel axes, "
            f"got {normal.shape} and {shifted.shape}"
        )
    if normal.shape[0] != shifted.shape[0]:
        warnings.warn(
            f"frame counts differ ({normal.shape[0]} vs {shifted.shape[0]}); "
            "truncating to the shorter input",
            stacklevel=2,
        )
        frames = min(normal.shape[0], shifted.shape[0])
        normal = normal[:frames]
        shifted = shifted[:frames]
    a = np.exp(-crop_scope(normal, s))
    b = np.exp(-crop_scope(shifted, 0))
    _require_same_shape(a, b)
    return float(cfg.lambda_yin * np.mean(np.abs(a - b)))
