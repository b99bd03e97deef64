"""Yingram-based scalar objectives.

Three closely related L1 reductions: a plain decoding loss on cropped
matrices, a negative-exponential reconstruction loss, and the
shift-consistency metric that scores how well pitch-shifted audio realizes a
scope shift. The e^-Y transform maps the CMND dips (periodicity evidence)
toward 1 and the flat regions toward e^-1..0, so differences at the dips
dominate the L1 mean. Means run over all entries, which keeps the default
weight comparable across clip lengths. Each loss is weighted by its config's
lambda_yin; without a config it reads the class default
`AnalysisConfig.lambda_yin`, building no config.
"""
from __future__ import annotations

import warnings
from contextlib import contextmanager

import numpy as np

from .config import AnalysisConfig
from .grid import _matrix_values, crop_scope
from .yin import require_finite

__all__ = [
    "decoding_loss",
    "recon_loss",
    "shift_consistency_metric",
]


def _require_same_shape(*arrays: np.ndarray) -> None:
    """One shape for all arrays, with at least one entry: the mean of an
    empty array is NaN, not a loss."""
    shapes = {a.shape for a in arrays}
    if len(shapes) > 1:
        raise ValueError(f"dimension error: shapes differ: {sorted(shapes)}")
    if arrays[0].size == 0:
        raise ValueError(f"dimension error: empty inputs of shape {arrays[0].shape}")


def _as_real(values) -> np.ndarray:
    """values as an array; integer and bool entries as float64, whose
    differences and negations cannot wrap round, other dtypes as they are
    (a float32 matrix keeps its bits)."""
    values = np.asarray(values)
    return values.astype(np.float64) if values.dtype.kind in "biu" else values


def _weighted(term, config: AnalysisConfig | None) -> float:
    """lambda_yin times an unweighted loss `term` (a numpy float); a product
    past the float range raises ValueError naming lambda_yin."""
    lambda_yin = (config or AnalysisConfig).lambda_yin
    try:
        with np.errstate(over="raise"):
            return float(lambda_yin * term)
    except FloatingPointError:
        raise ValueError(
            f"lambda_yin={lambda_yin!r} weighs the loss past the float range: "
            f"the unweighted loss is {float(term)!r}"
        ) from None


def _finite_inputs(**arrays: np.ndarray) -> None:
    """`require_finite` of each named input, before any exponential: e^-inf
    is 0, so a check after it would miss a +inf entry."""
    for name, values in arrays.items():
        require_finite(values, name)


@contextmanager
def _overflow_rule(**arrays: np.ndarray):
    """Run a loss's e^-Y terms with numpy's overflow flag raising: finite
    entries below about -709.8, or sums of entries near it, would read inf.
    The ValueError names the argument holding the least entry."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        name = min(arrays, key=lambda n: np.min(arrays[n]))
        raise ValueError(
            f"the e^-{name} term is too large for a float: its least entry is "
            f"{float(np.min(arrays[name]))!r}"
        ) from None


def decoding_loss(
    target: np.ndarray, prediction: np.ndarray, config: AnalysisConfig | None = None
) -> float:
    """lambda_yin times the mean absolute difference of two cropped matrices
    (integer and bool entries read as float64, so no difference wraps).
    A difference, their sum or the weighted mean that would read inf raises
    ValueError; the raising overflow flag changes no bit of a finite loss."""
    target = _as_real(target)
    prediction = _as_real(prediction)
    _require_same_shape(target, prediction)
    _finite_inputs(target=target, prediction=prediction)
    lambda_yin = (config or AnalysisConfig).lambda_yin
    try:
        with np.errstate(over="raise"):
            return float(lambda_yin * np.mean(np.abs(target - prediction)))
    except FloatingPointError:
        spans = ", ".join(f"{name} spans [{float(np.min(a))!r}, {float(np.max(a))!r}]"
                          for name, a in (("target", target), ("prediction", prediction)))
        raise ValueError(
            f"the |target - prediction| term is too large for a float at "
            f"lambda_yin={lambda_yin!r}: {spans}"
        ) from None


def recon_loss(
    y_crop: np.ndarray,
    y_crop_shift: np.ndarray,
    synth_default: np.ndarray,
    synth_shifted: np.ndarray,
    config: AnalysisConfig | None = None,
) -> float:
    """Negative-exponential reconstruction loss over both synthesis branches:
    lambda_yin * (mean|e^-y_crop - e^-synth_default|
                  + mean|e^-y_crop_shift - e^-synth_shifted|).
    An e^-Y term or a weight that would read inf raises ValueError."""
    arrays = [_as_real(a) for a in (y_crop, y_crop_shift, synth_default, synth_shifted)]
    _require_same_shape(*arrays)
    y, ys, gd, gs = arrays
    _finite_inputs(y_crop=y, y_crop_shift=ys, synth_default=gd, synth_shifted=gs)
    with _overflow_rule(y_crop=y, y_crop_shift=ys, synth_default=gd, synth_shifted=gs):
        default_term = np.mean(np.abs(np.exp(-y) - np.exp(-gd)))
        shifted_term = np.mean(np.abs(np.exp(-ys) - np.exp(-gs)))
        total = default_term + shifted_term
    return _weighted(total, config)


def shift_consistency_metric(
    y_normal, y_shifted_audio, s: int, config: AnalysisConfig | None = None
) -> float:
    """Score how well shifted audio realizes scope shift s; lower is better.

    Compares e^-crop(Y_normal, s) against e^-crop(Y_shifted_audio, 0) under
    an L1 mean scaled by lambda_yin. Inputs are full Yingram matrices (or
    their raw arrays); frame counts are aligned by truncating to the shorter
    input, with a warning, since paired clips often differ by a frame.
    """
    normal = _matrix_values(y_normal, np.float64)
    shifted = _matrix_values(y_shifted_audio, np.float64)
    if normal.ndim != 2 or shifted.ndim != 2 or normal.shape[1] != shifted.shape[1]:
        raise ValueError(
            f"dimension error: expected matrices with matching channel axes, "
            f"got {normal.shape} and {shifted.shape}"
        )
    _finite_inputs(y_normal=normal, y_shifted_audio=shifted)
    if normal.shape[0] != shifted.shape[0]:
        warnings.warn(
            f"frame counts differ ({normal.shape[0]} vs {shifted.shape[0]}); "
            "truncating to the shorter input",
            stacklevel=2,
        )
        frames = min(normal.shape[0], shifted.shape[0])
        normal = normal[:frames]
        shifted = shifted[:frames]
    normal, shifted = crop_scope(normal, s), crop_scope(shifted, 0)
    _require_same_shape(normal, shifted)
    with _overflow_rule(y_normal=normal, y_shifted_audio=shifted):
        term = np.mean(np.abs(np.exp(-normal) - np.exp(-shifted)))
    return _weighted(term, config)
