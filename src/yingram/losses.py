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

All three are one core, `_weighted_l1`, which computes quietly and checks
its result once: a loss past the float range names its term, or lambda_yin
when only the weight took it there.
"""
from __future__ import annotations

import warnings

import numpy as np

from .config import AnalysisConfig
from .grid import _matrix_values, _require_real_dtype, crop_scope
from .yin import require_finite

__all__ = [
    "decoding_loss",
    "recon_loss",
    "shift_consistency_metric",
]


def _require_entries(values: np.ndarray) -> None:
    """The mean of an empty array is NaN, not a loss."""
    if values.size == 0:
        raise ValueError(f"dimension error: empty inputs of shape {values.shape}")


def _checked_inputs(**arrays) -> dict[str, np.ndarray]:
    """The named inputs as arrays, checked in order: integer and bool entries
    read as float64, whose differences and negations cannot wrap round, and
    so do an object array's values once `_require_real_dtype` has read them
    (other dtypes keep their bits: a float32 matrix stays float32); one
    shape, with at least one entry; then `require_finite` in argument order,
    before any exponential: e^-inf is 0, so a check after it would miss a
    +inf entry."""
    arrays = {name: np.asarray(v) for name, v in arrays.items()}
    for name, values in arrays.items():
        _require_real_dtype(values, name)
    arrays = {name: v.astype(np.float64) if v.dtype.kind in "biuO" else v
              for name, v in arrays.items()}
    shapes = {a.shape for a in arrays.values()}
    if len(shapes) > 1:
        raise ValueError(f"dimension error: shapes differ: {sorted(shapes)}")
    _require_entries(next(iter(arrays.values())))
    for name, values in arrays.items():
        require_finite(values, name)
    return arrays


def _weighted_l1(arrays: dict[str, np.ndarray], config: AnalysisConfig | None,
                 exponential: bool = False) -> float:
    """lambda_yin * Σ_i mean|f(a_i) - f(b_i)|, with a and b the first and
    second halves of the named `arrays` in order, and f e^-x or the identity.
    It runs quietly in the bare expression's order, so a finite loss keeps its
    bits, and checks once: an unweighted sum past the float range raises
    ValueError naming the term (for e^-x, the argument with the least entry,
    the first on a tie); a weight taking the loss past it names lambda_yin."""
    names = list(arrays)
    pairs = list(zip(names[: len(names) // 2], names[len(names) // 2 :]))
    lambda_yin = (config or AnalysisConfig).lambda_yin
    with np.errstate(over="ignore", invalid="ignore"):  # two inf e^-Y entries differ by NaN
        # 0 + t is t, so one pair keeps the bits of its mean
        term = sum(np.mean(_abs_difference(arrays[a], arrays[b], exponential)) for a, b in pairs)
        loss = lambda_yin * term
    if np.isfinite(loss):
        return float(loss)
    if np.isfinite(term):
        raise ValueError(
            f"lambda_yin={lambda_yin!r} weighs the loss past the float range: "
            f"the unweighted loss is {float(term)!r}"
        )
    if exponential:
        name = min(names, key=lambda n: np.min(arrays[n]))
        raise ValueError(
            f"the e^-{name} term is too large for a float: its least entry is "
            f"{float(np.min(arrays[name]))!r}"
        )
    terms = " + ".join(f"|{a} - {b}|" for a, b in pairs)
    spans = ", ".join(f"{n} spans [{float(np.min(a))!r}, {float(np.max(a))!r}]"
                      for n, a in arrays.items())
    raise ValueError(f"the {terms} term is too large for a float at lambda_yin={lambda_yin!r}: {spans}")


def _abs_difference(a: np.ndarray, b: np.ndarray, exponential: bool) -> np.ndarray:
    """|f(a) - f(b)|, f e^-x or the identity, by the bare expression's ufuncs,
    each after the first writing over a temporary it made, where the dtype allows."""
    if exponential:
        a, b = (np.exp(v, out=v) for v in (np.negative(a), np.negative(b)))
    diff = np.subtract(a, b, out=a if exponential and a.dtype == np.result_type(a, b) else None)
    return np.abs(diff, out=diff)


def decoding_loss(
    target: np.ndarray, prediction: np.ndarray, config: AnalysisConfig | None = None
) -> float:
    """lambda_yin times the mean absolute difference of two cropped matrices
    (integer and bool entries read as float64, so no difference wraps).
    A difference or the mean's sum past the float range raises ValueError
    naming the term; a weight that takes the loss past it names lambda_yin."""
    return _weighted_l1(_checked_inputs(target=target, prediction=prediction), config)


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
    arrays = _checked_inputs(y_crop=y_crop, y_crop_shift=y_crop_shift,
                             synth_default=synth_default, synth_shifted=synth_shifted)
    return _weighted_l1(arrays, config, exponential=True)


def shift_consistency_metric(
    y_normal, y_shifted_audio, s: int, config: AnalysisConfig | None = None
) -> float:
    """Score how well shifted audio realizes scope shift s; lower is better.

    Compares e^-crop(Y_normal, s) against e^-crop(Y_shifted_audio, 0) under
    an L1 mean scaled by lambda_yin. Inputs are full Yingram matrices (or
    their raw arrays); frame counts are aligned by truncating to the shorter
    input, with a warning, since paired clips often differ by a frame.
    """
    normal, shifted = _matrix_values(y_normal), _matrix_values(y_shifted_audio)
    _require_real_dtype(normal, "y_normal")
    _require_real_dtype(shifted, "y_shifted_audio")
    # floats up to 64 bits are cast once cropped, other dtypes first, as their values may change
    normal, shifted = (v if v.dtype.kind == "f" and v.itemsize <= 8 else np.asarray(v, np.float64)
                       for v in (normal, shifted))
    if normal.ndim != 2 or shifted.ndim != 2 or normal.shape[1] != shifted.shape[1]:
        raise ValueError(
            f"dimension error: expected matrices with matching channel axes, "
            f"got {normal.shape} and {shifted.shape}"
        )
    require_finite(normal, "y_normal")
    require_finite(shifted, "y_shifted_audio")
    if normal.shape[0] != shifted.shape[0]:
        warnings.warn(
            f"frame counts differ ({normal.shape[0]} vs {shifted.shape[0]}); "
            "truncating to the shorter input",
            stacklevel=2,
        )
        frames = min(normal.shape[0], shifted.shape[0])
        normal = normal[:frames]
        shifted = shifted[:frames]
    normal, shifted = (np.asarray(crop_scope(v, shift), np.float64)
                       for v, shift in ((normal, s), (shifted, 0)))
    _require_entries(normal)
    return _weighted_l1({"y_normal": normal, "y_shifted_audio": shifted}, config, exponential=True)
