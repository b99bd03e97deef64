"""Pitch contours and pairwise pitch-shift evaluation.

A shifted clip "realizes" scope shift s when its contour sits -s/2 semitones
above the reference in log frequency and the exponential Yingram metric at s
is small. Desk-scale ground truth comes from resampled copies, whose duration
scales with the shift; contour comparison therefore supports exact
time-proportional alignment alongside the plain frame-indexed mode.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import Waveform, _resampled_length, load_wav
from .config import AnalysisConfig
# re-exported: `feature._analyse` builds a clip's Yingram and contour in one pass
from .feature import PitchContour, _analyse, _record, extract_pitch_contour
from .grid import Scope, _require_positive, shift_to_semitones
from .losses import shift_consistency_metric

# Unused here since analysis reads `feature._analyse`, but kept as attributes
# of this module: the benchmark's tracer (bench/spans.py) checks that it
# rebinds these per-frame kernels in every module that imports them.
from .yin import _pick_lag, difference_function  # noqa: F401,E402

__all__ = [
    "PitchContour",
    "ShiftReport",
    "BatchReport",
    "extract_pitch_contour",
    "median_semitone_offset",
    "evaluate_shift_pair",
    "batch_report",
]


@dataclass(frozen=True)
class ShiftReport:
    """Verdict for one (normal, shifted, s) pair."""

    scope_shift: int
    expected_semitones: float
    measured_semitone_offset: float
    voiced_overlap_fraction: float
    l_yin_shift: float | None
    passed: bool
    reason: str | None = None

    def to_dict(self) -> dict:
        return _record(self)


def median_semitone_offset(
    a: PitchContour, b: PitchContour, time_scale: float = 1.0
) -> tuple[float, float]:
    """Median semitone offset 12*log2(f0_b / f0_a) over co-voiced frames.

    Returns (offset, overlap) where overlap is co-voiced frames over
    min(voiced_a, voiced_b), capped at 1. With a time_scale other than 1.0
    (the duration ratio of b to a, e.g. after resampling) frame i of `a` is
    compared against the log-f0 of `b` interpolated at i * time_scale, so
    contours of time-stretched copies align exactly.

    Raises:
        ValueError: "no voiced overlap" when no frame pair is co-voiced,
            and for a time_scale that is not finite and positive.
    """
    _require_positive(time_scale, "time_scale")
    if a.hop != b.hop or a.sample_rate != b.sample_rate:
        raise ValueError("contours must share hop and sample rate")
    floor_voiced = min(a.num_voiced, b.num_voiced)
    offsets = _contour_offsets(a, b, time_scale)
    if len(offsets) == 0:
        raise ValueError("no voiced overlap between contours")
    return float(np.median(offsets)), min(1.0, float(len(offsets) / floor_voiced))


def _contour_offsets(a: PitchContour, b: PitchContour, time_scale: float) -> np.ndarray:
    """Per-frame semitone offsets over co-voiced (possibly aligned) frames.

    With a time scale other than 1.0, frame i of `a` reads log2 f0 of `b`
    lerped at j = i * time_scale between floor(j) and ceil(j), and frames
    whose brackets are unvoiced or past the end are dropped. `np.interp` is not
    used: it rounds differently where j is an integer."""
    if time_scale == 1.0:
        n = min(len(a), len(b))
        co = a.voiced[:n] & b.voiced[:n]
        return 12.0 * np.log2(b.f0[:n][co] / a.f0[:n][co])
    log_b = np.log2(b.f0)
    i = np.flatnonzero(a.voiced)
    with np.errstate(over="ignore"):  # a huge product is dropped by `inside`
        j = i * time_scale
    inside = j <= len(b) - 1  # before the cast, which a huge j would overflow
    i, j = i[inside], j[inside]
    j0, j1 = np.floor(j).astype(np.intp), np.ceil(j).astype(np.intp)
    lb = log_b[j0] + (log_b[j1] - log_b[j0]) * (j - j0)
    co = ~(np.isnan(log_b[j0]) | np.isnan(log_b[j1]))
    return 12.0 * (lb[co] - np.log2(a.f0[i[co]]))


def evaluate_shift_pair(
    normal: Waveform, shifted: Waveform, s: int, config: AnalysisConfig | None = None
) -> ShiftReport:
    """Score a (normal, shifted) pair against scope shift s.

    Both clips are analysed at the config's rate, resampled as they are
    analysed (a no-op at that rate). Computes the exponential Yingram
    consistency metric at s, the contour offset (time-aligned by the pair's
    duration ratio), and a verdict: offset within shift_tolerance of -s/2 and voiced overlap at
    least min_overlap. A pair without unpadded frames has no metric; a pair
    without co-voiced frames keeps its metric and fails on that. A shift
    that `Scope` rejects raises ValueError before any analysis.
    """
    cfg = config or AnalysisConfig()
    s = Scope(s).shift
    # the resampled lengths, whose rule raises first for a ratio `resample` refuses
    n_normal, n_shifted = (_resampled_length(w, cfg.sample_rate) for w in (normal, shifted))
    matrix_a, contour_a = _analyse(normal, cfg)
    matrix_b, contour_b = _analyse(shifted, cfg)
    y_normal, y_shifted = matrix_a.unpadded(), matrix_b.unpadded()
    frames = min(len(y_normal), len(y_shifted))
    expected = shift_to_semitones(s)
    metric, measured, overlap, reason = None, float("nan"), 0.0, None
    if frames == 0:
        reason = (
            f"no unpadded frames: each clip needs at least {cfg.frame_length} "
            f"samples (window + tau_max), got {n_normal} (normal) and {n_shifted} (shifted)"
        )
    else:
        metric = shift_consistency_metric(y_normal[:frames], y_shifted[:frames], s, cfg)
        scale = n_shifted / n_normal
        try:
            measured, overlap = median_semitone_offset(contour_a, contour_b, time_scale=scale)
        except ValueError as exc:
            reason = str(exc)
    # the offset check comes first, and a NaN offset fails it
    if reason is None and not abs(measured - expected) <= cfg.shift_tolerance:
        reason = (
            f"offset {measured:+.2f} st deviates from expected "
            f"{expected:+.2f} st by more than {cfg.shift_tolerance} st"
        )
    elif reason is None and overlap < cfg.min_overlap:
        reason = f"voiced overlap {overlap:.2f} below {cfg.min_overlap}"
    return ShiftReport(
        scope_shift=s, expected_semitones=expected, measured_semitone_offset=measured,
        voiced_overlap_fraction=overlap, l_yin_shift=metric, passed=reason is None, reason=reason,
    )


@dataclass
class BatchReport:
    """Per-pair results plus aggregates, in manifest order."""

    entries: list = field(default_factory=list)
    config: AnalysisConfig = field(default_factory=AnalysisConfig)

    @property
    def reports(self) -> list[ShiftReport]:
        return [e["report"] for e in self.entries if "report" in e]

    @property
    def errors(self) -> list[dict]:
        return [e for e in self.entries if "error" in e]

    @property
    def all_passed(self) -> bool:
        """Every entry has a passing report: an error entry fails, as its CSV row does."""
        return all("report" in e and e["report"].passed for e in self.entries)

    def aggregates(self) -> dict:
        reports = self.reports
        by_shift: dict[int, list[float]] = {}
        for r in reports:
            if r.l_yin_shift is not None:
                by_shift.setdefault(r.scope_shift, []).append(r.l_yin_shift)
        mean_by_shift = {
            str(s): float(np.mean(vals)) for s, vals in sorted(by_shift.items())
        }
        pass_rate = (
            float(np.mean([r.passed for r in reports])) if reports else None
        )
        return {
            "pairs_evaluated": len(reports),
            "pairs_errored": len(self.errors),
            "pass_rate": pass_rate,
            "mean_l_yin_shift_by_scope_shift": mean_by_shift,
        }

    def to_dict(self) -> dict:
        entries = [{**e, "report": e["report"].to_dict()} if "report" in e else dict(e)
                   for e in self.entries]
        return {"entries": entries, "aggregates": self.aggregates(),
                "config": self.config.to_dict()}

    def csv_lines(self) -> list[str]:
        """A view of `to_dict`'s entries: a null or missing value is an empty
        field and a number `.6f`. An entry without a report fails, and keeps
        the expected offset of its shift when the shift is valid."""
        lines = ["s,expected_st,measured_st,overlap,l_yin_shift,pass"]
        for e in self.to_dict()["entries"]:
            s = e.get("scope_shift")
            r = e.get("report", {"expected_semitones": s if s is None else shift_to_semitones(s)})
            cells = ("" if r.get(k) is None else f"{r[k]:.6f}" for k in _CSV_KEYS)
            verdict = str(r.get("pass", False)).lower()
            lines.append(",".join(["" if s is None else str(s), *cells, verdict]))
        return lines


_CSV_KEYS = ("expected_semitones", "measured_semitone_offset", "voiced_overlap_fraction",
             "l_yin_shift")


def batch_report(manifest: list[dict], config: AnalysisConfig | None = None) -> BatchReport:
    """Evaluate every manifest entry {normal, shifted, scope_shift}.

    An entry that cannot be read or scored is recorded as its error,
    "<exception class>: <message>" (a KeyError, TypeError, OSError or
    ValueError, such as for a scope_shift of 2.9, true or "2"), and the
    batch continues; results keep manifest order.
    """
    cfg = config or AnalysisConfig()
    report = BatchReport(config=cfg)
    for index, item in enumerate(manifest):
        entry: dict = {"index": index}
        try:
            if not isinstance(item, dict):
                raise TypeError(
                    f"manifest entry must be an object, got {type(item).__name__}"
                )
            normal_path = Path(item["normal"])
            shifted_path = Path(item["shifted"])
            s = Scope(item["scope_shift"]).shift
            entry.update(normal=str(item["normal"]), shifted=str(item["shifted"]), scope_shift=s)
            normal, shifted = load_wav(normal_path), load_wav(shifted_path)
            entry["report"] = evaluate_shift_pair(normal, shifted, s, cfg)
        except (KeyError, TypeError, OSError, ValueError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        report.entries.append(entry)
    return report
