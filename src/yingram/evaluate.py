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

from .audio import Waveform, frame_count, load_wav, resample
from .config import AnalysisConfig
from .feature import yingram_rows
from .grid import channel_lags, shift_to_semitones
from .losses import LossConfig, shift_consistency_metric
from .yin import cmnd_blocks, f0_rows

# Unused here since analysis reads `cmnd_blocks`, but kept as attributes of
# this module: the benchmark's tracer (bench/spans.py) checks that it
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


@dataclass
class PitchContour:
    """Per-frame f0 track: NaN f0 means unvoiced. Times step by hop/sr."""

    times: np.ndarray
    f0: np.ndarray
    aperiodicity: np.ndarray
    hop: int
    sample_rate: int

    def __len__(self) -> int:
        return len(self.times)

    @property
    def voiced(self) -> np.ndarray:
        return ~np.isnan(self.f0)

    @property
    def num_voiced(self) -> int:
        return int(self.voiced.sum())


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
        measured = self.measured_semitone_offset
        return {
            "scope_shift": self.scope_shift,
            "expected_semitones": self.expected_semitones,
            "measured_semitone_offset": None if np.isnan(measured) else measured,
            "voiced_overlap_fraction": self.voiced_overlap_fraction,
            "l_yin_shift": self.l_yin_shift,
            "pass": self.passed,
            "reason": self.reason,
        }


def _unvoiced_contour(w: Waveform, cfg: AnalysisConfig) -> PitchContour:
    n = frame_count(len(w.samples), cfg.frame_length, cfg.hop)
    times = np.arange(n) * (cfg.hop / cfg.sample_rate)
    return PitchContour(times, np.full(n, np.nan), np.ones(n), cfg.hop, cfg.sample_rate)


def _voice(contour: PitchContour, start: int, values: np.ndarray, cfg: AnalysisConfig) -> None:
    """Fill the contour's f0 and aperiodicity at frames start, start + 1, ...
    from their CMND rows."""
    frames = slice(start, start + len(values))
    contour.f0[frames], contour.aperiodicity[frames] = f0_rows(
        values, cfg.sample_rate, cfg.f0_threshold, cfg.f_min, cfg.f_max, cfg.voicing_cutoff
    )


def extract_pitch_contour(w: Waveform, config: AnalysisConfig | None = None) -> PitchContour:
    """Frame-wise f0 estimation over a waveform.

    Padded tail frames are marked unvoiced. The f0 estimate follows the
    CMND threshold rule with parabolic refinement (`f0_rows`); aperiodicity
    is the CMND value at the chosen integer lag.
    """
    cfg = config or AnalysisConfig()
    blocks = cmnd_blocks(w, cfg)
    contour = _unvoiced_contour(w, cfg)
    for block in blocks:
        _voice(contour, block.start, block.unpadded, cfg)
    return contour


def _analyse(w: Waveform, cfg: AnalysisConfig) -> tuple[np.ndarray, PitchContour]:
    """Float32 Yingram rows of the unpadded frames, and the pitch contour, of
    one clip from a single pass over its CMND blocks."""
    blocks = cmnd_blocks(w, cfg)
    lags = channel_lags(cfg.grid, cfg.sample_rate)
    contour = _unvoiced_contour(w, cfg)
    rows = np.empty((len(contour), cfg.grid.num_channels), dtype=np.float32)
    unpadded = 0
    for block in blocks:
        kept = block.unpadded
        rows[block.start : block.start + len(kept)] = yingram_rows(kept, lags)
        _voice(contour, block.start, kept, cfg)
        unpadded += len(kept)
    return rows[:unpadded], contour


def median_semitone_offset(
    a: PitchContour, b: PitchContour, time_scale: float | None = None
) -> tuple[float, float]:
    """Median semitone offset 12*log2(f0_b / f0_a) over co-voiced frames.

    Returns (offset, overlap) where overlap is co-voiced frames over
    min(voiced_a, voiced_b), capped at 1. With time_scale (the duration
    ratio of b to a, e.g. after resampling) frame i of `a` is compared
    against the log-f0 of `b` interpolated at i * time_scale, so contours of
    time-stretched copies align exactly.

    Raises:
        ValueError: "no voiced overlap" when no frame pair is co-voiced.
    """
    if a.hop != b.hop or a.sample_rate != b.sample_rate:
        raise ValueError("contours must share hop and sample rate")
    floor_voiced = min(a.num_voiced, b.num_voiced)
    offsets = _contour_offsets(a, b, time_scale)
    if floor_voiced == 0 or len(offsets) == 0:
        raise ValueError("no voiced overlap between contours")
    return float(np.median(offsets)), min(1.0, float(len(offsets) / floor_voiced))


def _contour_offsets(
    a: PitchContour, b: PitchContour, time_scale: float | None
) -> np.ndarray:
    """Per-frame semitone offsets over co-voiced (possibly aligned) frames."""
    if time_scale is None or time_scale == 1.0:
        n = min(len(a), len(b))
        co = a.voiced[:n] & b.voiced[:n]
        return 12.0 * np.log2(b.f0[:n][co] / a.f0[:n][co])
    log_b = np.log2(b.f0)
    out = []
    for i in np.nonzero(a.voiced)[0]:
        j = i * time_scale
        j0 = int(np.floor(j))
        j1 = int(np.ceil(j))
        if j1 >= len(b) or np.isnan(log_b[j0]) or np.isnan(log_b[j1]):
            continue
        lb = log_b[j0] + (log_b[j1] - log_b[j0]) * (j - j0)
        out.append(12.0 * (lb - np.log2(a.f0[i])))
    return np.asarray(out)


def evaluate_shift_pair(
    normal: Waveform, shifted: Waveform, s: int, config: AnalysisConfig | None = None
) -> ShiftReport:
    """Score a (normal, shifted) pair against scope shift s.

    Computes the exponential Yingram consistency metric at s, the contour
    offset (time-aligned by the pair's duration ratio), and a verdict:
    offset within shift_tolerance of -s/2 and voiced overlap at least
    min_overlap.
    """
    cfg = config or AnalysisConfig()
    if normal.sample_rate != cfg.sample_rate:
        normal = resample(normal, cfg.sample_rate)
    if shifted.sample_rate != cfg.sample_rate:
        shifted = resample(shifted, cfg.sample_rate)

    expected = shift_to_semitones(s)
    y_normal, contour_a = _analyse(normal, cfg)
    y_shifted, contour_b = _analyse(shifted, cfg)
    frames = min(len(y_normal), len(y_shifted))
    if frames == 0:
        return ShiftReport(
            scope_shift=s,
            expected_semitones=expected,
            measured_semitone_offset=float("nan"),
            voiced_overlap_fraction=0.0,
            l_yin_shift=None,
            passed=False,
            reason=(
                f"no unpadded frames: each clip needs at least {cfg.frame_length} "
                f"samples (window + tau_max), got {len(normal.samples)} (normal) "
                f"and {len(shifted.samples)} (shifted)"
            ),
        )
    metric = shift_consistency_metric(
        y_normal[:frames], y_shifted[:frames], s, LossConfig(cfg.lambda_yin)
    )

    scale = len(shifted.samples) / len(normal.samples)
    try:
        measured, overlap = median_semitone_offset(contour_a, contour_b, time_scale=scale)
    except ValueError as exc:
        return ShiftReport(
            scope_shift=s,
            expected_semitones=expected,
            measured_semitone_offset=float("nan"),
            voiced_overlap_fraction=0.0,
            l_yin_shift=metric,
            passed=False,
            reason=str(exc),
        )

    ok = abs(measured - expected) <= cfg.shift_tolerance and overlap >= cfg.min_overlap
    reason = None
    if not ok:
        if abs(measured - expected) > cfg.shift_tolerance:
            reason = (
                f"offset {measured:+.2f} st deviates from expected "
                f"{expected:+.2f} st by more than {cfg.shift_tolerance} st"
            )
        else:
            reason = f"voiced overlap {overlap:.2f} below {cfg.min_overlap}"
    return ShiftReport(
        scope_shift=s,
        expected_semitones=expected,
        measured_semitone_offset=measured,
        voiced_overlap_fraction=overlap,
        l_yin_shift=metric,
        passed=ok,
        reason=reason,
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
        return all(r.passed for r in self.reports)

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
        entries = []
        for e in self.entries:
            out = {k: v for k, v in e.items() if k != "report"}
            if "report" in e:
                out["report"] = e["report"].to_dict()
            entries.append(out)
        return {
            "entries": entries,
            "aggregates": self.aggregates(),
            "config": self.config.to_dict(),
        }

    def csv_lines(self) -> list[str]:
        lines = ["s,expected_st,measured_st,overlap,l_yin_shift,pass"]
        for e in self.entries:
            if "report" in e:
                r = e["report"]
                measured = (
                    "" if np.isnan(r.measured_semitone_offset)
                    else f"{r.measured_semitone_offset:.6f}"
                )
                metric = "" if r.l_yin_shift is None else f"{r.l_yin_shift:.6f}"
                lines.append(
                    f"{r.scope_shift},{r.expected_semitones:.6f},{measured},"
                    f"{r.voiced_overlap_fraction:.6f},{metric},"
                    f"{str(r.passed).lower()}"
                )
            else:
                s = e.get("scope_shift", "")
                exp = f"{shift_to_semitones(s):.6f}" if s != "" else ""
                lines.append(f"{s},{exp},,,,false")
        return lines


def batch_report(manifest: list[dict], config: AnalysisConfig | None = None) -> BatchReport:
    """Evaluate every manifest entry {normal, shifted, scope_shift}.

    Unreadable or malformed entries (including entries that are not
    objects) are recorded as errors and the batch continues; results keep
    manifest order.
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
            s = int(item["scope_shift"])
            entry.update(normal=str(item["normal"]), shifted=str(item["shifted"]), scope_shift=s)
            normal = resample(load_wav(normal_path), cfg.sample_rate)
            shifted = resample(load_wav(shifted_path), cfg.sample_rate)
        except (KeyError, TypeError, OSError, ValueError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            try:
                entry["report"] = evaluate_shift_pair(normal, shifted, s, cfg)
            except ValueError as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
        report.entries.append(entry)
    return report
