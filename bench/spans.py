"""Outside-in tracing of the yingram package.

`Tracer.install()` wraps the public functions of each module under
`src/yingram/` (plus `yin._pick_lag`) and rebinds every module attribute that
holds the original, so `from .yin import difference_function` in feature,
evaluate and gradients is traced too.  Spans (name, start, end, parent, op,
pass) stay in memory; `layer_metrics` derives self times, counts and ratios from
them.  Nothing under `src/` changes.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# module -> functions wrapped; the span name is "<module>.<function>" with
# the leading underscore dropped (yin._pick_lag -> yin.pick_lag)
LAYERS = {
    "audio": ("load_wav", "resample", "frame_signal"),
    "yin": ("difference_function", "cmnd", "parabolic_refine", "estimate_f0", "_pick_lag"),
    "grid": ("channel_lags", "crop_scope"),
    "feature": ("yingram_frame", "yingram_from_frame", "compute_yingram",
                "write_yingram_csv", "write_yingram_binary"),
    "evaluate": ("extract_pitch_contour", "median_semitone_offset",
                 "evaluate_shift_pair", "batch_report"),
    "losses": ("shift_consistency_metric",),
    "gradients": ("yingram_vjp",),
    "cli": ("main",),
}
OP = "bench.op"  # the root span of one op execution


def span_name(module: str, fn: str) -> str:
    return f"{module}.{fn.lstrip('_')}"


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans and counters of the traced passes.  One thread, so spans nest."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.pass_of: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.op_id = -1
        self.pass_id = -1
        self._seen: dict[int, tuple[object, int]] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- spans
    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.pass_of.append(self.pass_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    # -- per-op bookkeeping: distinct clip x frame pairs analysed
    def see_frames(self, obj, count: int) -> None:
        """Count `count` frames of `obj` once per op; the strong reference
        keeps ids from being reused inside the op."""
        self._seen.setdefault(id(obj), (obj, count))

    def begin_op(self, pass_id: int, op_id: int) -> int:
        self.pass_id = pass_id
        self.op_id = op_id
        self._seen.clear()
        return self.begin(OP)

    def finish_op(self, i: int) -> None:
        self.finish(i)
        self.counters["distinct_frames"] += sum(c for _, c in self._seen.values())
        self._seen.clear()
        self.op_id = -1

    # -- wrapping
    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"yingram.{layer}")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "yingram" or n.startswith("yingram.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"yingram.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = span_name(layer, fn_name)
                wrapped = self._wrap(name, original, COUNTERS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._originals.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


# -- counters taken at the layer boundaries; each gets (tracer, args, kwargs, result)


def _load_wav(t: Tracer, args, kwargs, result) -> None:
    t.counters["audio.load_wav.bytes_in"] += _size(args[0] if args else kwargs.get("path"))


def _resample(t: Tracer, args, kwargs, result) -> None:
    w = args[0] if args else kwargs["w"]
    t.counters["audio.resample.samples_in"] += len(w.samples)


def _frame_signal(t: Tracer, args, kwargs, result) -> None:
    t.counters["audio.frame_signal.frames"] += len(result)
    t.counters["audio.frame_signal.padded"] += sum(1 for f in result if f.padded)
    t.see_frames(args[0] if args else kwargs["w"], len(result))


def _direct_frame(t: Tracer, args, kwargs, result) -> None:
    # a frame handed straight to the per-frame API by the caller's op
    if t.names[t.stack[-1]] == OP:
        frame = args[0] if args else kwargs["frame"]
        t.see_frames(getattr(frame, "samples", frame), 1)


def _compute_yingram(t: Tracer, args, kwargs, result) -> None:
    t.counters["feature.rows"] += result.num_frames
    if t.inside("evaluate.evaluate_shift_pair"):  # it keeps only unpadded rows
        t.counters["feature.discarded_rows"] += int(result.padded.sum())


def _written(key: str, index: int):
    def count(t: Tracer, args, kwargs, result) -> None:
        t.counters[key] += _size(args[index] if len(args) > index else kwargs.get("path"))

    return count


_CLI_OUTPUT_FLAGS = ("--out", "--binary", "--out-json", "--out-csv")


def _cli_main(t: Tracer, args, kwargs, result) -> None:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    for flag, value in zip(argv, argv[1:]):
        if flag in _CLI_OUTPUT_FLAGS:
            t.counters["cli.main.bytes_out"] += _size(value) + _size(value + ".json")


COUNTERS = {
    "audio.load_wav": _load_wav,
    "audio.resample": _resample,
    "audio.frame_signal": _frame_signal,
    "feature.yingram_from_frame": _direct_frame,
    "gradients.yingram_vjp": _direct_frame,
    "feature.compute_yingram": _compute_yingram,
    "feature.write_yingram_csv": _written("feature.write_yingram_csv.bytes_out", 1),
    "feature.write_yingram_binary": _written("feature.write_yingram_binary.bytes_out", 1),
    "cli.main": _cli_main,
}


def self_ns(start, end, parent) -> tuple[list[int], list[int]]:
    """(duration, self time) of each span; self time is the duration minus
    the direct children's durations, so a tree's self times sum to its
    root's duration."""
    dur = [e - s for s, e in zip(start, end)]
    own = dur[:]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


def self_times(names, start, end, parent, group=None) -> dict:
    """Per span name: [calls, total ns, self ns]; with `group` (one key per
    span), one such table per key."""
    dur, own = self_ns(start, end, parent)
    out: dict = {}
    for i, name in enumerate(names):
        table = out.setdefault(group[i], {}) if group is not None else out
        row = table.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += own[i]
    return out


def pass_tables(tracer: Tracer) -> list[dict[str, list[int]]]:
    """`self_times` of each traced pass, in pass order."""
    grouped = self_times(tracer.names, tracer.start, tracer.end, tracer.parent, tracer.pass_of)
    return [grouped[k] for k in sorted(grouped)]


COUNTERS_REPORTED = (
    "audio.load_wav.bytes_in",
    "audio.resample.samples_in",
    "audio.frame_signal.frames",
    "feature.write_yingram_csv.bytes_out",
    "feature.write_yingram_binary.bytes_out",
    "cli.main.bytes_out",
)
RATIOS = ("yin.cmnd_per_frame", "grid.channel_lags_per_frame",
          "feature.discarded_row_share", "audio.padded_frame_share")
TRACE = ("bench.self_ms", "trace.wall_ms", "trace.spans", "trace.overhead_share")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            units[f"{span_name(layer, fn)}.calls"] = "count"
            units[f"{span_name(layer, fn)}.self_ms"] = "ms"
    units.update(zip(COUNTERS_REPORTED, ("bytes", "samples", "count", "bytes", "bytes", "bytes")))
    units.update(dict.fromkeys(RATIOS, "ratio"))
    units.update({"bench.self_ms": "ms", "trace.wall_ms": "ms", "trace.spans": "count",
                  "trace.overhead_share": "ratio"})
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    v = sorted(values)
    m = len(v) // 2
    return v[m] if len(v) % 2 else (v[m - 1] + v[m]) / 2


def layer_metrics(tracer: Tracer, untraced_ms: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Calls and counters are totals
    over the traced passes divided by their number (every pass runs the same
    ops); self times are medians over the passes.  `untraced_ms[p]` is the
    untraced time of pass p's ops, each run just before its traced twin."""
    tables = pass_tables(tracer)
    n = len(tables)
    total = self_times(tracer.names, tracer.start, tracer.end, tracer.parent)

    def self_ms(name: str) -> float:
        return _median([t.get(name, (0, 0, 0))[2] / 1e6 for t in tables])

    out: dict[str, float] = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            name = span_name(layer, fn)
            out[f"{name}.calls"] = total.get(name, (0,))[0] / n
            out[f"{name}.self_ms"] = self_ms(name)
    c = tracer.counters
    for key in COUNTERS_REPORTED:
        out[key] = c[key] / n
    frames = c["distinct_frames"]
    out["yin.cmnd_per_frame"] = _ratio(total.get("yin.cmnd", (0,))[0], frames)
    out["grid.channel_lags_per_frame"] = _ratio(total.get("grid.channel_lags", (0,))[0], frames)
    out["feature.discarded_row_share"] = _ratio(c["feature.discarded_rows"], c["feature.rows"])
    out["audio.padded_frame_share"] = _ratio(c["audio.frame_signal.padded"], c["audio.frame_signal.frames"])
    out["bench.self_ms"] = self_ms(OP)
    walls = [t[OP][1] / 1e6 for t in tables]
    out["trace.wall_ms"] = _median(walls)
    out["trace.spans"] = len(tracer.names) / n
    out["trace.overhead_share"] = _median([w / u - 1.0 for w, u in zip(walls, untraced_ms)])
    return out


def self_time_gap_ns(tracer: Tracer) -> int:
    """Largest difference, over traced passes, between the sum of all self
    times and the summed wall time of the pass's ops; 0 when nothing is
    double counted."""
    return max(abs(sum(row[2] for row in t.values()) - t[OP][1]) for t in pass_tables(tracer))
