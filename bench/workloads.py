"""Seeded workload inputs, the operations the benchmark times, and the
oracles that judge their outputs.

Inputs come from a seeded numpy generator, plus the program's
`pitch_shifted_copy` and `random_tonal_frame` where the workload definition
names them, so the same seed writes the same bytes.  `GENERATORS[workload]`
writes the inputs into a directory, `plan` turns them into the `Op`s of one
pass, and `check` runs the oracles after the timed passes.

Why each workload exists is stated in METRICS.md.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SR = 22050  # analysis rate of the default AnalysisConfig
HOP = 256
WINDOW = 2048
TAU_MAX = 426
FRAME_LEN = WINDOW + TAU_MAX
CENTS_TOL = 10.0
EDGE_MARGIN_S = 0.06  # frames this close to a segment edge are not judged

WORKLOADS = ("long_clips", "shift_batch", "grad_frames")

# long_clips: (duration s, source rate, WAV encoding, channels)
LONG_CLIP_FORMATS = (
    (12.0, 22050, "f32", 1),
    (24.0, 44100, "s16", 1),
    (60.0, 48000, "s24", 2),
)
SHIFT_PAIRS = 24
SHIFT_CHUNK = 6
GRAD_FRAMES = 96
GRAD_CHECKED = 4  # frames the finite-difference oracle judges
LAMBDA_YIN = 45.0  # AnalysisConfig().lambda_yin
SCOPE = slice(15, 65)  # crop_scope(y, 0)


@dataclass
class Op:
    """One timed call.  `key` names the output it owns: every execution of an
    op with a failing output counts as failed."""

    kind: str
    key: str
    work: float  # audio seconds, pairs or frames
    argv: list[str] | None = None  # CLI ops
    index: int = -1  # gradient ops
    outputs: list[str] = field(default_factory=list)


# ---------------------------------------------------------------- WAV files


def write_wav(path: Path, samples: np.ndarray, sample_rate: int, encoding: str) -> None:
    """RIFF/WAVE writer for float32 (tag 3) and 16/24-bit PCM; `samples` is
    (n,) or (n, channels) in [-1, 1]."""
    x = np.asarray(samples, dtype=np.float64)
    channels = 1 if x.ndim == 1 else x.shape[1]
    if encoding == "f32":
        tag, bits, data = 3, 32, x.astype("<f4").tobytes()
    elif encoding == "s16":
        tag, bits = 1, 16
        data = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2").tobytes()
    elif encoding == "s24":
        tag, bits = 1, 24
        ints = np.clip(np.round(x * 8388607.0), -8388608, 8388607).astype("<i4")
        data = ints.reshape(-1).view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, sample_rate, sample_rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data + (b"\x00" if len(data) & 1 else b"")
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


# ---------------------------------------------------------------- long_clips


def _clip_segments(rng: np.random.Generator, duration: float) -> list[dict]:
    """Voiced segments (steady harmonic or vibrato) separated by silence or
    noise gaps; gaps take about a third of the clip."""
    segs = []
    t = 0.0
    gap_kind = "silence"
    while True:
        gap = float(rng.uniform(0.8, 1.8))
        if t + gap >= duration:
            segs.append({"kind": gap_kind, "start": t, "end": duration})
            break
        segs.append({"kind": gap_kind, "start": t, "end": t + gap})
        t += gap
        gap_kind = "noise" if gap_kind == "silence" else "silence"
        length = float(rng.uniform(1.5, 4.0))
        if t + length + 0.5 > duration:
            segs.append({"kind": "silence", "start": t, "end": duration})
            break
        seg = {
            "kind": "voiced",
            "start": t,
            "end": t + length,
            "tone": "vibrato" if rng.random() < 0.5 else "harmonic",
            "f0": float(np.exp(rng.uniform(math.log(90.0), math.log(330.0)))),
            "depth": float(rng.uniform(0.05, 0.15)),  # semitones, vibrato only
            "rate": float(rng.uniform(4.0, 6.0)),
            "harmonics": int(rng.integers(3, 7)),
            "amplitude": float(rng.uniform(0.3, 0.6)),
            "phases": [float(p) for p in rng.uniform(0.0, 2.0 * np.pi, 7)],
        }
        if seg["tone"] == "harmonic":
            seg["depth"] = 0.0
        segs.append(seg)
        t += length
    return segs


def _inst_f0(seg: dict, t: np.ndarray) -> np.ndarray:
    """Instantaneous f0 of a voiced segment at absolute times t."""
    mod = np.sin(2.0 * np.pi * seg["rate"] * (t - seg["start"]))
    return seg["f0"] * 2.0 ** (seg["depth"] * mod / 12.0)


def _fade(n: int, sample_rate: int) -> np.ndarray:
    ramp = min(n // 2, int(0.02 * sample_rate))
    env = np.ones(n)
    if ramp:
        r = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        env[:ramp] = r
        env[n - ramp :] = r[::-1]
    return env


def _render_clip(rng: np.random.Generator, segs: list[dict], sample_rate: int, n: int) -> np.ndarray:
    x = np.zeros(n)
    for seg in segs:
        a = int(round(seg["start"] * sample_rate))
        b = min(n, int(round(seg["end"] * sample_rate)))
        if seg["kind"] == "silence" or b <= a:
            continue
        if seg["kind"] == "noise":
            amp = float(rng.uniform(0.02, 0.05))
            x[a:b] = amp * rng.standard_normal(b - a) * _fade(b - a, sample_rate)
            continue
        t = np.arange(a, b) / sample_rate
        phase = 2.0 * np.pi * np.cumsum(_inst_f0(seg, t)) / sample_rate
        tone = np.zeros(b - a)
        for h in range(1, seg["harmonics"] + 1):
            tone += np.sin(h * phase + seg["phases"][h]) / h
        tone *= seg["amplitude"] / np.max(np.abs(tone))
        x[a:b] = tone * _fade(b - a, sample_rate)
    return x


def generate_long_clips(seed: int, out: Path, formats=LONG_CLIP_FORMATS) -> None:
    rng = np.random.default_rng([seed, 1])
    clips = []
    for i, (duration, sample_rate, encoding, channels) in enumerate(formats):
        segs = _clip_segments(rng, duration)
        n = int(round(duration * sample_rate))
        mono = _render_clip(rng, segs, sample_rate, n)
        if channels == 2:
            # right channel slightly quieter; the loader averages to mono
            data = np.stack([mono, 0.8 * mono], axis=1)
        else:
            data = mono
        name = f"clip{i}_{sample_rate}_{encoding}.wav"
        write_wav(out / name, data, sample_rate, encoding)
        clips.append({"file": name, "duration": duration, "sample_rate": sample_rate,
                      "encoding": encoding, "channels": channels, "segments": segs})
    (out / "plan.json").write_text(json.dumps({"clips": clips}, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- shift_batch


def _pair_tone(rng: np.random.Generator, f0: float, harmonic: bool, duration: float = 1.0) -> np.ndarray:
    n = int(round(duration * SR))
    t = np.arange(n) / SR
    if harmonic:  # 1/h rolloff, seeded phases
        x = np.zeros(n)
        for h in range(1, 7):
            x += np.sin(2.0 * np.pi * f0 * h * t + rng.uniform(0.0, 2.0 * np.pi)) / h
        return 0.5 * x / np.max(np.abs(x))
    depth = rng.uniform(0.2, 0.5)
    rate = rng.uniform(4.0, 6.0)
    inst = f0 * 2.0 ** (depth * np.sin(2.0 * np.pi * rate * t) / 12.0)
    return 0.6 * np.sin(2.0 * np.pi * np.cumsum(inst) / SR)


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n seeded draws in [0, 1), one from each of n equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def generate_shift_batch(seed: int, out: Path, pairs: int = SHIFT_PAIRS) -> None:
    from yingram import Waveform, pitch_shifted_copy, shift_to_semitones

    # Shifts, f0s and tone kinds are stratified draws, so the work in a batch
    # (shifted clip length, lag-scan length) varies little from seed to seed.
    rng = np.random.default_rng([seed, 2])
    shifts = np.minimum(12, np.floor(-12 + 25 * _strata(rng, pairs))).astype(int)
    f0_quantiles = _strata(rng, pairs)
    harmonic = rng.permutation(np.arange(pairs) % 2 == 0)
    entries = []
    for i in range(pairs):
        s = int(shifts[i])
        ratio = 2.0 ** (-s / 24.0)  # shifted f0 over normal f0
        lo, hi = math.log(max(80.0, 70.0 / ratio)), math.log(min(400.0, 450.0 / ratio))
        f0 = float(np.exp(lo + f0_quantiles[i] * (hi - lo)))
        normal = _pair_tone(rng, f0, bool(harmonic[i]))
        shifted = pitch_shifted_copy(Waveform(normal, SR), shift_to_semitones(s)).samples
        write_wav(out / f"n{i:03d}.wav", normal, SR, "f32")
        write_wav(out / f"s{i:03d}.wav", shifted, SR, "f32")
        entries.append({"normal": f"n{i:03d}.wav", "shifted": f"s{i:03d}.wav",
                        "scope_shift": s, "f0": f0, "duration": 1.0})
    (out / "plan.json").write_text(json.dumps({"pairs": entries}, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- grad_frames


def generate_grad_frames(seed: int, out: Path, frames: int = GRAD_FRAMES) -> None:
    from yingram import random_tonal_frame

    rng = np.random.default_rng([seed, 3])
    x = np.stack([random_tonal_frame(rng, FRAME_LEN, SR) for _ in range(2 * frames)])
    # rows [0, frames) are differentiated; rows [frames, 2*frames) are targets
    np.save(out / "frames.npy", x)
    checked = np.sort(rng.choice(frames, size=min(GRAD_CHECKED, frames), replace=False))
    (out / "plan.json").write_text(json.dumps({"frames": frames,
                                               "checked": [int(i) for i in checked]}) + "\n")


GENERATORS = {
    "long_clips": generate_long_clips,
    "shift_batch": generate_shift_batch,
    "grad_frames": generate_grad_frames,
}


# ---------------------------------------------------------------- op plans


def plan(workload: str, inputs: Path, outputs: Path) -> list[Op]:
    """Ops of one pass over the workload, in the order they run.  For
    shift_batch this also writes each chunk's batch manifest to `outputs`."""
    meta = json.loads((inputs / "plan.json").read_text())
    ops: list[Op] = []
    if workload == "long_clips":
        for i, clip in enumerate(meta["clips"]):
            wav = str(inputs / clip["file"])
            csv, f32, f0 = (str(outputs / f"clip{i}{ext}") for ext in (".csv", ".f32", ".f0.csv"))
            ops.append(Op("analyze", f"analyze{i}", clip["duration"],
                          ["analyze", wav, "--out", csv, "--binary", f32],
                          outputs=[csv, csv + ".json", f32, f32 + ".json"]))
            ops.append(Op("f0", f"f0{i}", clip["duration"], ["f0", wav, "--out", f0],
                          outputs=[f0, f0 + ".json"]))
    elif workload == "shift_batch":
        pairs = meta["pairs"]
        for c in range(0, len(pairs), SHIFT_CHUNK):
            chunk = pairs[c : c + SHIFT_CHUNK]
            for i, p in enumerate(chunk, start=c):
                rep = str(outputs / f"pair{i:03d}.json")
                ops.append(Op("pair", f"pair{i}", 1,
                              ["compare-shift", str(inputs / p["normal"]), str(inputs / p["shifted"]),
                               "--scope-shift", str(p["scope_shift"]), "--out", rep],
                              outputs=[rep]))
            manifest = outputs / f"manifest{c // SHIFT_CHUNK}.json"
            manifest.write_text(json.dumps([
                {"normal": str(inputs / p["normal"]), "shifted": str(inputs / p["shifted"]),
                 "scope_shift": p["scope_shift"]} for p in chunk], indent=1) + "\n")
            rj, rc = (str(outputs / f"batch{c // SHIFT_CHUNK}{ext}") for ext in (".json", ".csv"))
            ops.append(Op("batch", f"batch{c // SHIFT_CHUNK}", len(chunk),
                          ["batch", str(manifest), "--out-json", rj, "--out-csv", rc],
                          outputs=[rj, rc]))
    elif workload == "grad_frames":
        ops = [Op("grad", f"grad{i}", 1, index=i) for i in range(meta["frames"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


class GradRunner:
    """The gradient op: forward Yingram, a recon_loss-style cotangent against
    a second frame's Yingram, then the VJP.  Keeps each frame's latest
    gradient for the oracles and the output digest."""

    def __init__(self, inputs: Path):
        import yingram

        self.y = yingram
        self.cfg = yingram.AnalysisConfig()
        self.grid = self.cfg.grid
        x = np.load(inputs / "frames.npy")
        self.frames = x[: len(x) // 2]
        self.targets = np.stack([self._forward(t) for t in x[len(x) // 2 :]])
        self.grads: dict[int, np.ndarray] = {}
        self.cots: dict[int, np.ndarray] = {}

    def _forward(self, frame: np.ndarray) -> np.ndarray:
        return self.y.yingram_from_frame(frame, self.grid, SR, WINDOW)

    def cotangent(self, y: np.ndarray, target: np.ndarray) -> np.ndarray:
        """d/dy of lambda * mean|e^-y - e^-t| over the unshifted scope."""
        cot = np.zeros_like(y)
        ey = np.exp(-y[SCOPE])
        cot[SCOPE] = -LAMBDA_YIN / ey.size * np.sign(ey - np.exp(-target[SCOPE])) * ey
        return cot

    def __call__(self, i: int) -> None:
        frame = self.frames[i]
        cot = self.cotangent(self._forward(frame), self.targets[i])
        self.grads[i] = self.y.yingram_vjp(self.y.Frame(frame, 0, SR), self.grid, cot, WINDOW)
        self.cots[i] = cot


# ---------------------------------------------------------------- oracles


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def input_digest(directory: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(directory.iterdir()) if p.is_file()}


def _read_yingram_csv(path: str) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(rows[:, 0], np.arange(len(rows))):
        raise AssertionError("frame column is not 0..n-1")
    return rows[:, 1:].astype(np.float32)


def _clip_wave(clip: dict, inputs: Path):
    import yingram

    return yingram.resample(yingram.load_wav(inputs / clip["file"]), SR)


def _check_analyze(clip: dict, inputs: Path, op: Op, rng: np.random.Generator) -> None:
    """Raise AssertionError on the first oracle the analyze outputs fail."""
    import yingram

    csv, csv_meta, f32, f32_meta = op.outputs
    rows = _read_yingram_csv(csv)
    binary = np.fromfile(f32, dtype="<f4")
    if binary.size != rows.size or not np.array_equal(binary.reshape(rows.shape), rows):
        raise AssertionError("binary output differs from CSV values")
    for meta_path in (csv_meta, f32_meta):
        meta = json.loads(Path(meta_path).read_text())
        if meta["frames"] != len(rows) or meta["channels"] != rows.shape[1]:
            raise AssertionError(f"sidecar {Path(meta_path).name} shape differs from output")
    wave = _clip_wave(clip, inputs)
    n_frames = -(-len(wave.samples) // HOP)
    if len(rows) != n_frames:
        raise AssertionError(f"{len(rows)} Yingram rows, expected {n_frames}")
    grid = yingram.AnalysisConfig().grid
    for k in np.sort(rng.choice(n_frames, size=min(6, n_frames), replace=False)):
        chunk = wave.samples[k * HOP : k * HOP + FRAME_LEN]
        chunk = np.pad(chunk, (0, FRAME_LEN - len(chunk)))
        ref = yingram.yingram_from_frame(chunk, grid, SR, WINDOW, method="naive").astype(np.float32)
        if not np.allclose(rows[k], ref, rtol=1e-6, atol=1e-6):
            raise AssertionError(f"Yingram row {k} differs from the naive kernel")


def _check_f0(clip: dict, inputs: Path, op: Op) -> None:
    """Raise AssertionError on the first oracle the f0 outputs fail."""
    n_frames = -(-len(_clip_wave(clip, inputs).samples) // HOP)
    lines = Path(op.outputs[0]).read_text().splitlines()
    if lines[0] != "frame,time_sec,f0_hz,aperiodicity" or len(lines) - 1 != n_frames:
        raise AssertionError("f0 CSV header or frame count is wrong")
    if json.loads(Path(op.outputs[1]).read_text())["frames"] != n_frames:
        raise AssertionError("f0 sidecar frame count is wrong")
    f0 = np.array([float(ln.split(",")[2]) if ln.split(",")[2] else np.nan for ln in lines[1:]])
    judged = 0
    for seg in clip["segments"]:
        lo = seg["start"] + EDGE_MARGIN_S
        hi = seg["end"] - EDGE_MARGIN_S
        first = max(0, math.ceil(lo * SR / HOP))
        for k in range(first, n_frames):
            t0 = k * HOP / SR
            if t0 + FRAME_LEN / SR > hi:
                break
            if seg["kind"] == "silence":
                if not np.isnan(f0[k]):
                    raise AssertionError(f"frame {k} voiced in a silence gap")
            elif seg["kind"] == "voiced":
                t = t0 + np.arange(WINDOW) / SR
                truth = float(np.mean(_inst_f0(seg, t)))
                if np.isnan(f0[k]) or abs(1200.0 * math.log2(f0[k] / truth)) > CENTS_TOL:
                    raise AssertionError(f"frame {k}: f0 {f0[k]} Hz, truth {truth:.4f} Hz")
            judged += 1
    if judged == 0:
        raise AssertionError("no frame judged")


def _check_pair(path: str, pair: dict) -> dict:
    report = json.loads(Path(path).read_text())
    expected = -pair["scope_shift"] / 2.0
    measured = report["measured_semitone_offset"]
    if not report["pass"] or measured is None:
        raise AssertionError(f"verdict failed: {report.get('reason')}")
    if abs(measured - expected) > report["config"]["shift_tolerance"]:
        raise AssertionError(f"offset {measured} vs expected {expected}")
    if not math.isfinite(report["l_yin_shift"]):
        raise AssertionError("l_yin_shift is not finite")
    return report


def check(workload: str, inputs: Path, ops: list[Op], seed: int, grad: GradRunner | None = None) -> dict[str, str]:
    """Run the oracles on the outputs of one pass's ops.  Returns the keys
    whose output failed, each with the reason."""
    failed: dict[str, str] = {}
    meta = json.loads((inputs / "plan.json").read_text())
    rng = np.random.default_rng([seed, 9])

    def judge(keys: list[str], fn, *args) -> None:
        try:
            fn(*args)
        except (AssertionError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            for key in keys:
                failed[key] = f"{type(exc).__name__}: {exc}"

    if workload == "long_clips":
        for i, clip in enumerate(meta["clips"]):
            judge([f"analyze{i}"], _check_analyze, clip, inputs, ops[2 * i], rng)
            judge([f"f0{i}"], _check_f0, clip, inputs, ops[2 * i + 1])
    elif workload == "shift_batch":
        by_key = {op.key: op for op in ops}
        reports: dict[int, dict] = {}
        def single(i: int, pair: dict) -> None:
            reports[i] = _check_pair(by_key[f"pair{i}"].outputs[0], pair)

        for i, pair in enumerate(meta["pairs"]):
            judge([f"pair{i}"], single, i, pair)

        def batch_matches(op: Op, first: int) -> None:
            entries = json.loads(Path(op.outputs[0]).read_text())["entries"]
            csv_rows = Path(op.outputs[1]).read_text().splitlines()[1:]
            if len(entries) != op.work or len(csv_rows) != op.work:
                raise AssertionError("batch entry count differs from the manifest")
            for j, entry in enumerate(entries):
                single = reports.get(first + j)
                if single is None:
                    raise AssertionError(f"pair {first + j} has no valid single report")
                mine = dict(entry["report"], config=single["config"])
                if mine != single:
                    raise AssertionError(f"batch entry {j} differs from the compare-shift report")

        for op in ops:
            if op.kind == "batch":
                first = int(op.key[len("batch"):]) * SHIFT_CHUNK
                judge([op.key], batch_matches, op, first)
    elif workload == "grad_frames":
        import yingram

        def frame_ok(i: int) -> None:
            g = grad.grads.get(i)
            if g is None or not np.all(np.isfinite(g)):
                raise AssertionError(f"frame {i}: no finite gradient")
            frame = yingram.Frame(grad.frames[i], 0, SR)
            report = yingram.finite_diff_check(frame, grad.grid, eps=1e-5, cotangent=grad.cots[i],
                                               seed=seed + i, tolerance=1e-4, window=WINDOW)
            if not report.passed:
                raise AssertionError(f"frame {i}: finite_diff_check error {report.max_rel_error:.2e}")
            # the op's own gradient against a central difference along a random direction
            v = rng.standard_normal(FRAME_LEN)
            eps = 1e-6

            def loss(x: np.ndarray) -> float:
                y = yingram.yingram_from_frame(x, grad.grid, SR, WINDOW, method="naive")
                return float(np.dot(grad.cots[i], y))

            numeric = (loss(grad.frames[i] + eps * v) - loss(grad.frames[i] - eps * v)) / (2 * eps)
            analytic = float(np.dot(g, v))
            if abs(numeric - analytic) > 1e-4 * max(abs(numeric), abs(analytic), 1e-12):
                raise AssertionError(f"frame {i}: directional derivative {analytic} vs {numeric}")

        for i in meta["checked"]:
            judge([f"grad{i}"], frame_ok, i)
        for op in ops:
            g = grad.grads.get(op.index)
            if op.key not in failed and (g is None or not np.all(np.isfinite(g))):
                failed[op.key] = "no finite gradient"
    return failed


def output_digests(workload: str, ops: list[Op], grad: GradRunner | None = None) -> dict[str, str]:
    """sha256 of every output file (or, for gradients, of the gradient bytes
    in frame order)."""
    if workload == "grad_frames":
        h = hashlib.sha256()
        for op in ops:
            h.update(np.ascontiguousarray(grad.grads[op.index], dtype="<f8").tobytes())
        return {"gradients.f64": h.hexdigest()}
    return {Path(p).name: sha256_file(p) for op in ops for p in op.outputs if Path(p).exists()}
