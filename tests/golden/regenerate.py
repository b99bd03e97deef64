"""Golden CLI outputs: the cases, their runner, and the manifest writer.

Each case is one `yingram` command line, run in-process on seeded inputs
written to a scratch directory. Its record holds the exit code, stdout,
stderr (temp-file pids masked) and the sha256 of every file it wrote.
`tests/test_golden.py` compares a fresh run with `manifest.json`, so any
change of output bytes fails until the manifest is regenerated on purpose:

    PYTHONPATH=src python tests/golden/regenerate.py

The script prints each case whose record changed against the manifest it
replaces; a regeneration lists those keys, and why, in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from yingram import harmonic_tone, pitch_shifted_copy, shift_to_semitones, vibrato_tone
from yingram.cli import main

MANIFEST = Path(__file__).with_name("manifest.json")
SR = 22050

# sample kind -> (format tag, bits, dtype, integer scale)
_WAV_HEAD = {
    "s16": (1, 16, "<i2", 32767.0), "s24": (1, 24, None, 8388607.0), "f32": (3, 32, "<f4", None),
}


def _wav_bytes(samples: np.ndarray, sr: int, kind: str) -> bytes:
    """A RIFF/WAVE file of samples (n or n x channels, nominal [-1, 1])."""
    tag, bits, dtype, scale = _WAV_HEAD[kind]
    frames = np.asarray(samples, dtype=np.float64)
    frames = frames[:, None] if frames.ndim == 1 else frames
    channels = frames.shape[1]
    if scale is None:
        data = frames.astype(dtype).tobytes()
    elif dtype is None:  # 24-bit: the low three bytes of each little-endian int32
        ints = np.round(frames * scale).astype("<i4")
        data = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        data = np.round(frames * scale).astype(dtype).tobytes()
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, sr, sr * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _voice(sr: int, seed: int) -> np.ndarray:
    """About 1.3 s: a harmonic tone, silence, quiet noise, then vibrato."""
    rng = np.random.default_rng(seed)
    return np.concatenate((
        harmonic_tone(180.0, 0.6, sample_rate=sr, seed=seed).samples,
        np.zeros(sr // 10),
        0.05 * rng.standard_normal(sr // 8),
        vibrato_tone(240.0, 0.5, sample_rate=sr).samples,
    ))


def write_inputs(root: Path) -> None:
    """The seeded input files every case reads, relative to root."""
    voice = _voice(SR, 1)
    (root / "voice.wav").write_bytes(_wav_bytes(voice, SR, "f32"))
    normal = harmonic_tone(150.0, 1.0, seed=2)
    shifted = pitch_shifted_copy(normal, shift_to_semitones(4))
    (root / "normal.wav").write_bytes(_wav_bytes(normal.samples, SR, "f32"))
    (root / "shifted.wav").write_bytes(_wav_bytes(shifted.samples, SR, "f32"))
    left, right = _voice(48000, 3), 0.8 * _voice(48000, 4)
    (root / "stereo48k.wav").write_bytes(_wav_bytes(np.stack((left, right), 1), 48000, "s24"))
    (root / "mono44k.wav").write_bytes(_wav_bytes(_voice(44100, 5), 44100, "s16"))
    # about 2.7 s: `load_wav` reads its data chunk in many blocks
    left = np.concatenate((_voice(48000, 6), _voice(48000, 7)))
    right = 0.8 * np.concatenate((_voice(48000, 8), _voice(48000, 9)))
    (root / "long48k.wav").write_bytes(_wav_bytes(np.stack((left, right), 1), 48000, "s24"))
    (root / "short.wav").write_bytes(_wav_bytes(harmonic_tone(200.0, 0.05).samples, SR, "f32"))
    (root / "empty.wav").write_bytes(_wav_bytes(np.zeros(0), SR, "s16"))
    (root / "notwav.wav").write_bytes(b"not a riff file at all")
    (root / "bad.cfg").write_text("hop = 0\n")
    (root / "manifest.json").write_text(json.dumps([
        {"normal": "normal.wav", "shifted": "shifted.wav", "scope_shift": 4},
        {"normal": "normal.wav", "shifted": "missing.wav", "scope_shift": 4},
        {"normal": "normal.wav", "shifted": "shifted.wav", "scope_shift": 2.9},
        ["normal.wav", "shifted.wav", 4],
        {"normal": "voice.wav", "shifted": "shifted.wav", "scope_shift": -6},
    ]))
    (root / "broken.json").write_text("[{")
    (root / "object.json").write_text("{}")


def _io(name: str, *flags: str) -> list[str]:
    return ["--out", f"{name}.csv", *flags]


# name -> argv; paths are relative to the scratch directory the cases run in
CASES = {
    "analyze-hop256": ["analyze", "voice.wav", *_io("a256"), "--binary", "a256.f32"],
    "analyze-hop97": ["analyze", "voice.wav", *_io("a97", "--hop", "97"), "--binary", "a97.f32"],
    "analyze-hop512-window1024": [
        "analyze", "voice.wav", *_io("a512", "--hop", "512", "--window", "1024"),
        "--binary", "a512.f32",
    ],
    "f0-hop256": ["f0", "voice.wav", *_io("f256")],
    "f0-hop97": ["f0", "voice.wav", *_io("f97", "--hop", "97")],
    "f0-hop512-window1024": ["f0", "voice.wav", *_io("f512", "--hop", "512", "--window", "1024")],
    "analyze-hop4000": ["analyze", "voice.wav", "--hop", "4000", "--binary", "a4000.f32"],
    "f0-hop2048": ["f0", "voice.wav", *_io("f2048", "--hop", "2048")],
    "analyze-48k-stereo-s24": ["analyze", "stereo48k.wav", "--binary", "st.f32"],
    "f0-48k-stereo-s24": ["f0", "stereo48k.wav", *_io("fst")],
    "analyze-48k-stereo-s24-blocks": ["analyze", "long48k.wav", *_io("lst"), "--binary", "lst.f32"],
    "f0-48k-stereo-s24-blocks": ["f0", "long48k.wav", *_io("flst")],
    "analyze-44k-s16": ["analyze", "mono44k.wav", *_io("m44")],
    "f0-44k-s16": ["f0", "mono44k.wav", *_io("fm44")],
    "analyze-shorter-than-a-frame": ["analyze", "short.wav", *_io("sh"), "--binary", "sh.f32"],
    "f0-shorter-than-a-frame": ["f0", "short.wav", *_io("fsh")],
    "analyze-empty": ["analyze", "empty.wav", *_io("e"), "--binary", "e.f32"],
    "f0-empty": ["f0", "empty.wav", *_io("fe")],
    "compare-shift-file": [
        "compare-shift", "normal.wav", "shifted.wav", "--scope-shift", "4", "--out", "cs.json",
    ],
    "compare-shift-stdout": ["compare-shift", "normal.wav", "shifted.wav", "--scope-shift", "4"],
    "compare-shift-fails": ["compare-shift", "normal.wav", "shifted.wav", "--scope-shift", "-6"],
    "batch-json-csv": ["batch", "manifest.json", "--out-json", "b.json", "--out-csv", "b.csv"],
    "batch-csv": ["batch", "manifest.json", "--out-csv", "bc.csv"],
    "batch-stdout": ["batch", "manifest.json"],
    "gradcheck-frames5": ["gradcheck", "--frames", "5", "--out", "gc.json"],
    # error paths: exit 2 and one stderr line, or argparse's usage message
    "error-analyze-no-output": ["analyze", "voice.wav"],
    "error-missing-input": ["f0", "missing.wav", "--out", "x.csv"],
    "error-not-a-wav": ["analyze", "notwav.wav", "--out", "x.csv"],
    "error-invalid-flag-value": ["analyze", "voice.wav", "--out", "x.csv", "--hop", "0"],
    "error-invalid-config-file": ["f0", "voice.wav", "--out", "x.csv", "--config", "bad.cfg"],
    "error-output-dir-missing": ["f0", "voice.wav", "--out", "nodir/x.csv"],
    "error-shift-out-of-range": [
        "compare-shift", "normal.wav", "shifted.wav", "--scope-shift", "16",
    ],
    "error-batch-malformed-json": ["batch", "broken.json"],
    "error-batch-not-an-array": ["batch", "object.json"],
    "error-usage-no-command": [],
    "error-usage-missing-shift": ["compare-shift", "normal.wav", "shifted.wav"],
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _snapshot(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): _sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


def _mask(text: str) -> str:
    """Temp files are named <target>.tmp<pid>: mask the pid."""
    return re.sub(r"\.tmp\d+", ".tmp<pid>", text)


def run_case(root: Path, argv: list[str]) -> dict:
    """Run one command line in root: exit code, stdout, masked stderr, and
    the sha256 of each file it created or changed. argparse wraps its usage
    text at $COLUMNS, so that is fixed at 80 for the run."""
    before = _snapshot(root)
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(root)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    after = _snapshot(root)
    files = {name: sha for name, sha in after.items() if before.get(name) != sha}
    return {
        "argv": list(argv), "exit": code, "stdout": out.getvalue(),
        "stderr": _mask(err.getvalue()), "files": files,
    }


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_all(root: Path) -> dict:
    """Inputs and every case, in order, in the empty directory root."""
    write_inputs(root)
    inputs = _snapshot(root)
    return {
        **versions(),
        "inputs": inputs,
        "cases": {name: run_case(root, argv) for name, argv in CASES.items()},
    }


def _flat(case: dict) -> dict:
    """A case record keyed by field, with each written file as "files/<name>"."""
    files = {f"files/{name}": sha for name, sha in case["files"].items()}
    return {**{k: v for k, v in case.items() if k != "files"}, **files}


def changed_keys(old: dict, new: dict) -> list[str]:
    """One line per case whose record differs between two manifests: the
    case added or removed, or the case and the keys of its record that differ."""
    lines = []
    old_cases, new_cases = old.get("cases", {}), new["cases"]
    for name in sorted(old_cases.keys() | new_cases.keys()):
        if name not in old_cases or name not in new_cases:
            lines.append(f"{name} ({'added' if name in new_cases else 'removed'})")
            continue
        a, b = _flat(old_cases[name]), _flat(new_cases[name])
        keys = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
        if keys:
            lines.append(f"{name}: {', '.join(keys)}")
    return lines


def main_regenerate() -> None:
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        record = run_all(Path(tmp))
    MANIFEST.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}: {len(record['cases'])} cases", file=sys.stderr)
    for key in ("numpy", "scipy", "inputs"):
        if old.get(key) != record[key]:
            print(f"changed: {key}", file=sys.stderr)
    changed = changed_keys(old, record)
    for line in changed:
        print(f"changed: {line}", file=sys.stderr)
    if not changed:
        print("no case changed", file=sys.stderr)


if __name__ == "__main__":
    main_regenerate()
