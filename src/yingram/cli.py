"""Command line front end.

Subcommands: analyze (Yingram export), f0 (pitch contour CSV), compare-shift
(pairwise shift verdict), gradcheck (finite-difference verification) and
batch (manifest-driven evaluation). Exit codes: 0 success/pass, 1 evaluation
failure (for batch, a failing or errored entry), 2 usage or I/O error. All
randomness hangs off --seed, and output files are written atomically (temp
file + rename), so identical inputs and flags reproduce identical bytes.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections.abc import Iterator
from pathlib import Path

from .audio import _WavFile
from .config import AnalysisConfig, coerce_field, read_config_file
from .evaluate import _score_files, batch_report
from .feature import (
    PitchContour,
    _analyse,
    _atomic_write,
    _sidecar,
    _write_json,
    write_yingram_binary,
    write_yingram_csv,
)
from .gradients import DEFAULT_FD_EPS, DEFAULT_FD_TOLERANCE, DEFAULT_PROBES, gradcheck_suite

__all__ = ["main"]

# One flag per AnalysisConfig field, "--" + the name with dashes; these two
# keep their short historical spellings.
_FLAG_SPELLINGS = {"f_min": "--fmin", "f_max": "--fmax"}
_CONFIG_FIELDS = [f.name for f in dataclasses.fields(AnalysisConfig)]


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("analysis config")
    group.add_argument("--config", metavar="FILE", help="JSON or key=value config file")
    for name in _CONFIG_FIELDS:
        flag = _FLAG_SPELLINGS.get(name, "--" + name.replace("_", "-"))
        group.add_argument(flag, dest=f"cfg_{name}", default=None)
    return parent


def _resolve_config(args: argparse.Namespace) -> AnalysisConfig:
    """Defaults, then the config file, then the flags, validated once as a
    whole, so a file value may rely on a flag (and the reverse)."""
    overrides = read_config_file(args.config) if args.config else {}
    for name in _CONFIG_FIELDS:
        value = getattr(args, f"cfg_{name}")
        if value is not None:
            overrides[name] = coerce_field(name, value)
    return AnalysisConfig(**overrides)


def _cmd_analyze(args: argparse.Namespace, cfg: AnalysisConfig) -> int:
    if not args.out and not args.binary:
        print("error: analyze needs --out and/or --binary", file=sys.stderr)
        return 2
    with _WavFile(args.input) as wav:
        matrix = _analyse(wav, cfg)[0]
    extra = {"config": cfg.to_dict()}
    if args.out:
        write_yingram_csv(matrix, args.out)
        _write_json(str(args.out) + ".json", _sidecar(matrix, extra))
    if args.binary:
        write_yingram_binary(matrix, args.binary, extra=extra)
    return 0


def _cmd_f0(args: argparse.Namespace, cfg: AnalysisConfig) -> int:
    with _WavFile(args.input) as wav:
        contour = _analyse(wav, cfg)[1]
    _atomic_write(args.out, _f0_csv_lines(contour))
    _write_json(args.out + ".json", {"frames": len(contour), "config": cfg.to_dict()})
    return 0


def _f0_csv_lines(contour: PitchContour) -> Iterator[str]:
    """The contour CSV's lines: a header, then frame, time, f0 (empty when
    unvoiced) and aperiodicity, formatted from Python floats (NaN is the one
    value unequal to itself)."""
    yield "frame,time_sec,f0_hz,aperiodicity"
    rows = zip(contour.times.tolist(), contour.f0.tolist(), contour.aperiodicity.tolist())
    for k, (t, hz, ap) in enumerate(rows):
        yield f"{k},{t:.6f},{'' if hz != hz else format(hz, '.4f')},{ap:.6f}"


def _cmd_compare_shift(args: argparse.Namespace, cfg: AnalysisConfig) -> int:
    report = _score_files(args.normal, args.shifted, args.scope_shift, cfg)
    _write_json(args.out, {**report.to_dict(), "config": cfg.to_dict()})
    return 0 if report.passed or args.no_verdict_exit else 1


def _cmd_gradcheck(args: argparse.Namespace, cfg: AnalysisConfig) -> int:
    reports = gradcheck_suite(
        args.frames, cfg, eps=args.eps, probes=args.probes, tolerance=args.tolerance
    )
    if not any(r.probes_checked for r in reports):  # --frames 0, or each probe skipped
        print("warning: no probe was compared, gradcheck passes vacuously", file=sys.stderr)
    all_pass = all(r.passed for r in reports)
    errors = [r.max_rel_error for r in reports]
    _write_json(args.out, {
        "frames": args.frames,
        "eps": args.eps,
        "tolerance": args.tolerance,
        "all_pass": all_pass,
        # max() of a list holding NaN depends on its order; any NaN makes it null
        "max_rel_error": None if any(map(math.isnan, errors)) else max(errors, default=0.0),
        "reports": [r.to_dict() for r in reports],
        "config": cfg.to_dict(),
    })
    return 0 if all_pass else 1


def _cmd_batch(args: argparse.Namespace, cfg: AnalysisConfig) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except json.JSONDecodeError as exc:
        print(f"error: malformed manifest JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(manifest, list):
        print("error: manifest must be a JSON array", file=sys.stderr)
        return 2
    report = batch_report(manifest, cfg)
    if args.out_json or not args.out_csv:
        _write_json(args.out_json, report.to_dict())
    if args.out_csv:
        _atomic_write(args.out_csv, report.csv_lines())
    return 0 if report.all_passed else 1


# built once per process: every call of `main` parses into a fresh Namespace
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parent = _config_parent()
    parser = argparse.ArgumentParser(
        prog="yingram",
        description="Yingram pitch analysis, losses and shift evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[parent], help="export a Yingram matrix")
    p.add_argument("input", help="input WAV file")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--binary", help="raw float32 output path (JSON sidecar alongside)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("f0", parents=[parent], help="export a pitch contour CSV")
    p.add_argument("input", help="input WAV file")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_f0)

    p = sub.add_parser("compare-shift", parents=[parent], help="score a normal/shifted pair")
    p.add_argument("normal", help="reference WAV file")
    p.add_argument("shifted", help="pitch-shifted WAV file")
    p.add_argument("--scope-shift", type=int, required=True, help="scope shift s")
    p.add_argument("--out", help="JSON report path (default: stdout)")
    p.add_argument("--no-verdict-exit", action="store_true",
                   help="always exit 0 instead of 1 on a failing verdict")
    p.set_defaults(func=_cmd_compare_shift)

    p = sub.add_parser(
        "gradcheck", parents=[parent], help="verify analytic gradients against FD"
    )
    p.add_argument("--frames", type=int, default=50, help="number of random frames")
    p.add_argument("--eps", type=float, default=DEFAULT_FD_EPS, help="finite-difference step")
    p.add_argument("--probes", type=int, default=DEFAULT_PROBES, help="probed samples per frame")
    p.add_argument(
        "--tolerance", type=float, default=DEFAULT_FD_TOLERANCE, help="relative tolerance"
    )
    p.add_argument("--out", help="JSON report path (default: stdout)")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("batch", parents=[parent], help="evaluate a manifest of pairs")
    p.add_argument("manifest", help="JSON array of {normal, shifted, scope_shift}")
    p.add_argument("--out-json", help="full JSON report path")
    p.add_argument("--out-csv", help="per-pair CSV path")
    p.set_defaults(func=_cmd_batch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _resolve_config(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # say, a clip whose header claims a rate that blows it up
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
