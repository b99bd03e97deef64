#!/usr/bin/env python3
"""Record the benchmark into BENCH_<n>.json, and compare two such files.

    python3 tools/bench_record.py [--checkout DIR]
    python3 tools/bench_record.py --compare BENCH_1.json BENCH_2.json

Recording runs BENCHMARK.json's command (`python3 bench/run.py --workload W
--seed N --seconds 20 --trace 0`) in the checkout DIR (default: this one),
one subprocess per workload and seed over SEEDS.  Each run's
`.bench_results/<W>-seed<N>-trace0.json` is read as soon as the run ends,
because the next run of that workload and seed overwrites it.  The file is
written at the root of this repository, as BENCH_<n>.json with n the next
free number.  Per workload it holds each gated metric's median, quartiles
and samples, the input and output digests of each seed, and `correct`; for
the whole file, the commit with a dirty flag, the command and the
environment.  Runs whose environments differ are refused.

`--compare A B` prints, per workload and gated metric, the medians, their
ratio B/A, both interquartile ranges and whether the gap exceeds the bound
in BENCHMARK.json.  It exits 1 when a metric is worse than its bound, an
output digest differs, a workload's `correct` turns false, or its largest
`failed_op_share` rises.  It refuses, with exit 2 and one line on stderr,
a file that is not a BENCH file, and files from different environments,
with different workloads, metrics or input digests, or with a metric that
BENCHMARK.json does not bound; a failed run while recording exits 2 the
same way.  Numbers compare only within one machine.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2, 3, 4)
RUN_TIMEOUT_S = 900
# what a BENCH file keeps per metric and per seed of a workload
METRIC_KEYS = ("median", "q1", "q3")
SEED_KEYS = ("input_sha256", "output_sha256", "failed_op_share")


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive; one sample is all three."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def _run_environment(record: dict) -> dict:
    """The record's environment without the seed, which differs by design."""
    return {k: v for k, v in record["environment"].items() if k != "seed"}


def aggregate(runs: list[dict], benchmark: dict) -> dict:
    """The BENCH_<n>.json body of `runs`, each {"workload", "seed", "correct",
    "record"} with `record` as bench/run.py writes it.

    Raises:
        ValueError: when the runs' environments differ, or a workload has no run.
    """
    if not runs:
        raise ValueError("no runs to aggregate")
    environment = _run_environment(runs[0]["record"])
    for run in runs:
        if _run_environment(run["record"]) != environment:
            raise ValueError(f"environments differ: {run['workload']} seed {run['seed']} "
                             f"ran in {_run_environment(run['record'])}, not {environment}")
    workloads = {}
    for spec in benchmark["workloads"]:
        mine = sorted((r for r in runs if r["workload"] == spec["name"]), key=lambda r: r["seed"])
        if not mine:
            raise ValueError(f"no run of workload {spec['name']}")
        metrics = {}
        for m in benchmark["end_to_end"]:
            samples = [r["record"]["end_to_end"][m["name"]]["value"] for r in mine]
            q1, median, q3 = quartiles(samples)
            metrics[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                  "samples": samples}
        seeds = {str(r["seed"]): {k: r["record"][k] for k in SEED_KEYS} for r in mine}
        workloads[spec["name"]] = {"correct": all(r["correct"] for r in mine),
                                   "metrics": metrics, "seeds": seeds}
    return {"environment": environment, "workloads": workloads}


def compare(a: dict, b: dict, benchmark: dict) -> tuple[list[str], bool]:
    """Report lines comparing BENCH file `b` against base `a`, and whether
    every metric is within its bound, every output digest equal, no workload
    turns incorrect and none fails a larger share of operations.

    Raises:
        ValueError: for files from different environments, with different
            workloads, metrics or input digests, or with a metric that
            BENCHMARK.json does not bound.
    """
    if a["environment"] != b["environment"]:
        raise ValueError(f"environments differ: {a['environment']} vs {b['environment']}")
    if a["workloads"].keys() != b["workloads"].keys():
        raise ValueError(f"workloads differ: {sorted(a['workloads'])} vs {sorted(b['workloads'])}")
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        if wa["metrics"].keys() != wb["metrics"].keys():
            raise ValueError(f"metrics of workload {name} differ: "
                             f"{sorted(wa['metrics'])} vs {sorted(wb['metrics'])}")
        unknown = sorted(wa["metrics"].keys() - bounds.keys())
        if unknown:
            raise ValueError(f"metrics {unknown} of workload {name} are not in BENCHMARK.json")
        if {s: d["input_sha256"] for s, d in wa["seeds"].items()} != \
                {s: d["input_sha256"] for s, d in wb["seeds"].items()}:
            raise ValueError(f"input digests of workload {name} differ")
    lines = [f"{'workload':12s} {'metric':21s} {'median A':>10s} {'median B':>10s} {'B/A':>7s} "
             f"{'IQR A':>9s} {'IQR B':>9s} {'bound':>6s}  gap"]
    ok = True
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric, ma in wa["metrics"].items():
            mb, spec = wb["metrics"][metric], bounds[metric]
            ratio = mb["median"] / ma["median"] if ma["median"] else float("inf")
            worse = ratio > 1 if spec["better"] == "lower" else ratio < 1
            exceeds = abs(ratio - 1) > spec["bound"]
            ok = ok and not (worse and exceeds)
            gap = ("worse" if worse else "better") + " beyond bound" if exceeds else "within bound"
            lines.append(f"{name:12s} {metric:21s} {ma['median']:10.4g} {mb['median']:10.4g} "
                         f"{ratio:7.3f} {ma['q3'] - ma['q1']:9.3g} {mb['q3'] - mb['q1']:9.3g} "
                         f"{spec['bound']:6.2f}  {gap}")
        same = all(wa["seeds"][s]["output_sha256"] == wb["seeds"].get(s, {}).get("output_sha256")
                   for s in wa["seeds"])
        failed_a, failed_b = (max(d["failed_op_share"] for d in w["seeds"].values())
                              for w in (wa, wb))
        ok = ok and same and (wb["correct"] or not wa["correct"]) and failed_b <= failed_a
        lines.append(f"{name:12s} outputs {'equal' if same else 'DIFFER'}; correct "
                     f"{wa['correct']} -> {wb['correct']}; failed_op_share max "
                     f"{failed_a} -> {failed_b}")
    return lines, ok


def _git(checkout: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_one(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One bench run; its record and the `correct` of its last stdout line.
    Raises RuntimeError, naming the workload and seed, when the run fails or
    its last stdout line is not a JSON object holding `correct`."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        last_err = (done.stderr.strip().splitlines() or [""])[-1]  # a traceback's message
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {last_err}")
    last = (done.stdout.strip().splitlines() or [""])[-1]
    try:
        verdict = json.loads(last)
    except json.JSONDecodeError:
        verdict = None
    if not isinstance(verdict, dict) or "correct" not in verdict:
        raise RuntimeError(f"workload {workload} seed {seed}: the last stdout line is not "
                           f"a JSON verdict with `correct`: {last!r}")
    path = checkout / ".bench_results" / f"{workload}-seed{seed}-trace0.json"
    return {"workload": workload, "seed": seed, "correct": verdict["correct"],
            "record": json.loads(path.read_text())}


def record(checkout: Path) -> Path:
    """Run every workload over SEEDS in `checkout`; the BENCH file's path."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    command, seconds = benchmark["command"], benchmark["run_seconds"]
    runs = []
    for seed in SEEDS:
        for spec in benchmark["workloads"]:
            runs.append(run_one(checkout, command, spec["name"], seed, seconds))
            e2e = runs[-1]["record"]["end_to_end"]
            print(f"{spec['name']} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in e2e.items()), file=sys.stderr, flush=True)
    body = aggregate(runs, benchmark)
    status = _git(checkout, "status", "--porcelain")
    out = {"commit": _git(checkout, "rev-parse", "HEAD"),
           "dirty": None if status is None else bool(status),
           "command": [*command, "--workload", "W", "--seed", "N", "--seconds", str(seconds),
                       "--trace", "0"],
           "seeds": list(SEEDS), **body}
    n = 1
    while (REPO / f"BENCH_{n}.json").exists():
        n += 1
    path = REPO / f"BENCH_{n}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return path


def _holds(entries, keys: tuple[str, ...]) -> bool:
    """`entries` is an object whose every value is an object holding `keys`."""
    return isinstance(entries, dict) and all(isinstance(e, dict) and set(keys) <= e.keys()
                                             for e in entries.values())


def _read_bench(path: Path) -> dict:
    """A BENCH file's body. Raises ValueError naming the file when it is not
    JSON, or not an object holding `environment` and a `workloads` object
    whose every workload holds `correct`, metrics holding METRIC_KEYS and at
    least one seed, each seed holding SEED_KEYS."""
    try:
        body = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
    if not isinstance(body, dict) or not {"environment", "workloads"} <= body.keys() \
            or not isinstance(body["workloads"], dict):
        raise ValueError(f"{path} is not a BENCH file: "
                         "it needs `environment` and a `workloads` object")
    for name, w in body["workloads"].items():
        if not (isinstance(w, dict) and "correct" in w and _holds(w.get("metrics"), METRIC_KEYS)
                and w.get("seeds") and _holds(w["seeds"], SEED_KEYS)):
            raise ValueError(f"{path} is not a BENCH file: workload {name} needs `correct`, "
                             f"metrics holding {', '.join(METRIC_KEYS)} and at least one "
                             f"seed holding {', '.join(SEED_KEYS)}")
    return body


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, default=REPO,
                   help="the checkout whose bench/run.py and src/ are run (default: this one)")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                   help="compare BENCH file B against base A instead of recording")
    args = p.parse_args(argv)
    try:
        if args.compare:
            benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
            a, b = map(_read_bench, args.compare)
            lines, ok = compare(a, b, benchmark)
            print("\n".join(lines))
            return 0 if ok else 1
        print(record(args.checkout.resolve()))
        return 0
    except (ValueError, RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
