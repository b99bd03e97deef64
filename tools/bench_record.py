#!/usr/bin/env python3
"""Record the benchmark into BENCH_<n>.json, and compare two such files.

    python3 tools/bench_record.py [--checkout DIR]
    python3 tools/bench_record.py --compare BENCH_1.json BENCH_2.json
    python3 tools/bench_record.py --pairs N --parent DIR --workload W [--out FILE]

Recording runs BENCHMARK.json's command (`python3 bench/run.py --workload W
--seed N --seconds 20 --trace 0`) in the checkout DIR (default: this one),
one subprocess per workload and seed over SEEDS.  Each run's
`.bench_results/<W>-seed<N>-trace0.json` is read as soon as the run ends,
because the next run of that workload and seed overwrites it.  Then one
`--trace 1` run per workload at TRACE_SEED records where the time went.  The
file is written at the root of this repository, as BENCH_<n>.json with n
the next free number.  Per workload it holds each gated metric's median,
quartiles and samples, the input and output digests of each seed, and
`correct`, and, marked `"gated": false`, the traced run's `per_layer`
metrics and its self-time shares by op kind; for the whole file, the commit
with a dirty flag, the command and the environment.  Runs whose
environments differ are refused.

`--compare A B` prints, per workload and gated metric, the medians, their
ratio B/A, both interquartile ranges and whether the gap exceeds the bound
in BENCHMARK.json.  It exits 1 when a metric is worse than its bound, an
output digest differs, a workload's `correct` turns false, or its largest
`failed_op_share` rises.  Then, for workloads whose per-layer blocks both
files hold, it prints each per-layer metric and each layer's self-time
share with their ratios B/A, and flags the metrics the bench is known to
misreport (KNOWN_FAULTS, DEAD_LAYERS); these never change the exit code.
It refuses, with exit 2 and one line on stderr, a file that is not a BENCH
file, and files from different environments, with different workloads,
metrics or input digests, or with a metric that BENCHMARK.json does not
bound; a failed run while recording exits 2 the same way.  Numbers compare
only within one machine.

`--pairs N --parent DIR --workload W` runs the workload N times in each of
two checkouts, the parent DIR (A) and the change (B, --checkout), one pair
per seed from PAIR_SEED0 on, outside SEEDS; A runs first in even pairs and
B in odd ones, so neither side always runs second.  Each run's record is
read before the next run.  It prints, per gated metric, both sides' medians
and quartiles, B/A of the medians, how many pairs B won (ties count for
neither side) and the median ratio of each pair's second run to its first,
the order effect.  Then, per op key, both sides' median over the pairs of
each run's median `op_probes` cost, with B/A and B's wins, so a claim shows
which ops moved.  With N below CLAIM_PAIRS it says, in one line, that so
few pairs cannot back a claim.  With --out FILE it writes every pair's
samples and the summary as JSON.  It exits 1 when an output digest differs, `correct`
turns false or the largest `failed_op_share` rises, and 2, with one line
on stderr, for runs whose environments or input digests differ, and,
before the first run, for a workload BENCHMARK.json does not list or an
--out FILE that exists or whose directory does not.  The wins never
change the exit code.
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
# the seed of a `--pairs` run's first pair; pair k runs seed PAIR_SEED0 + k
PAIR_SEED0 = 1000
# the fewest pairs that can back a claimed gain, which must win nine in ten;
# five grad_frames pairs on unchanged code once read 5/5 losses at 2%
CLAIM_PAIRS = 10
RUN_TIMEOUT_S = 900
# what a BENCH file keeps per metric and per seed of a workload
METRIC_KEYS = ("median", "q1", "q3")
SEED_KEYS = ("input_sha256", "output_sha256", "failed_op_share")
# the seed of each workload's one traced run, and what its block keeps
TRACE_SEED = 0
LAYER_KEYS = ("metrics", "shares")
# Per-layer metrics the bench misreports, each with the test of the value
# that shows the fault and what it is; mending them needs a change under
# bench/, so they are flagged here, never dropped.
KNOWN_FAULTS = {
    "feature.discarded_row_share": (lambda v: v == 0, "reads 0: counts only compute_yingram "
                                    "rows inside evaluate_shift_pair"),
    "grid.channel_lags_per_frame": (lambda v: True, "counts lag-table cache lookups, not builds"),
    "trace.overhead_share": (lambda v: v < 0, "negative: the overhead estimate overshoots"),
    "yin.cmnd_per_frame": (lambda v: v == 0, "reads 0: counts frames of audio.frame_signal, "
                           "which analysis does not call"),
}
# layers the tracer still wraps, although analysis runs on blocks and no
# longer calls them: their metrics read 0 outside the per-frame path; the
# three the CLI and `evaluate_shift_pair` bypass since they hand
# `feature._analyse` a clip at any rate; and `audio.load_wav`, since every
# command streams its WAV files
DEAD_LAYERS = ("audio.frame_signal", "yin.cmnd", "yin.pick_lag", "yin.estimate_f0",
               "yin.parabolic_refine", "feature.yingram_frame", "audio.resample",
               "feature.compute_yingram", "evaluate.extract_pitch_contour", "audio.load_wav")


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive; one sample is all three."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def _run_environment(record: dict) -> dict:
    """The record's environment without the seed, which differs by design."""
    return {k: v for k, v in record["environment"].items() if k != "seed"}


def aggregate(runs: list[dict], benchmark: dict, traced: list[dict] = ()) -> dict:
    """The BENCH_<n>.json body of `runs`, each {"workload", "seed", "correct",
    "record"} with `record` as bench/run.py writes it; a workload's run in
    `traced`, of the same form from a `--trace 1` run, gives its ungated
    per-layer block.

    Raises:
        ValueError: when the runs' environments differ, or a workload has no run.
    """
    if not runs:
        raise ValueError("no runs to aggregate")
    environment = _run_environment(runs[0]["record"])
    for run in [*runs, *traced]:
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
        for run in traced:
            if run["workload"] == spec["name"]:
                workloads[spec["name"]]["per_layer"] = {
                    "gated": False, "seed": run["seed"], "correct": run["correct"],
                    "metrics": run["record"]["per_layer"],
                    "shares": run["record"]["self_share_by_op_kind"]}
    return {"environment": environment, "workloads": workloads}


def _fault(name: str, value: float) -> str:
    """The known bench fault `value` of per-layer metric `name` shows, or ''."""
    test, note = KNOWN_FAULTS.get(name, (None, ""))
    if test is not None and test(value):
        return f"bench FOUND: {note}"
    if value == 0 and any(name.startswith(layer + ".") for layer in DEAD_LAYERS):
        return "bench FOUND: reads 0, a layer analysis no longer calls"
    return ""


def _ratio(a: float, b: float) -> str:
    return f"{b / a:7.3f}" if a else f"{'-':>7s}"


def compare_layers(a: dict, b: dict) -> list[str]:
    """Report lines comparing the ungated per-layer blocks of BENCH file `b`
    against base `a`: each metric and each op kind's self-time share of each
    span, with B/A and the fault a value shows; a workload whose block either
    file lacks gets one line saying so."""
    lines = [f"per layer, ungated: one --trace 1 run per workload at seed {TRACE_SEED}",
             f"{'workload':12s} {'metric':44s} {'A':>10s} {'B':>10s} {'B/A':>7s}  known fault"]
    for name, wa in a["workloads"].items():
        la, lb = wa.get("per_layer"), b["workloads"][name].get("per_layer")
        if la is None or lb is None:
            missing = " and ".join(f for f, block in (("A", la), ("B", lb)) if block is None)
            lines.append(f"{name:12s} per-layer block not recorded in {missing}")
            continue
        for metric in sorted(la["metrics"].keys() | lb["metrics"].keys()):
            va, vb = la["metrics"].get(metric, 0.0), lb["metrics"].get(metric, 0.0)
            flag = " / ".join(sorted({_fault(metric, v) for v in (va, vb)} - {""}))
            lines.append(f"{name:12s} {metric:44s} {va:10.4g} {vb:10.4g} {_ratio(va, vb)}  {flag}")
        for kind in sorted(la["shares"].keys() | lb["shares"].keys()):
            sa, sb = la["shares"].get(kind, {}), lb["shares"].get(kind, {})
            for span in sorted(sa.keys() | sb.keys()):
                va, vb = sa.get(span, 0.0), sb.get(span, 0.0)
                lines.append(f"{name:12s} {'share of ' + kind + ' ops: ' + span:44s} "
                             f"{va:10.4g} {vb:10.4g} {_ratio(va, vb)}")
    return lines


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


def _dirty(checkout: Path) -> bool | None:
    """Whether the checkout has uncommitted changes; None outside git."""
    status = _git(checkout, "status", "--porcelain")
    return None if status is None else bool(status)


def run_one(checkout: Path, command: list[str], workload: str, seed: int, seconds: float,
            trace: int = 0) -> dict:
    """One bench run, traced when `trace` is 1; its record and the `correct`
    of its last stdout line. Raises RuntimeError, naming the workload and
    seed, when the run fails or its last stdout line is not a JSON object
    holding `correct`."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
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
    path = checkout / ".bench_results" / f"{workload}-seed{seed}-trace{trace}.json"
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
    traced = [run_one(checkout, command, spec["name"], TRACE_SEED, seconds, trace=1)
              for spec in benchmark["workloads"]]
    body = aggregate(runs, benchmark, traced)
    out = {"commit": _git(checkout, "rev-parse", "HEAD"), "dirty": _dirty(checkout),
           "command": [*command, "--workload", "W", "--seed", "N", "--seconds", str(seconds),
                       "--trace", "0"],
           "seeds": list(SEEDS), **body}
    n = 1
    while (REPO / f"BENCH_{n}.json").exists():
        n += 1
    path = REPO / f"BENCH_{n}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return path


def run_pairs(parent: Path, checkout: Path, workload: str, n: int) -> list[dict]:
    """N alternating pairs of one workload: per pair its seed, which side
    ran first ("A" the parent, "B" the change) and each side's run as
    `run_one` returns it.  Runs use the change's BENCHMARK.json command.

    Raises:
        ValueError: as soon as a run's environment differs from the first
            run's, or a pair's input digests differ.
    """
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    command, seconds = benchmark["command"], benchmark["run_seconds"]
    pairs, environment = [], None
    for k in range(n):
        seed = PAIR_SEED0 + k
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_one(parent if side == "A" else checkout, command, workload, seed, seconds)
            environment = environment or _run_environment(pair[side]["record"])
            if _run_environment(pair[side]["record"]) != environment:
                raise ValueError(f"environments differ: {side} seed {seed} ran in "
                                 f"{_run_environment(pair[side]['record'])}, not {environment}")
        if pair["A"]["record"]["input_sha256"] != pair["B"]["record"]["input_sha256"]:
            raise ValueError(f"input digests of seed {seed} differ")
        print(f"{workload} seed {seed}, {order[0]} first: " + ", ".join(
            f"{m} {pair['A']['record']['end_to_end'][m]['value']:.4g} -> "
            f"{pair['B']['record']['end_to_end'][m]['value']:.4g}"
            for m in pair["A"]["record"]["end_to_end"]), file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def summarize_pairs(pairs: list[dict], benchmark: dict) -> tuple[dict, list[str], bool]:
    """(summary, report lines, ok) of `run_pairs`' pairs: per gated metric
    each side's median and quartiles, B/A of the medians, B's wins and the
    median second-run/first-run ratio; ok unless an output digest differs,
    B turns incorrect or B's largest failed_op_share exceeds A's."""
    lines = [f"{len(pairs)} pairs, seeds {pairs[0]['seed']}..{pairs[-1]['seed']}, A = parent, "
             f"B = change",
             f"{'metric':21s} {'median A':>10s} {'q1..q3 A':>19s} {'median B':>10s} "
             f"{'q1..q3 B':>19s} {'B/A':>7s} {'B wins':>7s} {'2nd/1st':>8s}"]
    summary = {}
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        values = {side: [p[side]["record"]["end_to_end"][name]["value"] for p in pairs]
                  for side in "AB"}
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (b - a) < 0 for a, b in zip(values["A"], values["B"]))
        order = [p["B" if p["first"] == "A" else "A"]["record"]["end_to_end"][name]["value"]
                 / p[p["first"]]["record"]["end_to_end"][name]["value"] for p in pairs
                 if p[p["first"]]["record"]["end_to_end"][name]["value"]]
        entry = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side])), samples=values[side])
                 for side in "AB"}
        a, b = entry["A"]["median"], entry["B"]["median"]
        entry.update(ratio=b / a if a else None, wins=wins,
                     second_over_first=statistics.median(order) if order else None)
        summary[name] = entry
        lines.append(f"{name:21s} {a:10.4g} {entry['A']['q1']:9.4g}..{entry['A']['q3']:<8.4g} "
                     f"{b:10.4g} {entry['B']['q1']:9.4g}..{entry['B']['q3']:<8.4g} "
                     f"{_ratio(a, b)} {wins:4d}/{len(pairs):<2d} "
                     f"{entry['second_over_first'] or float('nan'):8.3f}")
    ops, op_lines = summarize_ops(pairs)
    lines += op_lines
    differ = [p["seed"] for p in pairs
              if p["A"]["record"]["output_sha256"] != p["B"]["record"]["output_sha256"]]
    correct = {side: all(p[side]["correct"] for p in pairs) for side in "AB"}
    failed = {side: max(p[side]["record"]["failed_op_share"] for p in pairs) for side in "AB"}
    ok = not differ and (correct["B"] or not correct["A"]) and failed["B"] <= failed["A"]
    lines.append(f"outputs {'DIFFER on seeds ' + str(differ) if differ else 'equal'}; correct "
                 f"{correct['A']} -> {correct['B']}; failed_op_share max {failed['A']} -> {failed['B']}")
    summary = {"environment": _run_environment(pairs[0]["A"]["record"]), "metrics": summary, "outputs_differ_on": differ,
               "correct": correct, "failed_op_share_max": failed, "ok": ok, "ops": ops}
    return summary, lines, ok


def _op_medians(run: dict) -> dict[str, float]:
    """Per op key, the median of a run's `op_probes` samples; keys without one are left out."""
    return {key: statistics.median(v) for key, v in run["record"].get("op_probes", {}).items() if v}


def summarize_ops(pairs: list[dict]) -> tuple[dict, list[str]]:
    """(per op key summary, report lines) of `run_pairs`' pairs: each side's
    median over the pairs of its runs' median `op_probes` cost, B/A and B's
    wins among the pairs where both sides ran the op, so a claim shows which
    ops it moved."""
    medians = [{side: _op_medians(p[side]) for side in "AB"} for p in pairs]
    ops, lines = {}, []
    for key in sorted(set().union(*(m["A"].keys() & m["B"].keys() for m in medians))):
        both = [(m["A"][key], m["B"][key]) for m in medians if key in m["A"] and key in m["B"]]
        a, b = (statistics.median(side) for side in zip(*both))
        ops[key] = {"A": a, "B": b, "ratio": b / a if a else None, "pairs": len(both),
                    "wins": sum(vb < va for va, vb in both)}
        lines.append(f"{'op ' + key:21s} {a:10.4g} {'':19s} {b:10.4g} {'':19s} {_ratio(a, b)} "
                     f"{ops[key]['wins']:4d}/{len(both):<2d}")
    if lines:
        lines.insert(0, "per op key: the median over pairs of each run's median op_probes")
    return ops, lines


def _pair_record(pair: dict) -> dict:
    """What --out keeps of one pair: per side its end-to-end values, median
    op costs, digests and verdict."""
    return {"seed": pair["seed"], "first": pair["first"], **{
        side: {"correct": pair[side]["correct"],
               "end_to_end": {k: v["value"] for k, v in pair[side]["record"]["end_to_end"].items()},
               "op_probes_median": _op_medians(pair[side]),
               **{k: pair[side]["record"][k] for k in SEED_KEYS}} for side in "AB"}}


def pairs_main(parent: Path, checkout: Path, workload: str, n: int, out: Path | None) -> int:
    """--pairs: run, report and, with `out`, record N pairs; the exit code."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    names = [spec["name"] for spec in benchmark["workloads"]]
    if workload not in names:
        raise ValueError(f"workload {workload!r} is not in BENCHMARK.json: {', '.join(names)}")
    if out is not None and (out.exists() or not out.parent.is_dir()):
        raise ValueError(f"--out {out} already exists" if out.exists()
                         else f"--out {out}: no directory {out.parent}")
    pairs = run_pairs(parent, checkout, workload, n)
    summary, lines, ok = summarize_pairs(pairs, benchmark)
    if n < CLAIM_PAIRS:
        lines.append(f"{n} pairs: fewer than {CLAIM_PAIRS} pairs cannot back a claim")
    print("\n".join([f"workload {workload}", *lines]))
    if out is not None:
        sides = {side: {"commit": _git(path, "rev-parse", "HEAD"), "dirty": _dirty(path)}
                 for side, path in (("A", parent), ("B", checkout))}
        out.write_text(json.dumps({"workload": workload, "sides": sides,
                                   "command": benchmark["command"],
                                   "run_seconds": benchmark["run_seconds"], **summary,
                                   "pairs": [_pair_record(p) for p in pairs]},
                                  indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


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
        layers = w.get("per_layer", {key: {} for key in LAYER_KEYS})
        if not (isinstance(layers, dict) and all(isinstance(layers.get(k), dict) for k in LAYER_KEYS)):
            raise ValueError(f"{path} is not a BENCH file: the per_layer block of workload "
                             f"{name} needs {', '.join(LAYER_KEYS)}")
    return body


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, default=REPO,
                   help="the checkout whose bench/run.py and src/ are run (default: this one)")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                   help="compare BENCH file B against base A instead of recording")
    p.add_argument("--pairs", type=int, metavar="N",
                   help="run N alternating pairs of --parent against --checkout instead")
    p.add_argument("--parent", type=Path, help="the base checkout of --pairs")
    p.add_argument("--workload", help="the workload --pairs runs")
    p.add_argument("--out", type=Path, help="where --pairs writes its samples and summary")
    args = p.parse_args(argv)
    if args.pairs is not None and (args.pairs < 1 or not args.parent or not args.workload):
        p.error("--pairs needs N >= 1, --parent and --workload")
    try:
        if args.pairs is not None:
            return pairs_main(args.parent.resolve(), args.checkout.resolve(), args.workload,
                              args.pairs, args.out)
        if args.compare:
            benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
            a, b = map(_read_bench, args.compare)
            lines, ok = compare(a, b, benchmark)
            print("\n".join(lines + compare_layers(a, b)))
            return 0 if ok else 1
        print(record(args.checkout.resolve()))
        return 0
    except (ValueError, RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
