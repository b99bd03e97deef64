#!/usr/bin/env python3
"""yingram benchmark.

    python3 bench/run.py --workload {long_clips,shift_batch,grad_frames}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The program under test is `src/yingram` of
the same checkout; it is driven in-process through `yingram.cli.main([...])`
and the public gradient API.  Inputs are generated from --seed; outputs are
judged by oracles after the timed region.  The last stdout line is one JSON
object {correct, attempted, failed, metrics}: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer ones (see bench/METRICS.md).  A fuller
record (environment, sample counts, every workload-specific metric, output
sha256s, and the spans of a traced run) goes to .bench_results/.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.fft  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SETUP_REPEATS = 3


def _import_program() -> None:
    """Import numpy and the checkout's yingram, or raise ImportError."""
    src = REPO / "src"
    if not (src / "yingram" / "__init__.py").is_file():
        raise ImportError(f"no yingram package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401
    import yingram

    if Path(yingram.__file__).resolve().parent != (src / "yingram").resolve():
        raise ImportError(f"yingram imported from {yingram.__file__}, not from {src}")


# ---------------------------------------------------------------- statistics


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return p50(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------- set-up


def setup_inputs(workload: str, seed: int, work: Path) -> tuple[list[float], Path, dict, bool]:
    """Generate the inputs SETUP_REPEATS times, each in a fresh interpreter
    (start-up, imports, synthesis and WAV encoding).  Returns the wall times,
    the first input directory, its sha256 digest and whether every repeat
    wrote the same bytes."""
    import workloads

    times, digests = [], []
    for k in range(SETUP_REPEATS):
        target = work / f"setup{k}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--setup-into", str(target)],
                       check=True, timeout=150, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        digests.append(workloads.input_digest(target))
    inputs = work / "in"
    (work / "setup0").rename(inputs)
    for k in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"setup{k}")
    return times, inputs, digests[0], all(d == digests[0] for d in digests)


# ---------------------------------------------------------------- timed loop


PROBE_EVERY_NS = 25_000_000


class Runner:
    """Executes ops, recording (key, pass, ns, error, start ns) per
    execution, and runs the speed probe between ops (see `probe`)."""

    def __init__(self, grad=None):
        import yingram.cli

        self.cli = yingram.cli
        self.grad = grad
        self.records: list[tuple[str, int, int, str | None, int]] = []
        self.probes: list[tuple[int, int]] = []  # (start ns, duration ns)
        self._probe_x = np.random.default_rng(0).standard_normal(4096)
        self._probe_g = np.zeros(4096)

    def probe(self) -> None:
        """Time a fixed kernel of about 2 ms that mixes an FFT, short numpy
        vector ops and interpreter work, like the program does.  It never
        calls the program, so its time reads only the machine's current
        speed, which on a shared VM swings by 1.6x for seconds at a time."""
        x, g = self._probe_x, self._probe_g
        t0 = time.perf_counter_ns()
        for _ in range(3):
            scipy.fft.irfft(scipy.fft.rfft(x) * 2.0)
            head = x[:2048]
            for k in range(1, 40):
                e = head - x[k : k + 2048]
                g[:2048] += 2.0 * e
                g[k : k + 2048] -= 2.0 * e
            acc = 0
            for i in range(200):
                acc += i
        self.probes.append((t0, time.perf_counter_ns() - t0))

    def run(self, op, pass_index: int) -> None:
        self.maybe_probe()
        self.execute(op, pass_index)

    def maybe_probe(self) -> None:
        if not self.probes or time.perf_counter_ns() - self.probes[-1][0] >= PROBE_EVERY_NS:
            self.probe()

    def execute(self, op, pass_index: int) -> None:
        error = None
        t0 = time.perf_counter_ns()
        try:
            if op.argv is not None:
                rc = self.cli.main(op.argv)  # looked up per call, so tracing sees it
                if rc != 0:
                    error = f"exit code {rc}"
            else:
                self.grad(op.index)
        except SystemExit as exc:  # argparse rejects argv this way
            error = f"SystemExit {exc.code}"
        except Exception:  # one failing op must not stop the run
            error = traceback.format_exc(limit=3)
        self.records.append((op.key, pass_index, time.perf_counter_ns() - t0, error, t0))

    def probe_units(self) -> list[float]:
        """Each execution's time over the mean of the probes just before and
        just after it: its cost in probe units."""
        self.probe()
        starts = [t for t, _ in self.probes]
        out = []
        for _, _, ns, _, t0 in self.records:
            i = bisect.bisect_right(starts, t0) - 1
            j = min(bisect.bisect_left(starts, t0 + ns), len(starts) - 1)
            out.append(ns / ((self.probes[i][1] + self.probes[j][1]) / 2))
        return out


def timed_passes(runner: Runner, ops, seconds: float) -> int:
    """Whole passes over `ops` until `seconds` have elapsed (at least one).
    There is no warm-up pass: the medians have several passes to outvote a
    cold first execution."""
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            runner.run(op, passes)
        passes += 1
    return passes


def traced_passes(runner: Runner, ops, seconds: float, tracer) -> tuple[int, list[float]]:
    """A warm-up pass, then traced passes until half of `seconds` has
    elapsed (at least one).  Each op runs untraced and then traced, back to
    back, so the machine's speed shifts hit both alike.  Returns the number
    of traced passes and each pass's untraced op time (ms)."""
    for op in ops:
        runner.run(op, -1)
    start = time.perf_counter()
    untraced_ms: list[float] = []
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds / 2:
        untraced = 0
        for i, op in enumerate(ops):
            runner.run(op, 2 * passes)
            untraced += runner.records[-1][2]
            runner.maybe_probe()  # outside the span: the probe is not the op's time
            tracer.enabled = True
            span = tracer.begin_op(passes, i)
            runner.execute(op, 2 * passes + 1)
            tracer.finish_op(span)
            tracer.enabled = False
        untraced_ms.append(untraced / 1e6)
        passes += 1
    return passes, untraced_ms


# ---------------------------------------------------------------- metrics


def per_key(ops, records, values) -> dict[str, list[float]]:
    """`values` (one per execution) of the successful timed executions,
    grouped by op key; pass -1 is a warm-up and is left out."""
    out: dict[str, list[float]] = {op.key: [] for op in ops}
    for (key, pass_index, _, error, _), value in zip(records, values):
        if error is None and pass_index >= 0:
            out[key].append(value)
    return out


def per_second(ms_per_unit: float) -> float:
    return 1e3 / ms_per_unit if ms_per_unit else 0.0


def end_to_end(workload: str, ops, records, probe_units, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, workload-specific metrics); each
    maps a name to (value, unit, sample count).

    The workload-specific metrics are wall-clock, as METRICS.md defines them.
    The BENCHMARK.json timings are the same ops in probe units (see
    `Runner.probe`), which cancels the machine's speed swings.  Per-unit
    costs and throughputs sum per-input medians, never whole-run wall time."""
    ms = per_key(ops, records, [ns / 1e6 for _, _, ns, _, _ in records])
    pu = per_key(ops, records, probe_units)
    kind = {k: [op for op in ops if op.kind == k] for k in {op.kind for op in ops}}

    def cost(per: dict[str, list[float]], name: str) -> float:
        """Per unit of work: the kind's per-input medians over its work."""
        return sum(p50(per[op.key]) for op in kind[name]) / sum(op.work for op in kind[name])

    def samples(*names: str) -> int:
        return sum(len(ms[op.key]) for n in names for op in kind[n])

    specific = {"setup_s": (setup_s, "s", SETUP_REPEATS), "peak_rss_mb": (rss_mb, "MiB", 1)}
    if workload == "long_clips":
        specific["analyze_audio_s_per_s"] = (per_second(cost(ms, "analyze")), "audio_s/s", samples("analyze"))
        specific["f0_audio_s_per_s"] = (per_second(cost(ms, "f0")), "audio_s/s", samples("f0"))
        # an export is one clip's analyze op and its f0 op in the same pass,
        # per audio second, since the clips differ in length.  With 3 clips
        # and a few passes, each clip's median export is what the
        # percentiles are taken over: a pooled p90 would be one execution.
        lat = [p50([(a + f) / an.work for a, f in zip(pu[an.key], pu[fo.key])])
               for an, fo in zip(kind["analyze"], kind["f0"])]
        bulk, n_bulk = cost(pu, "analyze") + cost(pu, "f0"), samples("analyze", "f0")
        n_lat = n_bulk
    elif workload == "shift_batch":
        pooled = [t for op in kind["pair"] for t in ms[op.key]]
        specific["pair_p50_ms"] = (p50(pooled), "ms", len(pooled))
        specific["pair_p90_ms"] = (p90(pooled), "ms", len(pooled))
        specific["batch_pairs_per_s"] = (per_second(cost(ms, "batch")), "pairs/s", samples("batch"))
        lat = [u for op in kind["pair"] for u in pu[op.key]]
        bulk, n_bulk, n_lat = cost(pu, "batch"), samples("batch"), len(lat)
    else:
        pooled = [t for op in kind["grad"] for t in ms[op.key]]
        specific["grad_frame_p50_ms"] = (p50(pooled), "ms", len(pooled))
        specific["grad_frame_p90_ms"] = (p90(pooled), "ms", len(pooled))
        specific["grad_frames_per_s"] = (per_second(p50(pooled)), "frames/s", len(pooled))
        lat = [u for op in kind["grad"] for u in pu[op.key]]
        bulk, n_bulk, n_lat = cost(pu, "grad"), len(pooled), len(lat)
    generic = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "peak_rss_mb": (rss_mb, "MiB", 1),
        "op_p50_probes": (p50(lat), "probes", n_lat),
        "op_p90_probes": (p90(lat), "probes", n_lat),
        "bulk_probes_per_unit": (bulk, "probes", n_bulk),
    }
    return generic, specific


def count_failed(records, bad: dict[str, str]) -> tuple[int, int]:
    """(attempted, failed): an execution fails when it raised or exited
    non-zero, or when the output its op owns failed an oracle."""
    return len(records), sum(1 for key, _, _, error, _ in records if error or key in bad)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------- main


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", help=argparse.SUPPRESS)  # child process: write inputs and exit
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(REPO)  # work and result paths are relative to the checkout root
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_into:
        target = Path(args.setup_into)
        target.mkdir(parents=True)
        workloads.GENERATORS[args.workload](args.seed, target)
        return 0

    work = Path(".bench_work") / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workloads, work)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: input set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if Path(".bench_work").exists() and not any(Path(".bench_work").iterdir()):
            Path(".bench_work").rmdir()


def measure(args, workloads, work: Path) -> int:
    import spans

    setup_times, inputs, input_digest, deterministic = setup_inputs(args.workload, args.seed, work)
    outputs = work / "out"
    outputs.mkdir()
    ops = workloads.plan(args.workload, inputs, outputs)
    grad = workloads.GradRunner(inputs) if args.workload == "grad_frames" else None
    runner = Runner(grad)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes, untraced_ms = traced_passes(runner, ops, args.seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        passes = timed_passes(runner, ops, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad = workloads.check(args.workload, inputs, ops, args.seed, grad)
    failed_keys = {key for key, _, _, error, _ in runner.records if error} | set(bad)
    attempted, failed = count_failed(runner.records, bad)
    correct = deterministic and failed == 0
    errors = {key: error for key, _, _, error, _ in runner.records if error}
    errors.update(bad)

    setup_s = p50(setup_times)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "environment": environment(args.seed),
        "setup_s_samples": setup_times,
        "inputs_deterministic": deterministic,
        "input_sha256": input_digest,
        "output_sha256": workloads.output_digests(args.workload, ops, grad),
        "attempted": attempted,
        "failed": failed,
        "failed_op_share": failed / attempted,
        "failures": {k: errors[k] for k in sorted(failed_keys)},
    }
    if args.trace:
        gap = spans.self_time_gap_ns(tracer)
        correct = correct and gap == 0
        layer = spans.layer_metrics(tracer, untraced_ms)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.layer_metric_units().items()}
        # self-time shares within each op kind, e.g. the VJP's share of a gradient op
        kinds = [ops[i].kind for i in tracer.op]
        shares = {kind: {name: row[2] / table[spans.OP][1] for name, row in table.items()}
                  for kind, table in spans.self_times(tracer.names, tracer.start, tracer.end,
                                                      tracer.parent, kinds).items()}
        record["self_time_gap_ns"] = gap
        record["per_layer"] = layer
        record["self_share_by_op_kind"] = shares
        lines = [f"{name:44s} {m['value']:14.4f} {m['unit']}" for name, m in metrics.items()]
        for kind, share in shares.items():
            top = sorted(share.items(), key=lambda kv: -kv[1])[:4]
            lines.append(f"# self time in {kind} ops: " + ", ".join(f"{n} {v:.0%}" for n, v in top))
        lines.append(f"# span self times minus traced op wall: {gap} ns")
    else:
        probe_units = runner.probe_units()
        generic, specific = end_to_end(args.workload, ops, runner.records, probe_units, setup_s, rss_mb)
        specific["failed_op_share"] = (failed / attempted, "failed/attempted", attempted)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in generic.items()}
        record["op_ms"] = {k: [round(t, 3) for t in v] for k, v in
                           per_key(ops, runner.records, [r[2] / 1e6 for r in runner.records]).items()}
        record["op_probes"] = {k: [round(u, 4) for u in v] for k, v in
                               per_key(ops, runner.records, probe_units).items()}
        record["end_to_end"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in generic.items()}
        record["workload_metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in specific.items()}
        lines = [f"{name:24s} {v:14.4f} {unit:18s} n={n}" for name, (v, unit, n) in specific.items()]

    results = Path(".bench_results")
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        with gzip.open(f"{stem}.spans.json.gz", "wt") as fh:
            json.dump({"names": tracer.names, "start_ns": tracer.start, "end_ns": tracer.end,
                       "parent": tracer.parent, "op": tracer.op, "pass": tracer.pass_of}, fh)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={passes} "
          f"attempted={attempted} failed={failed} inputs_deterministic={deterministic}")
    for line in lines:
        print(line)
    for key in sorted(failed_keys)[:5]:
        print(f"# failed {key}: {errors[key].strip().splitlines()[-1]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
