"""tools/bench_record.py's aggregation and comparison, on synthetic bench
records: no bench run happens here."""
import copy
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


tool = _tool()
ENVIRONMENT = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}


def _run(workload, seed, scale=1.0, correct=True, output="out", **env):
    """One run as `run_one` returns it: metric k of seed n reads scale * (k + n + 1)."""
    record = {
        "environment": {**ENVIRONMENT, "seed": seed, **env},
        "end_to_end": {m: {"value": scale * (k + seed + 1), "unit": "u"}
                       for k, m in enumerate(METRICS)},
        "input_sha256": f"in-{workload}-{seed}",
        "output_sha256": {"op": f"{output}-{workload}-{seed}"},
        "failed_op_share": 0.0,
    }
    return {"workload": workload, "seed": seed, "correct": correct, "record": record}


def _runs(**kwargs):
    return [_run(w, seed, **kwargs) for seed in range(5) for w in WORKLOADS]


def test_aggregate_takes_median_quartiles_and_samples_per_workload():
    runs = _runs()
    runs[-1]["correct"] = False  # the last workload, seed 4
    body = tool.aggregate(runs, BENCHMARK)
    assert body["environment"] == ENVIRONMENT  # the seed is dropped
    first = body["workloads"][WORKLOADS[0]]
    assert first["correct"] is True
    assert body["workloads"][WORKLOADS[-1]]["correct"] is False
    assert first["metrics"][METRICS[0]] == {"unit": BENCHMARK["end_to_end"][0]["unit"],
                                            "median": 3.0, "q1": 2.0, "q3": 4.0,
                                            "samples": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert first["seeds"]["3"] == {"input_sha256": f"in-{WORKLOADS[0]}-3",
                                   "output_sha256": {"op": f"out-{WORKLOADS[0]}-3"},
                                   "failed_op_share": 0.0}


def test_aggregate_refuses_mixed_environments():
    runs = _runs()
    runs[4] = _run(runs[4]["workload"], runs[4]["seed"], numpy="1.26.4")
    with pytest.raises(ValueError, match="^environments differ: "):
        tool.aggregate(runs, BENCHMARK)


def test_aggregate_needs_every_workload():
    with pytest.raises(ValueError, match=f"^no run of workload {WORKLOADS[-1]}$"):
        tool.aggregate([r for r in _runs() if r["workload"] != WORKLOADS[-1]], BENCHMARK)


def test_compare_reports_ratio_iqr_and_bound():
    base = tool.aggregate(_runs(), BENCHMARK)
    lines, ok = tool.compare(base, base, BENCHMARK)
    assert ok
    rows = [line for line in lines[1:] if " outputs " not in line]
    assert len(rows) == len(WORKLOADS) * len(METRICS)
    assert all(" 1.000 " in row and row.endswith("within bound") for row in rows)
    assert all(line.endswith("outputs equal; correct True -> True; failed_op_share max 0.0 -> 0.0")
               or " outputs " not in line for line in lines[1:])

    faster = tool.aggregate(_runs(scale=0.5), BENCHMARK)
    lines, ok = tool.compare(base, faster, BENCHMARK)
    assert ok  # every metric is lower-is-better, so halving is better
    first = lines[1].split()
    assert first[:5] == [WORKLOADS[0], METRICS[0], "3", "1.5", "0.500"]
    assert first[5:7] == ["2", "1"]  # the interquartile ranges of each side
    assert lines[1].endswith("better beyond bound")

    lines, ok = tool.compare(faster, base, BENCHMARK)
    assert not ok and lines[1].endswith("worse beyond bound")


def test_compare_flags_a_changed_output():
    base = tool.aggregate(_runs(), BENCHMARK)
    changed = tool.aggregate(_runs(output="other"), BENCHMARK)
    lines, ok = tool.compare(base, changed, BENCHMARK)
    assert not ok
    assert sum(" outputs DIFFER;" in line for line in lines) == len(WORKLOADS)


def test_compare_fails_when_a_workload_turns_incorrect():
    base = tool.aggregate(_runs(), BENCHMARK)
    wrong = tool.aggregate(_runs(), BENCHMARK)
    wrong["workloads"][WORKLOADS[1]]["correct"] = False
    lines, ok = tool.compare(base, wrong, BENCHMARK)
    assert not ok
    assert sum("; correct True -> False;" in line for line in lines) == 1
    assert tool.compare(wrong, base, BENCHMARK)[1]  # turning correct is no fault
    assert tool.compare(wrong, wrong, BENCHMARK)[1]


def test_compare_fails_when_the_failed_op_share_rises():
    base = tool.aggregate(_runs(), BENCHMARK)
    failing = copy.deepcopy(base)
    failing["workloads"][WORKLOADS[-1]]["seeds"]["3"]["failed_op_share"] = 0.01
    lines, ok = tool.compare(base, failing, BENCHMARK)
    assert not ok
    assert any(line.endswith("failed_op_share max 0.0 -> 0.01") for line in lines)
    assert tool.compare(failing, base, BENCHMARK)[1]
    assert tool.compare(failing, failing, BENCHMARK)[1]


def test_compare_refuses_other_environments_and_inputs():
    base = tool.aggregate(_runs(), BENCHMARK)
    with pytest.raises(ValueError, match="^environments differ: "):
        tool.compare(base, tool.aggregate(_runs(cpu_count=4), BENCHMARK), BENCHMARK)
    other = copy.deepcopy(base)
    other["workloads"][WORKLOADS[1]]["seeds"]["2"]["input_sha256"] = "in-else"
    with pytest.raises(ValueError, match=f"^input digests of workload {WORKLOADS[1]} differ$"):
        tool.compare(base, other, BENCHMARK)


def test_the_cli_compares_two_files(tmp_path, capsys):
    paths = [tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"]
    for path, scale in zip(paths, (1.0, 2.0)):
        path.write_text(json.dumps(tool.aggregate(_runs(scale=scale), BENCHMARK)))
    assert tool.main(["--compare", *map(str, paths)]) == 1  # twice as slow
    assert "worse beyond bound" in capsys.readouterr().out
    paths[1].write_text(json.dumps(tool.aggregate(_runs(cpu_count=4), BENCHMARK)))
    assert tool.main(["--compare", *map(str, paths)]) == 2
    assert capsys.readouterr().err.startswith("error: environments differ: ")


def _compare_cli(tmp_path, a, b):
    """tool.main(["--compare", A, B]) on two bodies written to tmp_path."""
    paths = [tmp_path / "A.json", tmp_path / "B.json"]
    for path, body in zip(paths, (a, b)):
        path.write_text(json.dumps(body))
    return tool.main(["--compare", *map(str, paths)])


def _refused(capsys, message):
    """The captured stderr is one line, `error: ` and a message matching `message`."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and re.fullmatch(message, err[len("error: "):].rstrip("\n"))


def test_compare_refuses_files_whose_metric_sets_differ(tmp_path, capsys):
    base = tool.aggregate(_runs(), BENCHMARK)
    fewer = copy.deepcopy(base)
    del fewer["workloads"][WORKLOADS[1]]["metrics"][METRICS[2]]
    message = rf"metrics of workload {WORKLOADS[1]} differ: .*"
    for a, b in ((base, fewer), (fewer, base)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tool.compare(a, b, BENCHMARK)
        assert _compare_cli(tmp_path, a, b) == 2
        _refused(capsys, message)


def test_compare_refuses_a_metric_benchmark_json_does_not_bound(tmp_path, capsys):
    base = tool.aggregate(_runs(), BENCHMARK)
    extra = copy.deepcopy(base)
    for body in (base, extra):
        body["workloads"][WORKLOADS[0]]["metrics"]["wall_s"] = \
            body["workloads"][WORKLOADS[0]]["metrics"][METRICS[0]]
    message = rf"metrics \['wall_s'\] of workload {WORKLOADS[0]} are not in BENCHMARK.json"
    with pytest.raises(ValueError, match=f"^{message}$"):
        tool.compare(base, extra, BENCHMARK)
    assert _compare_cli(tmp_path, base, extra) == 2
    _refused(capsys, message)


def test_compare_names_a_missing_workload(tmp_path, capsys):
    base = tool.aggregate(_runs(), BENCHMARK)
    fewer = copy.deepcopy(base)
    del fewer["workloads"][WORKLOADS[-1]]
    for a, b in ((base, fewer), (fewer, base)):
        with pytest.raises(ValueError, match="^workloads differ: ") as raised:
            tool.compare(a, b, BENCHMARK)
        assert WORKLOADS[-1] in str(raised.value) and "input digests" not in str(raised.value)
        assert _compare_cli(tmp_path, a, b) == 2
        _refused(capsys, r"workloads differ: .*")


# a run that exits 0 with the stdout of `code`, or fails with a traceback
RUN_FAULTS = {
    "empty stdout": ("pass", "the last stdout line is not a JSON verdict"),
    "not JSON": ("print('{\"correct\": true}'); print('done')",
                 "the last stdout line is not a JSON verdict"),
    "no correct": ("print('{\"ops\": 3}')", "the last stdout line is not a JSON verdict"),
    "traceback": ("raise ValueError('bad seed')", "exited 1: ValueError: bad seed"),
}


@pytest.mark.parametrize("fault", sorted(RUN_FAULTS))
def test_run_one_names_the_run_it_cannot_read(tmp_path, fault):
    code, message = RUN_FAULTS[fault]
    with pytest.raises(RuntimeError, match=re.escape(message)) as raised:
        tool.run_one(tmp_path, [sys.executable, "-c", code], WORKLOADS[1], 3, 1)
    assert WORKLOADS[1] in str(raised.value) and "seed 3" in str(raised.value)


def test_recording_exits_2_on_an_unreadable_run(tmp_path, capsys):
    benchmark = {**BENCHMARK, "command": [sys.executable, "-c", "pass"]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    assert tool.main(["--checkout", str(tmp_path)]) == 2
    _refused(capsys, rf"workload {WORKLOADS[0]} seed 0: the last stdout line is not .*")


@pytest.mark.parametrize("text", [
    "nope", "[]", '{"workloads": {}}',
    # a workload without metrics once read as a regression, exit 1 with a traceback
    '{"environment": {}, "workloads": {"w": {"seeds": {}}}}',
    # one without seeds once exited 2 with "max() arg is an empty sequence"
    '{"environment": {}, "workloads": {"w": {"correct": true, "metrics": {}, "seeds": {}}}}',
    # a metric without its median once ended in a KeyError traceback with exit 1
    '{"environment": {}, "workloads": {"w": {"correct": true, "metrics": {"m": {}}, "seeds": '
    '{"0": {"input_sha256": "", "output_sha256": "", "failed_op_share": 0}}}}}',
])
def test_compare_names_a_file_that_is_not_a_bench_file(tmp_path, capsys, text):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(text)
    good.write_text(json.dumps(tool.aggregate(_runs(), BENCHMARK)))
    assert tool.main(["--compare", str(good), str(bad)]) == 2
    _refused(capsys, re.escape(str(bad)) + r" is not (JSON|a BENCH file): .*")


# ---------------------------------------------------------------- per layer

LAYERS = {  # a traced run's per_layer metrics: a live layer, a dead one, the faulty ratios
    "gradients.yingram_vjp.calls": 96.0, "gradients.yingram_vjp.self_ms": 30.0,
    "yin.pick_lag.calls": 0.0, "yin.pick_lag.self_ms": 0.0,
    "grid.channel_lags_per_frame": 4.0, "feature.discarded_row_share": 0.0,
    "trace.overhead_share": -0.02, "trace.wall_ms": 70.0,
}


def _traced(workload, scale=1.0, **env):
    """A `--trace 1` run as `run_one` returns it; self times and shares times `scale`."""
    run = _run(workload, tool.TRACE_SEED, **env)
    del run["record"]["end_to_end"]
    run["record"]["per_layer"] = {k: scale * v if k.endswith("self_ms") else v
                                  for k, v in LAYERS.items()}
    run["record"]["self_share_by_op_kind"] = {"grad": {"gradients.yingram_vjp": 0.4 * scale,
                                                       "bench.op": 0.05}}
    return run


def _with_layers(scale=1.0, **kwargs):
    return tool.aggregate(_runs(**kwargs), BENCHMARK, [_traced(w, scale) for w in WORKLOADS])


def test_aggregate_keeps_the_traced_run_beside_the_gated_metrics():
    body = _with_layers()
    blocks = [body["workloads"][w].pop("per_layer") for w in WORKLOADS]
    assert body == tool.aggregate(_runs(), BENCHMARK)  # the gated part is unchanged
    assert blocks == [{"gated": False, "seed": 0, "correct": True, "metrics": LAYERS,
                       "shares": {"grad": {"gradients.yingram_vjp": 0.4, "bench.op": 0.05}}}
                      ] * len(WORKLOADS)
    with pytest.raises(ValueError, match="^environments differ: "):
        tool.aggregate(_runs(), BENCHMARK, [_traced(WORKLOADS[1], numpy="1.26.4")])


def test_layer_ratios_are_printed_and_never_gate(tmp_path, capsys):
    base, slower = _with_layers(), _with_layers(scale=3.0)
    assert tool.compare(base, slower, BENCHMARK)[1]  # the gated metrics are equal
    assert _compare_cli(tmp_path, base, slower) == 0
    out = capsys.readouterr().out
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in out.splitlines()}
    for w in WORKLOADS:
        assert rows[w, "gradients.yingram_vjp.self_ms"][:3] == ["30", "90", "3.000"]
        assert rows[w, "gradients.yingram_vjp.calls"][:3] == ["96", "96", "1.000"]
    shares = [line for line in out.splitlines() if "share of grad ops: gradients.yingram_vjp" in line]
    assert len(shares) == len(WORKLOADS) and all(line.split()[-3:] == ["0.4", "1.2", "3.000"]
                                                 for line in shares)


def test_known_bench_faults_are_flagged_not_dropped():
    lines = tool.compare_layers(_with_layers(), _with_layers())
    first = {line.split()[1]: line for line in lines if line.startswith(WORKLOADS[0] + " ")}
    assert set(LAYERS) <= first.keys()  # every metric is printed, a dead one included
    for name in ("yin.pick_lag.calls", "yin.pick_lag.self_ms", "grid.channel_lags_per_frame",
                 "feature.discarded_row_share", "trace.overhead_share"):
        assert "bench FOUND: " in first[name], name
    for name in ("gradients.yingram_vjp.self_ms", "trace.wall_ms"):
        assert "FOUND" not in first[name], name
    assert "reads 0, a layer analysis no longer calls" in first["yin.pick_lag.calls"]
    assert "negative" in first["trace.overhead_share"]


def test_files_without_the_layer_block_still_compare(tmp_path, capsys):
    assert _compare_cli(tmp_path, tool.aggregate(_runs(), BENCHMARK), _with_layers()) == 0
    out = capsys.readouterr().out
    assert all(f"{w:12s} per-layer block not recorded in A\n" in out for w in WORKLOADS)
    old = [ROOT / "BENCH_15.json", ROOT / "BENCH_16.json"]  # recorded before the block existed
    assert tool.main(["--compare", *map(str, old)]) == 0
    assert "per-layer block not recorded in A and B" in capsys.readouterr().out


@pytest.mark.parametrize("block", [[], {"metrics": {}}, {"metrics": [], "shares": {}}])
def test_compare_refuses_a_malformed_layer_block(tmp_path, capsys, block):
    bad = _with_layers()
    bad["workloads"][WORKLOADS[2]]["per_layer"] = block
    assert _compare_cli(tmp_path, _with_layers(), bad) == 2
    _refused(capsys, rf".* is not a BENCH file: the per_layer block of workload {WORKLOADS[2]} .*")


FAKE_BENCH = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
w, seed, trace = args["--workload"], int(args["--seed"]), int(args["--trace"])
record = {"environment": {"seed": seed}, "input_sha256": w, "output_sha256": {}, "failed_op_share": 0.0}
if trace:
    record.update(per_layer={"x.self_ms": 1.0 + seed}, self_share_by_op_kind={"op": {"x": 0.5}})
else:
    record["end_to_end"] = {m: {"value": 1.0 + seed} for m in METRICS}
Path(".bench_results").mkdir(exist_ok=True)
Path(f".bench_results/{w}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))
print(json.dumps({"correct": True}))
"""


def test_recording_adds_one_traced_run_per_workload(tmp_path, monkeypatch):
    # a stand-in for bench/run.py that writes each run's record as it would
    (tmp_path / "fake_bench.py").write_text(f"METRICS = {METRICS!r}\n{FAKE_BENCH}")
    benchmark = {**BENCHMARK, "command": [sys.executable, "fake_bench.py"], "run_seconds": 1}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    monkeypatch.setattr(tool, "SEEDS", (0, 1))
    monkeypatch.setattr(tool, "REPO", tmp_path)
    assert tool.main(["--checkout", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "BENCH_1.json").read_text())
    for w in WORKLOADS:
        assert body["workloads"][w]["per_layer"] == {
            "gated": False, "seed": tool.TRACE_SEED, "correct": True,
            "metrics": {"x.self_ms": 1.0}, "shares": {"op": {"x": 0.5}}}
        assert body["workloads"][w]["metrics"][METRICS[0]]["samples"] == [1.0, 2.0]


# ---------------------------------------------------------------- pairs

# a stand-in bench whose metrics read SCALE x (1 + seed / 1000) and whose
# outputs, correctness and environment follow the checkout's pair.json; each
# run appends "<checkout> <seed>" to the shared order.log
PAIR_BENCH = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
w, seed = args["--workload"], int(args["--seed"])
side = json.loads(Path("pair.json").read_text())
with open(side["log"], "a") as log:
    log.write(f"{side['name']} {seed}\\n")
value = side["scale"] * (1.0 + seed / 1000.0)
record = {"environment": {"seed": seed, "numpy": side.get("numpy", "2")},
          "input_sha256": side.get("inputs", "in"), "output_sha256": {"op": side.get("output", "out")},
          "failed_op_share": side.get("failed", 0.0),
          "end_to_end": {m: {"value": value} for m in METRICS}}
Path(".bench_results").mkdir(exist_ok=True)
Path(f".bench_results/{w}-seed{seed}-trace0.json").write_text(json.dumps(record))
print(json.dumps({"correct": side.get("correct", True)}))
"""


def _pair_checkouts(tmp_path, parent: dict, change: dict) -> tuple[Path, Path, Path]:
    """(parent, change, order log): two checkouts of the stand-in bench."""
    log = tmp_path / "order.log"
    dirs = []
    for name, side in (("parent", parent), ("change", change)):
        d = tmp_path / name
        d.mkdir()
        (d / "fake_bench.py").write_text(f"METRICS = {METRICS!r}\n{PAIR_BENCH}")
        benchmark = {**BENCHMARK, "command": [sys.executable, "fake_bench.py"], "run_seconds": 1}
        (d / "BENCHMARK.json").write_text(json.dumps(benchmark))
        (d / "pair.json").write_text(json.dumps({"name": name, "log": str(log), "scale": 1.0, **side}))
        dirs.append(d)
    return dirs[0], dirs[1], log


def _pairs_cli(parent, change, n, *extra):
    return tool.main(["--pairs", str(n), "--parent", str(parent), "--checkout", str(change),
                      "--workload", WORKLOADS[0], *extra])


def test_pairs_alternate_the_order_on_seeds_outside_the_recorded_ones(tmp_path, capsys):
    parent, change, log = _pair_checkouts(tmp_path, {}, {"scale": 0.5})
    out = tmp_path / "pairs.json"
    assert _pairs_cli(parent, change, 4, "--out", str(out)) == 0
    seeds = [tool.PAIR_SEED0 + k for k in range(4)]
    assert not set(seeds) & set(tool.SEEDS)
    runs = [line.split() for line in log.read_text().splitlines()]
    assert runs == [[name, str(seed)] for seed, order in zip(seeds, [0, 1, 0, 1])
                    for name in (("parent", "change") if order == 0 else ("change", "parent"))]
    body = json.loads(out.read_text())
    assert [p["first"] for p in body["pairs"]] == ["A", "B", "A", "B"]
    metric = body["metrics"][METRICS[0]]
    assert metric["wins"] == 4 and metric["ratio"] == 0.5
    assert metric["A"]["samples"] == [1.0 + s / 1000.0 for s in seeds]
    assert body["ok"] and body["outputs_differ_on"] == []
    text = capsys.readouterr().out
    row = next(line for line in text.splitlines() if line.startswith(METRICS[0] + " "))
    assert " 0.500 " in row and "   4/4 " in row


def test_pairs_count_ties_for_neither_side(tmp_path):
    parent, change, _ = _pair_checkouts(tmp_path, {}, {})
    pairs = tool.run_pairs(parent, change, WORKLOADS[0], 2)
    summary, lines, ok = tool.summarize_pairs(pairs, BENCHMARK)
    assert ok and all(m["wins"] == 0 and m["ratio"] == 1.0 for m in summary["metrics"].values())
    # the second run of each pair reads the same value as the first
    assert all(m["second_over_first"] == 1.0 for m in summary["metrics"].values())


@pytest.mark.parametrize("change, code", [
    ({"output": "other"}, 1),
    ({"correct": False}, 1),
    ({"failed": 0.01}, 1),
    ({"numpy": "1"}, 2),
    ({"inputs": "else"}, 2),
])
def test_pairs_exit_on_outputs_correctness_failures_environments_and_inputs(
        tmp_path, capsys, change, code):
    parent, change_dir, _ = _pair_checkouts(tmp_path, {}, change)
    assert _pairs_cli(parent, change_dir, 2) == code
    captured = capsys.readouterr()
    if code == 2:  # refused at the first pair, before its progress line
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert ("environments differ" in captured.err) == ("numpy" in change)
    else:
        assert ("DIFFER" in captured.out) == ("output" in change)


@pytest.mark.parametrize("fault", ["unknown workload", "existing out", "missing directory"])
def test_pairs_refuse_a_bad_workload_or_out_before_the_first_run(tmp_path, capsys, fault):
    # a run takes minutes: a refusal after the last one would lose them all,
    # and an existing record (a checked-in PAIRS_<n>.json) must not be overwritten
    parent, change, log = _pair_checkouts(tmp_path, {}, {})
    out = {"existing out": tmp_path / "pairs.json",
           "missing directory": tmp_path / "nodir" / "pairs.json"}.get(fault, tmp_path / "new.json")
    if fault == "existing out":
        out.write_text("kept\n")
    workload = "no_such_workload" if fault == "unknown workload" else WORKLOADS[0]
    argv = ["--pairs", "2", "--parent", str(parent), "--checkout", str(change),
            "--workload", workload, "--out", str(out)]
    assert tool.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert {"unknown workload": "not in BENCHMARK.json", "existing out": "already exists",
            "missing directory": "no directory"}[fault] in err
    assert not log.exists()
    assert fault != "existing out" or out.read_text() == "kept\n"
