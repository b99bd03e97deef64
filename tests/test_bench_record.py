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
