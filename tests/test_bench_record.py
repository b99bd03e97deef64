"""tools/bench_record.py's aggregation and comparison, on synthetic bench
records: no bench run happens here."""
import copy
import importlib.util
import json
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
