"""Tests of the benchmark's own logic: span arithmetic, the oracles behind
failed_op_share, seeded input generation and BENCHMARK.json consistency.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_hand_built_tree():
    #  root [0,100]
    #   a [10,50]      b [60,90]
    #    a1 [20,30]
    names = ["root", "a", "a1", "b"]
    start = [0, 10, 20, 60]
    end = [100, 50, 30, 90]
    parent = [-1, 0, 1, 0]
    table = spans.self_times(names, start, end, parent)
    assert table == {"root": [1, 100, 30], "a": [1, 40, 30], "a1": [1, 10, 10], "b": [1, 30, 30]}
    assert sum(row[2] for row in table.values()) == 100


def test_pass_tables_group_by_pass_and_sum_to_op_wall():
    t = spans.Tracer()
    t.names = [spans.OP, "x", spans.OP, "x", spans.OP, "x", "x"]
    t.start = [0, 2, 40, 41, 100, 102, 110]
    t.end = [30, 20, 50, 49, 150, 105, 120]
    t.parent = [-1, 0, -1, 2, -1, 4, 4]
    t.pass_of = [0, 0, 0, 0, 1, 1, 1]
    tables = spans.pass_tables(t)
    assert tables == [{spans.OP: [2, 40, 14], "x": [2, 26, 26]},
                      {spans.OP: [1, 50, 37], "x": [2, 13, 13]}]
    assert spans.self_time_gap_ns(t) == 0
    metrics = spans.layer_metrics(t, untraced_ms=[40e-6 / 1.25, 50e-6 / 1.25])
    assert metrics["trace.wall_ms"] == pytest.approx(45e-6)
    assert metrics["trace.overhead_share"] == pytest.approx(0.25)


def test_tracer_rebinds_names_imported_elsewhere():
    import yingram.evaluate
    import yingram.feature
    import yingram.gradients
    import yingram.yin

    original = yingram.yin.difference_function
    t = spans.Tracer()
    t.install()
    try:
        for module in (yingram.yin, yingram.feature, yingram.evaluate, yingram.gradients):
            assert module.difference_function is not original
        assert yingram.evaluate._pick_lag is yingram.yin._pick_lag
        t.enabled = True
        op = t.begin_op(0, 0)
        yingram.yingram_from_frame(np.random.default_rng(0).standard_normal(2474),
                                   yingram.DEFAULT_GRID, 22050, 2048)
        t.finish_op(op)
    finally:
        t.uninstall()
    assert yingram.feature.difference_function is original
    table = spans.self_times(t.names, t.start, t.end, t.parent)
    assert table["yin.difference_function"][0] == 1
    assert table["feature.yingram_from_frame"][0] == 1
    assert t.counters["distinct_frames"] == 1


def _run_pass(workload, inputs, outputs):
    ops = workloads.plan(workload, inputs, outputs)
    grad = workloads.GradRunner(inputs) if workload == "grad_frames" else None
    runner = run.Runner(grad)
    for op in ops:
        runner.run(op, 0)
    return ops, grad, runner


@pytest.mark.parametrize(
    "workload, make, corrupt",
    [
        ("shift_batch",
         lambda seed, d: workloads.generate_shift_batch(seed, d, pairs=2),
         lambda out: (out / "pair001.json").write_text(
             (out / "pair001.json").read_text().replace('"pass": true', '"pass": false'))),
        ("long_clips",
         lambda seed, d: workloads.generate_long_clips(seed, d, formats=((7.0, 48000, "s24", 2),)),
         lambda out: (out / "clip0.f32").write_bytes(
             b"\x00\x00\x80\x7f" + (out / "clip0.f32").read_bytes()[4:])),
    ],
)
def test_corrupted_output_makes_failed_op_share_positive(tmp_path, workload, make, corrupt):
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    make(0, inputs)
    ops, grad, runner = _run_pass(workload, inputs, outputs)
    bad = workloads.check(workload, inputs, ops, 0, grad)
    assert run.count_failed(runner.records, bad) == (len(ops), 0)

    corrupt(outputs)
    bad = workloads.check(workload, inputs, ops, 0, grad)
    attempted, failed = run.count_failed(runner.records, bad)
    assert attempted == len(ops) and 0 < failed < attempted


def test_wrong_gradient_fails_its_oracle(tmp_path):
    workloads.generate_grad_frames(0, tmp_path, frames=3)
    ops, grad, runner = _run_pass("grad_frames", tmp_path, tmp_path)
    assert workloads.check("grad_frames", tmp_path, ops, 0, grad) == {}
    checked = json.loads((tmp_path / "plan.json").read_text())["checked"][0]
    grad.grads[checked] = grad.grads[checked] * 1.001
    assert list(workloads.check("grad_frames", tmp_path, ops, 0, grad)) == [f"grad{checked}"]


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed, d: workloads.generate_long_clips(seed, d, formats=((3.0, 44100, "s16", 1), (2.0, 48000, "s24", 2))),
        lambda seed, d: workloads.generate_shift_batch(seed, d, pairs=3),
        lambda seed, d: workloads.generate_grad_frames(seed, d, frames=4),
    ],
)
def test_one_seed_gives_byte_identical_inputs(tmp_path, generate):
    digests = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        generate(seed, tmp_path / name)
        digests.append(workloads.input_digest(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_wav_writer_round_trips_through_the_loader(tmp_path):
    import yingram

    x = np.random.default_rng(1).uniform(-0.9, 0.9, (1000, 2))
    # the writer scales by 2^(b-1) - 1 and the loader divides by 2^(b-1)
    for encoding, tol in (("f32", 1e-7), ("s16", 2 / 32767), ("s24", 2 / 8388607)):
        path = tmp_path / f"{encoding}.wav"
        workloads.write_wav(path, x, 48000, encoding)
        w = yingram.load_wav(path)
        assert w.sample_rate == 48000
        np.testing.assert_allclose(w.samples, x.mean(axis=1), atol=tol)


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    records = [("grad0", 0, 2_000_000, None, 0), ("grad0", -1, 9_000_000, None, 0)]
    ops = [workloads.Op("grad", "grad0", 1, index=0)]
    generic, specific = run.end_to_end("grad_frames", ops, records, [4.0, 18.0], 1.0, 100.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[1] for k, v in generic.items()}
    # the warm-up pass (-1) is not timed
    assert generic["op_p50_probes"][0] == 4.0
    assert specific["grad_frame_p50_ms"][0] == 2.0


def test_probe_units_divide_by_the_bracketing_probes():
    runner = run.Runner()
    runner.probes = [(0, 10), (100, 30)]
    runner.records = [("a", 0, 40, None, 50)]
    runner.probe = lambda: None
    assert runner.probe_units() == [2.0]
