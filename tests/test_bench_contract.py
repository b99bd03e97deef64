"""The names the benchmark's tracer wraps must stay attributes of their
modules: bench/spans.py looks each one up by name, so a removal breaks
`bench/run.py --trace 1` rather than any library test. Likewise the calls
bench/workloads.py makes must still bind to the library's signatures, or its
ops fail instead of a test."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers() -> dict:
    # spans.py imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in _layers().items() for name in names
] + [
    # bench/test_bench.py checks the tracer rebinds these imports too
    (module, "difference_function") for module in ("feature", "evaluate", "gradients")
] + [("evaluate", "_pick_lag")])
def test_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"yingram.{module}"), name))


def _binds(fn, *args, **kwargs) -> None:
    inspect.signature(fn).bind(*args, **kwargs)


def test_bench_gradient_calls_bind():
    # GradRunner.__call__ and the grad_frames oracle, argument for argument
    from yingram import finite_diff_check, yingram_vjp

    _binds(yingram_vjp, "frame", "grid", "cot", "WINDOW")
    _binds(finite_diff_check, "frame", "grid", eps=1e-5, cotangent="cot", seed=0,
           tolerance=1e-4, window="WINDOW")


@pytest.mark.parametrize("kwargs", [{}, {"method": "naive"}], ids=["fft", "naive"])
def test_bench_forward_calls_bind(kwargs):
    # GradRunner._forward and the naive forward the bench's oracles use
    from yingram import yingram_from_frame

    _binds(yingram_from_frame, "x", "grid", "SR", "WINDOW", **kwargs)
