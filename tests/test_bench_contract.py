"""The names the benchmark's tracer wraps must stay attributes of their
modules: bench/spans.py looks each one up by name, so a removal breaks
`bench/run.py --trace 1` rather than any library test."""
import importlib
import importlib.util
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
