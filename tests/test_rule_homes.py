"""Each input rule raises its message from one home module.

A rule copied back into a call site drifts from its home (a partial copy is
where bad inputs once got through), so this test parses the package source
and fails when a rule's message is raised outside the module that owns it.
"""
import ast
from pathlib import Path

import pytest

import yingram

SOURCES = sorted(Path(yingram.__file__).parent.glob("*.py"))

# message literal -> the one module that may raise it
RULE_HOMES = {
    "must be finite and positive": "grid",
    "does not hold": "grid",
    "insufficient frame length": "yin",
    "invalid f0 bounds": "config",
    "lag out of range": "feature",
    "resample first": "feature",
    "non-finite difference values": "yin",
    "samples must be 1-D": "audio",
    "must be real, got dtype": "grid",
    "parabolic_refine needs a 1-D curve holding lag": "yin",
    "cmnd needs at least one lag": "yin",
    "empty output path": "feature",
    "duration must be finite and at least 0": "synth",
    "over the clip limit of": "synth",
    "no finite positive frequency": "grid",
    "estimate_f0 needs one 1-D CMND curve": "yin",
    "must be a finite real": "grid",
    "is beyond the float range": "grid",
    "overflows a float": "synth",
    "term is too large for a float": "losses",
    "below 1 Hz": "synth",
    "weighs the loss past the float range": "losses",
    "grid must be a NoteGrid": "grid",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _raised_literals(path: Path) -> set[str]:
    """Every string constant inside a `raise` statement of a module,
    the literal parts of f-strings included."""
    return {
        node.value
        for stmt in ast.walk(_tree(path)) if isinstance(stmt, ast.Raise)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _modules_raising(message: str) -> list[str]:
    return [p.stem for p in SOURCES if any(message in s for s in _raised_literals(p))]


def test_the_package_source_is_found():
    assert {"grid", "yin", "audio", "gradients"} <= {p.stem for p in SOURCES}


@pytest.mark.parametrize("message, home", RULE_HOMES.items())
def test_rule_message_is_raised_in_its_home_only(message, home):
    assert _modules_raising(message) == [home]


def _number_tests_named(path: Path) -> set[str]:
    """The `numbers.Integral` and `numbers.Real` a module names."""
    tree = _tree(path)
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "numbers" and node.attr in ("Integral", "Real")
    } | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and node.module == "numbers" for alias in node.names
    }


def test_the_number_tests_are_named_in_grid_only():
    # a module that tests numbers itself drifts from `grid._integer` and
    # `grid._real`, as a config copy once did
    named = {p.stem: _number_tests_named(p) for p in SOURCES}
    assert named.pop("grid") == {"Integral", "Real"}
    assert not any(named.values()), named


def test_every_config_parameter_takes_an_analysis_config():
    # a second config type for the same settings once held its own copy of lambda_yin
    annotations = [
        (p.stem, node.lineno, node.annotation and ast.unparse(node.annotation))
        for p in SOURCES for node in ast.walk(_tree(p))
        if isinstance(node, ast.arg) and node.arg == "config"
    ]
    assert {annotation for *_, annotation in annotations} == {"AnalysisConfig | None"}, annotations


def test_only_the_config_module_declares_lambda_yin():
    declaring = [
        p.stem for p in SOURCES for node in ast.walk(_tree(p))
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id == "lambda_yin"
    ]
    assert declaring == ["config"]


def test_a_copied_rule_is_caught(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        "def f(eps):\n"
        "    if not eps > 0:\n"
        "        raise ValueError(f'eps must be finite and positive, got {eps}')\n"
    )
    assert "must be finite and positive" in " ".join(_raised_literals(copy))
