"""README.md documents the user contract: every subcommand and flag of the
CLI, its exit codes, the config fields and every public name of the package.
A flag or name added without a line in the README fails here."""
import argparse
import dataclasses
import importlib
import re
import types
from pathlib import Path

import pytest

import yingram
from yingram import AnalysisConfig, cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PARSER = cli._build_parser()
SUBCOMMANDS = next(a for a in PARSER._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def _options(parser: argparse.ArgumentParser) -> set[str]:
    """The parser's long options, without --help and the per-field config flags."""
    return {flag for action in parser._actions if not action.dest.startswith("cfg_")
            for flag in action.option_strings if flag.startswith("--") and flag != "--help"}


def _named(token: str) -> bool:
    """The README holds `token` as a whole word: `--out` is not `--out-json`."""
    return re.search(rf"(?<![\w-]){re.escape(token)}(?![\w-])", README) is not None


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_subcommand_has_an_example(command):
    assert re.search(rf"^yingram {re.escape(command)} ", README, re.M)


@pytest.mark.parametrize("flag", sorted(set().union(*map(_options, SUBCOMMANDS.values()))))
def test_every_option_is_documented(flag):
    assert _named(flag)


@pytest.mark.parametrize("flag", ["--config", "--fmin", "--fmax"])
def test_the_config_flags_are_documented(flag):
    assert _named(flag)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(AnalysisConfig)])
def test_every_config_field_is_documented(field):
    assert f"`{field}`" in README


def test_every_exit_code_is_documented():
    section = re.search(r"^### Exit codes\n(.*?)(?=^#)", README, re.M | re.S)
    assert section, "README.md has no '### Exit codes' section"
    for code in ("0", "1", "2"):
        assert re.search(rf"^- `{code}`", section.group(1), re.M), code


@pytest.mark.parametrize("name", yingram.__all__)
def test_every_public_name_is_documented(name):
    assert f"`{name}`" in README


def test_the_root_exports_exactly_its_public_names():
    public = {name for name, value in vars(yingram).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(yingram.__all__)


@pytest.mark.parametrize("name, module", [
    ("frame_signal", "audio"),
    ("cmnd", "yin"),
    ("estimate_f0", "yin"),
    ("parabolic_refine", "yin"),
    ("yingram_frame", "feature"),
])
def test_a_per_frame_reference_stays_in_its_module(name, module):
    # the clip pipeline calls none of these, so the root does not export them
    assert not hasattr(yingram, name)
    assert callable(getattr(importlib.import_module(f"yingram.{module}"), name))
    assert f"`{name}`" in README
