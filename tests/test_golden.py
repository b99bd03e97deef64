"""The CLI's output bytes against the golden manifest (tests/golden).

A failure here means some output byte, exit code or message changed. When
the change is meant, regenerate the manifest (see tests/golden/regenerate.py)
and list the changed keys in CHANGES.md.
"""
import json

import numpy as np
import pytest

from golden.regenerate import CASES, MANIFEST, run_all, versions

GOLDEN = json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def fresh(golden_dir):
    return run_all(golden_dir)


def test_toolchain_matches_the_manifest():
    # other numpy or scipy versions may round differently: regenerate on purpose
    here = versions()
    for name, version in here.items():
        assert version == GOLDEN[name], (
            f"{name} {version} here, the golden manifest was made with {name} {GOLDEN[name]}"
        )


def test_inputs_and_cases_match_the_manifest(fresh):
    assert fresh["inputs"] == GOLDEN["inputs"]
    assert list(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_the_manifest(fresh, name):
    assert fresh["cases"][name] == GOLDEN["cases"][name]


def test_analyze_csv_parses_back_to_its_f32(fresh, golden_dir):
    # the files the analyze-hop256 case wrote, whose hashes the manifest pins
    assert set(fresh["cases"]["analyze-hop256"]["files"]) >= {"a256.csv", "a256.f32"}
    rows = np.loadtxt(golden_dir / "a256.csv", delimiter=",", skiprows=1, ndmin=2)
    stored = np.fromfile(golden_dir / "a256.f32", dtype="<f4")
    assert rows[:, 1:].astype("<f4").tobytes() == stored.tobytes()
