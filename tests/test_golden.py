"""The CLI's output bytes against the golden manifest (tests/golden).

A failure here means some output byte, exit code or message changed. When
the change is meant, regenerate the manifest (see tests/golden/regenerate.py)
and list the changed keys in CHANGES.md.
"""
import json

import pytest

from golden.regenerate import CASES, MANIFEST, run_all, versions

GOLDEN = json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


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
