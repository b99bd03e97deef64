"""The package has one version string: `yingram.__version__` is the
`[project] version` of pyproject.toml. The file is read with a regex, since
`tomllib` first ships with Python 3.11 and the package supports 3.10."""
import re
from pathlib import Path

import yingram

PYPROJECT = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()


def test_version_is_the_pyproject_version():
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", PYPROJECT, re.M | re.S)
    version = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M)
    assert yingram.__version__ == version.group(1)
