"""The package version is declared once, in ``pyproject.toml``."""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_package_version_matches_pyproject():
    # A regex, not tomllib: Python 3.10 has no TOML reader.
    match = re.search(r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(), re.M)
    assert match is not None
    assert repro.__version__ == match.group(1)
