"""Every module parses at the oldest Python the package declares, so a
newer construct cannot slip in while the tests run on a newer
interpreter."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "qmprobe").glob("*.py"))


def _version_floor() -> tuple[int, int]:
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_each_module_parses_at_the_version_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_version_floor())
