"""Every module parses at the oldest Python the package declares, so a
newer construct cannot slip in while the tests run on a newer
interpreter; and no module keeps a dead name: an import it never reads,
or a top-level function or class nothing else names."""

import ast
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "qmprobe"
# subpackages included: the probe kinds live in qmprobe/kinds
MODULES = sorted(PACKAGE.rglob("*.py"))


def _version_floor() -> tuple[int, int]:
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(PACKAGE).as_posix() for p in MODULES])
def test_each_module_parses_at_the_version_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_version_floor())


def _names(tree) -> set:
    """The names, attributes and string constants in a syntax tree: the
    ways code can name a definition, `getattr(module, "replay")` among
    them."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(PACKAGE).as_posix() for p in MODULES])
def test_each_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - read) == []


def test_each_top_level_definition_is_named_elsewhere():
    # how many top-level statements of the package name each word; the
    # benchmark's scripts call some functions by name as well
    statements = [
        node for path in MODULES for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    count = Counter(name for node in statements for name in _names(node))
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bench |= _names(tree)
        bench |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
    unnamed = [
        node.name
        for node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in bench
        and count[node.name] == (node.name in _names(node))
    ]
    assert unnamed == []
