"""The dependencies declared in pyproject.toml are exactly the third-party
modules that src/bumplab imports, nested (function-level) imports included."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_third_party() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "bumplab").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "bumplab"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
                for dep in project["dependencies"]}
    assert declared == _imported_third_party()
    assert declared == {"numpy"}
