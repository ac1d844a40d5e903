"""The dependencies declared in pyproject.toml are exactly the third-party
modules that src/bumplab imports, nested (function-level) imports included;
the package's exports name only what its modules define; and code outside
the tests uses every export."""

import ast
import importlib
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


def test_exports_resolve():
    """Every name in a module's __all__ exists, and bumplab/__init__.py imports
    from each module only names in its __all__, so a deletion cannot leave a
    stale export behind."""
    package = ROOT / "src" / "bumplab"
    for path in sorted(package.glob("*.py")):
        name = "bumplab" if path.stem == "__init__" else f"bumplab.{path.stem}"
        mod = importlib.import_module(name)
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"{name}.__all__ names undefined {missing}"
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1, f"bumplab/__init__.py imports from {node.module}"
            exported = importlib.import_module(f"bumplab.{node.module}").__all__
            unlisted = [a.name for a in node.names if a.name not in exported]
            assert not unlisted, f"bumplab.{node.module}.__all__ does not list {unlisted}"


def test_every_export_has_a_caller_outside_the_tests():
    """Every name in a module's __all__ appears in src/, demos/ or bench/
    besides its definition, its __all__ entry and bumplab/__init__.py, so API
    that only the tests call fails here. The search is by whole word in the
    text, so a mention in a docstring counts, and so does a name the bench
    traces by its dotted path, such as "grid.average"."""
    package = ROOT / "src" / "bumplab"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    text = "\n".join(p.read_text() for p in [*modules, *(ROOT / "demos").glob("*.py"),
                                             *(ROOT / "bench").rglob("*.py")])
    unused = [f"{path.stem}.{name}" for path in modules
              for name in getattr(importlib.import_module(f"bumplab.{path.stem}"), "__all__", ())
              if len(re.findall(rf"\b{name}\b", text)) <= 2]  # the definition and __all__
    assert not unused, f"exported, but called only by tests: {unused}"
