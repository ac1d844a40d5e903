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


def _references(path: Path) -> set[str]:
    """The names a file's code reads: names and attributes in load context,
    and imported names. Docstrings and comments hold none, and neither does
    a definition or an assignment."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
    return refs


def _dotted_strings(path: Path) -> set[str]:
    """The string constants of a file that are exactly "module.name", such as
    the functions the bench traces by their dotted paths."""
    return {node.value for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"[A-Za-z_]\w*\.[A-Za-z_]\w*", node.value)}


def test_every_export_has_a_caller_outside_the_tests():
    """Every name in a module's __all__ is read by code in src/, demos/ or
    bench/ other than bumplab/__init__.py, or traced by the bench by its
    dotted path, such as "grid.cube_family", so API that only the tests call
    fails here. Only code counts: a mention in a docstring or a comment does
    not, nor does the name's own definition or its __all__ entry."""
    package = ROOT / "src" / "bumplab"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    callers = [*modules, *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").rglob("*.py")]
    read = set().union(*map(_references, callers))
    traced = set().union(*map(_dotted_strings, (ROOT / "bench").rglob("*.py")))
    unused = [f"{path.stem}.{name}" for path in modules
              for name in getattr(importlib.import_module(f"bumplab.{path.stem}"), "__all__", ())
              if name not in read and f"{path.stem}.{name}" not in traced]
    assert not unused, f"exported, but called only by tests: {unused}"


def test_every_module_the_bench_traces_imports():
    """Each bumplab.<name> in bench/tracing.py's MODULES imports, so that no module
    the bench wraps (``_threads`` included, which the package itself never
    imports) is deleted while the bench still names it; the bench's own tests
    are not part of this suite."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (names,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["MODULES"]]
    assert names
    for name in names:
        importlib.import_module(f"bumplab.{name}")


def test_io_imports_from_the_package_only_grid():
    """io.py only writes files: every report's layout is built in cli.py, so
    io.py needs no result type of compactness or weights."""
    tree = ast.parse((ROOT / "src" / "bumplab" / "io.py").read_text())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert package == {"grid"}
