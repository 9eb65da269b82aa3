"""Source hygiene of the package, read with `ast`: every module and demo
script uses the names it imports, every module-level private function or
class is referenced somewhere in the package, and every name a module
exports in `__all__` exists, no module but `fields` reads a lookup
table, and no module indents JSON through json.dumps."""

import ast
import importlib
from pathlib import Path

import pytest

from test_benchmark_hooks import tracing

_ROOT = Path(__file__).resolve().parents[1]


def _parse(paths) -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(paths)}


_TREES = _parse((_ROOT / "src" / "tripoint").glob("*.py"))
# the demo scripts, keyed by stem (01_field_arithmetic, ...)
_DEMO_TREES = _parse((_ROOT / "demos").glob("*.py"))


def _references(node) -> list:
    """Every name a subtree mentions: loads, attributes and imported names."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name)
    return out


@pytest.mark.parametrize(
    "stem", sorted(set(_TREES) - {"__init__"}) + sorted(_DEMO_TREES))
def test_no_unused_imports(stem):
    tree = {**_TREES, **_DEMO_TREES}[stem]
    # the benchmark tracer patches these names on the module itself
    patched = {dotted.split(".")[0]
               for module, dotted, _ in tracing.PASS_PATCHES
               if module == f"tripoint.{stem}"}
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in patched:
                    unused.append(name)
    assert not unused, f"{stem}.py imports but never uses {unused}"


def test_no_unreferenced_private_definitions():
    refs = [name for tree in _TREES.values() for name in _references(tree)]
    orphans = []
    for stem, tree in _TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            # a recursive call inside its own body does not count
            if refs.count(name) == _references(node).count(name):
                orphans.append(f"{stem}.{name}")
    assert not orphans, f"never referenced: {orphans}"


def test_exported_names_resolve():
    missing = []
    for stem in sorted(_TREES):
        module = importlib.import_module(
            "tripoint" if stem == "__init__" else f"tripoint.{stem}")
        missing += [f"{module.__name__}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, f"exported but undefined: {missing}"


def test_tables_read_only_in_fields():
    # the q x q table layout is known to one module: every other module
    # goes through the Field vector methods or the tables' fused kernels
    tables = {"MUL", "ADD", "NMUL", "NEG", "INV"}
    reads = [f"{stem}.py:{node.lineno} .{node.attr}"
             for stem, tree in _TREES.items() if stem != "fields"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in tables]
    assert not reads, f"table reads outside fields.py: {reads}"


def test_one_indenting_json_writer():
    # json indents with its pure-Python encoder; reports go through
    # cli._dump, which writes the same bytes, so no json call indents
    calls = [f"{stem}.py:{node.lineno}"
             for stem, tree in _TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("dump", "dumps")
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert not calls, f"json.dumps(indent=...) in {calls}"
