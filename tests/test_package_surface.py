"""The package holds only what it uses; the naive definitions live in tests/oracles.py.

Both checks read the source of src/arcflock/ with ``ast``, so a test-only
helper that drifts back into the package fails here by name.
"""

import ast
from pathlib import Path

import arcflock

MODULES = {
    p.stem: ast.parse(p.read_text(encoding="utf-8"))
    for p in sorted(Path(arcflock.__file__).parent.glob("*.py"))
}
ENTRY_POINTS = {"cli.main"}  # the console script named in pyproject.toml


def _names_used(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_definition_is_used_in_the_package_or_exported():
    tops = [(mod, node) for mod, tree in MODULES.items() for node in tree.body]
    unused = [
        f"{mod}.{node.name}"
        for mod, node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in arcflock.__all__
        and f"{mod}.{node.name}" not in ENTRY_POINTS
        and not any(node.name in _names_used(other) for _, other in tops if other is not node)
    ]
    assert unused == []


def _imported(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""  # "from . import x" names no module


def test_the_package_imports_nothing_from_the_tests():
    from_tests = [
        (mod, name)
        for mod, tree in MODULES.items()
        for name in _imported(tree)
        if name.partition(".")[0] in ("tests", "oracles", "conftest")
    ]
    assert from_tests == []
