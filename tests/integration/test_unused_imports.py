"""No module under src/repro imports a name it never uses.

A package ``__init__.py`` imports to re-export, and ``__future__``
imports are directives, so both are exempt.  A name counts as used when
the module reads it, lists it in ``__all__``, or names it inside a
quoted annotation.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[2] / "src" / "repro"

_ANNOTATED = (ast.arg, ast.AnnAssign)
_RETURNS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in *tree*."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, _ANNOTATED) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, _RETURNS) and node.returns is not None:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PKG.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        for name, line in _imported(tree).items():
            if name not in used:
                unused.append(f"{path.relative_to(PKG)}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Any, List\n"
                     "x: 'Any' = 1\n__all__ = ['List']\n")
    assert set(_imported(tree)) - _used(tree) == {"os"}
