"""Every name a package module imports is used: a deletion that leaves its import behind
fails here."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quasifree"


def _imported(tree) -> dict:
    """name -> line of each name bound by an import (``from __future__`` binds none)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({(a.asname or a.name): node.lineno for a in node.names})
    return names


def _referenced(tree) -> set:
    """Names loaded anywhere in the module, and the strings of a module-level ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return used


def test_every_imported_name_is_referenced():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    unused = []
    for path in files:
        tree = ast.parse(path.read_text())
        used = _referenced(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items()
                   if name not in used]
    assert not unused
