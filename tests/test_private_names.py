"""Every module-level private name of the package is referenced by package code outside its
own definition: a helper whose last caller is deleted fails here."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quasifree"


def _defined(tree) -> dict:
    """name -> line of each private name a module binds at its top level (dunders excepted)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            sides = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in sides for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update({t: node.lineno for t in targets
                      if t.startswith("_") and not (t.startswith("__") and t.endswith("__"))})
    return names


def _references(tree) -> set:
    """(name, top-level definition it sits in or None) of every name the module loads or
    reads as an attribute, so that a definition's uses of itself can be told apart."""
    refs = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.add((node.attr, owner))
    return refs


def unreferenced(package: pathlib.Path) -> list:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    refs = set().union(*(_references(tree) for tree in trees.values()))
    return [f"{name}:{line} {private}" for name, tree in trees.items()
            for private, line in _defined(tree).items()
            if not any(ref == private and owner != private for ref, owner in refs)]


def test_every_private_name_is_referenced():
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert not unreferenced(PACKAGE)


def test_an_unreferenced_helper_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED = 1\n_DEAD = 2\n\n\ndef _helper(x):\n    return _helper(x - 1) if x else _USED\n"
        "\n\nclass _Kept:\n    pass\n\n\ndef f():\n    return _Kept\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a.f()\n")
    assert unreferenced(tmp_path) == ["a.py:2 _DEAD", "a.py:5 _helper"]
