"""One tolerance policy: every threshold-sized float literal is named, and the
formulas' thresholds are defined in quasifree.tolerances alone."""

import ast
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quasifree"
# the modules that decide with quasifree.tolerances and may define no threshold of their own
PRODUCTION = {"car.py", "ccr.py", "cli.py", "matcore.py", "seqmodel.py"}
UPPER_CASE = re.compile(r"[A-Z][A-Z0-9_]*")


def _is_threshold(node) -> bool:
    """A float literal with 0 < |x| <= 1e-2 or |x| >= 1e6."""
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and (0.0 < abs(node.value) <= 1e-2 or abs(node.value) >= 1e6))


def _named(tree) -> set:
    """ids of the literals that are the whole value of a module-level UPPER_CASE assignment."""
    return {id(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and UPPER_CASE.fullmatch(node.targets[0].id)}


def test_threshold_literals_are_named_in_one_place():
    files = {f.name: ast.parse(f.read_text()) for f in sorted(PACKAGE.glob("*.py"))}
    assert PRODUCTION | {"tolerances.py", "car_oracle.py", "ccr_oracle.py"} <= set(files)
    inline, misplaced = [], []
    for name, tree in files.items():
        named = _named(tree)
        for node in filter(_is_threshold, ast.walk(tree)):
            where = f"{name}:{node.lineno} ({node.value!r})"
            if id(node) not in named:
                inline.append(where)
            elif name in PRODUCTION:
                misplaced.append(where)
    assert not inline, "threshold literals not named by a module-level constant"
    assert not misplaced, "thresholds of the formulas defined outside tolerances.py"


def test_tolerances_module_holds_only_constants():
    """A docstring and named floats: no function, no import, no environment lookup."""
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value.value, str)
    named = _named(tree)
    for node in body:
        assert isinstance(node, ast.Assign) and id(node.value) in named, ast.dump(node)
        assert type(node.value.value) is float, ast.dump(node)
