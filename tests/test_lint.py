"""Source-level rules checked by walking the library's syntax trees."""

import ast
from pathlib import Path

import membercover

SRC = Path(membercover.__file__).resolve().parent


def test_no_assert_statements():
    # self-checks must survive python -O, which strips assert statements;
    # raise RuntimeError (or AssertionError explicitly) instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


# covers.incidence is the one point-in-range test of the solvers; the only
# other `.contains(` calls test a cell corner or an anchor, not a point of
# S or S'.  Entries are (module, enclosing def, argument source).
CONTAINS_ALLOWED = {
    ("covers.py", "incidence", "p"),
    ("squares.py", "corner_partition", "c"),
    ("halfplanes.py", "build_segments", "p"),
    ("halfplanes.py", "_Decider.context", "p"),
}
SOLVER_MODULES = ("covers.py", "lp.py", "squares.py", "ply.py", "halfplanes.py")


def _contains_calls(tree):
    """(enclosing def, argument source, line) of every `.contains(` call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "contains"
        ):
            found.append((scope, ", ".join(map(ast.unparse, node.args)), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_containment_only_through_incidence():
    found, live = [], set()
    for name in SOLVER_MODULES:
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, arg, line in _contains_calls(tree):
            live.add((name, scope, arg))
            if (name, scope, arg) not in CONTAINS_ALLOWED:
                found.append(f"{name}:{line} in {scope or '<module>'}")
    assert found == []
    # a stale allow-list entry would let a new call in under its name
    assert CONTAINS_ALLOWED <= live
