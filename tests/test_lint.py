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
    ("halfplanes.py", "_HalfplaneInstance.context", "p"),
}
SOLVER_MODULES = ("covers.py", "lp.py", "squares.py", "ply.py", "halfplanes.py")


def _calls(tree, names):
    """(enclosing def, argument source, line) of every call `f(...)` or
    `x.f(...)` whose f is in `names`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) in names or getattr(node.func, "id", None) in names
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
        for scope, arg, line in _calls(tree, {"contains"}):
            live.add((name, scope, arg))
            if (name, scope, arg) not in CONTAINS_ALLOWED:
                found.append(f"{name}:{line} in {scope or '<module>'}")
    assert found == []
    # a stale allow-list entry would let a new call in under its name
    assert CONTAINS_ALLOWED <= live


def test_halfplane_tables_built_only_by_the_instance():
    # every halfplane solver reads the S and S' tables of one
    # _HalfplaneInstance instead of building its own
    path = SRC / "halfplanes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = {scope for scope, _arg, _line in _calls(tree, {"incidence", "covering_incidence"})}
    assert scopes == {"_HalfplaneInstance.__init__"}


def test_no_region_calls_in_halfplanes():
    # every union question of the halfplane solvers is one strict-feasibility
    # test; the region names stay imported in halfplanes.py for the tracer only
    path = SRC / "halfplanes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"complement_region", "region_subset", "union_compare", "region_from_constraints"}
    assert _calls(tree, names) == []
