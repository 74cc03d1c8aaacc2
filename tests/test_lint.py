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


def test_no_environment_reads():
    # the library has no environment knobs: its behaviour follows from its
    # arguments alone, so no module names os.environ, os.getenv or
    # os.environb, by attribute or by import
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in names:
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name in names]
    assert found == []


# The solvers test points against ranges with integer kernels: for squares
# `squares.square_tables` on one integer grid, and for halfplanes the sign
# tests `_sign_tables` and `_sign_masks` on homogeneous points.  The generic
# `Fraction` table `incidence` lives in oracle.py, so no solver module makes
# a `.contains(` call.  Entries are (module, enclosing def, argument source).
CONTAINS_ALLOWED: set[tuple[str, str, str]] = set()
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


def _defs(tree):
    """Dotted names of every def and class, as `_calls` names scopes."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            found.add(scope)
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
    assert not {name for name, _scope, _arg in live} & {"squares.py", "ply.py", "lp.py"}


def test_one_subset_search_in_the_oracles():
    # the three brute-force optima share one search; only it walks the
    # subsets, and it builds the one containment table of the library
    path = SRC / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    walkers = {scope for scope, _arg, _line in _calls(tree, {"_subsets_by_size"})}
    assert len(walkers) == 1
    assert walkers <= {scope for scope, _arg, _line in _calls(tree, {"incidence"})}


def test_square_tables_built_only_by_the_kernel():
    # the squares solvers build every S and S' table, and the final
    # membership, with square_tables; the generic Fraction table stays out
    for name in ("squares.py", "ply.py"):
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _calls(tree, {"incidence", "membership"}) == []
        assert _calls(tree, {"square_tables"})


def test_grid_scaled_only_by_the_public_solves():
    # each public squares solve builds its one SquareGrid, and every per-cell
    # step reads a slice of it; `ply` takes bare squares (the oracles call it
    # on subsets), so it scales their corners itself
    scopes = {"grid_unit": set(), "on_grid": set(), "of": set()}
    for name in ("squares.py", "ply.py"):
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in scopes:
            scopes[fn] |= {f"{name}:{scope}" for scope, _arg, _line in _calls(tree, {fn})}
    assert scopes == {
        "grid_unit": {"ply.py:ply"},
        "on_grid": {"ply.py:ply"},
        "of": {"squares.py:solve_mmgsc_squares_report", "ply.py:solve_mpgsc"},
    }


def test_halfplane_tables_built_only_by_the_instance():
    # every halfplane solver reads the S and S' tables and line sides of one
    # _HalfplaneInstance, built by one integer sign pass per instance
    # halfplane, _sign_tables; an anchor context signs S only against its
    # own segment endpoints, one _sign_masks on first read
    path = SRC / "halfplanes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _calls(tree, {"incidence", "covering_incidence"}) == []
    scopes = {
        (name, scope)
        for name in ("_sign_tables", "_sign_masks")
        for scope, _arg, _line in _calls(tree, {name})
    }
    assert scopes == {
        ("_sign_tables", "_HalfplaneInstance.__init__"),
        ("_sign_masks", "_AnchorContext._sign_wedge"),
    }


def test_arrangement_built_once_per_instance():
    # line intersections and segment orientations do not depend on the
    # anchor: geometry's Arrangement.of computes them once per instance,
    # and the face sweep, build_segments and the anchor contexts only read
    # it.  The one orientation kernel of the library is _cross3 with
    # _sign_masks; the per-segment _orient lives in the tests as a reference
    kernels, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        kernels |= {f"{path.name}:{scope}" for scope, _arg, _line in _calls(tree, {"_line_intersect"})}
        found += [f"{path.name}:{d}" for d in _defs(tree) if d.rsplit(".", 1)[-1] == "_orient"]
    assert kernels == {"geometry.py:Arrangement.of"}
    assert found == []
    path = SRC / "halfplanes.py"
    defs = _defs(ast.parse(path.read_text(), filename=str(path)))
    assert not defs & {"_line_intersect", "_hpt_normalize"}


def test_no_pair_list_of_one_lines_vertices():
    # the arrangement keeps each line's vertices in order, and the face
    # sweep and each anchor walk them, so no second pass over the pairs of
    # lines and no list of every vertex pair, O(n^3) segments, comes back:
    # only Arrangement.of runs `combinations` over lines, and halfplanes.py
    # runs it only over halfplanes, the id-sorted ones or their flips
    over_lines = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = _calls(tree, {"combinations"})
        over_lines |= {f"{path.name}:{scope}" for scope, arg, _line in calls if "lines" in arg.split(", ")[0]}
        if path.name == "geometry.py":
            assert "face_sample_points" not in {scope.split(".")[0] for scope, _arg, _line in calls}
        if path.name == "halfplanes.py":
            over = {arg.split(", ")[0] for _scope, arg, _line in calls}
            assert over and over <= {"range(len(self.halfplanes))", "range(len(flipped))"}
    assert over_lines == {"geometry.py:Arrangement.of"}


# the region calculus, deleted: no solver built a region, and union
# questions go to `strictly_feasible` alone
REGION_NAMES = {
    "_normalize_constraint",
    "ConvexRegion",
    "region_from_constraints",
    "complement_region",
    "region_subset",
}


def test_no_region_calls_in_halfplanes():
    # every union question of the halfplane solvers is one strict-feasibility
    # test; halfplanes.py binds the two region names perfbench/tracing.py
    # patches there only to the placeholder `complement_region =
    # region_subset = None`, and imports, defines or calls none of them
    path = SRC / "halfplanes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _calls(tree, REGION_NAMES) == []
    placeholder = [
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["complement_region", "region_subset"]
        and isinstance(node.value, ast.Constant) and node.value.value is None
    ]
    assert len(placeholder) == 1
    bindings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in REGION_NAMES:
            bindings.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in REGION_NAMES:
            bindings.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bindings += [node.lineno for a in node.names if (a.asname or a.name) in REGION_NAMES]
    assert bindings == [placeholder[0].lineno] * 2


def test_no_cover_only_wrappers():
    # each solver has one entry: no public def only returns `.cover` of
    # another call, so a caller that wants the cover reads it off the report
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            body = node.body[1:] if ast.get_docstring(node) else node.body
            ret = body[0] if len(body) == 1 else None
            if (
                isinstance(ret, ast.Return)
                and isinstance(ret.value, ast.Attribute)
                and ret.value.attr == "cover"
                and isinstance(ret.value.value, ast.Call)
            ):
                found.append(f"{path.name}:{node.name}")
    assert found == []


def test_face_sampling_on_integers():
    # the arrangement's face samples are integer triples over a common
    # denominator, and the anchors sign them as they come; nested defs
    # count as their enclosing function
    for name, scope, banned in (
        ("geometry.py", "face_sample_points", "Fraction"),
        ("halfplanes.py", "_HalfplaneInstance.faces", "_hpt"),
    ):
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        assert scope in _defs(tree)  # the rule still names a live function
        inside = [
            line
            for s, _arg, line in _calls(tree, {banned})
            if s == scope or s.startswith(scope + ".")
        ]
        assert inside == []


def test_no_tuple_of_generator():
    # CPython grows a generator-built tuple by resizing, and the resized
    # blocks pile up on its tuple free lists until a full collection, so
    # peak RSS grows with the number of solves; build from a list instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "tuple"
            and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
        ]
    assert found == []


def test_size_lp_only_behind_the_floor():
    # the small-cover scan certifies the minimum size whenever a cover of at
    # most three halfplanes exists; the size LP is left to the branch and
    # bound, which runs it only past that floor
    path = SRC / "halfplanes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert {scope for scope, _arg, _line in _calls(tree, {"solve_lp"})} == {"_min_size_cover"}


def test_cell_lp_solved_in_one_place():
    # the squares solvers reach the LP only as `lpmod.solve_lp`, so a patch
    # of the `lp.solve_lp` attribute sees every call, and from one function
    scopes, bound = set(), []
    for name in ("squares.py", "ply.py"):
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes |= {f"{name}:{scope}" for scope, _arg, _line in _calls(tree, {"solve_lp"})}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "solve_lp" in {a.name for a in node.names}:
                bound.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Name) and node.id == "solve_lp":
                bound.append(f"{name}:{node.lineno}")
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "solve_lp"
                and getattr(node.value, "id", None) != "lpmod"
            ):
                bound.append(f"{name}:{node.lineno}")
    assert bound == []
    assert scopes == {"squares.py:solve_cell_lp"}


def test_lp_keeps_only_the_cover_front_end():
    # `solve_lp` writes its tableau from the cover programs' bitmasks and
    # reads no number from outside; the general front end over rational
    # rows is the reference in tests/conftest.py
    path = SRC / "lp.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _defs(tree) & {"make_program", "_scaled", "_rationals"}
    assert "_cover_tableau" in _defs(tree)  # the rule still names a live module
    imported = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("geometry")
        for a in node.names
    }
    assert "frac" not in imported


def _same_sign_tests(tree):
    """Dotted names of the defs holding `x > 0 and y > 0 and z > 0` (or the
    same with <): three values tested for one strict sign, the shape of the
    three-normal Motzkin certificate."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            ops = [
                type(v.ops[0])
                for v in node.values
                if isinstance(v, ast.Compare)
                and len(v.ops) == 1
                and isinstance(v.ops[0], (ast.Gt, ast.Lt))
                and isinstance(v.comparators[0], ast.Constant)
                and v.comparators[0].value == 0
            ]
            if any(ops.count(op) >= 3 for op in set(ops)):
                found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_one_triple_certificate():
    # strict feasibility and the plane-cover scan share one implementation
    # of the triple cross-product certificate
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {f"{path.name}:{scope}" for scope in _same_sign_tests(tree)}
    assert found == {"geometry.py:triple_certificate"}
    for name, scope in (("geometry.py", "strictly_feasible"), ("halfplanes.py", "_plane_covers")):
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        assert scope in {s for s, _arg, _line in _calls(tree, {"triple_certificate"})}


def test_one_chain_enumerator():
    # a chain enumerator tests the S' masks; the anchor context's
    # `chains` is the only one in the library, nested defs counting as
    # their enclosing function, and the full enumeration that it must match
    # stays in the tests as `_reference_chains`
    path = SRC / "halfplanes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    readers = set()

    def visit(node, scope, in_def):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not in_def:
            scope = f"{scope}.{node.name}" if scope else node.name
            in_def = not isinstance(node, ast.ClassDef)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "sp_mask"
            and isinstance(node.ctx, ast.Load)
        ):
            readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_def)

    visit(tree, "", False)
    assert readers == {"_AnchorContext.chains"}
    tests = Path(__file__).resolve().parent / "test_halfplanes.py"
    test_tree = ast.parse(tests.read_text(), filename=str(tests))
    assert "_reference_chains" in _defs(test_tree)
    assert "_reference_chains" not in _defs(tree)


def test_one_union_kernel():
    # union questions have one kernel, `strictly_feasible` in geometry.py;
    # the region calculus, the LP-free region helpers and the clockwise
    # angle order, which no solver called, stay deleted, and no module
    # imports a region name
    gone = REGION_NAMES | {
        "linear_inf",
        "_recession_directions",
        "_parallel_interval",
        "_all_normals_parallel",
        "cw_angle_cmp",
        "angle_cmp",
    }
    found, kernels = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = _defs(tree)
        found += [f"{path.name}:{name}" for name in defs if name.split(".")[-1] in gone]
        kernels += [path.name for name in defs if name == "strictly_feasible"]
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.name in REGION_NAMES
        ]
    assert found == []
    assert kernels == ["geometry.py"]


def test_outside_numbers_only_through_frac():
    # `geometry.frac` is the one reader of a number from outside; the front
    # end makes no one-argument Fraction(...) call but on a numeric literal,
    # so no string or foreign value reaches Fraction's lenient parser
    found = []
    for name in ("instances.py", "cli.py", "halfplanes.py"):
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and len(node.args) + len(node.keywords) == 1
            and not (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and type(node.args[0].value) in (int, float)
            )
        ]
    assert found == []


def test_cli_integers_only_through_the_strict_reader():
    # argparse's `type=int` reads " 1_0 " as 10 and `type=float` reads
    # "1e999"; every number flag of the CLI goes through geometry's readers
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword)
        and node.arg == "type"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("int", "float")
    ]
    assert found == []


def test_one_decision_graph_shape():
    # every decision graph starts from its crossing chains and grows only
    # by `step`, so node v crosses iff v < crossing: an anchor context
    # builds each WindGraph from those two arguments, the instance builds
    # each context, and no module reads a per-node flag list `cross`
    scopes, arities, flags = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in ("WindGraph", "_AnchorContext"):
            scopes += [(name, path.name, scope) for scope, _arg, _line in _calls(tree, {name})]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "WindGraph" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                arities.append((len(node.args), len(node.keywords)))
            if isinstance(node, ast.Attribute) and node.attr == "cross" and isinstance(node.ctx, ast.Load):
                flags.append(f"{path.name}:{node.lineno}")
    assert sorted(scopes) == [
        ("WindGraph", "halfplanes.py", "_AnchorContext.graph"),
        ("_AnchorContext", "halfplanes.py", "_HalfplaneInstance.context"),
    ]
    assert arities == [(2, 0)]
    assert flags == []
