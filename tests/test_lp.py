import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import conftest
from conftest import (
    FractionalCover,
    LinearProgram,
    as_linear_program,
    cell_instance,
    fraction_tableau,
    general_solve_lp,
    initial_tableau,
    lp_vertex_enumeration,
    make_program,
    membership_of_fractional,
    objective_row,
    reference_solve_lp,
    to_ints,
)

import membercover
from membercover import (
    Halfplane,
    Point,
    UnitSquare,
    build_membership_lp,
    build_size_lp,
    exact_mmgsc_bruteforce,
    incidence,
    solve_lp,
)
from membercover import lp as lpmod
from membercover.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    ConstraintRow,
    CoverProgram,
    LPSolution,
)

F = Fraction


def P(x, y):
    return Point.of(x, y)


class TestSimplex:
    def test_min_bounded_variable(self):
        lp = make_program(1, [1], [([1], ">=", 1)], [None])
        sol = general_solve_lp(lp)
        assert sol.status == OPTIMAL and sol.value == 1

    def test_two_vars_cover(self):
        lp = make_program(2, [1, 1], [([1, 1], ">=", 1)], [1, 1])
        sol = general_solve_lp(lp)
        assert sol.status == OPTIMAL and sol.value == 1

    def test_infeasible(self):
        lp = make_program(1, [1], [([0], ">=", 1)], [None])
        assert general_solve_lp(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = make_program(1, [-1], [], [None])
        assert general_solve_lp(lp).status == UNBOUNDED

    def test_equality_rows(self):
        lp = make_program(2, [1, 2], [([1, 1], "==", 3), ([1, -1], "<=", 1)], [None, None])
        sol = general_solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.assignment[0] + sol.assignment[1] == 3
        assert sol.value == lp_vertex_enumeration(lp)

    def test_matches_vertex_enumeration_random(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(1, 3)
            rows = []
            for _ in range(rng.randint(1, 3)):
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
                rel = rng.choice(["<=", ">="])
                rows.append((coeffs, rel, Fraction(rng.randint(-2, 4))))
            objective = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            lp = make_program(n, objective, rows, [Fraction(3)] * n)
            sol = general_solve_lp(lp)
            oracle = lp_vertex_enumeration(lp)
            if sol.status == OPTIMAL:
                assert sol.value == oracle
            else:
                assert sol.status == INFEASIBLE and oracle is None

    def test_membership_lp_against_enumeration(self):
        squares = [
            UnitSquare(0, P(1, 1)),
            UnitSquare(1, P("3/2", "1/2")),
            UnitSquare(2, P("1/2", "3/2")),
        ]
        points = [P("1/2", "1/2"), P("3/4", "1/4")]
        rows = incidence(points, squares)
        lp = build_membership_lp(rows, rows, len(squares))
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.value == lp_vertex_enumeration(lp)

    def test_determinism(self):
        squares = [UnitSquare(i, P(Fraction(i + 2, 3), 1)) for i in range(4)]
        points = [P("1/2", "1/2")]
        rows = incidence(points, squares)
        lp = build_membership_lp(rows, rows, len(squares))
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert repr(a) == repr(b)

    def test_solution_satisfies_constraints(self):
        rng = random.Random(4)
        for seed in range(15):
            points, sprime, squares = cell_instance(seed, max_squares=6, max_points=6)
            lp = build_membership_lp(
                incidence(points, squares), incidence(sprime, squares), len(squares)
            )
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL
            for row in lp.rows:
                lhs = sum(c * v for c, v in zip(row.coeffs, sol.assignment))
                if row.rel == ">=":
                    assert lhs >= row.rhs
                elif row.rel == "<=":
                    assert lhs <= row.rhs
                else:
                    assert lhs == row.rhs
            for v, ub in zip(sol.assignment, as_linear_program(lp).upper_bounds):
                assert v >= 0 and (ub is None or v <= ub)


def reference_cover_tableau(program: CoverProgram):
    """(tableau, basis, phase-1 cost row or None, phase-2 objective row) of
    a cover program from `fraction_tableau`: the phase-1 costs by pricing
    out each artificial of a cost row with 1 at every artificial, the
    objective by `to_ints`; the reference for `lp._cover_tableau`."""
    tableau, basis, artificials, n_cols = fraction_tableau(program)
    phase_one = None
    if artificials:
        cost = [0] * (n_cols + 1)
        for a in artificials:
            cost[a] = 1
        phase_one = conftest._reference_price_out(cost, tableau, basis)
        n_cols = artificials[0]
    objective = as_linear_program(program).objective
    return tableau, basis, phase_one, to_ints([*objective] + [F(0)] * (n_cols + 1 - len(objective)))


def cell_programs():
    """The membership and the size program of each seeded cell instance."""
    for seed in range(40):
        points, sprime, squares = cell_instance(seed)
        s_rows = incidence(points, squares)
        yield build_membership_lp(s_rows, incidence(sprime, squares), len(squares))
        yield build_size_lp(s_rows, len(squares))


def spy_pivots(monkeypatch) -> dict[str, list[tuple[int, int]]]:
    """The (row, col) pivots of the library core (`_pivot`) and of the
    dense reference (`_reference_pivot`), recorded as they are taken."""
    paths = {}
    for module, name in ((lpmod, "_pivot"), (conftest, "_reference_pivot")):
        path = paths[name] = []

        def spy(tableau, basis, row, col, pivot=getattr(module, name), path=path):
            path.append((row, col))
            pivot(tableau, basis, row, col)

        monkeypatch.setattr(module, name, spy)
    return paths


class TestIntegerRows:
    """The tableau rows built as ints against `to_ints` of the rows built
    over Fraction: equal rows take equal pivots.  The general programs go
    through `conftest.initial_tableau`, the cover programs through the
    library's `lp._cover_tableau`."""

    @staticmethod
    def _random_program(rng):
        def rational():
            return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7, 64]))

        n = rng.randint(1, 4)
        rows = [
            ([rational() for _ in range(n)], rng.choice(["<=", ">=", "=="]), rational())
            for _ in range(rng.randint(0, 4))
        ]
        ups = [rng.choice([None, rational(), Fraction(rng.randint(1, 9), 4)]) for _ in range(n)]
        return make_program(n, [rational() for _ in range(n)], rows, ups)

    def test_rational_rows_match_fraction_rows(self):
        rng = random.Random(12)
        for _ in range(300):
            lp = self._random_program(rng)
            assert initial_tableau(lp) == fraction_tableau(lp)

    def test_cover_program_rows_match_fraction_rows(self):
        for program in cell_programs():
            assert lpmod._cover_tableau(program) == reference_cover_tableau(program)

    def test_cost_row_matches_fraction_row(self):
        rng = random.Random(13)
        for _ in range(100):
            lp = self._random_program(rng)
            assert objective_row(lp, lp.n_vars + 2) == to_ints(list(lp.objective) + [F(0)] * 3)


class TestPivotPath:
    """The pivots that touch only the rows and columns they change against
    the dense ones of `reference_solve_lp`: the same (row, col) pivots in
    the same order, and `==` solutions.  The random general programs reach
    the library core through `conftest.general_solve_lp`."""

    @staticmethod
    def _programs():
        rng = random.Random(12)
        for _ in range(300):
            yield TestIntegerRows._random_program(rng)
        yield from cell_programs()

    def test_same_pivots_and_solutions_as_reference(self, monkeypatch):
        paths = spy_pivots(monkeypatch)
        statuses = set()
        for lp in self._programs():
            for path in paths.values():
                path.clear()
            sol = general_solve_lp(lp) if isinstance(lp, LinearProgram) else solve_lp(lp)
            assert sol == reference_solve_lp(lp)
            assert paths["_pivot"] == paths["_reference_pivot"]
            statuses.add(sol.status)
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


# Cover programs at the edges of the tableau layout, with the status each
# must end in
COVER_EDGES = {
    "no_s_rows": (lambda: build_membership_lp([], [0b011, 0b110], 3), OPTIMAL),
    "no_sprime_rows": (lambda: build_membership_lp([0b011, 0b100], [], 3), OPTIMAL),
    "size_no_rows": (lambda: build_size_lp([], 3), OPTIMAL),
    "zero_s_row": (lambda: build_membership_lp([0b01, 0], [0b11], 2), INFEASIBLE),
    "size_zero_s_row": (lambda: build_size_lp([0b10, 0], 2), INFEASIBLE),
    "no_ranges": (lambda: build_membership_lp([], [0], 0), OPTIMAL),
    "size_no_ranges": (lambda: build_size_lp([], 0), OPTIMAL),
    "no_ranges_s_row": (lambda: build_size_lp([0], 0), INFEASIBLE),
    "duplicate_rows": (
        lambda: build_membership_lp([0b101, 0b101, 0b011], [0b110, 0b110, 0b101], 3), OPTIMAL
    ),
    "size_duplicate_rows": (lambda: build_size_lp([0b0110, 0b0110, 0b1001, 0b1001], 4), OPTIMAL),
    "zero_sprime_row": (lambda: build_membership_lp([0b01, 0b10], [0, 0b11], 2), OPTIMAL),
}


class TestCoverTableau:
    """Cover programs at the edges: the tableau that `solve_lp` writes from
    the masks against the Fraction reference of the same program, then the
    pivots and the solution against `reference_solve_lp`.  The cell
    batteries run in `TestIntegerRows` and `TestPivotPath`."""

    @pytest.mark.parametrize("case", sorted(COVER_EDGES))
    def test_edge_case(self, case, monkeypatch):
        make, status = COVER_EDGES[case]
        program = make()
        assert lpmod._cover_tableau(program) == reference_cover_tableau(program)
        paths = spy_pivots(monkeypatch)
        sol = solve_lp(program)
        assert sol == reference_solve_lp(program)
        assert paths["_pivot"] == paths["_reference_pivot"]
        assert sol.status == status
        if status == OPTIMAL:
            assert sol.value == lp_vertex_enumeration(program)

    def test_views_match_the_rows(self):
        # the rows and the column count a tracer reads off a program
        program = build_membership_lp([0b101], [0b011, 0], 3)
        assert program.n_vars == 4
        assert program.rows == (
            ConstraintRow((1, 0, 1, 0), ">=", 1),
            ConstraintRow((1, 1, 0, -1), "<=", 0),
            ConstraintRow((0, 0, 0, -1), "<=", 0),
        )
        size = build_size_lp([0b10, 0b11], 2)
        assert size.n_vars == 2
        assert size.rows == (ConstraintRow((0, 1), ">=", 1), ConstraintRow((1, 1), ">=", 1))


# Exact solutions of seeded cell programs, recorded with the rational
# (Fraction) tableau that the integer-row tableau replaced.  Bland's rule
# must reach the same vertex, not merely the same value.
MEMBERSHIP_GOLDEN = {
    3: LPSolution(OPTIMAL, F(2), (
        F(0), F(1), F(1), F(1), F(1), F(0), F(0), F(0), F(1), F(0), F(2),
    )),
    12: LPSolution(OPTIMAL, F(1, 2), (
        F(0), F(1, 2), F(1), F(0), F(0), F(0), F(0), F(1, 2), F(0), F(0), F(1, 2),
    )),
    18: LPSolution(OPTIMAL, F(1), (
        F(0), F(1), F(0), F(0), F(1), F(0), F(0), F(0), F(1), F(0), F(1),
    )),
    21: LPSolution(OPTIMAL, F(1, 2), (
        F(1), F(0), F(1, 2), F(0), F(0), F(0), F(1, 2), F(1, 2),
    )),
    30: LPSolution(OPTIMAL, F(1, 2), (
        F(1, 2), F(0), F(0), F(0), F(1, 2), F(1), F(0), F(0), F(1, 2),
    )),
    39: LPSolution(OPTIMAL, F(1), (
        F(0), F(0), F(0), F(0), F(1), F(1), F(1), F(0), F(0), F(1),
    )),
}
SIZE_GOLDEN = {
    3: LPSolution(OPTIMAL, F(3), (
        F(0), F(0), F(1), F(1), F(0), F(0), F(0), F(0), F(1), F(0),
    )),
    14: LPSolution(OPTIMAL, F(3), (
        F(0), F(0), F(0), F(1), F(1), F(0), F(0), F(0), F(1), F(0),
    )),
    18: LPSolution(OPTIMAL, F(3), (
        F(0), F(0), F(1), F(0), F(1), F(0), F(0), F(0), F(1), F(0),
    )),
    27: LPSolution(OPTIMAL, F(4), (
        F(1), F(0), F(1), F(0), F(1), F(0), F(0), F(0), F(1), F(0),
    )),
    36: LPSolution(OPTIMAL, F(3), (
        F(1), F(0), F(1), F(0), F(0), F(1), F(0), F(0), F(0),
    )),
    50: LPSolution(OPTIMAL, F(3), (
        F(1), F(1), F(1), F(0), F(0),
    )),
}


class TestExactSolutions:
    @pytest.mark.parametrize("seed", sorted(MEMBERSHIP_GOLDEN))
    def test_membership_golden(self, seed):
        points, sprime, squares = cell_instance(seed)
        sol = solve_lp(build_membership_lp(
            incidence(points, squares), incidence(sprime, squares), len(squares)
        ))
        assert sol == MEMBERSHIP_GOLDEN[seed]

    @pytest.mark.parametrize("seed", sorted(SIZE_GOLDEN))
    def test_size_golden(self, seed):
        points, _sprime, squares = cell_instance(seed)
        lp = build_size_lp(incidence(points, squares), len(squares))
        assert solve_lp(lp) == SIZE_GOLDEN[seed]

    def test_local_sprime_same_solution(self):
        # rows -y <= 0 of monitored points outside every square never
        # leave the basis, so dropping them leaves Bland's path unchanged
        dropped = 0
        for seed in range(40):
            points, sprime, squares = cell_instance(seed)
            local = [s for s in sprime if any(q.contains(s) for q in squares)]
            dropped += len(sprime) - len(local)
            s_rows = incidence(points, squares)
            whole = solve_lp(
                build_membership_lp(s_rows, incidence(sprime, squares), len(squares))
            )
            assert solve_lp(
                build_membership_lp(s_rows, incidence(local, squares), len(squares))
            ) == whole
        assert dropped > 0

    def test_artificial_driven_out_on_negative_pivot(self, monkeypatch):
        # phase 1 ends with the artificial of -x3 >= 0 basic at zero; the
        # drive-out pivots on its -1 entry, and phase 2 pivots on that row again
        entries = []
        pivot = lpmod._pivot

        def spy(tableau, basis, row, col):
            entries.append(tableau[row][col])
            pivot(tableau, basis, row, col)

        monkeypatch.setattr(lpmod, "_pivot", spy)
        lp = make_program(
            3,
            [-1, 2, 1],
            [([0, 1, -1], ">=", 1), ([-2, 1, 2], ">=", 0), ([0, 0, -1], ">=", 0)],
            [None, None, None],
        )
        sol = general_solve_lp(lp)
        assert any(e < 0 for e in entries)
        assert sol == LPSolution(OPTIMAL, F(3, 2), (F(1, 2), F(1), F(0)))
        assert sol.value == lp_vertex_enumeration(lp)


MALFORMED = {
    "objective": lambda: LinearProgram(2, (F(1),), (), (None, None)),
    "upper_bounds": lambda: LinearProgram(1, (F(1),), (), ()),
    "row_length": lambda: LinearProgram(
        1, (F(1),), (ConstraintRow((F(1), F(1)), ">=", F(1)),), (None,)
    ),
    "relation": lambda: LinearProgram(
        1, (F(1),), (ConstraintRow((F(1),), "<", F(1)),), (None,)
    ),
}


# Builder input that a cover program cannot read, with the message each
# must raise
BAD_BUILDER_INPUT = {
    "bit_past_the_ranges": (lambda: build_size_lp([0b100], 2), "S row 0 is 4"),
    "negative_row": (lambda: build_size_lp([0b1, -1], 2), "S row 1 is -1"),
    "negative_n_ranges": (lambda: build_size_lp([1], -1), "n_ranges is -1"),
    "sprime_bit_past_the_ranges": (
        lambda: build_membership_lp([0b1], [0b01, 0b110], 2), "S' row 1 is 6"
    ),
    "negative_sprime_row": (lambda: build_membership_lp([0b1], [-2], 2), "S' row 0 is -2"),
    "membership_negative_n_ranges": (lambda: build_membership_lp([], [], -1), "n_ranges is -1"),
    "sprime_rows_without_load": (
        lambda: CoverProgram((1,), (1,), 1, False), "S' rows bound the load variable"
    ),
}


class TestValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_program_raises(self, case):
        with pytest.raises(ValueError):
            MALFORMED[case]()

    def test_bool_coefficients_raise(self):
        # a bool is an int subclass; make_program reads it as `frac` does
        for args in (
            (1, [True], [([1], ">=", 1)]),
            (1, [1], [([True], ">=", 1)]),
            (1, [1], [([1], ">=", True)]),
            (1, [1], [([1], ">=", 1)], [False]),
        ):
            with pytest.raises(ValueError):
                make_program(*args)

    @pytest.mark.parametrize("case", sorted(BAD_BUILDER_INPUT))
    def test_bad_builder_input_raises(self, case):
        make, message = BAD_BUILDER_INPUT[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_malformed_program_raises_under_optimize(self):
        src = str(Path(membercover.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from membercover.lp import build_size_lp\n"
            "assert False, 'asserts are on'\n"
            "try:\n"
            "    build_size_lp([0b100], 2)\n"
            "except ValueError:\n"
            "    print('ValueError')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "ValueError"


class TestMembershipProgram:
    def test_single_point_two_squares(self):
        squares = [UnitSquare(0, P(1, 1)), UnitSquare(1, P("1/2", "1/2"))]
        p = P("1/4", "1/4")
        rows = incidence([p], squares)
        lp = build_membership_lp(rows, rows, len(squares))
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and sol.value == 1
        assert sol.value == lp_vertex_enumeration(lp)

    def test_unmonitored_query_point(self):
        squares = [UnitSquare(0, P(1, 1))]
        lp = build_membership_lp(
            incidence([P("1/2", "1/2")], squares), incidence([P(5, 5)], squares), len(squares)
        )
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and sol.value == 0

    def test_no_ranges_infeasible(self):
        lp = build_membership_lp(incidence([P(0, 0)], []), [], 0)
        assert solve_lp(lp).status == INFEASIBLE

    def test_lower_bounds_optimum(self):
        # relaxation never exceeds the best integral membership
        for seed in range(25):
            points, sprime, squares = cell_instance(seed, max_squares=8, max_points=6)
            lp = build_membership_lp(
                incidence(points, squares), incidence(sprime, squares), len(squares)
            )
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL
            opt, _ = exact_mmgsc_bruteforce(points, sprime, squares)
            assert sol.value <= opt


class TestSizeProgram:
    def test_single(self):
        lp = build_size_lp(incidence([P("1/2", "1/2")], [UnitSquare(0, P(1, 1))]), 1)
        assert solve_lp(lp).value == 1

    def test_two_separate_points(self):
        squares = [UnitSquare(0, P(1, 1)), UnitSquare(1, P(5, 5))]
        lp = build_size_lp(incidence([P("1/2", "1/2"), P("9/2", "9/2")], squares), len(squares))
        assert solve_lp(lp).value == 2

    def test_packing_bound(self):
        # any feasible fractional packing is a lower bound on the size LP
        for seed in range(10):
            points, _sprime, squares = cell_instance(seed, max_squares=6, max_points=6)
            lp = build_size_lp(incidence(points, squares), len(squares))
            value = solve_lp(lp).value
            depth = [sum(1 for p in points if q.contains(p)) for q in squares]
            max_depth = max(depth)
            packing = Fraction(len(points), max_depth)
            assert packing <= value or max_depth == 0


class TestFractionalMembership:
    def test_empty(self):
        assert membership_of_fractional([], FractionalCover({}), []) == 0

    def test_two_halves(self):
        squares = [UnitSquare(0, P(1, 1)), UnitSquare(1, P("1/2", "1/2"))]
        cover = FractionalCover({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert membership_of_fractional([P(0, 0)], cover, squares) == 1

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FractionalCover({0: Fraction(3, 2)})

    def test_random_resummation(self):
        rng = random.Random(9)
        squares = [
            UnitSquare(i, P(Fraction(rng.randint(0, 64), 32), Fraction(rng.randint(0, 64), 32)))
            for i in range(5)
        ]
        pts = [
            P(Fraction(rng.randint(0, 64), 32), Fraction(rng.randint(0, 64), 32))
            for _ in range(4)
        ]
        weights = {i: Fraction(rng.randint(0, 8), 8) for i in range(5)}
        cover = FractionalCover(weights)
        got = membership_of_fractional(pts, cover, squares)
        expected = max(
            sum(weights[q.id] for q in squares if q.contains(p)) for p in pts
        )
        assert got == expected
