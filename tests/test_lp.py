import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    FractionalCover,
    cell_instance,
    lp_vertex_enumeration,
    membership_of_fractional,
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
    LinearProgram,
    LPSolution,
    make_program,
)

F = Fraction


def P(x, y):
    return Point.of(x, y)


class TestSimplex:
    def test_min_bounded_variable(self):
        lp = make_program(1, [1], [([1], ">=", 1)], [None])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and sol.value == 1

    def test_two_vars_cover(self):
        lp = make_program(2, [1, 1], [([1, 1], ">=", 1)], [1, 1])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and sol.value == 1

    def test_infeasible(self):
        lp = make_program(1, [1], [([0], ">=", 1)], [None])
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = make_program(1, [-1], [], [None])
        assert solve_lp(lp).status == UNBOUNDED

    def test_equality_rows(self):
        lp = make_program(2, [1, 2], [([1, 1], "==", 3), ([1, -1], "<=", 1)], [None, None])
        sol = solve_lp(lp)
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
            sol = solve_lp(lp)
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
            for v, ub in zip(sol.assignment, lp.upper_bounds):
                assert v >= 0 and (ub is None or v <= ub)


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
        sol = solve_lp(lp)
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


class TestValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_program_raises(self, case):
        with pytest.raises(ValueError):
            MALFORMED[case]()

    def test_malformed_program_raises_under_optimize(self):
        src = str(Path(membercover.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from fractions import Fraction as F\n"
            "from membercover.lp import LinearProgram\n"
            "assert False, 'asserts are on'\n"
            "try:\n"
            "    LinearProgram(2, (F(1),), (), (None, None))\n"
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
