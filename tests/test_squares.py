import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    bucket_fractional_cover,
    cell_instance,
    membership_of_fractional,
    one_corner_instance,
)

from membercover import (
    GridCell,
    Point,
    Uncoverable,
    UnitSquare,
    build_membership_lp,
    build_size_lp,
    corner_partition,
    exact_mmgsc_bruteforce,
    incidence,
    maximal_squares,
    quadrant_greedy_cover,
    solve_cell,
    solve_lp,
    solve_mmgsc_squares,
    solve_one_corner,
    verify_cover,
)
from membercover.covers import membership
from membercover.squares import (
    SquareWithoutCorner,
    canonical_point,
    canonical_square,
    solve_cell_report,
)

CELL = GridCell(0, 0)


def P(x, y):
    return Point.of(x, y)


def _solved_partition(points, sprime, squares, cell=CELL):
    s_rows = incidence(points, squares)
    lp = build_membership_lp(s_rows, incidence(sprime, squares), len(squares))
    sol = solve_lp(lp)
    return corner_partition(points, s_rows, squares, cell, sol), sol


class TestCornerPartition:
    def test_priority_rule(self):
        # the unit square over the whole cell contains all four corners
        sq = UnitSquare(0, P(1, 1))
        part, _ = _solved_partition([P("1/2", "1/2")], [P("1/2", "1/2")], [sq])
        assert [q.id for q in part.square_buckets[0]] == [0]
        assert all(not part.square_buckets[i] for i in (1, 2, 3))
        assert part.point_buckets[0] == (P("1/2", "1/2"),)

    def test_tie_breaks_to_lowest_corner(self):
        low = UnitSquare(0, P("1/2", "1/2"))   # bottom-left corner only
        high = UnitSquare(1, P("3/2", "3/2"))  # top-right corner only
        p = P("1/2", "1/2")
        part, sol = _solved_partition([p], [], [low, high])
        assert sol.assignment[0] + sol.assignment[1] >= 1
        if sol.assignment[0] == sol.assignment[1]:
            assert p in part.point_buckets[0]

    def test_square_without_corner_rejected(self):
        wide = UnitSquare(0, P(1, "1/2"))
        tall_cell = GridCell(0, 0)
        bad = UnitSquare(1, P("5/4", "1/2"))
        points = [P("1/2", "1/4")]
        lp = build_membership_lp(incidence(points, [wide]), [], 1)
        sol = solve_lp(lp)
        # a fake "square" narrower than the cell: emulate via a corner miss
        class Sliver:
            id = 1

            def contains(self, p):
                return False

        with pytest.raises(SquareWithoutCorner):
            corner_partition(points, incidence(points, [Sliver()]), [Sliver()], tall_cell, sol)

    def test_winning_load_at_least_quarter(self):
        for seed in range(30):
            points, sprime, squares = cell_instance(seed, max_squares=6, max_points=8)
            part, sol = _solved_partition(points, sprime, squares)
            for corner in range(4):
                bucket_sqs = part.square_buckets[corner]
                for p in part.point_buckets[corner]:
                    delta = sum(
                        sol.assignment[pos]
                        for pos, q in enumerate(squares)
                        if q in bucket_sqs and q.contains(p)
                    )
                    assert delta >= Fraction(1, 4)


class TestMaximalSquares:
    def _of(self, pairs):
        return [
            UnitSquare(i, P(Fraction(u), Fraction(v))) for i, (u, v) in enumerate(pairs)
        ]

    def test_antichain_all_kept(self):
        sqs = self._of([(Fraction(1, 2), Fraction(9, 10)), (Fraction(7, 10), Fraction(7, 10)), (Fraction(9, 10), Fraction(1, 2))])
        assert [q.id for q in maximal_squares(sqs, CELL, 0)] == [0, 1, 2]

    def test_dominated_dropped(self):
        sqs = self._of([(Fraction(1, 2), Fraction(1, 2)), (Fraction(9, 10), Fraction(9, 10))])
        assert [q.id for q in maximal_squares(sqs, CELL, 0)] == [1]

    def test_duplicate_keeps_lowest_id(self):
        sqs = self._of([(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])
        assert [q.id for q in maximal_squares(sqs, CELL, 0)] == [0]

    def test_matches_pairwise_filter(self):
        rng = random.Random(13)
        for _ in range(30):
            sqs = [
                UnitSquare(i, P(Fraction(rng.randint(1, 64), 64), Fraction(rng.randint(1, 64), 64)))
                for i in range(10)
            ]
            got = {q.id for q in maximal_squares(sqs, CELL, 0)}
            coords = {q.id: canonical_square(q, CELL, 0) for q in sqs}
            expected = set()
            for q in sqs:
                u, v = coords[q.id]
                dominated = any(
                    (coords[o.id][0] >= u and coords[o.id][1] >= v and o.id != q.id
                     and (coords[o.id] != (u, v) or o.id < q.id))
                    for o in sqs
                )
                if not dominated:
                    expected.add(q.id)
            assert got == expected


class TestQuadrantGreedy:
    def test_single(self):
        assert quadrant_greedy_cover(
            [(Fraction(3, 10), Fraction(3, 10))], [(0, Fraction(1, 2), Fraction(1, 2))]
        ) == [0]

    def test_two_staircase_points(self):
        points = [(Fraction(2, 10), Fraction(8, 10)), (Fraction(8, 10), Fraction(2, 10))]
        quads = [(0, Fraction(3, 10), Fraction(9, 10)), (1, Fraction(9, 10), Fraction(3, 10))]
        got = quadrant_greedy_cover(points, quads)
        assert sorted(got) == [0, 1]
        # brute force confirms two quadrants are necessary
        for rid, u, v in quads:
            assert not all(px <= u and py <= v for px, py in points)

    def test_uncoverable(self):
        with pytest.raises(Uncoverable):
            quadrant_greedy_cover([(Fraction(1), Fraction(1))], [(0, Fraction(1, 2), Fraction(1, 2))])

    def _brute_minimum(self, points, quads):
        for size in range(len(quads) + 1):
            for combo in combinations(quads, size):
                if all(
                    any(px <= u and py <= v for _, u, v in combo)
                    for px, py in points
                ):
                    return size
        return None

    def test_greedy_is_optimal(self):
        for seed in range(120):
            points, quads = one_corner_instance(seed)
            got = quadrant_greedy_cover(points, quads)
            assert len(got) == self._brute_minimum(points, quads)
            chosen = {rid for rid in got}
            assert all(
                any(px <= u and py <= v for rid, u, v in quads if rid in chosen)
                for px, py in points
            )


class TestSolveOneCorner:
    def test_zero_membership(self):
        sq = UnitSquare(0, P(1, 1))
        ids = solve_one_corner([P("1/2", "1/2")], [sq], CELL, 0)
        assert ids == (0,) and membership([P(5, 5)], ids, [sq]) == 0

    def test_membership_close_to_fraction(self):
        for seed in range(40):
            points, sprime, squares = cell_instance(seed, max_squares=8, max_points=8)
            report = solve_cell_report(points, sprime, squares, CELL)
            if report.partition is None:
                continue
            for corner in range(4):
                bucket_points = report.partition.point_buckets[corner]
                bucket_squares = report.partition.square_buckets[corner]
                if not bucket_points:
                    continue
                ids = solve_one_corner(bucket_points, bucket_squares, CELL, corner)
                frac = bucket_fractional_cover(report.partition, corner)
                frac_memb = membership_of_fractional(sprime, frac, squares)
                assert Fraction(membership(sprime, ids, squares)) <= frac_memb + 2


class TestSolveCell:
    def test_zero_membership_branch(self):
        squares = [UnitSquare(0, P(1, 1)), UnitSquare(1, P("3/2", "3/2"))]
        sprime = [P("5/4", "5/4")]
        cover = solve_cell([P("1/2", "1/2")], sprime, squares, CELL)
        assert cover.memb == 0
        assert cover.ids == (0,)  # exactly the squares avoiding monitored points

    def test_uncoverable(self):
        with pytest.raises(Uncoverable):
            solve_cell([P("1/2", "1/2")], [], [UnitSquare(0, P(5, 5))], CELL)

    def test_lp_bound_and_oracle_bound(self):
        for seed in range(40):
            points, sprime, squares = cell_instance(seed, max_squares=8, max_points=8)
            report = solve_cell_report(points, sprime, squares, CELL)
            cover = report.cover
            assert verify_cover(points, cover.ids, squares)
            assert cover.memb == membership(sprime, cover.ids, squares)
            if report.lp_value is not None:
                assert Fraction(cover.memb) <= 16 * report.lp_value + 8
            opt, _ = exact_mmgsc_bruteforce(points, sprime, squares)
            assert cover.memb <= 16 * opt + 8

    def test_each_point_tested_once_per_square(self, monkeypatch):
        # one S table and one S' table per cell: (|S| + |S'|) * |Q| point
        # tests, plus the corner tests that assign squares to buckets
        contains = UnitSquare.contains
        calls = []

        def counting(self, p):
            calls.append(p)
            return contains(self, p)

        points, sprime, squares = cell_instance(3)
        monkeypatch.setattr(UnitSquare, "contains", counting)
        report = solve_cell_report(points, sprime, squares, CELL)
        monkeypatch.undo()
        assert report.partition is not None  # the LP path, corner tests included
        corner_tests = sum(
            1 + next(i for i, c in enumerate(CELL.corners()) if q.contains(c))
            for q in squares
        )
        assert (len(points), len(sprime), len(squares), corner_tests) == (9, 7, 10, 20)
        assert len(calls) == (len(points) + len(sprime)) * len(squares) + corner_tests == 180


class TestSolveSquares:
    def test_single_cell_equals_cell_solver(self):
        points, sprime, squares = cell_instance(11)
        whole = solve_mmgsc_squares(points, sprime, squares)
        cell = solve_cell(points, sprime, squares, CELL)
        assert whole.ids == cell.ids

    def test_two_cells_shared_square(self):
        sq = UnitSquare(0, P("3/2", 1))
        points = [P("3/4", "1/2"), P("5/4", "1/2")]
        cover = solve_mmgsc_squares(points, [], [sq])
        assert cover.ids == (0,)
        assert verify_cover(points, cover.ids, [sq])

    def test_multi_cell_bound(self):
        from conftest import square_instance

        for seed in range(25):
            points, sprime, squares = square_instance(seed)
            cover = solve_mmgsc_squares(points, sprime, squares)
            assert verify_cover(points, cover.ids, squares)
            opt, _ = exact_mmgsc_bruteforce(points, sprime, squares)
            assert cover.memb <= 9 * (16 * opt + 8)

    def test_empty_points(self):
        cover = solve_mmgsc_squares([], [P(0, 0)], [UnitSquare(0, P(1, 1))])
        assert cover.ids == () and cover.memb == 0

    def test_adding_square_never_raises_lp_value(self):
        for seed in range(15):
            points, sprime, squares = cell_instance(seed, max_squares=6, max_points=6)
            base = solve_lp(build_membership_lp(
                incidence(points, squares), incidence(sprime, squares), len(squares)
            )).value
            bigger = squares + [UnitSquare(len(squares), P(1, 1))]
            more = solve_lp(build_membership_lp(
                incidence(points, bigger), incidence(sprime, bigger), len(bigger)
            )).value
            assert more <= base


class TestCanonical:
    def test_canonical_roundtrip_containment(self):
        rng = random.Random(19)
        cell = GridCell(2, -1)
        corners = cell.corners()
        for _ in range(200):
            corner = rng.randrange(4)
            cx, cy = corners[corner].x, corners[corner].y
            tr = P(cx + Fraction(rng.randint(0, 64), 64), cy + Fraction(rng.randint(0, 64), 64))
            sq = UnitSquare(0, tr)
            if not sq.contains(corners[corner]):
                continue
            p = Point(
                cell.i + Fraction(rng.randint(0, 64), 64),
                cell.j + Fraction(rng.randint(0, 64), 64),
            )
            u, v = canonical_square(sq, cell, corner)
            px, py = canonical_point(p, cell, corner)
            assert sq.contains(p) == (px <= u and py <= v)
