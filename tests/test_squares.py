import importlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    bucket_fractional_cover,
    canonical_point,
    canonical_square,
    cell_corners,
    cell_instance,
    maximal_squares_reference,
    membership_of_fractional,
    mixed_grid_instance,
    one_corner_instance,
    square_instance,
    staircase_squares,
)

from membercover import (
    GridCell,
    Point,
    SquareGrid,
    Uncoverable,
    UnitSquare,
    build_membership_lp,
    build_size_lp,
    corner_partition,
    exact_mmgsc_bruteforce,
    incidence,
    memb_eval,
    quadrant_greedy_cover,
    solve_lp,
    solve_mmgsc_squares_report,
    solve_mpgsc,
    solve_one_corner,
    verify_cover,
)
from membercover.geometry import grid_unit, on_grid
from membercover.lp import OPTIMAL, LPSolution
from membercover.squares import (
    SquareWithoutCorner,
    _corner_local,
    solve_cell_report,
    square_tables,
)

CELL = GridCell(0, 0)


def P(x, y):
    return Point.of(x, y)


def _solved_partition(points, sprime, squares, cell=CELL):
    s_rows = incidence(points, squares)
    lp = build_membership_lp(s_rows, incidence(sprime, squares), len(squares))
    sol = solve_lp(lp)
    return corner_partition(SquareGrid.of(points, squares), s_rows, cell, lambda: sol), sol


class TestCornerPartition:
    def test_priority_rule(self):
        # the unit square over the whole cell contains all four corners
        sq = UnitSquare(0, P(1, 1))
        part, _ = _solved_partition([P("1/2", "1/2")], [P("1/2", "1/2")], [sq])
        assert [q.id for q in part.buckets[0].squares] == [0]
        assert all(not part.buckets[i].squares for i in (1, 2, 3))
        assert part.buckets[0].points == (P("1/2", "1/2"),)

    def test_tie_breaks_to_lowest_corner(self):
        low = UnitSquare(0, P("1/2", "1/2"))   # bottom-left corner only
        high = UnitSquare(1, P("3/2", "3/2"))  # top-right corner only
        p = P("1/2", "1/2")
        part, sol = _solved_partition([p], [], [low, high])
        assert sol.assignment[0] + sol.assignment[1] >= 1
        if sol.assignment[0] == sol.assignment[1]:
            assert p in part.buckets[0].points

    def test_square_without_corner_rejected(self):
        wide = UnitSquare(0, P(1, "1/2"))
        points = [P("1/2", "1/4")]
        lp = build_membership_lp(incidence(points, [wide]), [], 1)
        sol = solve_lp(lp)
        # a unit square meets the closed cell iff it holds one of its
        # corners, so these miss the cell: one beside it in x, one below it
        for far in (UnitSquare(1, P("5/2", "1/2")), UnitSquare(1, P("1/2", "-1/4"))):
            assert not any(far.contains(c) for c in cell_corners(CELL))
            with pytest.raises(SquareWithoutCorner):
                corner_partition(
                    SquareGrid.of(points, [far]), incidence(points, [far]), CELL, lambda: sol
                )

    def test_winning_load_at_least_quarter(self):
        for seed in range(30):
            points, sprime, squares = cell_instance(seed, max_squares=6, max_points=8)
            part, sol = _solved_partition(points, sprime, squares)
            for corner in range(4):
                bucket_sqs = part.buckets[corner].squares
                for p in part.buckets[corner].points:
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
        assert [q.id for q in staircase_squares(SquareGrid.of([], sqs), CELL, 0)] == [0, 1, 2]

    def test_dominated_dropped(self):
        sqs = self._of([(Fraction(1, 2), Fraction(1, 2)), (Fraction(9, 10), Fraction(9, 10))])
        assert [q.id for q in staircase_squares(SquareGrid.of([], sqs), CELL, 0)] == [1]

    def test_duplicate_keeps_lowest_id(self):
        sqs = self._of([(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])
        assert [q.id for q in staircase_squares(SquareGrid.of([], sqs), CELL, 0)] == [0]

    def test_matches_pairwise_filter(self):
        rng = random.Random(13)
        for _ in range(30):
            sqs = [
                UnitSquare(i, P(Fraction(rng.randint(1, 64), 64), Fraction(rng.randint(1, 64), 64)))
                for i in range(10)
            ]
            got = {q.id for q in staircase_squares(SquareGrid.of([], sqs), CELL, 0)}
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
        ids = solve_one_corner(SquareGrid.of([P("1/2", "1/2")], [sq]), CELL, 0)
        assert ids == (0,) and memb_eval([P(5, 5)], ids, [sq]) == 0

    def test_membership_close_to_fraction(self):
        for seed in range(40):
            points, sprime, squares = cell_instance(seed, max_squares=8, max_points=8)
            report = solve_cell_report(SquareGrid.of(points, squares, sprime), CELL)
            if report.partition is None:
                continue
            for corner in range(4):
                bucket = report.partition.buckets[corner]
                if not bucket.points:
                    continue
                ids = solve_one_corner(bucket, CELL, corner)
                frac = bucket_fractional_cover(report.partition, corner)
                frac_memb = membership_of_fractional(sprime, frac, squares)
                assert Fraction(memb_eval(sprime, ids, squares)) <= frac_memb + 2


class TestSolveCell:
    def test_zero_membership_branch(self):
        squares = [UnitSquare(0, P(1, 1)), UnitSquare(1, P("3/2", "3/2"))]
        sprime = [P("5/4", "5/4")]
        cover = solve_cell_report(SquareGrid.of([P("1/2", "1/2")], squares, sprime), CELL).cover
        assert cover.memb == 0
        assert cover.ids == (0,)  # exactly the squares avoiding monitored points

    def test_uncoverable(self):
        with pytest.raises(Uncoverable):
            solve_cell_report(SquareGrid.of([P("1/2", "1/2")], [UnitSquare(0, P(5, 5))]), CELL)

    def test_lp_bound_and_oracle_bound(self):
        for seed in range(40):
            points, sprime, squares = cell_instance(seed, max_squares=8, max_points=8)
            report = solve_cell_report(SquareGrid.of(points, squares, sprime), CELL)
            cover = report.cover
            assert verify_cover(points, cover.ids, squares)
            assert cover.memb == memb_eval(sprime, cover.ids, squares)
            if report.lp_value is not None:
                assert Fraction(cover.memb) <= 16 * report.lp_value + 8
            opt, _ = exact_mmgsc_bruteforce(points, sprime, squares)
            assert cover.memb <= 16 * opt + 8

    def test_no_square_contains_calls(self, monkeypatch):
        # the squares solvers decide every containment on the integer grid;
        # covers.incidence, the generic reference, is the only caller of
        # UnitSquare.contains
        contains = UnitSquare.contains
        calls = []

        def counting(self, p):
            calls.append(p)
            return contains(self, p)

        points, sprime, squares = cell_instance(3)
        multi_points, multi_sprime, multi_squares = square_instance(3)
        monkeypatch.setattr(UnitSquare, "contains", counting)
        incidence(points, squares)
        seen = len(calls)  # the patch is live
        del calls[:]
        report = solve_cell_report(SquareGrid.of(points, squares, sprime), CELL)
        solve_mmgsc_squares_report(multi_points, multi_sprime, multi_squares)
        solve_mpgsc(multi_points, multi_squares)
        monkeypatch.undo()
        assert seen == len(points) * len(squares) > 0
        assert report.partition is not None  # the LP path, corner split included
        assert calls == []


class TestOneGridPerSolve:
    def test_grid_scaled_once_per_solve(self, monkeypatch):
        # each public solve puts S, S' and the square corners on the integer
        # grid once; the per-cell steps read that grid's integers, and the
        # ply sweep of solve_mpgsc scales the chosen corners once more
        calls = {"grid_unit": 0, "on_grid": 0}
        for module in ("geometry", "squares", "ply"):
            mod = importlib.import_module(f"membercover.{module}")
            for name in calls:
                if name in vars(mod):
                    def counting(*args, _fn=getattr(mod, name), _name=name):
                        calls[_name] += 1
                        return _fn(*args)
                    monkeypatch.setattr(mod, name, counting)
        for seed in range(30):
            points, sprime, squares = square_instance(seed)
            for name in calls:
                calls[name] = 0
            solve_mmgsc_squares_report(points, sprime, squares)
            assert calls["grid_unit"] <= 1 and calls["on_grid"] <= 3, (seed, calls)
            for name in calls:
                calls[name] = 0
            solve_mpgsc(points, squares)
            assert calls["grid_unit"] <= 2 and calls["on_grid"] <= 3, (seed, calls)


class TestSolveSquares:
    def test_single_cell_equals_cell_solver(self):
        points, sprime, squares = cell_instance(11)
        whole = solve_mmgsc_squares_report(points, sprime, squares).cover
        cell = solve_cell_report(SquareGrid.of(points, squares, sprime), CELL).cover
        assert whole.ids == cell.ids

    def test_two_cells_shared_square(self):
        sq = UnitSquare(0, P("3/2", 1))
        points = [P("3/4", "1/2"), P("5/4", "1/2")]
        cover = solve_mmgsc_squares_report(points, [], [sq]).cover
        assert cover.ids == (0,)
        assert verify_cover(points, cover.ids, [sq])

    def test_multi_cell_bound(self):
        for seed in range(25):
            points, sprime, squares = square_instance(seed)
            cover = solve_mmgsc_squares_report(points, sprime, squares).cover
            assert verify_cover(points, cover.ids, squares)
            opt, _ = exact_mmgsc_bruteforce(points, sprime, squares)
            assert cover.memb <= 9 * (16 * opt + 8)

    def test_empty_points(self):
        cover = solve_mmgsc_squares_report([], [P(0, 0)], [UnitSquare(0, P(1, 1))]).cover
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
        corners = cell_corners(cell)
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


# cells with negative indices exercise floor and ceil of negative coordinates
GRID_CELLS = (GridCell(0, 0), GridCell(-2, -1), GridCell(3, -4))


class TestIntegerGrid:
    """The integer kernels against their Fraction references, on mixed
    1/3, 1/7 and 1/64 lattices (so the grid unit is not 64), with points on
    square edges and corners, square corners on cell corners and
    duplicate squares."""

    def test_grid_unit_is_mixed(self):
        points, sprime, squares = mixed_grid_instance(random.Random(0), GRID_CELLS[1])
        d = grid_unit(points + [q.tr for q in squares])
        assert d % 64 == 0 and d != 64
        assert all(x == p.x * d and y == p.y * d for (x, y), p in zip(on_grid(points, d), points))
        grid = SquareGrid.of(points, squares, sprime)
        assert grid.d == grid_unit(points + sprime + [q.tr for q in squares])
        for ps, xys in ((points, grid.xy), (sprime, grid.sp_xy), ([q.tr for q in squares], grid.uv)):
            assert list(xys) == on_grid(ps, grid.d)

    def test_square_tables_match_incidence(self):
        rng = random.Random(5)
        for trial in range(300):
            points, sprime, squares = mixed_grid_instance(rng, GRID_CELLS[trial % 3])
            grid = SquareGrid.of(points, squares, sprime)
            assert square_tables(grid.d, grid.uv, grid.xy, grid.sp_xy) == [
                incidence(points, squares), incidence(sprime, squares)
            ]

    def test_canonical_coordinates_match_fraction(self):
        rng = random.Random(6)
        for trial in range(300):
            cell = GRID_CELLS[trial % 3]
            points, _sprime, squares = mixed_grid_instance(rng, cell)
            d = grid_unit(points + [q.tr for q in squares])
            for corner in range(4):
                for xy, p in zip(on_grid(points, d), points):
                    fx, fy = canonical_point(p, cell, corner)
                    assert _corner_local(xy, cell, corner, 1, d) == (fx * d, fy * d)
                for uv, q in zip(on_grid([q.tr for q in squares], d), squares):
                    fu, fv = canonical_square(q, cell, corner)
                    assert _corner_local(uv, cell, corner, 2, d) == (fu * d, fv * d)

    def test_maximal_squares_match_fraction_keys(self):
        rng = random.Random(7)
        for trial in range(300):
            cell = GRID_CELLS[trial % 3]
            _points, _sprime, squares = mixed_grid_instance(rng, cell)
            for corner in range(4):
                assert staircase_squares(
                    SquareGrid.of([], squares), cell, corner
                ) == maximal_squares_reference(
                    squares, cell, corner
                )

    def test_corner_split_matches_fraction_reference(self):
        # squares go to the first cell corner they contain; a point to the
        # one corner holding its squares, else to the corner of largest
        # Fraction load (ties to the lowest corner), for any rational weights
        rng = random.Random(8)
        for trial in range(300):
            cell = GRID_CELLS[trial % 3]
            points, _sprime, squares = mixed_grid_instance(rng, cell)
            at_corner = [
                next((k for k, c in enumerate(cell_corners(cell)) if q.contains(c)), None)
                for q in squares
            ]
            weights = tuple(
                Fraction(rng.randint(0, 6), rng.choice([1, 2, 3, 4, 7])) for _ in squares
            )
            sol = LPSolution(OPTIMAL, sum(weights), weights)
            s_rows = incidence(points, squares)
            grid = SquareGrid.of(points, squares)
            if None in at_corner:
                with pytest.raises(SquareWithoutCorner):
                    corner_partition(grid, s_rows, cell, lambda: sol)
                continue
            part = corner_partition(grid, s_rows, cell, lambda: sol)
            winners = []
            for p in points:
                holding = {c for q, c in zip(squares, at_corner) if q.contains(p)}
                if len(holding) == 1:
                    winners.append(holding.pop())
                    continue
                loads = [
                    sum(
                        w
                        for q, c, w in zip(squares, at_corner, weights)
                        if c == k and q.contains(p)
                    )
                    for k in range(4)
                ]
                winners.append(max(range(4), key=lambda k: (loads[k], -k)))
            for k in range(4):
                assert part.buckets[k].squares == tuple(
                    q for q, c in zip(squares, at_corner) if c == k
                )
                assert part.buckets[k].points == tuple(
                    p for p, won in zip(points, winners) if won == k
                )

    def test_one_corner_matches_fraction_pipeline(self):
        rng = random.Random(9)
        for trial in range(300):
            cell = GRID_CELLS[trial % 3]
            points, _sprime, squares = mixed_grid_instance(rng, cell)
            for corner in range(4):
                bucket = [q for q in squares if q.contains(cell_corners(cell)[corner])]
                covered = [p for p in points if any(q.contains(p) for q in bucket)]
                quads = [
                    (q.id,) + canonical_square(q, cell, corner)
                    for q in maximal_squares_reference(bucket, cell, corner)
                ]
                expected = quadrant_greedy_cover(
                    [canonical_point(p, cell, corner) for p in covered], quads
                ) if covered else []
                got = solve_one_corner(SquareGrid.of(covered, bucket), cell, corner)
                assert got == tuple(sorted(expected))
