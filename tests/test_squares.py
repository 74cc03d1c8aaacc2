import hashlib
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
    eager_max_lp_value,
    maximal_squares_reference,
    membership_of_fractional,
    mixed_grid_instance,
    one_corner_instance,
    solve_grid_corner,
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
    verify_cover,
)
from membercover import lp as lpmod
from membercover.covers import ALL, depth
from membercover.geometry import grid_unit, on_grid
from membercover.instances import generate
from membercover.lp import OPTIMAL, LPSolution
from membercover.squares import (
    SquareWithoutCorner,
    _corner_local,
    _membership,
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

    def test_greedy_over_all_squares_equals_staircase(self):
        # the greedy takes the square of largest (v, u, -id) that holds its
        # point, and only its exact duplicates of higher id dominate that
        # square: the squares off the staircase never change a pick, so the
        # solvers build no staircase
        cases = [cell_instance(seed)[::2] + (CELL,) for seed in range(150)]
        rng = random.Random(16)
        for trial in range(300):
            points, _sprime, squares = mixed_grid_instance(rng, GRID_CELLS[trial % 3])
            cases.append((points, squares, GRID_CELLS[trial % 3]))
        thinned = 0
        for points, squares, cell in cases:
            for corner in range(4):
                bucket = [q for q in squares if q.contains(cell_corners(cell)[corner])]
                covered = [p for p in points if any(q.contains(p) for q in bucket)]
                if not covered:
                    continue
                stairs = staircase_squares(SquareGrid.of([], bucket), cell, corner)
                thinned += len(stairs) < len(bucket)
                local = [canonical_point(p, cell, corner) for p in covered]
                picks = [
                    quadrant_greedy_cover(
                        local, [(q.id,) + canonical_square(q, cell, corner) for q in quads]
                    )
                    for quads in (bucket, stairs)
                ]
                assert picks[0] == picks[1]
                got = solve_grid_corner(SquareGrid.of(covered, bucket), cell, corner)
                assert got == tuple(sorted(picks[1]))
        assert thinned > 300


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
        ids = solve_grid_corner(SquareGrid.of([P("1/2", "1/2")], [sq]), CELL, 0)
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
                ids = solve_grid_corner(bucket, CELL, corner)
                frac = bucket_fractional_cover(report, corner)
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


class TestMaxLpValue:
    """`max_lp_value` reads a cell's LP only when its corner split solved it
    or its cover membership, an upper bound on its LP value, exceeds the
    largest value read so far; the maximum is still that of every cell."""

    def test_square_instances_match_eager(self):
        for seed in range(60):
            points, sprime, squares = square_instance(seed)
            got = solve_mmgsc_squares_report(points, sprime, squares).max_lp_value
            assert got == eager_max_lp_value(points, sprime, squares), seed

    def test_cell_battery_matches_eager(self):
        for seed in range(300):
            points, sprime, squares = cell_instance(seed)
            got = solve_mmgsc_squares_report(points, sprime, squares).max_lp_value
            assert got == eager_max_lp_value(points, sprime, squares), seed

    def test_generated_documents_match_eager(self):
        checked = 0
        for seed in range(40):
            doc = generate("squares", 10, 30, extent=2, seed=seed)
            try:
                got = solve_mmgsc_squares_report(doc.s, doc.sprime, doc.ranges).max_lp_value
            except Uncoverable:
                continue
            assert got == eager_max_lp_value(doc.s, doc.sprime, doc.ranges), seed
            checked += got is not None
        assert checked >= 20

    # cell (0, 0): the point's squares hold the corners (0, 0) and (1, 1),
    # so the corner split solves the cell LP, of value 1
    SPLIT = (
        [P("1/2", "1/2")],
        [P("3/4", "3/4")],
        [UnitSquare(0, P(1, 1)), UnitSquare(1, P("3/2", "3/2"))],
    )

    def _solve_counting(self, monkeypatch, parts):
        calls = []
        solve_lp = lpmod.solve_lp
        monkeypatch.setattr(lpmod, "solve_lp", lambda program: calls.append(1) or solve_lp(program))
        points, sprime, squares = [sum(lists, []) for lists in zip(*parts)]
        report = solve_mmgsc_squares_report(points, sprime, squares)
        return report, len(calls)

    def test_cover_within_read_value_skips_lp(self, monkeypatch):
        # cell (2, 0): one point, in one square at corner (2, 0), with an S'
        # point in it: membership 1, not above cell (0, 0)'s LP value
        one = ([P("5/2", "1/2")], [P("5/2", "1/2")], [UnitSquare(2, P(3, 1))])
        report, calls = self._solve_counting(monkeypatch, [self.SPLIT, one])
        assert report.cover.memb == 1 and report.max_lp_value == 1
        assert calls == 1

    def test_cover_above_read_value_reads_lp(self, monkeypatch):
        # cell (2, 0): two points, each in one square at corner (2, 0), both
        # squares holding one S' point: membership 2, above cell (0, 0)'s LP
        # value, so its LP (value 2) is read; cell (4, 0), membership 1, is
        # then skipped
        two = (
            [P("11/4", "1/4"), P("9/4", "3/4")],
            [P("9/4", "1/4")],
            [UnitSquare(2, P(3, "1/2")), UnitSquare(3, P("5/2", 1))],
        )
        one = ([P("9/2", "1/2")], [P("9/2", "1/2")], [UnitSquare(4, P(5, 1))])
        report, calls = self._solve_counting(monkeypatch, [self.SPLIT, two, one])
        assert report.cover.memb == 2 and report.max_lp_value == 2
        assert calls == 2

    def test_unread_lp_read_on_demand(self):
        report = solve_cell_report(
            SquareGrid.of([P("1/2", "1/2")], [UnitSquare(0, P(1, 1))], [P("1/2", "1/2")]), CELL
        )
        assert report.partition.lp_solution is None  # the split read no weights
        assert report.lp_value == 1 and report.lp_solution.assignment == (1, 1)


class TestFinalMembership:
    def test_local_buckets_match_square_tables(self):
        rng = random.Random(8)
        for trial in range(200):
            d = rng.choice([1, 3, 64])
            uv, sp_xy = [
                [(rng.randint(-3 * d, 3 * d), rng.randint(-3 * d, 3 * d)) for _ in range(n)]
                for n in (rng.randint(0, 12), rng.randint(0, 12))
            ]
            (rows,) = square_tables(d, uv, sp_xy)
            assert _membership(d, uv, sp_xy) == depth(rows, ALL), trial


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
                got = solve_grid_corner(SquareGrid.of(covered, bucket), cell, corner)
                assert got == tuple(sorted(expected))


# sha256 of the concatenated repr of `solve_mpgsc` (cover and ply report
# with its witness) and of `solve_mmgsc_squares_report` (cover ids,
# membership and `max_lp_value`) over `_digest_battery()`
SQUARES_SHA256 = "9241c127d36ee1b655ee336e2d44d3c68cd933cb96481ceaaa91dcc757a7d2d1"


def _digest_battery():
    """square_instance(0..99), the same at up to 30 squares and points on
    extent 4 (0..49), cell_instance(0..199) and 300 mixed_grid_instance
    draws around GRID_CELLS, their points cut to the coverable ones."""
    cases = [square_instance(seed) for seed in range(100)]
    cases += [square_instance(seed, 30, 30, 4) for seed in range(50)]
    cases += [cell_instance(seed) for seed in range(200)]
    rng = random.Random(12)
    for trial in range(300):
        points, sprime, squares = mixed_grid_instance(rng, GRID_CELLS[trial % 3])
        cases.append(([p for p in points if any(q.contains(p) for q in squares)], sprime, squares))
    return cases


def test_square_solves_match_recorded_digest():
    digest = hashlib.sha256()
    for points, sprime, squares in _digest_battery():
        digest.update(repr(solve_mpgsc(points, squares)).encode())
        digest.update(repr(solve_mmgsc_squares_report(points, sprime, squares)).encode())
    assert digest.hexdigest() == SQUARES_SHA256


# sha256 of the concatenated repr of every `LPSolution` that `solve_lp`
# returns to `solve_mpgsc` and `solve_mmgsc_squares_report`, in call order,
# over `_digest_battery()`: the cell LPs' exact vertices, not only the covers
LP_SHA256 = "37e61a2d7ea23fa5d800a80c820e3cff216d4df1cc32051c38160e50300deae9"


def test_cell_lps_match_recorded_digest(monkeypatch):
    digest = hashlib.sha256()
    solve_lp = lpmod.solve_lp

    def spy(program):
        sol = solve_lp(program)
        digest.update(repr(sol).encode())
        return sol

    monkeypatch.setattr(lpmod, "solve_lp", spy)
    for points, sprime, squares in _digest_battery():
        solve_mpgsc(points, squares)
        solve_mmgsc_squares_report(points, sprime, squares)
    assert digest.hexdigest() == LP_SHA256
