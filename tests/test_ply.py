import random
from fractions import Fraction

import pytest

from conftest import (
    cell_corners,
    cell_instance,
    min_size_cell_cover_reference,
    mixed_grid_instance,
    square_instance,
)

from membercover import (
    CoverSolution,
    GridCell,
    Point,
    SquareGrid,
    Uncoverable,
    UnitSquare,
    build_size_lp,
    exact_minsize_bruteforce,
    exact_mpgsc_bruteforce,
    grid_partition,
    incidence,
    min_size_cell_cover_approx,
    ply,
    solve_lp,
    solve_mpgsc,
    verify_cover,
)
from membercover import lp as lpmod


def P(x, y):
    return Point.of(x, y)


class TestPly:
    def test_empty(self):
        report = ply([])
        assert report.value == 0 and report.witness is None

    def test_corner_touch(self):
        squares = [UnitSquare(0, P(1, 1)), UnitSquare(1, P(2, 2))]
        report = ply(squares)
        assert report.value == 2
        assert report.witness == P(1, 1)

    def test_matches_sampling_oracle(self):
        rng = random.Random(21)
        for _ in range(30):
            squares = [
                UnitSquare(
                    i,
                    P(Fraction(rng.randint(0, 128), 64), Fraction(rng.randint(0, 128), 64)),
                )
                for i in range(8)
            ]
            report = ply(squares)
            # oracle: depth at edge-grid points, their midpoints, and random spots
            xs = sorted({q.tr.x - 1 for q in squares} | {q.tr.x for q in squares})
            ys = sorted({q.tr.y - 1 for q in squares} | {q.tr.y for q in squares})
            xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            ys += [(a + b) / 2 for a, b in zip(ys, ys[1:])]
            best = 0
            for x in xs:
                for y in ys:
                    pt = Point(x, y)
                    best = max(best, sum(1 for q in squares if q.contains(pt)))
            for _ in range(100):
                pt = Point(Fraction(rng.randint(-64, 192), 64), Fraction(rng.randint(-64, 192), 64))
                best = max(best, sum(1 for q in squares if q.contains(pt)))
            assert report.value == best
            depth_at_witness = sum(1 for q in squares if q.contains(report.witness))
            assert depth_at_witness == report.value


def _edge_grid_ply(squares):
    """Reference: depth at every (edge x, edge y) pair, O(m^3).

    Returns the maximum depth and the lexicographically first grid point
    attaining it, the point the sweep must report.
    """
    if not squares:
        return 0, None
    xs = sorted({q.tr.x - 1 for q in squares} | {q.tr.x for q in squares})
    ys = sorted({q.tr.y - 1 for q in squares} | {q.tr.y for q in squares})
    best = 0
    witness = None
    for x in xs:
        hit_x = [q for q in squares if q.tr.x - 1 <= x <= q.tr.x]
        for y in ys:
            depth = sum(1 for q in hit_x if q.tr.y - 1 <= y <= q.tr.y)
            if depth > best:
                best = depth
                witness = Point(x, y)
    return best, witness


def _random_squares(rng):
    """0-14 squares on a 1/den lattice; small lattices force shared edges,
    corner touches and exact duplicates, which also get added outright."""
    den = rng.choice([1, 2, 4, 64])
    span = rng.choice([2, 3, 4]) * den
    squares = []
    for i in range(rng.randint(0, 14)):
        if squares and rng.random() < 0.15:
            tr = rng.choice(squares).tr
        else:
            tr = Point(Fraction(rng.randint(0, span), den), Fraction(rng.randint(0, span), den))
        squares.append(UnitSquare(i, tr))
    return squares


class TestPlySweep:
    @pytest.mark.parametrize(
        "corners, value, witness",
        [
            ([], 0, None),
            ([(1, 1)], 1, (0, 0)),
            ([(1, 1)] * 3, 3, (0, 0)),  # duplicates
            ([(1, 1), (2, 1)], 2, (1, 0)),  # shared vertical edge
            ([(1, 1), (1, 2)], 2, (0, 1)),  # shared horizontal edge
            ([(1, 1), (2, 2)], 2, (1, 1)),  # corner touch
            ([(1, 1), (3, 3)], 1, (0, 0)),  # disjoint
            ([(2, 1), (1, 2), ("3/2", "3/2")], 3, (1, 1)),
            ([(2, 1), ("3/2", "3/2")], 2, (1, "1/2")),
            ([(1, 1), (2, 1), (1, 2), (2, 2)], 4, (1, 1)),  # four around a vertex
        ],
    )
    def test_hand_cases(self, corners, value, witness):
        squares = [UnitSquare(i, P(u, v)) for i, (u, v) in enumerate(corners)]
        report = ply(squares)
        assert report.value == value
        assert report.witness == (None if witness is None else P(*witness))
        assert (report.value, report.witness) == _edge_grid_ply(squares)

    def test_matches_edge_grid_scan(self):
        rng = random.Random(2024)
        for _ in range(2400):
            squares = _random_squares(rng)
            report = ply(squares)
            assert (report.value, report.witness) == _edge_grid_ply(squares), squares

    def test_matches_edge_grid_scan_on_mixed_lattices(self):
        # the sweep runs on the grid of unit D, the lcm of the corner
        # denominators; mixed 1/3, 1/7 and 1/64 lattices make D other than
        # 64, and corners in [-2, 2]^2 put edges and witnesses below zero
        rng = random.Random(2025)
        for _ in range(1200):
            squares = []
            for i in range(rng.randint(0, 14)):
                if squares and rng.random() < 0.15:
                    tr = rng.choice(squares).tr
                else:
                    dx, dy = rng.choice([1, 3, 7, 64]), rng.choice([1, 3, 7, 64])
                    tr = Point(
                        Fraction(rng.randint(-2 * dx, 2 * dx), dx),
                        Fraction(rng.randint(-2 * dy, 2 * dy), dy),
                    )
                squares.append(UnitSquare(i, tr))
            report = ply(squares)
            assert (report.value, report.witness) == _edge_grid_ply(squares), squares


CELL = GridCell(0, 0)

# min_size_cell_cover_approx(*cell_instance(seed), CELL).ids as computed by
# the per-cell rounding that predates the shared corner pipeline
CELL_COVER_GOLDEN = {
    0: (0,),
    1: (3, 7),
    3: (3, 6, 8),
    6: (0, 1, 2),
    7: (0, 7),
    10: (1, 5),
    14: (4, 8, 9),
    18: (2, 4, 8),
    22: (1, 2, 5),
    27: (0, 2, 8, 9),
    32: (0, 1, 2),
    36: (0, 2, 5),
}


class TestCellCover:
    @pytest.mark.parametrize("seed", sorted(CELL_COVER_GOLDEN))
    def test_golden_ids(self, seed):
        points, _sp, squares = cell_instance(seed)
        cover = min_size_cell_cover_approx(SquareGrid.of(points, squares), CELL)
        assert cover == CoverSolution(CELL_COVER_GOLDEN[seed], 0)

    def test_square_without_corner_is_value_error(self):
        squares = [UnitSquare(0, P(1, 1)), UnitSquare(1, P(5, 5))]
        with pytest.raises(ValueError):
            min_size_cell_cover_approx(SquareGrid.of([P("1/2", "1/2")], squares), CELL)

    def test_single(self):
        grid = SquareGrid.of([P("1/2", "1/2")], [UnitSquare(0, P(1, 1))])
        cover = min_size_cell_cover_approx(grid, CELL)
        assert cover.ids == (0,)

    def test_uncoverable(self):
        with pytest.raises(Uncoverable):
            min_size_cell_cover_approx(SquareGrid.of([P("1/2", "1/2")], [UnitSquare(0, P(9, 9))]), CELL)

    def test_within_lp_and_oracle_factor(self):
        from conftest import cell_instance

        for seed in range(40):
            points, _sp, squares = cell_instance(seed, max_squares=8, max_points=8)
            cover = min_size_cell_cover_approx(SquareGrid.of(points, squares), CELL)
            assert verify_cover(points, cover.ids, squares)
            lp_value = solve_lp(build_size_lp(incidence(points, squares), len(squares))).value
            assert cover.size <= 16 * lp_value
            opt, _ = exact_minsize_bruteforce(points, squares)
            assert cover.size <= 16 * opt


    def test_matches_eager_rounding(self):
        # the split solves the size LP only when a point's squares span two
        # corners; the covers equal those of always solving it and sending
        # every point to its largest load
        for seed in range(60):
            points, _sp, squares = cell_instance(seed)
            cover = min_size_cell_cover_approx(SquareGrid.of(points, squares), CELL)
            assert cover.ids == min_size_cell_cover_reference(points, squares, CELL)
        rng = random.Random(10)
        for trial in range(300):
            cell = (GridCell(0, 0), GridCell(-2, -1), GridCell(3, -4))[trial % 3]
            points, _sp, squares = mixed_grid_instance(rng, cell)
            corners = cell_corners(cell)
            squares = [q for q in squares if any(q.contains(c) for c in corners)]
            points = [p for p in points if any(q.contains(p) for q in squares)]
            cover = min_size_cell_cover_approx(SquareGrid.of(points, squares), cell)
            assert cover.ids == min_size_cell_cover_reference(points, squares, cell)


def _cells_with_split_points(points, squares) -> int:
    """Cells holding a point whose squares contain different first cell
    corners, by Fraction containment."""
    split = set()
    for p in points:
        cell = GridCell(p.x.numerator // p.x.denominator, p.y.numerator // p.y.denominator)
        corners = cell_corners(cell)
        at = {
            next(k for k, c in enumerate(corners) if q.contains(c))
            for q in squares
            if q.contains(p)
        }
        if len(at) > 1:
            split.add(cell)
    return len(split)


def test_size_lp_solved_only_where_corners_split(monkeypatch):
    calls = []
    solve_lp = lpmod.solve_lp
    monkeypatch.setattr(lpmod, "solve_lp", lambda program: calls.append(1) or solve_lp(program))
    solved = 0
    for seed in range(30):
        points, _sp, squares = square_instance(seed)
        calls.clear()
        solve_mpgsc(points, squares)
        assert len(calls) == _cells_with_split_points(points, squares), seed
        solved += len(calls)
    assert solved  # the battery reaches the LP


class TestSolveMpgsc:
    def test_disjoint(self):
        squares = [UnitSquare(0, P(1, 1)), UnitSquare(1, P(5, 5))]
        cover, report = solve_mpgsc([P("1/2", "1/2"), P("9/2", "9/2")], squares)
        assert report.value == 1
        assert set(cover.ids) == {0, 1}

    def test_stacked_duplicates_pick_one(self):
        squares = [UnitSquare(i, P(1, 1)) for i in range(4)]
        cover, report = solve_mpgsc([P("1/2", "1/2")], squares)
        assert cover.size == 1 and report.value == 1

    def test_empty_points(self):
        cover, report = solve_mpgsc([], [UnitSquare(0, P(1, 1))])
        assert cover.ids == () and report.value == 0

    def test_constant_factor_and_audit(self):
        for seed in range(30):
            points, _sp, squares = square_instance(seed)
            cover, report = solve_mpgsc(points, squares)
            assert verify_cover(points, cover.ids, squares)
            opt, _ = exact_mpgsc_bruteforce(points, squares)
            assert report.value <= 576 * opt
            if report.value:
                # the witness cell neighborhood carries most of the overlap
                cells = grid_partition(SquareGrid.of(points, squares))
                sizes = [min_size_cell_cover_approx(g, cell).size for cell, g in cells.items()]
                assert 9 * max(sizes) >= report.value
            # cross-validate the reported ply on a dense exact sample
            chosen = [q for q in squares if q.id in set(cover.ids)]
            assert report.value == _dense_depth_max(chosen)


def _dense_depth_max(squares):
    if not squares:
        return 0
    xs = sorted({q.tr.x - 1 for q in squares} | {q.tr.x for q in squares})
    ys = sorted({q.tr.y - 1 for q in squares} | {q.tr.y for q in squares})
    xs = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    ys = ys + [(a + b) / 2 for a, b in zip(ys, ys[1:])]
    best = 0
    for x in xs:
        col = [q for q in squares if q.tr.x - 1 <= x <= q.tr.x]
        for y in ys:
            best = max(best, sum(1 for q in col if q.tr.y - 1 <= y <= q.tr.y))
    return best


def test_ply_equals_membership_on_face_grid():
    # covering while minimizing overlap at a monitored point in every face
    # is the same problem as minimizing ply: the edge-coordinate grid
    # witnesses the depth of any chosen subset of closed squares
    from membercover import Point as Pt
    from membercover import exact_mmgsc_bruteforce

    for seed in range(12):
        points, _sp, squares = square_instance(seed, max_squares=7, max_points=5)
        xs = sorted({q.tr.x - 1 for q in squares} | {q.tr.x for q in squares})
        ys = sorted({q.tr.y - 1 for q in squares} | {q.tr.y for q in squares})
        face_grid = [Pt(x, y) for x in xs for y in ys]
        memb_opt, _ = exact_mmgsc_bruteforce(points, face_grid, squares)
        ply_opt, _ = exact_mpgsc_bruteforce(points, squares)
        assert memb_opt == ply_opt
