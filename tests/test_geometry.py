import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from membercover import (
    Arrangement,
    GridCell,
    Halfplane,
    Point,
    SquareGrid,
    UnitSquare,
    face_sample_points,
    grid_partition,
)
from membercover import geometry
from membercover.geometry import strictly_feasible
from membercover.halfplanes import _flipped

from conftest import (
    face_samples_in_box_reference,
    fan_instance,
    halfplane_instance,
    ring_instance,
    strict_feasible_lp,
    union_within_lp,
)


def P(x, y):
    return Point.of(x, y)


class TestContainment:
    def test_square_corner(self):
        q = UnitSquare(0, P(1, 1))
        assert q.contains(P(0, 0))
        assert q.contains(P(1, 1))
        assert not q.contains(P("3/2", "1/2"))

    def test_halfplane_boundary(self):
        assert Halfplane(0, 0, 1, 0).contains(P(5, 0))
        assert not Halfplane(0, 0, 1, 0).contains(P(0, -1))
        assert Halfplane(0, 1, 1, -2).contains(P(1, 1))


class TestSandwich:
    def test_overlap_inside_middle_square(self):
        # three squares sharing a corner, coordinates ordered one way in x
        # and the other way in y: the outer intersection sits in the middle
        rng = random.Random(7)
        for _ in range(200):
            xs = sorted(Fraction(rng.randint(0, 64), 64) for _ in range(3))
            ys = sorted((Fraction(rng.randint(0, 64), 64) for _ in range(3)), reverse=True)
            lo, mid, hi = (
                UnitSquare(0, P(xs[0], ys[0])),
                UnitSquare(1, P(xs[1], ys[1])),
                UnitSquare(2, P(xs[2], ys[2])),
            )
            if not all(q.contains(P(0, 0)) for q in (lo, mid, hi)):
                continue
            for _ in range(20):
                pt = Point(
                    Fraction(rng.randint(-64, 64), 64), Fraction(rng.randint(-64, 64), 64)
                )
                if lo.contains(pt) and hi.contains(pt):
                    assert mid.contains(pt)


class TestGridPartition:
    def test_single_cell(self):
        cells = grid_partition(SquareGrid.of([P("1/2", "1/2")], [UnitSquare(0, P(1, 1))]))
        assert set(cells) == {GridCell(0, 0)}
        assert cells[GridCell(0, 0)].points == (P("1/2", "1/2"),)
        assert [r.id for r in cells[GridCell(0, 0)].squares] == [0]

    def test_square_spanning_two_cells(self):
        sq = UnitSquare(0, P("3/2", 1))
        cells = grid_partition(SquareGrid.of([P("1/2", "1/2"), P("3/2", "1/2")], [sq]))
        assert set(cells) == {GridCell(0, 0), GridCell(1, 0)}
        for cell in cells:
            assert [r.id for r in cells[cell].squares] == [0]

    def test_brute_force_pairs(self):
        rng = random.Random(3)
        points = [
            Point(Fraction(rng.randint(-64, 191), 64), Fraction(rng.randint(-64, 191), 64))
            for _ in range(20)
        ]
        squares = [
            UnitSquare(i, Point(Fraction(rng.randint(-64, 191), 64), Fraction(rng.randint(-64, 191), 64)))
            for i in range(10)
        ]
        cells = grid_partition(SquareGrid.of(points, squares))
        assert sum(len(v.points) for v in cells.values()) == len(points)
        for p in points:
            owners = [c for c in cells if c.i <= p.x < c.i + 1 and c.j <= p.y < c.j + 1]
            assert len(owners) == 1 and p in cells[owners[0]].points
        for cell, part in cells.items():
            # a slice keeps the one grid's unit and integers beside its objects
            d = part.d
            assert all(xy == (p.x * d, p.y * d) for xy, p in zip(part.xy, part.points))
            assert all(uv == (q.tr.x * d, q.tr.y * d) for uv, q in zip(part.uv, part.squares))
            ranges = part.squares
            for q in squares:
                xmin, ymin, xmax, ymax = q.tr.x - 1, q.tr.y - 1, q.tr.x, q.tr.y
                overlap = (
                    xmin <= cell.i + 1
                    and xmax >= cell.i
                    and ymin <= cell.j + 1
                    and ymax >= cell.j
                )
                assert overlap == (q.id in [r.id for r in ranges])

    def test_sprime_of_each_cell_block(self):
        # each slice holds, in input order, the S' points of the closed 3x3
        # block of cells around its own, points on block edges included
        rng = random.Random(4)

        def coord():
            # a third of the coordinates on grid lines
            if rng.random() < 1 / 3:
                return Fraction(rng.randint(-2, 4))
            return Fraction(rng.randint(-128, 255), 64)

        for _trial in range(30):
            points = [Point(coord(), coord()) for _ in range(12)]
            sprime = [Point(coord(), coord()) for _ in range(25)]
            grid = SquareGrid.of(points, [UnitSquare(0, P(1, 1))], sprime)
            cells = grid_partition(grid)
            for cell, part in cells.items():
                assert list(part.sp_xy) == [
                    xy for xy, p in zip(grid.sp_xy, sprime)
                    if cell.i - 1 <= p.x <= cell.i + 2 and cell.j - 1 <= p.y <= cell.j + 2
                ]


def _face_count_oracle(lines):
    """1 + n + sum over vertices of (lines through it - 1), on distinct lines."""
    distinct = []
    seen = set()
    for (a, b, c) in lines:
        g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
        key = (a // g, b // g, c // g) if g else (a, b, c)
        if a < 0 or (a == 0 and b < 0):
            key = (-key[0], -key[1], -key[2])
        if key not in seen:
            seen.add(key)
            distinct.append(key)
    vertices = {}
    for l1, l2 in combinations(distinct, 2):
        det = Fraction(l1[0]) * l2[1] - Fraction(l2[0]) * l1[1]
        if det == 0:
            continue
        x = (Fraction(l1[1]) * l2[2] - Fraction(l2[1]) * l1[2]) / det
        y = (Fraction(l2[0]) * l1[2] - Fraction(l1[0]) * l2[2]) / det
        vertices.setdefault((x, y), set()).update({l1, l2})
    return 1 + len(distinct) + sum(len(ls) - 1 for ls in vertices.values())


def _face_sample_cases():
    """Hand-picked degenerate arrangements, then 12 seeded random ones of
    one to six lines, zero normals dropped."""
    cases = [
        [(0, 1, 0), (0, 1, -1), (0, 1, 2)],            # parallel stack
        [(0, 1, 0), (1, 0, 0), (1, 1, 0)],              # concurrent triple
        [(1, 0, 0), (1, 0, -1), (0, 1, 0), (0, 1, -1)],  # grid
        [(1, 0, 0), (1, 0, 0), (0, 1, 5)],              # duplicate line
        [(1, 2, 3), (2, 4, 6), (1, -1, 0), (0, 1, -2)],  # scaled duplicate
        [(1, 0, 0), (-1, 0, 3), (2, 0, -1), (-1, 0, 0)],  # all vertical, negated duplicate
        [(1, 2, 0), (1, 2, -5), (-1, -2, 7), (2, 4, 1)],  # all parallel, sloped
        [(1, 1, 0), (1, 1, 0), (-2, -2, 0), (1, -1, 2)],  # duplicates, scaled and negated
    ]
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(1, 6)
        cases.append(
            [
                (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(n)
            ]
        )
    for lines in cases:
        lines = [l for l in lines if (l[0], l[1]) != (0, 0)]
        if lines:
            yield lines


def _face_signs(lines, samples):
    """The sign vector of each homogeneous sample, asserting W > 0, that
    no sample lies on a line and that its mask is the set of lines it lies
    strictly outside of, by direct sign evaluation."""
    sigs = set()
    for (x, y, w, outside) in samples:
        assert w > 0
        values = [a * x + b * y + c * w for (a, b, c) in lines]
        assert 0 not in values
        assert outside == sum([1 << i for i, v in enumerate(values) if v < 0])
        sigs.add(tuple([v > 0 for v in values]))
    return sigs


# y = -3, y = 2, x = -3, x = 2, y = -x, y = -3 scaled by -2 and x = -3
# scaled by -2: a box, with a sloped line and a copy of two of its sides
BOX_LINES = [(0, 1, 3), (0, 1, -2), (1, 0, 3), (1, 0, -2), (1, 1, 0), (0, -2, -6), (-2, 0, -6)]


def _boxed(lines):
    """The lines, then y = -m, y = m, x = -m and x = m, with m one more than
    every |coordinate| of a vertex and of a point where a line meets an
    axis, and the indices of those four: the box holds every vertex and
    meets every line, so each face of the lines holds one face inside it."""
    points = [(Fraction(-c, a), 0) for a, _b, c in lines if a]
    points += [(0, Fraction(-c, b)) for _a, b, c in lines if b]
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det:
            points.append((Fraction(b1 * c2 - b2 * c1, det), Fraction(a2 * c1 - a1 * c2, det)))
    m = math.floor(max(abs(c) for p in points for c in p)) + 1
    n = len(lines)
    return [*lines, (0, 1, m), (0, 1, -m), (1, 0, m), (1, 0, -m)], (n, n + 1, n + 2, n + 3)


def _checked_samples(lines, box):
    """`face_sample_points` inside the box, after checking that its masks
    are the direct signs, that its samples share one W and that they are
    the reference's, in its order; and the number of faces outside."""
    samples = face_sample_points(Arrangement.of(lines), box)
    _face_signs(lines, samples)
    assert len({w for _x, _y, w, _outside in samples}) <= 1
    inside, outside = face_samples_in_box_reference(lines, box)
    assert [Point(Fraction(x, w), Fraction(y, w)) for x, y, w, _outside in samples] == inside, lines
    return samples, outside


class TestFaceSamples:
    def test_one_line_two_sides(self):
        pts, _outside = _checked_samples(*_boxed([(0, 1, 0)]))
        assert all(w > 0 for _x, _y, w, _m in pts)
        assert any(y > 0 for _x, y, _w, _m in pts) and any(y < 0 for _x, y, _w, _m in pts)

    def test_two_lines_four_quadrants(self):
        pts, _outside = _checked_samples(*_boxed([(0, 1, 0), (1, 0, 0)]))
        assert all(w > 0 for _x, _y, w, _m in pts)
        signs = {(x > 0, y > 0) for x, y, _w, _m in pts}
        assert len(signs) == 4

    def test_five_general_lines_sixteen_faces(self):
        lines = [(1, 1, 0), (1, -2, 3), (2, 1, -5), (1, 3, 7), (3, -1, -1)]
        assert _face_count_oracle(lines) == 16
        boxed, box = _boxed(lines)
        assert len(_face_signs(boxed, face_sample_points(Arrangement.of(boxed), box))) == 16

    def test_degenerate_arrangements_up_to_six(self):
        # one sample per face of the lines, each inside a box around them
        for lines in _face_sample_cases():
            boxed, box = _boxed(lines)
            samples = face_sample_points(Arrangement.of(boxed), box)
            sigs = _face_signs(boxed, samples)
            assert len(sigs) == _face_count_oracle(lines)
            assert len(samples) == _face_count_oracle(lines)

    def test_integer_samples_match_fraction_reference(self):
        # inside a box beyond every vertex, the first point of each face in
        # the Fraction construction's order, in that order, each with the
        # mask of direct signs, on the battery
        cases = _sweep_battery()
        for lines in cases:
            _checked_samples(*_boxed(lines))
        assert len(cases) > 200

    def test_sweep_between_two_verticals_is_the_filtered_full_sweep(self):
        # the faces inside a box, swept from its left side to its right one,
        # get the samples the Fraction sweep of the whole arrangement gives
        # them, in its order; the sides are scaled and negated, and many
        # pass through a vertex or lie on a line of the arrangement
        rng = random.Random(29)
        checked = cut = through = level = 0
        for lines in _sweep_battery():
            on_lines = {Fraction(-c, a) for a, b, c in lines if b == 0}
            on_levels = {Fraction(-c, b) for a, b, c in lines if a == 0}
            for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
                det = a1 * b2 - a2 * b1
                if det:
                    on_lines.add(Fraction(b1 * c2 - b2 * c1, det))
                    on_levels.add(Fraction(a2 * c1 - a1 * c2, det))
            xs = on_lines | {Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(3)}
            lo, hi = sorted(rng.sample(sorted(xs), 2))
            sides = [
                (scale * x.denominator, 0, -scale * x.numerator)
                for x in (lo, hi)
                for scale in [rng.choice((1, -1, 2, -3))]
            ]
            ys = on_levels | {Fraction(y, 3) for y in rng.sample(range(-36, 37), 3)}
            y_lo, y_hi = sorted(rng.sample(sorted(ys), 2))
            levels = [
                (0, scale * y.denominator, -scale * y.numerator)
                for y in (y_lo, y_hi)
                for scale in [rng.choice((1, -1, 2, -3))]
            ]
            n = len(lines)
            samples, outside = _checked_samples(lines + levels + sides, (n, n + 1, n + 2, n + 3))
            checked += 1
            cut += bool(samples) and outside > 0
            through += lo in on_lines or hi in on_lines
            level += y_lo in on_levels or y_hi in on_levels
        assert checked > 200 and cut > 200 and through > 100 and level > 100, (checked, cut, through, level)

    @pytest.mark.parametrize(
        "lines, between",
        [
            (BOX_LINES, (0, 1, 1, 3)),    # a horizontal left side
            (BOX_LINES, (0, 1, 2, 0)),    # a horizontal right side
            (BOX_LINES, (0, 1, 2, 4)),    # a sloped right side
            (BOX_LINES, (0, 1, 3, 2)),    # x = 2 left of x = -3: reversed
            (BOX_LINES, (0, 1, 2, 6)),    # the same abscissa, scaled and negated
            (BOX_LINES, (0, 1, 3, 3)),    # one line twice
            (BOX_LINES, (2, 1, 0, 3)),    # a vertical bottom
            (BOX_LINES, (0, 4, 2, 3)),    # a sloped top
            (BOX_LINES, (1, 0, 2, 3)),    # y = 2 below y = -3: reversed
            (BOX_LINES, (0, 5, 2, 3)),    # the same ordinate, scaled and negated
            (BOX_LINES, (0, 0, 2, 3)),    # one line twice
        ],
    )
    def test_bad_bounds_raise(self, lines, between):
        # the bounds must be two horizontal lines, the bottom one strictly
        # below the top one, then two vertical lines, the left one strictly
        # left of the right one
        face_sample_points(Arrangement.of(lines), (0, 1, 2, 3))
        with pytest.raises(ValueError):
            face_sample_points(Arrangement.of(lines), between)

    def test_good_bounds_give_the_faces_between(self):
        # y = -3, y = 2, x = -3 and x = 2, and y = x through two corners
        lines = [(0, 1, 3), (0, 1, -2), (1, 0, 3), (1, 0, -2), (1, -1, 0)]
        inside, outside = _checked_samples(lines, (0, 1, 2, 3))
        assert [f[3] & 15 for f in inside] == [0b1010, 0b1010]
        assert outside == 10


class TestArrangement:
    def test_zero_normal_raises(self):
        with pytest.raises(ValueError):
            Arrangement.of([(1, 0, 0), (0, 0, 1)])

    def test_vertices_in_order_with_the_lines_through_them(self):
        # y = 0 twice (once scaled), x = 0, x = 1 and y = x: a line's masks
        # hold every other line through a vertex but its coincident copies
        lines = [(0, 1, 0), (0, -2, 0), (1, 0, 0), (1, 0, -1), (1, -1, 0)]
        arrangement = Arrangement.of(lines)
        assert arrangement.lines == tuple(lines)
        origin, right, top = (0, 0, 1), (1, 0, 1), (1, 1, 1)
        # y = 0 runs along (1, 0), y = 0 scaled by -2 along (-2, 0)
        assert arrangement.vertices[0] == [(origin, 0b10100, 0), (right, 0b01000, 1)]
        assert arrangement.vertices[1] == [(right, 0b01000, 1), (origin, 0b10100, 0)]
        assert arrangement.vertices[2] == [(origin, 0b10011, 0)]
        assert arrangement.vertices[3] == [(top, 0b10000, 1), (right, 0b00011, 0)]
        assert arrangement.vertices[4] == [(top, 0b01000, 1), (origin, 0b00111, 0)]


def _sweep_battery():
    """A hand-built arrangement, the degenerate cases above, seeded
    systems with duplicate, scaled, negated, parallel and concurrent lines,
    and the halfplanes of the solver test instances."""
    cases = [[(1, 1, 0), (1, -2, 3), (2, 1, -5), (1, 3, 7), (3, -1, -1)]]
    cases += list(_face_sample_cases())
    cases += [[h.line() for h in _seeded_system(seed)] for seed in range(240)]
    cases += [[h.line() for h in fan_instance(seed)[2]] for seed in range(4)]
    cases += [[h.line() for h in halfplane_instance(seed)[2]] for seed in range(20)]
    cases += [[h.line() for h in ring_instance(seed, 24)[2]] for seed in range(4)]
    return cases


# (constraints, strictly feasible?) for a*x + b*y + c > 0
STRICT_SYSTEMS = [
    ([], True),
    ([(0, 0, 1)], True),                      # zero normal, positive constant
    ([(0, 0, 0)], False),                     # zero normal, 0 > 0
    ([(0, 0, 1), (1, 0, 0)], True),           # zero normal beside a halfplane
    ([(0, 1, 1), (0, -1, 1)], True),          # the slab -1 < y < 1
    ([(1, 0, 0), (-1, 0, 0)], False),         # touching pair: closed meets on x = 0
    ([(1, 0, 1), (-2, 0, -2)], False),        # touching pair, scaled
    ([(1, 0, 1), (-2, 0, -1)], True),         # -1 < x < -1/2
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], True),     # concurrent, one open quadrant
    ([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], False),  # concurrent, normals span the plane
    ([(1, 0, 0), (0, 1, 0), (-1, -1, 1)], True),   # open triangle
    ([(1, 2, 0), (2, 4, 3), (-1, -2, 5), (-2, -4, 1)], True),   # parallel: 0 < x + 2y < 1/2
    ([(1, 2, 0), (2, 4, 3), (-1, -2, 5), (-2, -4, -1)], False),  # parallel: x + 2y < -1/2
]


def _seeded_system(seed):
    """1-7 halfplanes: fresh ones, duplicates, positive multiples, negations
    and parallel normals with new offsets; every third system starts with
    three lines through one lattice point."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    centre = (rng.randint(-2, 2), rng.randint(-2, 2)) if seed % 3 == 0 else None
    lines = []
    while len(lines) < n:
        concurrent = centre is not None and len(lines) < 3
        kind = rng.randrange(5) if lines and not concurrent else 0
        if kind == 0:
            a = b = 0
            while a == 0 and b == 0:
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            c = -(a * centre[0] + b * centre[1]) if concurrent else rng.randint(-4, 4)
        else:
            a, b, c = rng.choice(lines)  # kind 1 keeps the duplicate
            if kind == 2:
                m = rng.randint(2, 3)
                a, b, c = m * a, m * b, m * c
            elif kind == 3:
                a, b, c = -a, -b, -c
            elif kind == 4:
                m = rng.choice((-2, -1, 1, 2))
                a, b, c = m * a, m * b, rng.randint(-4, 4)
        lines.append((a, b, c))
    return [Halfplane(i, a, b, c) for i, (a, b, c) in enumerate(lines)]


class TestComplementRegion:
    # the complement of a union of closed halfplanes is the closure of the
    # open system of their flips; the union is the plane iff that system
    # has no point
    def test_slab(self):
        hs = [Halfplane(0, 0, 1, -1), Halfplane(1, 0, -1, -1)]
        assert strictly_feasible(_flipped(hs))
        assert _in_complement(hs, P(0, 0)) and not _in_complement(hs, P(0, 2))

    def test_dummy_box(self):
        hs = [
            Halfplane(0, 0, -1, -3),
            Halfplane(1, 0, 1, -3),
            Halfplane(2, -1, 0, -3),
            Halfplane(3, 1, 0, -3),
        ]
        assert strictly_feasible(_flipped(hs))
        assert _in_complement(hs, P(3, 3)) and not _in_complement(hs, P(4, 0))

    def test_opposite_pair_is_empty(self):
        assert not strictly_feasible(_flipped([Halfplane(0, 0, 1, 0), Halfplane(1, 0, -1, 0)]))


def _in_complement(hs, p):
    """Does p lie in the closed complement of the union of hs, on or
    outside every boundary?"""
    return all(h.a * p.x + h.b * p.y + h.c <= 0 for h in hs)


def _union_member(hs, p):
    return any(h.contains(p) for h in hs)


def _union_within(z, z2):
    """Is the union of z inside that of z2, asked as the swap test of
    `one_stable_local_search` asks it?  A closed h lies in the union of z2
    iff {h > 0} and the open complements {-g > 0} of z2 share no point."""
    return not any(strictly_feasible([h.line(), *_flipped(z2)]) for h in z)


class TestUnionCompare:
    def test_adding_constraint(self):
        z = [Halfplane(0, 0, 1, 0)]
        z2 = z + [Halfplane(1, 1, 0, 0)]
        assert _union_within(z, z2)
        assert not _union_within(z2, z)
        assert _union_within(z, z)

    def test_point_grid_oracle(self):
        rng = random.Random(31)
        for _ in range(60):
            def rand_set(n):
                out = []
                for i in range(n):
                    a = b = 0
                    while a == 0 and b == 0:
                        a = rng.randint(-3, 3)
                        b = rng.randint(-3, 3)
                    out.append(Halfplane(i, a, b, rng.randint(-3, 3)))
                return out

            z = rand_set(3)
            z2 = rand_set(3)
            got_le, got_ge = _union_within(z, z2), _union_within(z2, z)
            assert (got_le, got_ge) == (union_within_lp(z, z2), union_within_lp(z2, z))
            # dense rational grid plus a far ring to see recession behavior
            samples = [
                Point(Fraction(x, 2), Fraction(y, 2))
                for x in range(-12, 13)
                for y in range(-12, 13)
            ]
            samples += [
                Point(Fraction(r * dx), Fraction(r * dy))
                for r in (1000, 100000)
                for dx in range(-3, 4)
                for dy in range(-3, 4)
                if (dx, dy) != (0, 0)
            ]
            le = all(_union_member(z2, p) for p in samples if _union_member(z, p))
            ge = all(_union_member(z, p) for p in samples if _union_member(z2, p))
            # sampling is one-sided: a sampled violation refutes a claimed
            # containment, while strictness witnesses may hide off-grid
            assert le or not got_le
            assert ge or not got_ge

    def test_union_grows_with_members(self):
        rng = random.Random(41)
        for _ in range(40):
            a = b = 0
            while a == 0 and b == 0:
                a = rng.randint(-3, 3)
                b = rng.randint(-3, 3)
            z = [Halfplane(0, 1, 1, 0), Halfplane(1, -1, 2, 1)]
            extra = Halfplane(2, a, b, rng.randint(-3, 3))
            assert _union_within(z, z + [extra])

    def test_matches_lp_oracle(self):
        # z2 holds some of z's halfplanes and up to three of another
        # system's, so either union often lies inside the other and often
        # does not; both orders are asked
        outcomes = []
        for seed in range(2000):
            rng = random.Random(seed)
            z = _seeded_system(seed)
            z2 = rng.sample(z, rng.randint(0, len(z))) + _seeded_system(seed + 10_000)[: rng.randint(0, 3)]
            for a, b in ((z, z2), (z2, z)):
                got = _union_within(a, b)
                assert got == union_within_lp(a, b), (z, z2)
                if a and b:
                    outcomes.append(got)
        assert len(outcomes) > 1500
        assert 0.2 * len(outcomes) < sum(outcomes) < 0.8 * len(outcomes)


class TestStrictlyFeasible:
    def test_hand_built_systems(self):
        for cons, feasible in STRICT_SYSTEMS:
            assert strictly_feasible(cons) == feasible == strict_feasible_lp(cons)
        # the touching pair is closed-feasible: the origin meets both
        touching = [Halfplane(0, 1, 0, 0), Halfplane(1, -1, 0, 0)]
        assert all(h.contains(P(0, 0)) for h in touching)

    def test_matches_lp_oracle(self):
        outcomes = []
        for seed in range(2000):
            cons = _flipped(_seeded_system(seed))
            feasible = strict_feasible_lp(cons)
            assert strictly_feasible(cons) == feasible
            outcomes.append(feasible)
        assert 500 < sum(outcomes) < 1500  # both answers well exercised

    def test_decides_without_fractions(self, monkeypatch):
        # integer signs decide; the kernel builds no rational on integer input
        def no_fraction(*args):
            raise AssertionError("strictly_feasible built a Fraction")

        monkeypatch.setattr(geometry, "Fraction", no_fraction)
        for cons, feasible in STRICT_SYSTEMS:
            assert strictly_feasible(cons) == feasible
