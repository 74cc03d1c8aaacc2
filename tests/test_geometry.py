import math
import random
from fractions import Fraction
from itertools import combinations

from membercover import (
    ConvexRegion,
    GridCell,
    Halfplane,
    Point,
    SquareGrid,
    UnitSquare,
    complement_region,
    face_sample_points,
    grid_partition,
)
from membercover import geometry
from membercover.geometry import (
    region_from_constraints,
    region_subset,
    strictly_feasible,
)

from conftest import (
    face_sample_points_reference,
    fan_instance,
    halfplane_instance,
    region_subset_lp,
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
    """The sign vector of each homogeneous sample, asserting W > 0 and that
    no sample lies on a line."""
    sigs = set()
    for (x, y, w) in samples:
        assert w > 0
        values = [a * x + b * y + c * w for (a, b, c) in lines]
        assert 0 not in values
        sigs.add(tuple([v > 0 for v in values]))
    return sigs


class TestFaceSamples:
    def test_one_line_two_sides(self):
        pts = face_sample_points([(0, 1, 0)])
        assert all(w > 0 for _x, _y, w in pts)
        assert any(y > 0 for _x, y, _w in pts) and any(y < 0 for _x, y, _w in pts)

    def test_two_lines_four_quadrants(self):
        pts = face_sample_points([(0, 1, 0), (1, 0, 0)])
        assert all(w > 0 for _x, _y, w in pts)
        signs = {(x > 0, y > 0) for x, y, _w in pts}
        assert len(signs) == 4

    def test_five_general_lines_sixteen_faces(self):
        lines = [(1, 1, 0), (1, -2, 3), (2, 1, -5), (1, 3, 7), (3, -1, -1)]
        assert _face_count_oracle(lines) == 16
        assert len(_face_signs(lines, face_sample_points(lines))) == 16

    def test_degenerate_arrangements_up_to_six(self):
        for lines in _face_sample_cases():
            sigs = _face_signs(lines, face_sample_points(lines))
            assert len(sigs) == _face_count_oracle(lines)

    def test_integer_samples_match_fraction_reference(self):
        # the same points in the same order as the Fraction construction, on
        # the cases above, on seeded systems with duplicate, scaled, negated,
        # parallel and concurrent lines, and on the halfplanes of the solver
        # test instances
        cases = [[(1, 1, 0), (1, -2, 3), (2, 1, -5), (1, 3, 7), (3, -1, -1)]]
        cases += list(_face_sample_cases())
        cases += [[h.line() for h in _seeded_system(seed)] for seed in range(240)]
        cases += [[h.line() for h in fan_instance(seed)[2]] for seed in range(4)]
        cases += [[h.line() for h in halfplane_instance(seed)[2]] for seed in range(20)]
        for lines in cases:
            got = [
                Point(Fraction(x, w), Fraction(y, w))
                for x, y, w in face_sample_points(lines)
            ]
            assert got == face_sample_points_reference(lines), lines
        assert len(cases) > 200


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
    def test_slab(self):
        reg = complement_region([Halfplane(0, 0, 1, -1), Halfplane(1, 0, -1, -1)])
        assert not reg.empty
        assert reg.contains(P(0, 0)) and not reg.contains(P(0, 2))

    def test_dummy_box(self):
        hs = [
            Halfplane(0, 0, -1, -3),
            Halfplane(1, 0, 1, -3),
            Halfplane(2, -1, 0, -3),
            Halfplane(3, 1, 0, -3),
        ]
        reg = complement_region(hs)
        assert not reg.empty
        assert reg.contains(P(3, 3)) and not reg.contains(P(4, 0))

    def test_opposite_pair_is_empty(self):
        reg = complement_region([Halfplane(0, 0, 1, 0), Halfplane(1, 0, -1, 0)])
        assert reg.empty

    def test_emptiness_matches_lp_oracle(self):
        outcomes = []
        for seed in range(2000):
            hs = _seeded_system(seed)
            cons = [(-h.a, -h.b, -h.c) for h in hs]
            feasible = strict_feasible_lp(cons)
            assert complement_region(hs).empty == (not feasible)
            assert strictly_feasible(cons) == feasible
            outcomes.append(feasible)
        assert 500 < sum(outcomes) < 1500  # both answers well exercised


def _union_member(hs, p):
    return any(h.contains(p) for h in hs)


def _union_within(z, z2):
    """Is the union of z inside that of z2, read from the regions?  Unions
    of closed halfplanes are regular closed sets, so it is iff the closed
    complement of z2's union lies in that of z's."""
    return region_subset(complement_region(z2), complement_region(z))


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


class TestStrictlyFeasible:
    def test_hand_built_systems(self):
        for cons, feasible in STRICT_SYSTEMS:
            assert strictly_feasible(cons) == feasible == strict_feasible_lp(cons)
        # the touching pair is closed-feasible: the origin meets both
        touching = [Halfplane(0, 1, 0, 0), Halfplane(1, -1, 0, 0)]
        assert all(h.contains(P(0, 0)) for h in touching)

    def test_decides_without_fractions(self, monkeypatch):
        # integer signs decide; the kernel builds no rational on integer input
        def no_fraction(*args):
            raise AssertionError("strictly_feasible built a Fraction")

        monkeypatch.setattr(geometry, "Fraction", no_fraction)
        for cons, feasible in STRICT_SYSTEMS:
            assert strictly_feasible(cons) == feasible


class TestRegionInternals:
    def test_region_subset_basic(self):
        tri = region_from_constraints([(1, 0, 0), (0, 1, 0), (-1, -1, 2)])
        quad = region_from_constraints([(1, 0, 0), (0, 1, 0)])
        assert region_subset(tri, quad)
        assert not region_subset(quad, tri)

    def test_region_subset_matches_lp_oracle(self):
        # P is the complement of a seeded system and Q the complement of
        # some of its halfplanes plus up to three of another system's, so
        # P often lies inside Q and often does not; both orders are asked
        outcomes = []
        for seed in range(2000):
            rng = random.Random(seed)
            z = _seeded_system(seed)
            z2 = rng.sample(z, rng.randint(0, len(z))) + _seeded_system(seed + 10_000)[: rng.randint(0, 3)]
            p, q = complement_region(z), complement_region(z2)
            for a, b in ((p, q), (q, p)):
                got = region_subset(a, b)
                assert got == region_subset_lp(a, b), (z, z2)
                if not a.empty and not b.empty:
                    outcomes.append(got)
        assert len(outcomes) > 1500
        assert 0.2 * len(outcomes) < sum(outcomes) < 0.8 * len(outcomes)
