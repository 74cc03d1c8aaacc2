import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import membercover
from membercover import (
    ConvexRegion,
    GridCell,
    Halfplane,
    Point,
    UnitSquare,
    angle_cmp,
    complement_region,
    face_sample_points,
    grid_partition,
    union_compare,
)
from membercover.geometry import (
    cw_angle_cmp,
    feasible_point,
    linear_inf,
    region_subset,
    square_extent,
    strictly_feasible,
)
from membercover.lp import OPTIMAL, UNBOUNDED, make_program, solve_lp


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


class TestAngleOrder:
    def test_axis_quadrants(self):
        ref = Halfplane(0, 0, 1, 0)
        u = Halfplane(1, 1, 0, 0)
        v = Halfplane(2, 0, -1, 0)
        assert angle_cmp(ref, u, v) == -1  # quarter turn before half turn

    def test_scale_invariance(self):
        ref = Halfplane(0, 0, 1, 0)
        assert angle_cmp(ref, Halfplane(1, 2, 0, 0), Halfplane(2, 1, 0, 0)) == 0

    def test_against_float_angles(self):
        # derived oracle: clockwise angle via atan2, on random integer normals
        rng = random.Random(5)
        for _ in range(500):
            vecs = []
            while len(vecs) < 3:
                v = (rng.randint(-9, 9), rng.randint(-9, 9))
                if v != (0, 0):
                    vecs.append(v)
            ref, u, v = vecs

            def cw(w):
                return (math.atan2(ref[1], ref[0]) - math.atan2(w[1], w[0])) % (2 * math.pi)

            got = cw_angle_cmp(ref, u, v)
            expected_gap = cw(u) - cw(v)
            if abs(expected_gap) > 1e-9:
                assert got == (-1 if expected_gap < 0 else 1)
            else:
                # ties are exact: same direction after scaling
                assert (got == 0) == (
                    u[0] * v[1] - u[1] * v[0] == 0 and u[0] * v[0] + u[1] * v[1] > 0
                )

    def test_specific_diagonal_order(self):
        ref = Halfplane(0, 1, 0, 0)
        u = Halfplane(1, 1, -1, 0)
        v = Halfplane(2, -1, -1, 0)
        assert angle_cmp(ref, u, v) == -1  # eighth turn before three eighths

    def test_total_preorder_small_normals(self):
        # exhaustive over all integer normals with |a|, |b| <= 5
        normals = [
            (a, b) for a in range(-5, 6) for b in range(-5, 6) if (a, b) != (0, 0)
        ]
        for ref in ((2, 1), (0, -3), (-5, 5)):
            for u in normals:
                assert cw_angle_cmp(ref, u, u) == 0
                # zero angle iff positive multiple of the reference
                zero = cw_angle_cmp(ref, u, ref) == 0 and cw_angle_cmp(ref, ref, u) == 0
                parallel_same = (
                    u[0] * ref[1] - u[1] * ref[0] == 0
                    and u[0] * ref[0] + u[1] * ref[1] > 0
                )
                assert zero == parallel_same
        ref = (2, 1)
        rng = random.Random(11)
        for _ in range(2000):
            u, v, w = rng.choices(normals, k=3)
            cuv, cvw = cw_angle_cmp(ref, u, v), cw_angle_cmp(ref, v, w)
            if cuv <= 0 and cvw <= 0:
                assert cw_angle_cmp(ref, u, w) <= 0
            # antisymmetry
            assert cw_angle_cmp(ref, v, u) == -cuv


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
        cells = grid_partition([P("1/2", "1/2")], [UnitSquare(0, P(1, 1))], square_extent)
        assert set(cells) == {GridCell(0, 0)}
        pts, ranges = cells[GridCell(0, 0)]
        assert pts == [P("1/2", "1/2")]
        assert [r.id for r in ranges] == [0]

    def test_square_spanning_two_cells(self):
        sq = UnitSquare(0, P("3/2", 1))
        cells = grid_partition([P("1/2", "1/2"), P("3/2", "1/2")], [sq], square_extent)
        assert set(cells) == {GridCell(0, 0), GridCell(1, 0)}
        for cell in cells:
            assert [r.id for r in cells[cell][1]] == [0]

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
        cells = grid_partition(points, squares, square_extent)
        assert sum(len(v[0]) for v in cells.values()) == len(points)
        for p in points:
            owners = [c for c in cells if c.i <= p.x < c.i + 1 and c.j <= p.y < c.j + 1]
            assert len(owners) == 1
        for cell, (pts, ranges) in cells.items():
            for q in squares:
                xmin, ymin, xmax, ymax = q.bbox()
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


class TestFaceSamples:
    def test_one_line_two_sides(self):
        pts = face_sample_points([(0, 1, 0)])
        assert any(p.y > 0 for p in pts) and any(p.y < 0 for p in pts)

    def test_two_lines_four_quadrants(self):
        pts = face_sample_points([(0, 1, 0), (1, 0, 0)])
        signs = {(p.x > 0, p.y > 0) for p in pts}
        assert len(signs) == 4

    def test_five_general_lines_sixteen_faces(self):
        lines = [(1, 1, 0), (1, -2, 3), (2, 1, -5), (1, 3, 7), (3, -1, -1)]
        assert _face_count_oracle(lines) == 16
        pts = face_sample_points(lines)
        sigs = set()
        for p in pts:
            for (a, b, c) in lines:
                assert a * p.x + b * p.y + c != 0
            sigs.add(tuple(a * p.x + b * p.y + c > 0 for (a, b, c) in lines))
        assert len(sigs) == 16

    def test_degenerate_arrangements_up_to_six(self):
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
            if not lines:
                continue
            pts = face_sample_points(lines)
            sigs = set()
            for p in pts:
                for (a, b, c) in lines:
                    assert a * p.x + b * p.y + c != 0
                sigs.add(tuple(a * p.x + b * p.y + c > 0 for (a, b, c) in lines))
            assert len(sigs) == _face_count_oracle(lines)


def _strict_feasible_lp(cons):
    """LP oracle: maximize the slack of the system via split variables."""
    # vars: x+, x-, y+, y-, t ; minimize -t ; a(x+-x-)+b(y+-y-)+c >= t
    rows = []
    for (a, b, c) in cons:
        rows.append(([a, -a, b, -b, -1], ">=", -c))
    lp = make_program(5, [0, 0, 0, 0, -1], rows, [None] * 5)
    sol = solve_lp(lp)
    if sol.status == UNBOUNDED:
        return True
    if sol.status != OPTIMAL:
        return False  # even t = 0 infeasible: closed system already empty
    return -sol.value > 0


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
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(1, 5)
            hs = []
            for i in range(n):
                a = b = 0
                while a == 0 and b == 0:
                    a = rng.randint(-4, 4)
                    b = rng.randint(-4, 4)
                hs.append(Halfplane(i, a, b, rng.randint(-4, 4)))
            reg = complement_region(hs)
            cons = [(-h.a, -h.b, -h.c) for h in hs]
            assert reg.empty == (not _strict_feasible_lp(cons))
            assert strictly_feasible(cons) == _strict_feasible_lp(cons)


def _union_member(hs, p):
    return any(h.contains(p) for h in hs)


class TestUnionCompare:
    def test_adding_constraint(self):
        z = [Halfplane(0, 0, 1, 0)]
        z2 = z + [Halfplane(1, 1, 0, 0)]
        assert union_compare(z, z2) == "subset"
        assert union_compare(z2, z) == "superset"
        assert union_compare(z, z) == "equal"

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
            got = union_compare(z, z2)
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
            if got == "equal":
                assert le and ge
            elif got == "subset":
                assert le
            elif got == "superset":
                assert ge
            if not le:
                assert got in ("superset", "incomparable")
            if not ge:
                assert got in ("subset", "incomparable")

    def test_union_grows_with_members(self):
        rng = random.Random(41)
        for _ in range(40):
            a = b = 0
            while a == 0 and b == 0:
                a = rng.randint(-3, 3)
                b = rng.randint(-3, 3)
            z = [Halfplane(0, 1, 1, 0), Halfplane(1, -1, 2, 1)]
            extra = Halfplane(2, a, b, rng.randint(-3, 3))
            assert union_compare(z, z + [extra]) in ("equal", "subset")


class TestRegionInternals:
    def test_linear_inf_unbounded(self):
        assert linear_inf([(0, 1, 0)], (0, -1, 0)) is None  # -y over y >= 0

    def test_linear_inf_vertex(self):
        cons = [(1, 0, 0), (0, 1, 0), (-1, -1, 2)]  # triangle x,y >= 0, x+y <= 2
        assert linear_inf(cons, (1, 1, 0)) == 0
        assert linear_inf(cons, (-1, -1, 0)) == -2

    def test_linear_inf_infeasible_raises_under_optimize(self):
        # x >= 1, x <= 0, y >= 0 is empty, and its normals are not all
        # parallel: no vertex is feasible, which must raise even under -O
        src = str(Path(membercover.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from membercover.geometry import linear_inf\n"
            "assert False, 'asserts are on'\n"
            "try:\n"
            "    print(linear_inf([(1, 0, -1), (-1, 0, 0), (0, 1, 0)], (1, 0, 0)))\n"
            "except RuntimeError as err:\n"
            "    print(err)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "pointed nonempty region must have a vertex"

    def test_feasible_point_slab(self):
        w = feasible_point([(0, 1, 1), (0, -1, 1)])
        assert w is not None and -1 <= w.y <= 1

    def test_region_subset_basic(self):
        from membercover.geometry import region_from_constraints

        tri = region_from_constraints([(1, 0, 0), (0, 1, 0), (-1, -1, 2)])
        quad = region_from_constraints([(1, 0, 0), (0, 1, 0)])
        assert region_subset(tri, quad)
        assert not region_subset(quad, tri)
