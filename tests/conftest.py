"""Shared test helpers: independent oracles and seeded instance builders.

Everything here is deliberately naive (dense enumeration, Gaussian
elimination, direct point sampling) so the production algorithms are
checked against genuinely different computations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from membercover import Halfplane, Point, UnitSquare
from membercover.lp import REL_EQ, REL_GE, REL_LE, LinearProgram


# ---------------------------------------------------------------------------
# exact linear algebra for the LP vertex-enumeration oracle
# ---------------------------------------------------------------------------

def gauss_solve(matrix, rhs):
    """Solve a square rational system; None if singular."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def lp_vertex_enumeration(lp: LinearProgram):
    """Optimal value by enumerating basic feasible solutions.

    Collects every constraint (rows, upper bounds, nonnegativity) as an
    equality candidate, solves all n-subsets, filters feasible points and
    minimizes the objective.  Exponential, test-only.
    """
    n = lp.n_vars
    cons = []  # (coeffs, rhs, kind) with kind in {le, ge, eq}
    for row in lp.rows:
        cons.append((list(row.coeffs), row.rhs, row.rel))
    for i, ub in enumerate(lp.upper_bounds):
        if ub is not None:
            coeffs = [Fraction(0)] * n
            coeffs[i] = Fraction(1)
            cons.append((coeffs, ub, REL_LE))
    for i in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(1)
        cons.append((coeffs, Fraction(0), REL_GE))

    def feasible(x):
        for coeffs, rhs, rel in cons:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if rel == REL_LE and lhs > rhs:
                return False
            if rel == REL_GE and lhs < rhs:
                return False
            if rel == REL_EQ and lhs != rhs:
                return False
        return True

    best = None
    for subset in combinations(range(len(cons)), n):
        matrix = [cons[i][0] for i in subset]
        rhs = [cons[i][1] for i in subset]
        x = gauss_solve(matrix, rhs)
        if x is None or not feasible(x):
            continue
        value = sum(c * v for c, v in zip(lp.objective, x))
        if best is None or value < best:
            best = value
    return best


# ---------------------------------------------------------------------------
# fractional covers for the bucket-membership bound (criterion 5)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalCover:
    """Range-id -> weight map with every weight in [0, 1]."""

    weights: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        for rid, w in self.weights.items():
            if not 0 <= w <= 1:
                raise ValueError(f"weight of range {rid} outside [0, 1]: {w}")

    def weight(self, rid: int) -> Fraction:
        return self.weights.get(rid, Fraction(0))


def membership_of_fractional(sprime, cover: FractionalCover, ranges) -> Fraction:
    """Largest total weight any monitored point collects; 0 when empty."""
    loads = [
        sum((cover.weight(r.id) for r in ranges if r.contains(p)), start=Fraction(0))
        for p in sprime
    ]
    return max(loads, default=Fraction(0))


def bucket_fractional_cover(partition, corner: int) -> FractionalCover:
    """Per-bucket weights of a cell's CornerPartition: four times the LP
    weight, capped at one."""
    sol = partition.lp_solution
    bucket = set(q.id for q in partition.square_buckets[corner])
    weights = {
        q.id: min(4 * sol.assignment[pos], Fraction(1))
        for pos, q in enumerate(partition.squares)
        if q.id in bucket
    }
    return FractionalCover(weights)


# ---------------------------------------------------------------------------
# seeded instance builders
# ---------------------------------------------------------------------------

RES = 64


def grid_frac(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo * RES, hi * RES), RES)


def cell_instance(seed: int, max_squares: int = 10, max_points: int = 12):
    """Single-cell instance: points in [0,1) x [0,1), squares meeting it.

    Every point is guaranteed coverable.  Monitored points live in the
    surrounding 3x3 block so membership interactions stay interesting.
    """
    rng = random.Random(("cell", seed).__repr__())
    n_squares = rng.randint(1, max_squares)
    squares = [
        UnitSquare(i, Point(grid_frac(rng, 0, 2), grid_frac(rng, 0, 2)))
        for i in range(n_squares)
    ]
    n_points = rng.randint(1, max_points)
    points = []
    while len(points) < n_points:
        p = Point(
            Fraction(rng.randint(0, RES - 1), RES),
            Fraction(rng.randint(0, RES - 1), RES),
        )
        if any(q.contains(p) for q in squares):
            points.append(p)
    n_prime = rng.randint(0, max_points)
    sprime = [
        Point(grid_frac(rng, -1, 2), grid_frac(rng, -1, 2)) for _ in range(n_prime)
    ]
    return points, sprime, squares


def one_corner_instance(seed: int, max_squares: int = 8, max_points: int = 8):
    """Canonical one-corner data: quadrant pairs and coverable points."""
    rng = random.Random(("corner", seed).__repr__())
    n_quads = rng.randint(1, max_squares)
    quads = [
        (i, Fraction(rng.randint(1, RES), RES), Fraction(rng.randint(1, RES), RES))
        for i in range(n_quads)
    ]
    n_points = rng.randint(1, max_points)
    points = []
    while len(points) < n_points:
        u = Fraction(rng.randint(0, RES), RES)
        v = Fraction(rng.randint(0, RES), RES)
        if any(u <= qu and v <= qv for _, qu, qv in quads):
            points.append((u, v))
    return points, quads


def halfplane_instance(seed: int, max_planes: int = 8, max_points: int = 8):
    """Random halfplane instance with every point coverable."""
    rng = random.Random(("halfplane", seed).__repr__())
    n_h = rng.randint(2, max_planes)
    extent = 4
    corners = [(0, 0), (extent, 0), (0, extent), (extent, extent)]
    planes = []
    for i in range(n_h):
        a = b = 0
        while a == 0 and b == 0:
            a = rng.randint(-8, 8)
            b = rng.randint(-8, 8)
        values = [a * cx + b * cy for cx, cy in corners]
        c = -rng.randint(min(values), max(values))
        planes.append(Halfplane(i, a, b, c))
    n_points = rng.randint(1, max_points)
    points = []
    attempts = 0
    while len(points) < n_points and attempts < 4000:
        attempts += 1
        p = Point(grid_frac(rng, 0, extent), grid_frac(rng, 0, extent))
        if any(h.contains(p) for h in planes):
            points.append(p)
    n_prime = rng.randint(0, max_points)
    sprime = [
        Point(grid_frac(rng, 0, extent), grid_frac(rng, 0, extent))
        for _ in range(n_prime)
    ]
    return points, sprime, planes


def fan_instance(seed: int):
    """Eight halfplanes tangent to a circle: every cover needs all of them.

    The tangency points are each covered by exactly one halfplane, so the
    minimum-size cover is the whole set and the optimal membership is
    dictated purely by where the monitored points fall.  These instances
    force the solver through its polygon-cycle search.
    """
    rng = random.Random(("fan", seed).__repr__())
    normals = [(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (-3, 4), (3, -4), (-3, -4)]
    drop = rng.sample(range(8), rng.randint(0, 2))
    tx, ty = rng.randint(-3, 3), rng.randint(-3, 3)
    planes = []
    points = []
    idx = 0
    for pos, (a, b) in enumerate(normals):
        if pos in drop:
            continue
        planes.append(Halfplane(idx, a, b, -25 - (a * tx + b * ty)))
        points.append(Point(Fraction(a + tx), Fraction(b + ty)))
        idx += 1
    n_prime = rng.randint(1, 8)
    sprime = [
        Point(Fraction(tx + rng.randint(-7, 7)), Fraction(ty + rng.randint(-7, 7)))
        for _ in range(n_prime)
    ]
    return points, sprime, planes


def verify_winding_certificate(report, points, sprime, planes):
    """Independent replay of a cycle certificate: winding number, convex
    clockwise polygon, no mandatory point strictly inside, membership
    within the threshold.  Uses none of the graph machinery."""
    import math

    cert = report.certificate
    poly = cert.polygon
    n = len(poly)
    assert n >= 3
    p = cert.anchor
    total = 0.0
    for i in range(n):
        ax, ay = poly[i].x - p.x, poly[i].y - p.y
        bx, by = poly[(i + 1) % n].x - p.x, poly[(i + 1) % n].y - p.y
        cross = float(ax * by - ay * bx)
        dot = float(ax * bx + ay * by)
        total += math.atan2(cross, dot)
    assert abs(total + 2 * math.pi) < 1e-6  # clockwise single revolution
    for i in range(n):
        a, b, c = poly[i], poly[(i + 1) % n], poly[(i + 2) % n]
        cr = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
        assert cr <= 0  # consistently clockwise, exact
    assert cert.crossings == 1
    for q in points:
        strict_inside = True
        for i in range(n):
            a, b = poly[i], poly[(i + 1) % n]
            cr = (b.x - a.x) * (q.y - a.y) - (b.y - a.y) * (q.x - a.x)
            if cr >= 0:
                strict_inside = False
                break
        assert not strict_inside
    chosen = set(h for h in cert.hosts if h >= 0)
    by_id = {h.id: h for h in planes}
    for q in sprime:
        depth = sum(1 for hid in chosen if by_id[hid].contains(q))
        assert depth <= cert.k


def square_instance(seed: int, max_squares: int = 10, max_points: int = 10, extent: int = 3):
    """Multi-cell unit-square instance with every point coverable."""
    rng = random.Random(("squares", seed).__repr__())
    n_squares = rng.randint(1, max_squares)
    squares = [
        UnitSquare(i, Point(grid_frac(rng, 0, extent + 1), grid_frac(rng, 0, extent + 1)))
        for i in range(n_squares)
    ]
    n_points = rng.randint(1, max_points)
    points = []
    while len(points) < n_points:
        p = Point(grid_frac(rng, 0, extent), grid_frac(rng, 0, extent))
        if any(q.contains(p) for q in squares):
            points.append(p)
    n_prime = rng.randint(0, max_points)
    sprime = [
        Point(grid_frac(rng, 0, extent), grid_frac(rng, 0, extent))
        for _ in range(n_prime)
    ]
    return points, sprime, squares
