"""Exact planar primitives shared by all cover solvers.

Every coordinate is a `fractions.Fraction` and every predicate is decided
by rational sign tests.  There is no floating-point path anywhere in this
module; degenerate inputs (shared boundaries, duplicate ranges, collinear
normals) are therefore handled exactly rather than by epsilon tuning.

Conventions used throughout the package:

* unit squares are closed sets identified by their top-right corner,
* halfplanes are closed sets ``a*x + b*y + c >= 0`` with integer
  coefficients and unnormalized normal ``(a, b)``,
* grid cells have side length one; point assignment treats cells as
  half-open (unique cell per point) while range intersection treats them
  as closed (a boundary-touching range belongs to the cell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

Scalar = Fraction

LESS = -1
EQUAL = 0
GREATER = 1

UNION_EQUAL = "equal"
UNION_SUBSET = "subset"
UNION_SUPERSET = "superset"
UNION_INCOMPARABLE = "incomparable"


def frac(value) -> Fraction:
    """Coerce ints, rational strings like ``"3/64"`` and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True, slots=True)
class Point:
    x: Fraction
    y: Fraction

    @staticmethod
    def of(x, y) -> "Point":
        return Point(frac(x), frac(y))

    def __repr__(self) -> str:  # compact, exact
        return f"Point({self.x}, {self.y})"


@dataclass(frozen=True, slots=True)
class UnitSquare:
    """Closed axis-parallel unit square identified by its top-right corner."""

    id: int
    tr: Point

    def contains(self, p: Point) -> bool:
        return (
            self.tr.x - 1 <= p.x <= self.tr.x
            and self.tr.y - 1 <= p.y <= self.tr.y
        )

    def bbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Closed bounding box (xmin, ymin, xmax, ymax); equals the square."""
        return (self.tr.x - 1, self.tr.y - 1, self.tr.x, self.tr.y)


@dataclass(frozen=True, slots=True)
class Halfplane:
    """Closed halfplane ``a*x + b*y + c >= 0`` with integer coefficients.

    Only the direction of the normal ``(a, b)`` ever matters, so the
    coefficients are kept unnormalized to stay in integer arithmetic.
    """

    id: int
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a == 0 and self.b == 0:
            raise ValueError(f"halfplane {self.id}: normal must be nonzero")

    def contains(self, p: Point) -> bool:
        return self.a * p.x + self.b * p.y + self.c >= 0

    def normal(self) -> tuple[int, int]:
        return (self.a, self.b)

    def line(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True, slots=True)
class GridCell:
    """The cell [i, i+1) x [j, j+1); closed version used for range tests."""

    i: int
    j: int

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """Corner order: bottom-left, bottom-right, top-left, top-right."""
        i, j = Fraction(self.i), Fraction(self.j)
        return (
            Point(i, j),
            Point(i + 1, j),
            Point(i, j + 1),
            Point(i + 1, j + 1),
        )

    def closed_intersects_bbox(
        self, bbox: tuple[Fraction, Fraction, Fraction, Fraction]
    ) -> bool:
        xmin, ymin, xmax, ymax = bbox
        return (
            xmin <= self.i + 1
            and xmax >= self.i
            and ymin <= self.j + 1
            and ymax >= self.j
        )


def cell_of_point(p: Point) -> GridCell:
    return GridCell(math.floor(p.x), math.floor(p.y))


# ---------------------------------------------------------------------------
# clockwise angle order
# ---------------------------------------------------------------------------

def _cross(u: tuple, v: tuple):
    return u[0] * v[1] - u[1] * v[0]


def _dot(u: tuple, v: tuple):
    return u[0] * v[0] + u[1] * v[1]


def _cw_half_index(ref: tuple, w: tuple) -> int:
    """Coarse position of the clockwise angle from ref to w in [0, 2pi).

    0: angle 0, 1: (0, pi), 2: exactly pi, 3: (pi, 2pi).  Clockwise
    rotation has negative orientation, hence the sign of the cross
    product distinguishes the two open halves.
    """
    c = _cross(ref, w)
    if c < 0:
        return 1
    if c > 0:
        return 3
    return 0 if _dot(ref, w) > 0 else 2


def cw_angle_cmp(ref: tuple, u: tuple, v: tuple) -> int:
    """Compare clockwise angles from ref: ang(ref,u) vs ang(ref,v).

    All vectors must be nonzero; result is -1/0/+1.  Exact: quadrant
    classification plus one cross-product sign, no trigonometry.
    """
    hu = _cw_half_index(ref, u)
    hv = _cw_half_index(ref, v)
    if hu != hv:
        return LESS if hu < hv else GREATER
    if hu in (0, 2):
        return EQUAL
    # same open half: later clockwise means v is clockwise of u
    c = _cross(u, v)
    if c == 0:
        return EQUAL
    return LESS if c < 0 else GREATER


def angle_cmp(ref: Halfplane, u: Halfplane, v: Halfplane) -> int:
    """Order halfplane normals by clockwise angle from the reference normal."""
    return cw_angle_cmp(ref.normal(), u.normal(), v.normal())


# ---------------------------------------------------------------------------
# grid partition
# ---------------------------------------------------------------------------

def grid_partition(
    points: Sequence[Point],
    ranges: Sequence,
    extent: Callable[[object], tuple[Fraction, Fraction, Fraction, Fraction]],
) -> dict[GridCell, tuple[list[Point], list]]:
    """Split an instance over the unit grid.

    Each point lands in exactly one cell (half-open rule); each range is
    attached to every cell whose closed square meets the range's closed
    bounding box.  Cells without points are omitted, since they need no
    cover.
    """
    cells: dict[GridCell, tuple[list[Point], list]] = {}
    for p in points:
        cell = cell_of_point(p)
        if cell not in cells:
            cells[cell] = ([], [])
        cells[cell][0].append(p)
    for r in ranges:
        xmin, ymin, xmax, ymax = extent(r)
        i_lo = math.ceil(xmin) - 1
        i_hi = math.floor(xmax)
        j_lo = math.ceil(ymin) - 1
        j_hi = math.floor(ymax)
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                cell = GridCell(i, j)
                if cell in cells and cell.closed_intersects_bbox((xmin, ymin, xmax, ymax)):
                    cells[cell][1].append(r)
    return cells


def square_extent(q: UnitSquare) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return q.bbox()


# ---------------------------------------------------------------------------
# face sampling of a line arrangement
# ---------------------------------------------------------------------------

def face_sample_points(lines: Sequence[tuple]) -> list[Point]:
    """Return rational points hitting the interior of every arrangement face.

    Lines are (a, b, c) triples for ``a*x + b*y + c = 0`` with nonzero
    (a, b).  The construction sweeps vertical slabs between consecutive
    critical abscissas (pairwise intersections plus vertical lines, with
    sentinels beyond the extremes) and emits midpoints between consecutive
    ordinates on each slab line.  No returned point lies on an input line.
    """
    for (a, b, _c) in lines:
        if a == 0 and b == 0:
            raise ValueError("degenerate line with zero normal")
    xs: set[Fraction] = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = Fraction(a1) * b2 - Fraction(a2) * b1
        if det == 0:
            continue
        xs.add((Fraction(b1) * c2 - Fraction(b2) * c1) / det)
    for (a, b, c) in lines:
        if b == 0:
            xs.add(Fraction(-c, a))

    def _mid_candidates(values: set[Fraction]) -> list[Fraction]:
        if not values:
            return [Fraction(0)]
        ordered = sorted(values)
        out = [ordered[0] - 1]
        out.extend(
            (lo + hi) / 2 for lo, hi in zip(ordered, ordered[1:])
        )
        out.append(ordered[-1] + 1)
        return out

    samples: list[Point] = []
    for x_star in _mid_candidates(xs):
        ys: set[Fraction] = set()
        for (a, b, c) in lines:
            if b != 0:
                ys.add(Fraction(-(a * x_star + c), b))
        for y_star in _mid_candidates(ys):
            samples.append(Point(x_star, y_star))
    return samples


# ---------------------------------------------------------------------------
# convex regions as halfplane intersections
# ---------------------------------------------------------------------------

Constraint = tuple[Fraction, Fraction, Fraction]  # a*x + b*y + c >= 0


def _normalize_constraint(a, b, c) -> tuple[int, int, int]:
    """Scale a rational constraint to a primitive integer triple."""
    fa, fb, fc = frac(a), frac(b), frac(c)
    scale = math.lcm(fa.denominator, fb.denominator, fc.denominator)
    ia, ib, ic = int(fa * scale), int(fb * scale), int(fc * scale)
    g = math.gcd(math.gcd(abs(ia), abs(ib)), abs(ic))
    if g > 1:
        ia, ib, ic = ia // g, ib // g, ic // g
    return (ia, ib, ic)


def _all_normals_parallel(cons: Sequence[tuple]) -> bool:
    for (a1, b1, _), (a2, b2, _) in combinations(cons, 2):
        if a1 * b2 - a2 * b1 != 0:
            return False
    return True


def _parallel_interval(cons: Sequence[tuple]):
    """For constraints with pairwise parallel normals, bound t = n0 . x.

    Returns (n0, lo, hi) with None meaning unbounded on that side.
    """
    a0, b0, _ = cons[0]
    lo = None
    hi = None
    for (a, b, c) in cons:
        lam = Fraction(a, a0) if a0 != 0 else Fraction(b, b0)
        bound = Fraction(-c) / lam
        if lam > 0:
            if lo is None or bound > lo:
                lo = bound
        else:
            if hi is None or bound < hi:
                hi = bound
    return (a0, b0), lo, hi


def feasible_point(cons: Sequence[tuple]) -> Point | None:
    """Exact feasibility of an intersection of closed halfplanes.

    Returns a witness point or None.  A nonempty region that is not a
    slab/halfplane/plane is pointed, so some pairwise boundary
    intersection is feasible; the parallel-normal cases reduce to a 1-D
    interval along the common normal.
    """
    if not cons:
        return Point(Fraction(0), Fraction(0))
    if _all_normals_parallel(cons):
        (a0, b0), lo, hi = _parallel_interval(cons)
        if lo is not None and hi is not None and lo > hi:
            return None
        t = lo if lo is not None else (hi if hi is not None else Fraction(0))
        norm2 = Fraction(a0 * a0 + b0 * b0)
        return Point(t * a0 / norm2, t * b0 / norm2)
    for (a1, b1, c1), (a2, b2, c2) in combinations(cons, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = Fraction(b1 * c2 - b2 * c1, det)
        y = Fraction(a2 * c1 - a1 * c2, det)
        if all(a * x + b * y + c >= 0 for (a, b, c) in cons):
            return Point(x, y)
    return None


def _recession_directions(cons: Sequence[tuple]) -> list[tuple[int, int]]:
    """Generators of the recession cone {d : n_j . d >= 0 for all j}.

    Every extreme ray makes some constraint tight, so rotated normals
    suffice; the bare normals cover the halfplane-shaped cone and the
    axis sentinels cover the unconstrained plane.
    """
    cands: list[tuple[int, int]] = []
    if not cons:
        return [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for (a, b, _c) in cons:
        cands.extend(((-b, a), (b, -a), (a, b)))
    feasible = []
    for d in cands:
        if all(a * d[0] + b * d[1] >= 0 for (a, b, _c) in cons):
            feasible.append(d)
    return feasible


def linear_inf(cons: Sequence[tuple], f: tuple) -> Fraction | None:
    """Exact infimum of ``f = (fa, fb, fc)`` over a nonempty region.

    Returns None for an infimum of minus infinity.  Callers must have
    established feasibility of ``cons`` beforehand.
    """
    fa, fb, fc = f
    for d in _recession_directions(cons):
        if fa * d[0] + fb * d[1] < 0:
            return None
    if not cons:
        return frac(fc)  # objective gradient is zero here, else unbounded
    if _all_normals_parallel(cons):
        (a0, b0), lo, hi = _parallel_interval(cons)
        # f is bounded along the slab direction, so its gradient is a
        # multiple kappa of the common normal
        kappa = Fraction(fa, a0) if a0 != 0 else Fraction(fb, b0)
        norm2 = Fraction(a0 * a0 + b0 * b0)
        if kappa > 0:
            return kappa * lo + fc if lo is not None else None
        if kappa < 0:
            return kappa * hi + fc if hi is not None else None
        return frac(fc)
    best = None
    for (a1, b1, c1), (a2, b2, c2) in combinations(cons, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = Fraction(b1 * c2 - b2 * c1, det)
        y = Fraction(a2 * c1 - a1 * c2, det)
        if all(a * x + b * y + c >= 0 for (a, b, c) in cons):
            val = fa * x + fb * y + fc
            if best is None or val < best:
                best = val
    if best is None:
        raise RuntimeError("pointed nonempty region must have a vertex")
    return best


def linear_sup(cons: Sequence[tuple], f: tuple) -> Fraction | None:
    """Exact supremum over a nonempty region; None means plus infinity."""
    inf = linear_inf(cons, (-f[0], -f[1], -f[2]))
    return None if inf is None else -inf


def strictly_feasible(cons: Sequence[tuple]) -> bool:
    """Does the OPEN system {a*x + b*y + c > 0} have a solution?

    Equivalent to the closed region being two-dimensional: a constraint
    whose supremum over the closed region is zero pins the region into
    its boundary line, and otherwise a centroid of per-constraint
    witnesses is strictly interior.
    """
    if not cons:
        return True
    if feasible_point(cons) is None:
        return False
    for g in cons:
        sup = linear_sup(cons, g)
        if sup is not None and sup <= 0:
            return False
    return True


@dataclass(frozen=True)
class ConvexRegion:
    """Closure of an open intersection of halfplanes.

    Complement regions are closures of open sets, so a region counts as
    empty when the strict system has no solution, even if the closed
    constraints still share a segment or point; an empty region stores no
    constraints.  A nonempty region keeps every distinct constraint,
    redundant ones included: `contains` and `region_subset` are exact
    either way.
    """

    constraints: tuple[tuple[int, int, int], ...]
    empty: bool

    def contains(self, p: Point) -> bool:
        if self.empty:
            return False
        return all(a * p.x + b * p.y + c >= 0 for (a, b, c) in self.constraints)


def region_from_constraints(raw: Iterable[tuple]) -> ConvexRegion:
    """Build a ConvexRegion from (a, b, c) constraint triples, scaled to
    primitive integers and deduplicated."""
    cons = tuple(sorted(set(_normalize_constraint(*t) for t in raw)))
    empty = not strictly_feasible(cons)
    return ConvexRegion(() if empty else cons, empty)


def complement_region(halfplanes: Sequence[Halfplane]) -> ConvexRegion:
    """Closure of the plane minus the union: intersect the flipped halfplanes."""
    return region_from_constraints((-h.a, -h.b, -h.c) for h in halfplanes)


def region_subset(p: ConvexRegion, q: ConvexRegion) -> bool:
    """Exact test P subseteq Q via infima of Q's constraints over P."""
    if p.empty:
        return True
    if q.empty:
        return False
    for g in q.constraints:
        inf = linear_inf(p.constraints, g)
        if inf is None or inf < 0:
            return False
    return True


def union_compare(z: Sequence[Halfplane], z2: Sequence[Halfplane]) -> str:
    """Classify the union of z against the union of z2.

    Unions of closed halfplanes are regular closed sets, so comparing the
    closed complement regions is exact: union(z) subseteq union(z2) iff
    comp(z2) subseteq comp(z).
    """
    comp1 = complement_region(z)
    comp2 = complement_region(z2)
    le = region_subset(comp2, comp1)
    ge = region_subset(comp1, comp2)
    if le and ge:
        return UNION_EQUAL
    if le:
        return UNION_SUBSET
    if ge:
        return UNION_SUPERSET
    return UNION_INCOMPARABLE
