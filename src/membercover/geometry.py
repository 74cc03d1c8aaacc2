"""Exact planar primitives shared by all cover solvers.

Input coordinates are `fractions.Fraction`s.  Each squares solve moves
them onto one integer grid once: `SquareGrid.of` takes the lcm D of their
denominators (`grid_unit`) and the integers D*x and D*y (`on_grid`), so a
unit square with top-right corner (U, V) on that grid is the box
U - D <= X <= U, V - D <= Y <= V; `grid_partition` cuts that grid into
per-cell slices.  The face samples of a line arrangement are homogeneous
integer triples.  Every predicate is decided by exact sign tests or integer
comparisons.  Union and region questions share one kernel,
`strictly_feasible`, the Helly and Motzkin sign test on an open halfplane
system: a region is the closure of such a system, and `region_subset` asks
it whether a system plus one flipped constraint still has a point.  There
is no floating-point path anywhere in this module; degenerate inputs
(shared boundaries, duplicate ranges, collinear normals) are therefore
handled exactly rather than by epsilon tuning.

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
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

MAX_DIGITS = 256  # past about 308 digits a coordinate overflows svgplot's floats
_INT_BOUND = 10**MAX_DIGITS
_INTEGER = re.compile(r"-?[0-9]{1,%d}" % MAX_DIGITS)
_RATIONAL = re.compile(r"(%s)(?:/([0-9]{1,%d}))?" % (_INTEGER.pattern, MAX_DIGITS))


def frac(value) -> Fraction:
    """The one reader of a number from outside: a Fraction, an int (not a
    bool) or a string in the grammar that `str(Fraction)` writes, ``-?N``
    or ``-?N/D`` with D nonzero, each integer of at most MAX_DIGITS
    digits.  Anything else raises ValueError."""
    if type(value) is str:
        match = _RATIONAL.fullmatch(value)
        if match and match[2] is None:
            return Fraction(int(match[1]))
        if match and int(match[2]):
            return Fraction(int(match[1]), int(match[2]))
    elif type(value) is int:
        if -_INT_BOUND < value < _INT_BOUND:
            return Fraction(value)
        raise ValueError(f"integer has more than {MAX_DIGITS} digits")
    elif isinstance(value, Fraction):
        return value
    raise ValueError(
        f"not an exact rational -?N or -?N/D (D > 0, at most {MAX_DIGITS} digits each): "
        f"{repr(value)[:60]}"
    )


def integer(text: str) -> int:
    """The reader of an integer from outside, beside `frac`: a string
    ``-?N`` of at most MAX_DIGITS ASCII digits, with no padding, plus sign
    or underscore.  Anything else raises ValueError."""
    if type(text) is str and _INTEGER.fullmatch(text):
        return int(text)
    raise ValueError(f"not an integer -?N of at most {MAX_DIGITS} digits: {repr(text)[:60]}")


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


# ---------------------------------------------------------------------------
# the integer grid of a squares instance, and its partition into cells
# ---------------------------------------------------------------------------

def grid_unit(points: Iterable[Point]) -> int:
    """D: the least positive integer with D*x and D*y integers for every
    point; 1 without points."""
    return math.lcm(*{c.denominator for p in points for c in (p.x, p.y)})


def on_grid(points: Iterable[Point], d: int) -> list[tuple[int, int]]:
    """(D*x, D*y) of each point, as integers; `d` is a multiple of
    `grid_unit(points)`."""
    return [
        (p.x.numerator * (d // p.x.denominator), p.y.numerator * (d // p.y.denominator))
        for p in points
    ]


class SquareGrid(NamedTuple):
    """Points of S and unit squares on the integer grid of unit `d`, with
    the monitored points S' as integers only: `xy[i]` is (D*x, D*y) of
    `points[i]`, `uv[i]` the top-right corner of `squares[i]` and `sp_xy`
    holds S' in input order.  A named tuple, so that a solve cuts its
    slices per cell and per corner cheaply."""

    d: int
    points: tuple[Point, ...]
    xy: tuple[tuple[int, int], ...]
    squares: tuple[UnitSquare, ...]
    uv: tuple[tuple[int, int], ...]
    sp_xy: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def of(
        points: Sequence[Point], squares: Sequence[UnitSquare], sprime: Sequence[Point] = ()
    ) -> "SquareGrid":
        """The one grid of an instance: one `grid_unit` over every
        coordinate, one `on_grid` for the points and one for the corners."""
        corners = [q.tr for q in squares]
        d = grid_unit([*points, *sprime, *corners])
        xy = on_grid([*points, *sprime], d)
        n = len(points)
        return SquareGrid(d, tuple(points), tuple(xy[:n]), tuple(squares),
                          tuple(on_grid(corners, d)), tuple(xy[n:]))

    def part(self, points, xy, squares, uv) -> "SquareGrid":
        """A slice: these points and squares of the grid with their grid
        integers, and the same D and S'."""
        return SquareGrid(self.d, tuple(points), tuple(xy), tuple(squares), tuple(uv), self.sp_xy)


def grid_partition(grid: SquareGrid) -> dict[GridCell, SquareGrid]:
    """Split an instance over the unit grid into one slice per cell.

    Each point lands in exactly one cell (half-open rule), the cell
    (X // D, Y // D); each square is attached to every cell whose closed
    square meets it, that is to the cells ceil(U/D) - 2 <= i <= floor(U/D)
    and likewise in y.  Cells without points are omitted, since they need
    no cover.
    """
    d = grid.d
    # keyed by (i, j) until the end: a plain tuple hashes faster than a GridCell
    cells: dict[tuple[int, int], tuple[list, list, list, list]] = {}
    for p, xy in zip(grid.points, grid.xy):
        members = cells.setdefault((xy[0] // d, xy[1] // d), ([], [], [], []))
        members[0].append(p)
        members[1].append(xy)
    for q, uv in zip(grid.squares, grid.uv):
        u, v = uv
        # floor(U/D) is U // D and ceil(U/D) is -(-U // D)
        for i in range(-(-u // d) - 2, u // d + 1):
            for j in range(-(-v // d) - 2, v // d + 1):
                members = cells.get((i, j))
                if members is not None:
                    members[2].append(q)
                    members[3].append(uv)
    return {GridCell(*cell): grid.part(*members) for cell, members in cells.items()}


# ---------------------------------------------------------------------------
# face sampling of a line arrangement
# ---------------------------------------------------------------------------

def face_sample_points(lines: Sequence[tuple]) -> list[tuple[int, int, int]]:
    """Return points hitting the interior of every arrangement face, as
    homogeneous integer triples (X, Y, W) with W > 0, meaning (X/W, Y/W).

    Lines are (a, b, c) triples for ``a*x + b*y + c = 0`` with nonzero
    (a, b).  The construction sweeps vertical slabs between consecutive
    critical abscissas (pairwise intersections plus vertical lines, with
    sentinels one unit beyond the extremes) and emits midpoints between
    consecutive ordinates on each slab line.  Abscissas share the
    denominator D, the lcm of the intersection determinants (and of |a| for
    vertical lines), so slab abscissas share 2D; ordinates on a slab share
    2D * L with L the lcm of the nonzero |b|, so every sample has W = 4DL.
    Slabs come out increasing and ordinates within a slab increasing, so
    the samples are in (x, y) order.  No returned point lies on an input
    line.
    """
    for (a, b, _c) in lines:
        if a == 0 and b == 0:
            raise ValueError("degenerate line with zero normal")
    crossings: list[tuple[int, int]] = []  # abscissa as (numerator, denominator)
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det != 0:
            crossings.append((b1 * c2 - b2 * c1, det))
    crossings += [(-c, a) for (a, b, c) in lines if b == 0]
    d = math.lcm(*[abs(den) for _num, den in crossings])
    xs = {num * (d // den) for num, den in crossings}
    slab_unit = 2 * d  # denominator of the slab abscissas
    lcm_b = math.lcm(*[abs(b) for (_a, b, _c) in lines if b != 0])
    y_unit = slab_unit * lcm_b  # denominator of the ordinates on a slab
    w = 2 * y_unit
    sloped = [(a, c, lcm_b // b) for (a, b, c) in lines if b != 0]

    def mid_candidates(values: set[int], unit: int) -> list[int]:
        # numerators over 2 * unit of one unit below, the midpoints between
        # and one unit above the numerators `values` over `unit`
        if not values:
            return [0]
        ordered = sorted(values)
        out = [2 * ordered[0] - 2 * unit]
        out.extend([lo + hi for lo, hi in zip(ordered, ordered[1:])])
        out.append(2 * ordered[-1] + 2 * unit)
        return out

    samples: list[tuple[int, int, int]] = []
    for x_num in mid_candidates(xs, d):
        # on x = x_num / slab_unit the line meets y = -(a x + c) / b
        ys = {-(a * x_num + c * slab_unit) * scale for (a, c, scale) in sloped}
        x = x_num * 2 * lcm_b
        for y in mid_candidates(ys, y_unit):
            samples.append((x, y, w))
    return samples


# ---------------------------------------------------------------------------
# convex regions as halfplane intersections
# ---------------------------------------------------------------------------

def _normalize_constraint(a, b, c) -> tuple[int, int, int]:
    """Scale a rational constraint to a primitive integer triple."""
    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
    scale = math.lcm(fa.denominator, fb.denominator, fc.denominator)
    ia, ib, ic = int(fa * scale), int(fb * scale), int(fc * scale)
    g = math.gcd(math.gcd(abs(ia), abs(ib)), abs(ic))
    if g > 1:
        ia, ib, ic = ia // g, ib // g, ic // g
    return (ia, ib, ic)


def pair_certificate(con1: tuple, con2: tuple) -> bool:
    """Do the open constraints {con1 > 0, con2 > 0} have a Motzkin
    certificate of infeasibility with full support?  That is: the normals
    are antiparallel, and with lambda = (|n2|, |n1|), read on one nonzero
    axis, the offsets sum to at most zero."""
    a1, b1, c1 = con1
    a2, b2, c2 = con2
    if a1 * b2 != a2 * b1 or a1 * a2 + b1 * b2 >= 0:
        return False
    if a1:
        return abs(a2) * c1 + abs(a1) * c2 <= 0
    return abs(b2) * c1 + abs(b1) * c2 <= 0


def triple_certificate(con1: tuple, con2: tuple, con3: tuple) -> bool:
    """Do the open constraints {con_i > 0} have a Motzkin certificate of
    infeasibility with full support, given normals that span the plane?
    lambda is the vector of cross products (n2 x n3, n3 x n1, n1 x n2),
    which must have one strict sign with the weighted offsets on the other
    side of zero (or at it)."""
    a1, b1, c1 = con1
    a2, b2, c2 = con2
    a3, b3, c3 = con3
    l1 = a2 * b3 - a3 * b2
    l2 = a3 * b1 - a1 * b3
    l3 = a1 * b2 - a2 * b1
    if l1 > 0 and l2 > 0 and l3 > 0:
        return l1 * c1 + l2 * c2 + l3 * c3 <= 0
    if l1 < 0 and l2 < 0 and l3 < 0:
        return l1 * c1 + l2 * c2 + l3 * c3 >= 0
    return False


def strictly_feasible(cons: Sequence[tuple]) -> bool:
    """Does the OPEN system {a*x + b*y + c > 0} have a solution?

    Helly: open convex sets in the plane share a point iff every three of
    them do, so the system is infeasible iff some subset of at most three
    constraints is.  Motzkin's transposition theorem: a subset is
    infeasible iff some lambda >= 0, lambda != 0, has
    sum(lambda_i * (a_i, b_i)) = 0 and sum(lambda_i * c_i) <= 0.  A minimal
    infeasible subset has a certificate with full support, tested by sign:

    * one constraint: its normal is zero and c <= 0;
    * a pair: `pair_certificate`, antiparallel normals;
    * a triple whose normals span the plane: `triple_certificate`.
      Normals that do not span reduce to a pair or a single constraint.

    Only products and sums of the inputs decide, so the test is exact on
    integer (and rational) coefficients and builds no Fraction of its own.
    """
    for a, b, c in cons:
        if a == 0 and b == 0 and c <= 0:
            return False
    for con1, con2 in combinations(cons, 2):
        if pair_certificate(con1, con2):
            return False
    for con1, con2, con3 in combinations(cons, 3):
        if triple_certificate(con1, con2, con3):
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
    cons = tuple(sorted({_normalize_constraint(*t) for t in raw}))
    empty = not strictly_feasible(cons)
    return ConvexRegion(() if empty else cons, empty)


def complement_region(halfplanes: Sequence[Halfplane]) -> ConvexRegion:
    """Closure of the plane minus the union: intersect the flipped halfplanes."""
    return region_from_constraints((-h.a, -h.b, -h.c) for h in halfplanes)


def region_subset(p: ConvexRegion, q: ConvexRegion) -> bool:
    """Exact test P subseteq Q.  P is the closure of its open system, so
    P lies in the closed halfplane g >= 0 iff that open system together
    with -g > 0 has no solution: one `strictly_feasible` call per
    constraint g of Q."""
    if p.empty:
        return True
    if q.empty:
        return False
    return not any(
        strictly_feasible(p.constraints + ((-a, -b, -c),)) for (a, b, c) in q.constraints
    )
