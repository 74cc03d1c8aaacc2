"""Exact planar primitives shared by all cover solvers.

Input coordinates are `fractions.Fraction`s.  Each squares solve moves
them onto one integer grid once: `SquareGrid.of` takes the lcm D of their
denominators (`grid_unit`) and the integers D*x and D*y (`on_grid`), so a
unit square with top-right corner (U, V) on that grid is the box
U - D <= X <= U, V - D <= Y <= V; `grid_partition` cuts that grid into
per-cell slices.  `Arrangement.of` lists each line's vertices as
homogeneous integer points, and the face samples, integer triples too,
come from a sweep over those vertices.  Every predicate is decided by
exact sign tests or integer comparisons.  Union and region questions share one kernel,
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
    holds S' in input order (a cell slice of `grid_partition` holds only
    the S' points of the cell's 3x3 block).  A named tuple, so that a solve
    cuts its slices per cell cheaply."""

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
    and likewise in y.  Each S' point is attached, in input order, to every
    cell whose closed 3x3 block [(i-1)D, (i+2)D] x [(j-1)D, (j+2)D] holds
    it, the cells ceil(X/D) - 2 <= i <= floor(X/D) + 1 and likewise in y:
    a square of the cell lies in that block.  Cells without points are
    omitted, since they need no cover.
    """
    d = grid.d
    # keyed by (i, j) until the end: a plain tuple hashes faster than a GridCell
    cells: dict[tuple[int, int], tuple[list, list, list, list, list]] = {}
    for p, xy in zip(grid.points, grid.xy):
        members = cells.setdefault((xy[0] // d, xy[1] // d), ([], [], [], [], []))
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
    # the S' lists of the cells of each window met, looked up once per window
    windows: dict[tuple[int, int, int, int], list[list]] = {}
    for xy in grid.sp_xy:
        x, y = xy
        window = (-(-x // d) - 2, x // d + 2, -(-y // d) - 2, y // d + 2)
        targets = windows.get(window)
        if targets is None:
            i_lo, i_hi, j_lo, j_hi = window
            targets = windows[window] = [
                members[4]
                for i in range(i_lo, i_hi)
                for j in range(j_lo, j_hi)
                if (members := cells.get((i, j))) is not None
            ]
        for sp in targets:
            sp.append(xy)
    return {
        GridCell(*cell): SquareGrid(d, *[tuple(m) for m in members])
        for cell, members in cells.items()
    }


# ---------------------------------------------------------------------------
# a line arrangement by its vertices, and one sample per face
# ---------------------------------------------------------------------------

HPt = tuple[int, int, int]  # (X, Y, W) with W > 0, meaning (X/W, Y/W)
Vertex = tuple[HPt, int, int]  # on a line: point, other lines through it, HPt rank


def _line_intersect(l1: tuple[int, int, int], l2: tuple[int, int, int]) -> HPt | None:
    """The point where two lines meet, in lowest terms; None on parallels."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    x, y = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
    g = math.gcd(x, y, det) if det > 0 else -math.gcd(x, y, det)
    return (x // g, y // g, det // g)


@dataclass(frozen=True, slots=True)
class Arrangement:
    """The vertices of an arrangement of (a, b, c) lines: `vertices[i]`
    holds the points where lines[i] meets another line, in order along (b,
    -a), as `Vertex`es, whose masks leave out the copies of lines[i]: they
    meet it in no point."""

    lines: tuple[tuple[int, int, int], ...]
    vertices: tuple[list[Vertex], ...]

    @staticmethod
    def of(lines: Sequence[tuple[int, int, int]]) -> "Arrangement":
        """Each pair of lines intersected once; a zero normal raises ValueError."""
        if any(a == 0 and b == 0 for a, b, _c in lines):
            raise ValueError("degenerate line with zero normal")
        # per line, its intersection points and the other lines through each
        through: list[dict[HPt, int]] = [{} for _ in lines]
        for i, j in combinations(range(len(lines)), 2):
            hit = _line_intersect(lines[i], lines[j])  # None on parallels
            if hit is not None:
                through[i][hit] = through[i].get(hit, 0) | 1 << j
                through[j][hit] = through[j].get(hit, 0) | 1 << i
        vertices = []
        for (a, b, _c), on_line in zip(lines, through):
            ranked = sorted(on_line)
            # (b x - a y) over the common weight orders the points along the line
            w = math.lcm(*[v[2] for v in ranked])
            along = sorted(
                enumerate(ranked), key=lambda rv: (b * rv[1][0] - a * rv[1][1]) * (w // rv[1][2])
            )
            vertices.append([(v, on_line[v], r) for r, v in along])
        return Arrangement(tuple(lines), tuple(vertices))


def face_sample_points(
    arrangement: Arrangement, box: tuple[int, int, int, int] | None = None
) -> list[tuple[int, int, int, int]]:
    """One point in the interior of each face of the arrangement, as (X, Y,
    W, outside) with W > 0: the point (X/W, Y/W) and the bitmask of its
    face, bit i set iff a*X + b*Y + c*W < 0 on lines[i].  With `box`, the
    indices of two horizontal lines, bottom then top, and of two vertical
    lines, left then right (else ValueError), only the faces inside the
    box, with the samples the whole arrangement gives them.

    Samples sit on vertical slab lines midway between consecutive critical
    abscissas (the vertices' and the vertical lines', with sentinels one
    unit beyond the extremes), midway between consecutive ordinates or one
    unit beyond the extreme ones.  Abscissas share the denominator D, the
    lcm of the vertex weights and of |a| on vertical lines, so slab
    abscissas share 2D; ordinates on a slab share 2D * L with L the lcm of
    the nonzero |b|, so W = 4DL.  Each face gets its sample on the first
    slab it meets, its least in (x, y) order, and the samples come in (x,
    y) order.  No sample lies on a line.  A face inside the box meets only
    the slabs between its sides, so the sweep can start at the left one
    and stop at the right one, and on each slab it is a gap between the
    entries of the bottom and the top line.

    A sweep over the critical abscissas keeps the vertical order of the
    sloped lines (coincident ones as one entry holding all their bits) and
    the outside mask of each gap: below every line a point lies outside
    the sloped lines with b > 0, and crossing an entry flips its bits.  The
    entries through a vertex, read off any one line through it (its copies
    share its entry), are consecutive in the order and come reversed right
    of it, and the gaps inside each reversed block are the faces that
    begin at the vertex.  Right of a vertical line every face begins, so
    the order is sorted again and every gap is new.  O(n^2 log n) in all.
    """
    lines = arrangement.lines
    vertical = [(a, c, 1 << i) for i, (a, b, c) in enumerate(lines) if b == 0]
    weights = {v[2] for on_line in arrangement.vertices for v, _through, _rank in on_line}
    d = math.lcm(*weights, *[abs(a) for a, _c, _bit in vertical])
    vertical_xs = {-c * (d // a) for a, c, _bit in vertical}
    slab_unit = 2 * d  # denominator of the slab abscissas
    lcm_b = math.lcm(*[abs(b) for (_a, b, _c) in lines if b != 0])
    y_unit = slab_unit * lcm_b  # denominator of the ordinates on a slab
    w = 2 * y_unit
    below = sum([1 << i for i, (_a, b, _c) in enumerate(lines) if b > 0])
    # one entry [a, c, L / b, bits, index] per distinct sloped line, from its
    # first copy, with the bits of every copy
    merged: dict[tuple[int, int, int], list[int]] = {}
    entry_of: dict[int, list[int]] = {}
    for i, (a, b, c) in enumerate(lines):
        if b != 0:
            g = math.gcd(a, b, c) * (1 if b > 0 else -1)
            entry = merged.setdefault((a // g, b // g, c // g), [a, c, lcm_b // b, 0, len(merged)])
            entry[3] |= 1 << i
            entry_of[i] = entry
    entries = list(merged.values())

    def ordinate(e: int, x_num: int) -> int:
        # entry e meets the slab line x = x_num / slab_unit at this / y_unit
        a, c, scale, _bits, _e = entries[e]
        return -(a * x_num + c * slab_unit) * scale

    x_lo, x_hi = -math.inf, math.inf  # the abscissas swept, over D
    if box is not None:
        (a_b, b_b, _c_b), (a_t, b_t, _c_t), (a_lo, b_lo, c_lo), (a_hi, b_hi, c_hi) = [lines[i] for i in box]
        if (
            a_b or a_t or not b_b or not b_t or b_lo or b_hi
            or -c_lo * (d // a_lo) >= -c_hi * (d // a_hi)
            or ordinate(entry_of[box[0]][4], 0) >= ordinate(entry_of[box[1]][4], 0)
        ):
            raise ValueError(f"bounds {box} are not a box: bottom, top, left, right")
        x_lo, x_hi = -c_lo * (d // a_lo), -c_hi * (d // a_hi)
        floor, ceiling = entry_of[box[0]][4], entry_of[box[1]][4]  # the bottom and top entries
    # per abscissa X over D of a vertex of sloped lines, the lines through
    # each vertex there, as the first of them lists it
    vertices: dict[int, dict[HPt, int]] = {}
    for i in entry_of:
        for v, through, _rank in arrangement.vertices[i]:
            x = v[0] * (d // v[2])
            if x_lo <= x <= x_hi:
                vertices.setdefault(x, {}).setdefault(v, through | 1 << i)
    xs = sorted([x for x in vertices.keys() | vertical_xs if x_lo <= x <= x_hi])

    order: list[int] = []  # the entries from the bottom up
    pos = [0] * len(entries)
    gaps = [0] * (len(entries) + 1)  # gaps[t]: the mask between order[t-1] and order[t]

    def renumber(lo: int, hi: int) -> None:
        for t in range(lo, hi):
            pos[order[t]] = t
            gaps[t + 1] = gaps[t] ^ entries[order[t]][3]

    samples: list[tuple[int, int, int, int]] = []
    slab_xs = [2 * xs[0] - 2 * d] if xs else [0]
    slab_xs += [lo + hi for lo, hi in zip(xs, xs[1:])]
    slab_xs += [2 * xs[-1] + 2 * d] if xs else []
    starts: list[int | None] = [None] + xs  # where each slab begins
    if box is not None:  # from the left bound, where the order is sorted
        slab_xs, starts = slab_xs[1:-1], xs
    for x_c, x_num in zip(starts, slab_xs):
        if x_c is None or x_c in vertical_xs:
            order[:] = sorted(range(len(entries)), key=lambda e: ordinate(e, x_num))
            gaps[0] = below
            for a, c, bit in vertical:
                if a * x_num + c * slab_unit < 0:
                    gaps[0] |= bit
            renumber(0, len(order))
            new_gaps = list(range(len(order) + 1))
        else:
            new_gaps = []
            for mask in vertices[x_c].values():
                through = set()
                while mask:
                    through.add(entry_of[(mask & -mask).bit_length() - 1][4])
                    mask &= mask - 1
                lo = min([pos[e] for e in through])
                hi = lo + len(through)
                order[lo:hi] = order[lo:hi][::-1]
                renumber(lo, hi)
                new_gaps += range(lo + 1, hi)
            new_gaps.sort()
        if box is not None:  # the gaps inside the box
            new_gaps = [t for t in new_gaps if pos[floor] < t <= pos[ceiling]]
        x = x_num * 2 * lcm_b
        top = len(order)
        for t in new_gaps:
            y = 0  # midway between the gap's ordinates, one unit beyond an end
            if order:
                y_lo = ordinate(order[t - 1], x_num) if t else ordinate(order[0], x_num) - 2 * y_unit
                y = y_lo + (ordinate(order[t], x_num) if t < top else y_lo + 2 * y_unit)
            samples.append((x, y, w, gaps[t]))
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
