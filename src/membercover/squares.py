"""Constant-factor membership cover for unit squares.

Pipeline: partition the plane into unit grid cells, and inside each cell
relax the instance to an exact rational LP, split points and squares by
the cell corner that carries the largest fractional load (a point whose
squares all hold one corner goes there without reading the weights),
and cover each corner bucket with the quadrant greedy.  The greedy picks
only dominance-maximal squares, so its cover is a staircase, on which it
is exactly optimal, and no staircase has to be built first.  A cover
found this way exceeds the LP load by at most an additive 2 per bucket,
which yields the 16*y + 8 per-cell bound and a constant factor overall.

A cell's LP is built and solved on first read, at most once: by the
corner split when some point's squares span two corners, or by
`solve_mmgsc_squares_report` for the largest cell LP value, which reads a
cell's LP only when the cell's cover membership exceeds the largest value
read so far.  That cover, with y its membership over the cell's S' rows,
is feasible for the cell LP, so a skipped cell's LP value cannot exceed it.

Every square predicate is decided on Python ints.  Each solve moves its
points, monitored points and square corners onto one integer grid once
(`geometry.SquareGrid.of`): a point becomes (X, Y), a square its top-right
corner (U, V), and the square contains the point iff U - D <= X <= U and
V - D <= Y <= V.  Every step below reads those integers through its
cell's slice of the grid, which `grid_partition` gives each cell with the
S' points of its 3x3 block: `square_tables` builds every cell's S and S'
tables with that one test, the corner split keeps each corner bucket as
lists of positions in the slice, and the greedy reads its bucket's
integers through them.  The final membership tests each S' point only
against the chosen corners in the at most four cells that a square
containing it can have its corner in.  A square holds the cell corner
(cx, cy) iff U - D <= cx*D <= U and V - D <= cy*D <= V, corner-local
coordinates are one integer subtraction, and the corner split reads the
LP weights over their common denominator.  `Fraction` remains only at
the boundary: the input, the LP solution and the reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import lp as lpmod
from .covers import CoverSolution, Uncoverable, check_covered, quiet_cover
from .geometry import GridCell, Point, SquareGrid, UnitSquare, grid_partition


class SquareWithoutCorner(ValueError):
    """A square intersects the cell but contains none of its corners."""


N_CORNERS = 4  # priority order: bottom-left, bottom-right, top-left, top-right


def square_tables(
    d: int, uv: Sequence[tuple[int, int]], *xy_lists: Sequence[tuple[int, int]]
) -> list[list[int]]:
    """One incidence table per list of grid points over the squares with
    grid corners `uv`: row i is the bitmask of the positions of the squares
    that contain the list's i-th point, as `oracle.incidence` would give."""
    boxes = [(1 << pos, u - d, u, v - d, v) for pos, (u, v) in enumerate(uv)]
    tables = []
    for xys in xy_lists:
        rows = []
        for x, y in xys:
            row = 0
            for bit, left, right, bottom, top in boxes:
                if left <= x <= right and bottom <= y <= top:
                    row |= bit
            rows.append(row)
        tables.append(rows)
    return tables


def _corner_local(
    xy: tuple[int, int], cell: GridCell, corner: int, reach: int, d: int
) -> tuple[int, int]:
    """Grid point xy with the corner at the origin: an axis flipped by the
    corner maps to (cell index + reach) * D - coordinate, the other to
    coordinate - index * D.  `reach` is 1 for points and 2 for square
    corners, the far edge of a square being one unit beyond the cell's."""
    x, y = xy
    return (
        (cell.i + reach) * d - x if corner & 1 else x - cell.i * d,
        (cell.j + reach) * d - y if corner & 2 else y - cell.j * d,
    )


@dataclass(frozen=True)
class CornerPartition:
    """Split of a cell instance into four one-corner buckets:
    `point_pos[c]` and `square_pos[c]` are the ascending positions in
    `grid` of the points and squares of corner c.

    `buckets[c]` is corner c's slice of the grid, built on first read; the
    solvers read only the position lists.  `squares` is the cell order,
    which is also the LP variable order of `lp_solution`: the cell LP's
    solution, or None when no point of the cell needed its weights.
    """

    grid: SquareGrid = field(repr=False)
    # lists, so left out of the hash, which the grid and `lp_solution` still key
    point_pos: tuple[list[int], ...] = field(hash=False)
    square_pos: tuple[list[int], ...] = field(hash=False)
    lp_solution: lpmod.LPSolution | None

    @property
    def squares(self) -> tuple[UnitSquare, ...]:
        return self.grid.squares

    @functools.cached_property
    def buckets(self) -> tuple[SquareGrid, ...]:
        """Per corner, its points and squares with their grid integers."""
        g = self.grid
        return tuple([
            g.part([g.points[k] for k in pts], [g.xy[k] for k in pts],
                   [g.squares[k] for k in sqs], [g.uv[k] for k in sqs])
            for pts, sqs in zip(self.point_pos, self.square_pos)
        ])


def corner_partition(
    grid: SquareGrid,
    s_rows: Sequence[int],
    cell: GridCell,
    solve: Callable[[], lpmod.LPSolution],
) -> CornerPartition:
    """Assign each square of the cell grid to the first corner it contains
    and each point to a corner bucket.

    A point whose squares all sit at one corner goes to that corner: under
    any feasible cover its load there is at least 1 and 0 elsewhere.  Every
    other point goes to the corner with the largest fractional load of the
    cell LP (ties to the lowest corner index), and under the LP optimum
    that load is at least 1/4, its four loads summing to at least 1.
    `solve` returns the LP solution; it runs at most once, at the first
    point whose squares span two or more corners, and not at all when no
    point's do.

    `s_rows` is the incidence table of the grid's points over its squares.
    A square with grid corner (U, V) contains the cell corner (cx, cy) iff
    cx <= U <= cx + D and cy <= V <= cy + D, so its first corner lies on
    the cell's lower x edge if that is within reach, else on the upper
    one, and likewise in y.  Loads are compared as integers over the
    common denominator of the LP weights.  The buckets are kept as
    position lists in the grid; no slice is cut.
    """
    d = grid.d
    x0, y0 = cell.i * d, cell.j * d
    # per square, its first corner: the cell's lower x edge if it reaches
    # it, else the upper one, and likewise in y; 4 or more when it reaches
    # neither edge of some axis
    bucket_of = [
        (0 if x0 <= u <= x0 + d else 1 if x0 + d < u <= x0 + 2 * d else 4)
        + (0 if y0 <= v <= y0 + d else 2 if y0 + d < v <= y0 + 2 * d else 4)
        for u, v in grid.uv
    ]
    point_pos: tuple[list[int], ...] = ([], [], [], [])
    square_pos: tuple[list[int], ...] = ([], [], [], [])
    held = [0] * N_CORNERS  # per corner, the bitmask of the positions of its squares
    for pos, corner in enumerate(bucket_of):
        if corner >= N_CORNERS:
            raise SquareWithoutCorner(
                f"square {grid.squares[pos].id} meets cell ({cell.i},{cell.j}) but no corner"
            )
        square_pos[corner].append(pos)
        held[corner] |= 1 << pos
    lpsol = weights = None
    for k, row in enumerate(s_rows):
        # a point's squares sit at one corner iff they all sit at the corner
        # of its lowest square; a point in no square reads the weights
        low = bucket_of[(row & -row).bit_length() - 1] if row else None
        if low is not None and row & held[low] == row:
            winner = low
        else:
            if weights is None:
                lpsol = solve()
                weights = lpsol.assignment[:len(grid.squares)]
                scale = math.lcm(*[w.denominator for w in weights])
                weights = [w.numerator * (scale // w.denominator) for w in weights]
            delta = [0] * N_CORNERS
            for pos, corner in enumerate(bucket_of):
                if row >> pos & 1:
                    delta[corner] += weights[pos]
            winner = delta.index(max(delta))  # ties to the lowest corner
        point_pos[winner].append(k)
    return CornerPartition(grid, point_pos, square_pos, lpsol)


def quadrant_greedy_cover(
    points: Sequence[tuple[Fraction, Fraction]],
    quads: Sequence[tuple[int, Fraction, Fraction]],
) -> list[int]:
    """Minimum-size cover of points by quadrants (x <= u, y <= v).

    Repeatedly take the uncovered point with the largest x (ties: largest
    y) and cover it with the quadrant of largest v among those containing
    it (ties: largest u, then lowest id).  The only quadrants that
    dominate that pick (u <= u', v <= v') are its exact duplicates of
    higher id, so the greedy picks the same quadrants from all of them as
    from their staircase (the dominance-maximal ones, the lowest id of
    each duplicate), where it is exactly optimal.  It only compares
    coordinates, so they may be Fractions or the integers of one grid.
    """
    remaining = sorted(points, key=lambda p: (-p[0], -p[1]))
    chosen: list[int] = []
    while remaining:
        px, py = remaining[0]
        best = None
        for rid, u, v in quads:
            if u >= px and v >= py:
                key = (v, u, -rid)
                if best is None or key > best[0]:
                    best = (key, rid, u, v)
        if best is None:
            raise Uncoverable(Point(px, py))
        _, rid, u, v = best
        chosen.append(rid)
        remaining = [p for p in remaining if not (p[0] <= u and p[1] <= v)]
    return chosen


def solve_one_corner(
    grid: SquareGrid,
    cell: GridCell,
    corner: int,
    points: Sequence[int],
    squares: Sequence[int],
) -> tuple[int, ...]:
    """Ids of a minimum-size cover of a one-corner bucket, sorted, via the
    quadrant greedy on corner-local grid coordinates.

    The bucket is the grid's points at the positions `points` and its
    squares at the positions `squares`.  Every square of the bucket goes
    to the greedy, whose pick is always a dominance-maximal square, so the
    cover is a staircase, which bounds its membership by any fractional
    cover's plus two.
    """
    d, xy, uv, sqs = grid.d, grid.xy, grid.uv, grid.squares
    local = [_corner_local(xy[k], cell, corner, 1, d) for k in points]
    quads = [(sqs[k].id, *_corner_local(uv[k], cell, corner, 2, d)) for k in squares]
    return tuple(sorted(quadrant_greedy_cover(local, quads)))


def solve_cell_lp(program: lpmod.CoverProgram) -> lpmod.LPSolution:
    """The optimum of a cell's cover program, whose coverage the caller
    has checked."""
    sol = lpmod.solve_lp(program)
    if sol.status != lpmod.OPTIMAL:
        raise RuntimeError("coverage was prechecked")
    return sol


def round_cell_lp(
    grid: SquareGrid,
    s_rows: Sequence[int],
    cell: GridCell,
    solve: Callable[[], lpmod.LPSolution],
) -> tuple[CornerPartition, list[tuple[int, ...]]]:
    """Round a cell's cover program, whose solution `solve` returns when
    the corner split asks for it: the corner partition, and the
    quadrant-greedy cover ids of each corner, () for a corner without
    points."""
    partition = corner_partition(grid, s_rows, cell, solve)
    return partition, [
        solve_one_corner(grid, cell, c, pts, partition.square_pos[c]) if pts else ()
        for c, pts in enumerate(partition.point_pos)
    ]


@dataclass(frozen=True)
class CellReport:
    """Cell solve with its diagnostics: the corner partition and the ids
    of each corner bucket's cover (all empty on the quiet path, where no
    LP runs), and `solve`, which builds and solves the cell LP on first
    call and returns that solution on every later one (None on the quiet
    path).  `lp_solution` and `lp_value` read it."""

    cover: CoverSolution
    partition: CornerPartition | None
    bucket_ids: tuple[tuple[int, ...], ...]
    zero_membership: bool
    solve: Callable[[], lpmod.LPSolution] | None = field(default=None, repr=False, compare=False)

    @property
    def lp_solution(self) -> lpmod.LPSolution | None:
        return None if self.solve is None else self.solve()

    @property
    def lp_value(self) -> Fraction | None:
        return None if self.solve is None else self.solve().value


def solve_cell_report(grid: SquareGrid, cell: GridCell) -> CellReport:
    """Membership cover of one cell, given its slice of the grid: its
    points and squares, and the S' points `grid_partition` gives it, those
    of its 3x3 block, or any superset of them, such as all of S'."""
    if not grid.points:
        return CellReport(CoverSolution((), 0), None, (), True)
    s_rows, sp_rows = square_tables(grid.d, grid.uv, grid.xy, grid.sp_xy)
    check_covered(grid.points, s_rows)

    # cell-local S': a monitored point outside every cell square, as every
    # point outside the cell's 3x3 block is, has depth 0 in any cover drawn
    # from them, and its LP row -y <= 0 is redundant
    sp_rows = [row for row in sp_rows if row]

    # zero-membership shortcut: if the squares avoiding every monitored
    # point already cover the cell, take exactly those
    quiet = quiet_cover(grid.points, s_rows, sp_rows, grid.squares)
    if quiet is not None:
        return CellReport(quiet, None, (), True)

    solve = functools.cache(
        lambda: solve_cell_lp(lpmod.build_membership_lp(s_rows, sp_rows, len(grid.squares)))
    )
    partition, chosen = round_cell_lp(grid, s_rows, cell, solve)
    cover = CoverSolution.build([i for ids in chosen for i in ids], sp_rows, grid.squares)
    return CellReport(cover, partition, tuple(chosen), False, solve)


def _max_lp_value(
    read: Sequence[Fraction], unread: Sequence[tuple[int, Callable[[], lpmod.LPSolution]]]
) -> Fraction | None:
    """The largest LP value of the non-quiet cells, given the values their
    corner splits read and (cover membership, `solve`) of every other one.
    The membership bounds the cell's LP value from above, so those LPs are
    read in descending order of it (ties in the given order) only while it
    exceeds the largest value read."""
    best = max(read, default=None)
    for memb, solve in sorted(unread, key=lambda cell: -cell[0]):
        if best is not None and memb <= best:
            break
        value = solve().value
        best = value if best is None else max(best, value)
    return best


def _membership(d: int, uv: Sequence[tuple[int, int]], sp_xy: Sequence[tuple[int, int]]) -> int:
    """The most squares with grid corners `uv` that contain one point of
    `sp_xy`, 0 without points: `depth` of their `square_tables` rows.

    A square contains (X, Y) iff X <= U <= X + D and Y <= V <= Y + D, so
    its corner lies in one of the cells (X // D + {0, 1}, Y // D + {0, 1}).
    Each corner is listed under the four cells whose points it can reach,
    and each point is tested against its own cell's list only."""
    seen: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in uv:
        i, j = u // d, v // d
        for key in ((i, j), (i - 1, j), (i, j - 1), (i - 1, j - 1)):
            seen.setdefault(key, []).append((u, v))
    best = 0
    for x, y in sp_xy:
        count = 0
        for u, v in seen.get((x // d, y // d), ()):
            if x <= u <= x + d and y <= v <= y + d:
                count += 1
        best = max(best, count)
    return best


@dataclass(frozen=True)
class SquaresReport:
    cover: CoverSolution
    max_lp_value: Fraction | None


def solve_mmgsc_squares_report(
    points: Sequence[Point],
    sprime: Sequence[Point],
    squares: Sequence[UnitSquare],
) -> SquaresReport:
    """Grid decomposition followed by per-cell solves: the union of the
    cell covers, and the largest cell LP value."""
    grid = SquareGrid.of(points, squares, sprime)
    cells = grid_partition(grid)
    ids: set[int] = set()
    read: list[Fraction] = []
    unread: list[tuple[int, Callable[[], lpmod.LPSolution]]] = []
    for cell in sorted(cells, key=lambda c: (c.i, c.j)):
        report = solve_cell_report(cells[cell], cell)
        ids.update(report.cover.ids)
        if report.partition is None:
            continue
        if report.partition.lp_solution is not None:
            read.append(report.partition.lp_solution.value)
        else:
            unread.append((report.cover.memb, report.solve))
    chosen = sorted(ids)
    uv_of = {q.id: uv for q, uv in zip(grid.squares, grid.uv)}
    memb = _membership(grid.d, [uv_of[i] for i in chosen], grid.sp_xy)
    return SquaresReport(CoverSolution(tuple(chosen), memb), _max_lp_value(read, unread))
