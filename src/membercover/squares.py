"""Constant-factor membership cover for unit squares.

Pipeline: partition the plane into unit grid cells, and inside each cell
relax the instance to an exact rational LP, split points and squares by
the cell corner that carries the largest fractional load (a point whose
squares all hold one corner goes there without reading the weights),
reduce each corner bucket to a staircase of dominance-maximal squares,
and cover it with an exactly optimal quadrant greedy.  A cover found this
way exceeds the LP load by at most an additive 2 per bucket, which yields
the 16*y + 8 per-cell bound and a constant factor overall.

Every square predicate is decided on Python ints.  Each solve moves its
points, monitored points and square corners onto one integer grid once
(`geometry.SquareGrid.of`): a point becomes (X, Y), a square its top-right
corner (U, V), and the square contains the point iff U - D <= X <= U and
V - D <= Y <= V.  Every step below reads those integers through its
slice of the grid: `grid_partition` gives each cell one, the corner split
gives each corner bucket one, and `square_tables` builds every S and S'
table with that one test.  A square holds the cell corner (cx, cy) iff
U - D <= cx*D <= U and V - D <= cy*D <= V, corner-local coordinates are
one integer subtraction, and the corner split reads the LP weights over
their common denominator.  `Fraction` remains only at the boundary: the
input, the LP solution and the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import lp as lpmod
from .covers import (
    ALL,
    CoverSolution,
    Uncoverable,
    check_covered,
    depth,
    quiet_cover,
)
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


def _staircase(
    grid: SquareGrid, cell: GridCell, corner: int
) -> list[tuple[int, int, UnitSquare]]:
    """(u, v, square) of the dominance-maximal squares of the grid, by id,
    with (u, v) the square's corner-local grid corner.

    After the reflection the cell is [0, D]^2 and a square containing the
    corner acts as the quadrant x <= u, y <= v, so Q is dominated by Q' iff
    u <= u' and v <= v'.  Exact duplicates keep the lowest id.
    """
    decorated = [
        _corner_local(uv, cell, corner, 2, grid.d) + (q,)
        for uv, q in zip(grid.uv, grid.squares)
    ]
    decorated.sort(key=lambda t: (-t[0], -t[1], t[2].id))
    kept: list[tuple[int, int, UnitSquare]] = []
    best_v: int | None = None
    for u, v, q in decorated:
        if best_v is None or v > best_v:
            kept.append((u, v, q))
            best_v = v
    kept.sort(key=lambda t: t[2].id)
    return kept


@dataclass(frozen=True)
class CornerPartition:
    """Split of a cell instance into four one-corner buckets, each a slice
    of the cell's grid: `buckets[c].points` and `buckets[c].squares` are
    the points and squares of corner c.

    `squares` keeps the cell order, which is also the LP variable order of
    `lp_solution`: the cell LP's solution, or None when no point of the
    cell needed its weights.
    """

    squares: tuple[UnitSquare, ...]
    buckets: tuple[SquareGrid, ...]
    lp_solution: lpmod.LPSolution | None


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
    U - D <= cx*D <= U and V - D <= cy*D <= V.  Loads are compared as
    integers over the common denominator of the LP weights.
    """
    d = grid.d
    corners = [((cell.i + (idx & 1)) * d, (cell.j + (idx >> 1)) * d) for idx in range(N_CORNERS)]
    # per corner: its points, their grid integers, its squares, their corners
    buckets: list[tuple[list, list, list, list]] = [([], [], [], []) for _ in range(N_CORNERS)]
    bucket_of: list[int] = []
    held = [0] * N_CORNERS  # per corner, the bitmask of the positions of its squares
    for pos, (q, uv) in enumerate(zip(grid.squares, grid.uv)):
        u, v = uv
        for idx, (cx, cy) in enumerate(corners):
            if u - d <= cx <= u and v - d <= cy <= v:
                buckets[idx][2].append(q)
                buckets[idx][3].append(uv)
                bucket_of.append(idx)
                held[idx] |= 1 << pos
                break
        else:
            raise SquareWithoutCorner(
                f"square {q.id} meets cell ({cell.i},{cell.j}) but no corner"
            )
    lpsol = weights = None
    for p, xy, row in zip(grid.points, grid.xy, s_rows):
        at = [idx for idx in range(N_CORNERS) if row & held[idx]]
        if len(at) == 1:
            winner = at[0]
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
            winner = max(range(N_CORNERS), key=lambda idx: (delta[idx], -idx))
        buckets[winner][0].append(p)
        buckets[winner][1].append(xy)
    return CornerPartition(
        squares=grid.squares,
        buckets=tuple([grid.part(*members) for members in buckets]),
        lp_solution=lpsol,
    )


def quadrant_greedy_cover(
    points: Sequence[tuple[Fraction, Fraction]],
    quads: Sequence[tuple[int, Fraction, Fraction]],
) -> list[int]:
    """Minimum-size cover of points by quadrants (x <= u, y <= v).

    Repeatedly take the uncovered point with the largest x (ties: largest
    y) and cover it with the quadrant of largest v among those containing
    it (ties: largest u, then lowest id).  For staircase instances this
    greedy is exactly optimal.  It only compares coordinates, so they may
    be Fractions or the integers of one grid.
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


def solve_one_corner(grid: SquareGrid, cell: GridCell, corner: int) -> tuple[int, ...]:
    """Ids of a minimum-size cover of a one-corner bucket, its slice of the
    cell grid, sorted, via the quadrant greedy on corner-local grid
    coordinates.

    Restricting to dominance-maximal squares keeps the cover a staircase,
    which bounds its membership by any fractional cover's plus two.
    """
    if not grid.points:
        return ()
    canon_quads = [(q.id, u, v) for u, v, q in _staircase(grid, cell, corner)]
    canon_points = [_corner_local(xy, cell, corner, 1, grid.d) for xy in grid.xy]
    return tuple(sorted(quadrant_greedy_cover(canon_points, canon_quads)))


def solve_cell_lp(program: lpmod.LinearProgram) -> lpmod.LPSolution:
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
    quadrant-greedy cover ids of each corner."""
    partition = corner_partition(grid, s_rows, cell, solve)
    return partition, [
        solve_one_corner(partition.buckets[c], cell, c) for c in range(N_CORNERS)
    ]


@dataclass(frozen=True)
class CellReport:
    """Cell solve with its diagnostics: the LP value, the corner partition
    and the ids of each corner bucket's cover (all empty on the quiet
    path, where no LP runs)."""

    cover: CoverSolution
    lp_value: Fraction | None
    partition: CornerPartition | None
    bucket_ids: tuple[tuple[int, ...], ...]
    zero_membership: bool


def solve_cell_report(grid: SquareGrid, cell: GridCell) -> CellReport:
    """Membership cover of one cell, given its slice of the grid (its
    points and squares, and all of S')."""
    if not grid.points:
        return CellReport(CoverSolution((), 0), None, None, (), True)
    # a square attached to the cell lies in the 3x3 block of cells around
    # it, so only the S' points in that block can have a nonzero row
    d = grid.d
    left, bottom = (cell.i - 1) * d, (cell.j - 1) * d
    near = [
        (x, y) for x, y in grid.sp_xy
        if left <= x <= left + 3 * d and bottom <= y <= bottom + 3 * d
    ]
    s_rows, sp_rows = square_tables(d, grid.uv, grid.xy, near)
    check_covered(grid.points, s_rows)

    # cell-local S': a monitored point outside every cell square has depth
    # 0 in any cover drawn from them, and its LP row -y <= 0 is redundant
    sp_rows = [row for row in sp_rows if row]

    # zero-membership shortcut: if the squares avoiding every monitored
    # point already cover the cell, take exactly those
    quiet = quiet_cover(grid.points, s_rows, sp_rows, grid.squares)
    if quiet is not None:
        return CellReport(quiet, None, None, (), True)

    sol = solve_cell_lp(lpmod.build_membership_lp(s_rows, sp_rows, len(grid.squares)))
    partition, chosen = round_cell_lp(grid, s_rows, cell, lambda: sol)
    cover = CoverSolution.build([i for ids in chosen for i in ids], sp_rows, grid.squares)
    # the report carries the LP whether or not the corner split read it
    partition = CornerPartition(partition.squares, partition.buckets, sol)
    return CellReport(cover, sol.value, partition, tuple(chosen), False)


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
    max_lp: Fraction | None = None
    for cell in sorted(cells, key=lambda c: (c.i, c.j)):
        report = solve_cell_report(cells[cell], cell)
        ids.update(report.cover.ids)
        if report.lp_value is not None and (max_lp is None or report.lp_value > max_lp):
            max_lp = report.lp_value
    chosen = sorted(ids)
    uv_of = {q.id: uv for q, uv in zip(grid.squares, grid.uv)}
    (sp_rows,) = square_tables(grid.d, [uv_of[i] for i in chosen], grid.sp_xy)
    return SquaresReport(CoverSolution(tuple(chosen), depth(sp_rows, ALL)), max_lp)
