"""Constant-factor membership cover for unit squares.

Pipeline: partition the plane into unit grid cells, and inside each cell
relax the instance to an exact rational LP, split points and squares by
the cell corner that carries the largest fractional load, reduce each
corner bucket to a staircase of dominance-maximal squares, and cover it
with an exactly optimal quadrant greedy.  A cover found this way exceeds
the LP load by at most an additive 2 per bucket, which yields the
16*y + 8 per-cell bound and a constant factor overall.

Every square predicate is decided on Python ints.  Each call moves its
points and square corners onto one integer grid (`geometry.grid_unit`,
`geometry.on_grid`): a point becomes (X, Y), a square its top-right
corner (U, V), and the square contains the point iff U - D <= X <= U and
V - D <= Y <= V.  `square_tables` builds every S and S' table of the
squares solvers with that one test.  Corner-local coordinates are one
integer subtraction, and the corner split reads the LP weights over their
common denominator.  `Fraction` remains only at the boundary: the input,
the LP solution and the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lp as lpmod
from .covers import (
    ALL,
    CoverSolution,
    Uncoverable,
    check_covered,
    depth,
    quiet_cover,
)
from .geometry import (
    GridCell,
    Point,
    UnitSquare,
    grid_partition,
    grid_unit,
    on_grid,
)


class SquareWithoutCorner(ValueError):
    """A square intersects the cell but contains none of its corners."""


N_CORNERS = 4  # priority order: bottom-left, bottom-right, top-left, top-right


def square_tables(
    squares: Sequence[UnitSquare], *point_lists: Sequence[Point]
) -> list[list[int]]:
    """One incidence table per point list over `squares`: row i is the
    bitmask of the positions of the squares that contain the list's i-th
    point, as `covers.incidence` would give, decided on one integer grid."""
    corners = [q.tr for q in squares]
    d = grid_unit(corners + [p for pts in point_lists for p in pts])
    boxes = [(1 << pos, u - d, u, v - d, v) for pos, (u, v) in enumerate(on_grid(corners, d))]
    tables = []
    for pts in point_lists:
        rows = []
        for x, y in on_grid(pts, d):
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
    squares: Sequence[UnitSquare], cell: GridCell, corner: int, d: int
) -> list[tuple[int, int, UnitSquare]]:
    """(u, v, square) of the dominance-maximal squares, by id, with (u, v)
    the square's canonical corner on the grid of unit d.

    After the reflection the cell is [0, D]^2 and a square containing the
    corner acts as the quadrant x <= u, y <= v, so Q is dominated by Q' iff
    u <= u' and v <= v'.  Exact duplicates keep the lowest id.
    """
    decorated = [
        _corner_local(uv, cell, corner, 2, d) + (q,)
        for uv, q in zip(on_grid([q.tr for q in squares], d), squares)
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
    """LP-driven split of a cell instance into four one-corner buckets.

    `squares` keeps the instance order, which is also the LP variable
    order of `lp_solution`.
    """

    squares: tuple[UnitSquare, ...]
    point_buckets: tuple[tuple[Point, ...], ...]
    square_buckets: tuple[tuple[UnitSquare, ...], ...]
    lp_solution: lpmod.LPSolution


def corner_partition(
    points: Sequence[Point],
    s_rows: Sequence[int],
    squares: Sequence[UnitSquare],
    cell: GridCell,
    lpsol: lpmod.LPSolution,
) -> CornerPartition:
    """Assign each square to one corner it contains and each point to the
    corner bucket with the largest fractional load (ties to the lowest
    corner index).  The winning load is always at least 1/4.

    `s_rows` is the incidence table of `points` over `squares`.  A square
    with top-right corner (u, v) contains the cell corner (cx, cy) iff
    ceil(u) - 1 <= cx <= floor(u) and ceil(v) - 1 <= cy <= floor(v).
    Loads are compared as integers over the common denominator of the LP
    weights.
    """
    square_buckets: list[list[UnitSquare]] = [[] for _ in range(N_CORNERS)]
    bucket_of: list[int] = []
    for q in squares:
        u, v = q.tr.x, q.tr.y
        un, ud, vn, vd = u.numerator, u.denominator, v.numerator, v.denominator
        # floor(n/d) is n // d and ceil(n/d) is -(-n // d)
        u_lo, u_hi = -(-un // ud) - 1, un // ud
        v_lo, v_hi = -(-vn // vd) - 1, vn // vd
        for idx in range(N_CORNERS):
            cx, cy = cell.i + (idx & 1), cell.j + (idx >> 1)
            if u_lo <= cx <= u_hi and v_lo <= cy <= v_hi:
                square_buckets[idx].append(q)
                bucket_of.append(idx)
                break
        else:
            raise SquareWithoutCorner(
                f"square {q.id} meets cell ({cell.i},{cell.j}) but no corner"
            )
    weights = lpsol.assignment[:len(squares)]
    scale = math.lcm(*[w.denominator for w in weights])
    weights = [w.numerator * (scale // w.denominator) for w in weights]
    point_buckets: list[list[Point]] = [[] for _ in range(N_CORNERS)]
    for p, row in zip(points, s_rows):
        delta = [0] * N_CORNERS
        for pos, corner in enumerate(bucket_of):
            if row >> pos & 1:
                delta[corner] += weights[pos]
        winner = max(range(N_CORNERS), key=lambda idx: (delta[idx], -idx))
        point_buckets[winner].append(p)
    return CornerPartition(
        squares=tuple(squares),
        point_buckets=tuple([tuple(b) for b in point_buckets]),
        square_buckets=tuple([tuple(b) for b in square_buckets]),
        lp_solution=lpsol,
    )


def maximal_squares(
    squares: Sequence[UnitSquare], cell: GridCell, corner: int
) -> list[UnitSquare]:
    """Drop squares whose cell-clipped region another square swallows.

    In canonical coordinates the clipped regions are quadrants, so Q is
    dominated by Q' iff u <= u' and v <= v'.  Exact duplicates keep the
    lowest id.
    """
    d = grid_unit([q.tr for q in squares])
    return [q for _u, _v, q in _staircase(squares, cell, corner, d)]


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


def solve_one_corner(
    points: Sequence[Point],
    squares: Sequence[UnitSquare],
    cell: GridCell,
    corner: int,
) -> tuple[int, ...]:
    """Ids of a minimum-size cover of a one-corner bucket, sorted, via the
    quadrant greedy on canonical grid coordinates.

    Restricting to dominance-maximal squares keeps the cover a staircase,
    which bounds its membership by any fractional cover's plus two.
    """
    if not points:
        return ()
    d = grid_unit([q.tr for q in squares] + list(points))
    canon_quads = [(q.id, u, v) for u, v, q in _staircase(squares, cell, corner, d)]
    canon_points = [_corner_local(xy, cell, corner, 1, d) for xy in on_grid(points, d)]
    return tuple(sorted(quadrant_greedy_cover(canon_points, canon_quads)))


def round_cell_lp(
    points: Sequence[Point],
    s_rows: Sequence[int],
    squares: Sequence[UnitSquare],
    cell: GridCell,
    program: lpmod.LinearProgram,
) -> tuple[CornerPartition, list[tuple[int, ...]]]:
    """Solve a cell's cover program (coverage prechecked) and round it: the
    corner partition, and the quadrant-greedy cover ids of each corner."""
    sol = lpmod.solve_lp(program)
    if sol.status != lpmod.OPTIMAL:
        raise RuntimeError("coverage was prechecked")
    partition = corner_partition(points, s_rows, squares, cell, sol)
    return partition, [
        solve_one_corner(partition.point_buckets[c], partition.square_buckets[c], cell, c)
        for c in range(N_CORNERS)
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


def solve_cell_report(
    points: Sequence[Point],
    sprime: Sequence[Point],
    squares: Sequence[UnitSquare],
    cell: GridCell,
) -> CellReport:
    if not points:
        return CellReport(CoverSolution((), 0), None, None, (), True)
    s_rows, sp_rows = square_tables(squares, points, sprime)
    check_covered(points, s_rows)

    # cell-local S': a monitored point outside every cell square has depth
    # 0 in any cover drawn from them, and its LP row -y <= 0 is redundant
    sp_rows = [row for row in sp_rows if row]

    # zero-membership shortcut: if the squares avoiding every monitored
    # point already cover the cell, take exactly those
    quiet = quiet_cover(points, s_rows, sp_rows, squares)
    if quiet is not None:
        return CellReport(quiet, None, None, (), True)

    program = lpmod.build_membership_lp(s_rows, sp_rows, len(squares))
    partition, chosen = round_cell_lp(points, s_rows, squares, cell, program)
    cover = CoverSolution.build([i for ids in chosen for i in ids], sp_rows, squares)
    return CellReport(cover, partition.lp_solution.value, partition, tuple(chosen), False)


def solve_cell(
    points: Sequence[Point],
    sprime: Sequence[Point],
    squares: Sequence[UnitSquare],
    cell: GridCell,
) -> CoverSolution:
    return solve_cell_report(points, sprime, squares, cell).cover


@dataclass(frozen=True)
class SquaresReport:
    cover: CoverSolution
    max_lp_value: Fraction | None


def solve_mmgsc_squares_report(
    points: Sequence[Point],
    sprime: Sequence[Point],
    squares: Sequence[UnitSquare],
) -> SquaresReport:
    cells = grid_partition(points, squares)
    ids: set[int] = set()
    max_lp: Fraction | None = None
    for cell in sorted(cells, key=lambda c: (c.i, c.j)):
        cell_points, cell_squares = cells[cell]
        report = solve_cell_report(cell_points, sprime, cell_squares, cell)
        ids.update(report.cover.ids)
        if report.lp_value is not None and (max_lp is None or report.lp_value > max_lp):
            max_lp = report.lp_value
    chosen = sorted(ids)
    by_id = {q.id: q for q in squares}
    (sp_rows,) = square_tables([by_id[i] for i in chosen], sprime)
    cover = CoverSolution(tuple(chosen), depth(sp_rows, ALL))
    return SquaresReport(cover, max_lp)


def solve_mmgsc_squares(
    points: Sequence[Point],
    sprime: Sequence[Point],
    squares: Sequence[UnitSquare],
) -> CoverSolution:
    """Grid decomposition followed by per-cell solves; union of the covers."""
    return solve_mmgsc_squares_report(points, sprime, squares).cover
