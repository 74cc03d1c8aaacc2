"""Constant-factor membership cover for unit squares.

Pipeline: partition the plane into unit grid cells, and inside each cell
relax the instance to an exact rational LP, split points and squares by
the cell corner that carries the largest fractional load, reduce each
corner bucket to a staircase of dominance-maximal squares, and cover it
with an exactly optimal quadrant greedy.  A cover found this way exceeds
the LP load by at most an additive 2 per bucket, which yields the
16*y + 8 per-cell bound and a constant factor overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lp as lpmod
from .covers import (
    CoverSolution,
    Uncoverable,
    covering_incidence,
    incidence,
    membership,
    quiet_cover,
)
from .geometry import (
    GridCell,
    Point,
    UnitSquare,
    cell_of_point,
    grid_partition,
    square_extent,
)


class SquareWithoutCorner(ValueError):
    """A square intersects the cell but contains none of its corners."""


N_CORNERS = 4  # priority order: bottom-left, bottom-right, top-left, top-right


def canonical_point(p: Point, cell: GridCell, corner: int) -> tuple[Fraction, Fraction]:
    """Map a point into corner-local coordinates with the corner at the origin.

    After the reflection the cell is [0,1]^2 and a square containing the
    corner acts as the quadrant x <= u, y <= v for its canonical (u, v).
    """
    i, j = cell.i, cell.j
    if corner == 0:
        return (p.x - i, p.y - j)
    if corner == 1:
        return (i + 1 - p.x, p.y - j)
    if corner == 2:
        return (p.x - i, j + 1 - p.y)
    return (i + 1 - p.x, j + 1 - p.y)


def canonical_square(q: UnitSquare, cell: GridCell, corner: int) -> tuple[Fraction, Fraction]:
    """Clipped top-right corner of the square in corner-local coordinates."""
    i, j = cell.i, cell.j
    if corner == 0:
        return (q.tr.x - i, q.tr.y - j)
    if corner == 1:
        return (i + 2 - q.tr.x, q.tr.y - j)
    if corner == 2:
        return (q.tr.x - i, j + 2 - q.tr.y)
    return (i + 2 - q.tr.x, j + 2 - q.tr.y)


@dataclass(frozen=True)
class CornerPartition:
    """LP-driven split of a cell instance into four one-corner buckets.

    `squares` keeps the instance order, which is also the LP variable
    order of `lp_solution`.
    """

    cell: GridCell
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

    `s_rows` is the incidence table of `points` over `squares`.
    """
    corners = cell.corners()
    square_buckets: list[list[UnitSquare]] = [[] for _ in range(N_CORNERS)]
    bucket_of: list[int] = []
    for q in squares:
        for idx, c in enumerate(corners):
            if q.contains(c):
                square_buckets[idx].append(q)
                bucket_of.append(idx)
                break
        else:
            raise SquareWithoutCorner(
                f"square {q.id} meets cell ({cell.i},{cell.j}) but no corner"
            )
    point_buckets: list[list[Point]] = [[] for _ in range(N_CORNERS)]
    for p, row in zip(points, s_rows):
        delta = [Fraction(0)] * N_CORNERS
        for pos, corner in enumerate(bucket_of):
            if row >> pos & 1:
                delta[corner] += lpsol.assignment[pos]
        winner = max(range(N_CORNERS), key=lambda idx: (delta[idx], -idx))
        point_buckets[winner].append(p)
    return CornerPartition(
        cell=cell,
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
    decorated = [
        (canonical_square(q, cell, corner), q) for q in squares
    ]
    decorated.sort(key=lambda t: (-t[0][0], -t[0][1], t[1].id))
    kept: list[UnitSquare] = []
    best_v: Fraction | None = None
    for (u, v), q in decorated:
        if best_v is None or v > best_v:
            kept.append(q)
            best_v = v
    kept.sort(key=lambda q: q.id)
    return kept


def quadrant_greedy_cover(
    points: Sequence[tuple[Fraction, Fraction]],
    quads: Sequence[tuple[int, Fraction, Fraction]],
) -> list[int]:
    """Minimum-size cover of points by quadrants (x <= u, y <= v).

    Repeatedly take the uncovered point with the largest x (ties: largest
    y) and cover it with the quadrant of largest v among those containing
    it (ties: largest u, then lowest id).  For staircase instances this
    greedy is exactly optimal.
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
    quadrant greedy.

    Restricting to dominance-maximal squares keeps the cover a staircase,
    which bounds its membership by any fractional cover's plus two.
    """
    if not points:
        return ()
    maxi = maximal_squares(squares, cell, corner)
    canon_points = [canonical_point(p, cell, corner) for p in points]
    canon_quads = [
        (q.id,) + canonical_square(q, cell, corner) for q in maxi
    ]
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
    """Cell solve with its diagnostics, for tests and the bench harness."""

    cover: CoverSolution
    lp_value: Fraction | None
    partition: CornerPartition | None
    bucket_covers: tuple[CoverSolution, ...]
    zero_membership: bool


def solve_cell_report(
    points: Sequence[Point],
    sprime: Sequence[Point],
    squares: Sequence[UnitSquare],
    cell: GridCell | None = None,
) -> CellReport:
    if not points:
        return CellReport(CoverSolution((), 0), None, None, (), True)
    if cell is None:
        cell = cell_of_point(points[0])
    s_rows = covering_incidence(points, squares)

    # cell-local S': a monitored point outside every cell square has depth
    # 0 in any cover drawn from them, and its LP row -y <= 0 is redundant
    sp_rows = [row for row in incidence(sprime, squares) if row]

    # zero-membership shortcut: if the squares avoiding every monitored
    # point already cover the cell, take exactly those
    quiet = quiet_cover(points, s_rows, sp_rows, squares)
    if quiet is not None:
        return CellReport(quiet, None, None, (), True)

    program = lpmod.build_membership_lp(s_rows, sp_rows, len(squares))
    partition, chosen = round_cell_lp(points, s_rows, squares, cell, program)
    bucket_covers = tuple([CoverSolution.build(ids, sp_rows, squares) for ids in chosen])
    cover = CoverSolution.build([i for ids in chosen for i in ids], sp_rows, squares)
    return CellReport(cover, partition.lp_solution.value, partition, bucket_covers, False)


def solve_cell(
    points: Sequence[Point],
    sprime: Sequence[Point],
    squares: Sequence[UnitSquare],
    cell: GridCell | None = None,
) -> CoverSolution:
    return solve_cell_report(points, sprime, squares, cell).cover


@dataclass(frozen=True)
class SquaresReport:
    cover: CoverSolution
    cell_reports: dict
    max_lp_value: Fraction | None


def solve_mmgsc_squares_report(
    points: Sequence[Point],
    sprime: Sequence[Point],
    squares: Sequence[UnitSquare],
) -> SquaresReport:
    cells = grid_partition(points, squares, square_extent)
    ids: set[int] = set()
    reports = {}
    max_lp: Fraction | None = None
    for cell in sorted(cells, key=lambda c: (c.i, c.j)):
        cell_points, cell_squares = cells[cell]
        report = solve_cell_report(cell_points, sprime, cell_squares, cell)
        reports[cell] = report
        ids.update(report.cover.ids)
        if report.lp_value is not None and (max_lp is None or report.lp_value > max_lp):
            max_lp = report.lp_value
    cover = CoverSolution(tuple(sorted(ids)), membership(sprime, ids, squares))
    return SquaresReport(cover, reports, max_lp)


def solve_mmgsc_squares(
    points: Sequence[Point],
    sprime: Sequence[Point],
    squares: Sequence[UnitSquare],
) -> CoverSolution:
    """Grid decomposition followed by per-cell solves; union of the covers."""
    return solve_mmgsc_squares_report(points, sprime, squares).cover
