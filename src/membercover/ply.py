"""Minimum-ply cover for unit squares via per-cell minimum-size covers.

The grid reduction needs only a constant-factor minimum-size cover per
cell; stitching the per-cell covers together inflates the optimal ply by
a constant.  The per-cell solver reuses the squares machinery: size LP,
corner split (the 1/4 load bound holds verbatim for coverage rows), and
the exact quadrant greedy per bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import lp as lpmod
from . import squares as squaresmod
from .covers import CoverSolution, Uncoverable, first_uncovered
from .geometry import (
    GridCell,
    Point,
    UnitSquare,
    grid_partition,
    square_extent,
)
from .squares import N_CORNERS
# nothing in this module calls quadrant_greedy_cover; the name stays only
# because perfbench/tracing.py patches ply.quadrant_greedy_cover and raises
# KeyError when it is missing
from .squares import quadrant_greedy_cover  # noqa: F401


@dataclass(frozen=True)
class PlyReport:
    """Exact maximum depth, a point attaining it, and per-cell cover sizes."""

    value: int
    witness: Point | None
    per_cell_sizes: dict = field(default_factory=dict)


def ply(squares: Sequence[UnitSquare]) -> PlyReport:
    """Exact maximum depth of a set of closed unit squares, by a sweep.

    The deepest points form a union of closed boxes, each the intersection
    of some squares, so the smallest x among them is some square's left
    edge and, at that x, the smallest y is some bottom edge.  The sweep
    visits the distinct left edges in ascending order; at each it runs a
    1-D sweep over the y events of the squares spanning it, opens before
    closes at equal y, and keeps a point only when it is strictly deeper
    than the best so far.  So the witness is the lexicographically first
    (x, y) of maximum depth.  O(m^2 log m) for m squares.
    """
    boxes = sorted((q.tr.x - 1, q.tr.x, q.tr.y - 1, q.tr.y) for q in squares)
    best = 0
    witness = None
    for x in sorted({box[0] for box in boxes}):
        events = []
        for left, right, bottom, top in boxes:
            if left > x:
                break
            if x <= right:
                events.append((bottom, 0))
                events.append((top, 1))
        events.sort()
        depth = 0
        for y, closes in events:
            if closes:
                depth -= 1
                continue
            depth += 1
            if depth > best:
                best = depth
                witness = Point(x, y)
    return PlyReport(best, witness)


def min_size_cell_cover_approx(
    points: Sequence[Point],
    squares: Sequence[UnitSquare],
    cell: GridCell,
) -> CoverSolution:
    """Constant-factor minimum-size cover of one cell.

    Solve the size LP, then round it through the membership solver's corner
    pipeline: bucket squares by corner and points by largest fractional
    load, and run the exact quadrant greedy per bucket.  Each bucket's
    optimum is at most four times its LP mass, so the union stays within a
    constant of the fractional (hence integral) minimum.
    """
    if not points:
        return CoverSolution((), 0)
    missing = first_uncovered(points, squares)
    if missing is not None:
        raise Uncoverable(missing)
    program = lpmod.build_size_lp(points, squares)
    sol = lpmod.solve_lp(program)
    if sol.status != lpmod.OPTIMAL:
        raise RuntimeError("coverage was prechecked")
    # looked up on the module at call time, so patches of squares.* see these calls
    partition = squaresmod.corner_partition(points, squares, cell, sol)
    ids: set[int] = set()
    for corner in range(N_CORNERS):
        bucket = squaresmod.solve_one_corner(
            partition.point_buckets[corner],
            (),
            partition.square_buckets[corner],
            cell,
            corner,
        )
        ids.update(bucket.ids)
    return CoverSolution(tuple(sorted(ids)), 0)


def solve_mpgsc(
    points: Sequence[Point], squares: Sequence[UnitSquare]
) -> tuple[CoverSolution, PlyReport]:
    """Cover the points while keeping the maximum square overlap low."""
    cells = grid_partition(points, squares, square_extent)
    ids: set[int] = set()
    per_cell_sizes = {}
    for cell in sorted(cells, key=lambda c: (c.i, c.j)):
        cell_points, cell_squares = cells[cell]
        cover = min_size_cell_cover_approx(cell_points, cell_squares, cell)
        per_cell_sizes[cell] = cover.size
        ids.update(cover.ids)
    chosen = sorted(ids)
    by_id = {q.id: q for q in squares}
    report = ply([by_id[i] for i in chosen])
    return (
        CoverSolution(tuple(chosen), 0),
        PlyReport(report.value, report.witness, per_cell_sizes),
    )
