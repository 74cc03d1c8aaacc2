"""Minimum-ply cover for unit squares via per-cell minimum-size covers.

The grid reduction needs only a constant-factor minimum-size cover per
cell; stitching the per-cell covers together inflates the optimal ply by
a constant.  The per-cell solver reuses the squares machinery: corner
split, then the exact quadrant greedy per bucket.  A point whose squares
all contain one cell corner goes to that corner, so the size LP is built
and solved only in a cell with a point whose squares span two or more
corners, and only such a point reads its weights: it goes to its corner
of largest load, which is at least 1/4 since its coverage row sums to at
least 1.

`solve_mpgsc` puts S and the square corners on one integer grid once
(`geometry.SquareGrid.of`) and hands each cell its slice of it.  `ply`
takes bare squares, since the brute-force ply oracle calls it on subsets,
so it scales their corners itself, once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lp as lpmod
from . import squares as squaresmod
from .covers import CoverSolution, check_covered
from .geometry import (
    GridCell,
    Point,
    SquareGrid,
    UnitSquare,
    grid_partition,
    grid_unit,
    on_grid,
)
# nothing in this module calls quadrant_greedy_cover; the name stays only
# because perfbench/tracing.py patches ply.quadrant_greedy_cover and raises
# KeyError when it is missing
from .squares import quadrant_greedy_cover  # noqa: F401


@dataclass(frozen=True)
class PlyReport:
    """Exact maximum depth and a point attaining it."""

    value: int
    witness: Point | None


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

    The sweep runs on the integer grid of unit D: a square with top-right
    corner (U, V) is the box (U - D, U, V - D, V), and only the witness
    goes back to Fractions.
    """
    corners = [q.tr for q in squares]
    d = grid_unit(corners)
    boxes = sorted([(u - d, u, v - d, v) for u, v in on_grid(corners, d)])
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
                witness = (x, y)
    if witness is not None:
        witness = Point(Fraction(witness[0], d), Fraction(witness[1], d))
    return PlyReport(best, witness)


def min_size_cell_cover_approx(grid: SquareGrid, cell: GridCell) -> CoverSolution:
    """Constant-factor minimum-size cover of one cell, given its slice of
    the grid.

    Round the size LP through the membership solver's corner pipeline:
    bucket squares by corner and points by the one corner holding their
    squares, else by largest fractional load, and run the exact quadrant
    greedy per bucket.  The LP is built and solved only when some point
    reads its weights.  Each bucket's optimum is at most four times its LP
    mass, so the union stays within a constant of the fractional (hence
    integral) minimum.
    """
    if not grid.points:
        return CoverSolution((), 0)
    (s_rows,) = squaresmod.square_tables(grid.d, grid.uv, grid.xy)
    check_covered(grid.points, s_rows)
    _, chosen = squaresmod.round_cell_lp(
        grid, s_rows, cell,
        lambda: squaresmod.solve_cell_lp(lpmod.build_size_lp(s_rows, len(grid.squares))),
    )
    return CoverSolution(tuple(sorted({i for ids in chosen for i in ids})), 0)


def solve_mpgsc(
    points: Sequence[Point], squares: Sequence[UnitSquare]
) -> tuple[CoverSolution, PlyReport]:
    """Cover the points while keeping the maximum square overlap low."""
    cells = grid_partition(SquareGrid.of(points, squares))
    ids: set[int] = set()
    for cell in sorted(cells, key=lambda c: (c.i, c.j)):
        ids.update(min_size_cell_cover_approx(cells[cell], cell).ids)
    chosen = sorted(ids)
    by_id = {q.id: q for q in squares}
    return CoverSolution(tuple(chosen), 0), ply([by_id[i] for i in chosen])
