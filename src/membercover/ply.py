"""Minimum-ply cover for unit squares via per-cell minimum-size covers.

The grid reduction needs only a constant-factor minimum-size cover per
cell; stitching the per-cell covers together inflates the optimal ply by
a constant.  The per-cell solver reuses the squares machinery: size LP,
corner split (the 1/4 load bound holds verbatim for coverage rows), and
the exact quadrant greedy per bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import lp as lpmod
from .covers import CoverSolution, Uncoverable
from .geometry import (
    GridCell,
    Point,
    UnitSquare,
    grid_partition,
    square_extent,
)
from .squares import (
    N_CORNERS,
    canonical_point,
    canonical_square,
    maximal_squares,
    quadrant_greedy_cover,
)


@dataclass(frozen=True)
class PlyReport:
    """Exact maximum depth, a point attaining it, and per-cell cover sizes."""

    value: int
    witness: Point | None
    per_cell_sizes: dict = field(default_factory=dict)


def ply(squares: Sequence[UnitSquare]) -> PlyReport:
    """Exact maximum depth of a set of closed unit squares.

    For closed axis-parallel boxes the maximum is attained at a point
    whose x is some square's left/right edge and whose y is some bottom/top
    edge, so scanning that coordinate grid is exhaustive.
    """
    if not squares:
        return PlyReport(0, None)
    xs = sorted({q.tr.x - 1 for q in squares} | {q.tr.x for q in squares})
    ys = sorted({q.tr.y - 1 for q in squares} | {q.tr.y for q in squares})
    best = 0
    witness = None
    for x in xs:
        hit_x = [q for q in squares if q.tr.x - 1 <= x <= q.tr.x]
        for y in ys:
            depth = sum(1 for q in hit_x if q.tr.y - 1 <= y <= q.tr.y)
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

    Solve the size LP, bucket squares by corner and points by largest
    fractional load, then run the exact quadrant greedy per bucket.  Each
    bucket's optimum is at most four times its LP mass, so the union stays
    within a constant of the fractional (hence integral) minimum.
    """
    if not points:
        return CoverSolution((), 0)
    for p in points:
        if not any(q.contains(p) for q in squares):
            raise Uncoverable(p)
    program = lpmod.build_size_lp(points, squares)
    sol = lpmod.solve_lp(program)
    if sol.status != lpmod.OPTIMAL:
        raise RuntimeError("coverage was prechecked")

    corners = cell.corners()
    bucket_of: dict[int, int] = {}
    square_buckets: list[list[UnitSquare]] = [[] for _ in range(N_CORNERS)]
    for pos, q in enumerate(squares):
        for idx, c in enumerate(corners):
            if q.contains(c):
                square_buckets[idx].append(q)
                bucket_of[pos] = idx
                break
        else:
            raise ValueError(f"square {q.id} intersects no corner of the cell")
    point_buckets: list[list[Point]] = [[] for _ in range(N_CORNERS)]
    for p in points:
        delta = [Fraction(0)] * N_CORNERS
        for pos, q in enumerate(squares):
            if q.contains(p):
                delta[bucket_of[pos]] += sol.assignment[pos]
        winner = max(range(N_CORNERS), key=lambda idx: (delta[idx], -idx))
        point_buckets[winner].append(p)

    ids: set[int] = set()
    for corner in range(N_CORNERS):
        bucket_points = point_buckets[corner]
        if not bucket_points:
            continue
        maxi = maximal_squares(square_buckets[corner], cell, corner)
        chosen = quadrant_greedy_cover(
            [canonical_point(p, cell, corner) for p in bucket_points],
            [(q.id,) + canonical_square(q, cell, corner) for q in maxi],
        )
        ids.update(chosen)
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
