"""Shared solution types and errors, and the bit arithmetic on point-to-range
incidence tables (`oracle.incidence`): coverage, membership and quiet sets
are computed on the rows under a `chosen` bitmask of positions.  The
solvers build their tables with their own integer kernels
(`squares.square_tables`, and `_sign_tables` in `halfplanes`, one sign pass
per halfplane that fills its column and its bit in every row at once)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import Point

ALL = -1  # the `chosen` bitmask that selects every range


class Uncoverable(Exception):
    """Raised when some point cannot be covered by any available range."""

    def __init__(self, point: Point):
        self.point = point
        super().__init__(f"point {point!r} is not covered by any range")


def check_covered(points: Sequence[Point], rows: Sequence[int]) -> None:
    """Raise Uncoverable naming the first point whose incidence row is empty."""
    missing = first_uncovered(points, rows, ALL)
    if missing is not None:
        raise Uncoverable(missing)


def mask_of(ids, ranges: Sequence) -> int:
    """The bitmask of the positions in `ranges` of the ranges with these ids."""
    wanted = set(ids)
    return sum([1 << j for j, r in enumerate(ranges) if r.id in wanted])


def first_uncovered(points: Sequence[Point], rows: Sequence[int], chosen: int) -> Point | None:
    """The first point that no range of `chosen` contains, or None."""
    for p, row in zip(points, rows):
        if not row & chosen:
            return p
    return None


def depth(rows: Sequence[int], chosen: int) -> int:
    """The most ranges of `chosen` that contain one point; 0 without points."""
    return max([(row & chosen).bit_count() for row in rows], default=0)


@dataclass(frozen=True)
class CoverSolution:
    """A chosen set of range ids together with its cached membership."""

    ids: tuple[int, ...]
    memb: int

    @property
    def size(self) -> int:
        return len(self.ids)

    @staticmethod
    def build(ids, sp_rows: Sequence[int], ranges: Sequence) -> "CoverSolution":
        """The cover by the ranges with these ids; `sp_rows` is the
        incidence table of the monitored points over `ranges`."""
        chosen = sorted(set(ids))
        return CoverSolution(tuple(chosen), depth(sp_rows, mask_of(chosen, ranges)))


def quiet_cover(
    points: Sequence[Point], s_rows: Sequence[int], sp_rows: Sequence[int], ranges: Sequence
) -> CoverSolution | None:
    """The ranges that contain no monitored point, if they cover `points`;
    the tables are over `ranges`, or over a sequence that starts with them."""
    quiet = (1 << len(ranges)) - 1
    for row in sp_rows:
        quiet &= ~row
    if first_uncovered(points, s_rows, quiet) is not None:
        return None
    return CoverSolution(
        tuple(sorted([r.id for j, r in enumerate(ranges) if quiet >> j & 1])), 0
    )

