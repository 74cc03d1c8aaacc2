"""Shared solution types and errors for the cover solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import Point


class Uncoverable(Exception):
    """Raised when some point cannot be covered by any available range."""

    def __init__(self, point: Point):
        self.point = point
        super().__init__(f"point {point!r} is not covered by any range")


@dataclass(frozen=True)
class CoverSolution:
    """A chosen set of range ids together with its cached membership."""

    ids: tuple[int, ...]
    memb: int

    @property
    def size(self) -> int:
        return len(self.ids)

    @staticmethod
    def build(ids, sprime: Sequence[Point], ranges: Sequence) -> "CoverSolution":
        chosen = sorted(set(ids))
        return CoverSolution(tuple(chosen), membership(sprime, chosen, ranges))


def membership(sprime: Sequence[Point], chosen_ids, ranges: Sequence) -> int:
    """max over monitored points of how many chosen ranges contain it."""
    chosen = set(chosen_ids)
    by_id = {r.id: r for r in ranges}
    picked = [by_id[i] for i in chosen]
    best = 0
    for q in sprime:
        depth = sum(1 for r in picked if r.contains(q))
        if depth > best:
            best = depth
    return best


def first_uncovered(points: Sequence[Point], ranges: Sequence) -> Point | None:
    """The first point that no range contains, or None if all are covered."""
    for p in points:
        if not any(r.contains(p) for r in ranges):
            return p
    return None
