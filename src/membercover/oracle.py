"""Brute-force exact solvers used as ground truth in tests and benchmarks.

These deliberately share no machinery with the approximation algorithms:
all three optimizers enumerate candidate subsets directly (by size, then
lexicographically by range id) and evaluate coverage, membership and ply
from first principles.  Containment is precomputed into bitmasks so the
enumeration itself runs on machine integers while staying exact.
`verify_cover` and `memb_eval` stay apart from `covers.first_uncovered`
and `covers.depth` on purpose: they are the independent checker that the
benchmark and the tests hold the solvers' covers against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .covers import Uncoverable
from .geometry import Point, UnitSquare
from .ply import ply as ply_of


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    """Hard limits: the oracles refuse oversized instances outright."""

    max_ranges: int = 16
    time_cap: float | None = 120.0


def _check_budget(ranges: Sequence, budget: OracleBudget) -> None:
    if len(ranges) > budget.max_ranges:
        raise BudgetExceeded(
            f"{len(ranges)} ranges exceed the enumeration budget of {budget.max_ranges}"
        )


def _subsets_by_size(n: int):
    """All subsets of range positions as bitmasks, size ascending then lex.

    Lexicographic on the sorted id tuple: positions are id-ordered, and for
    a fixed size the masks are emitted in increasing tuple order.
    """
    from itertools import combinations

    for size in range(n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for pos in combo:
                mask |= 1 << pos
            yield mask, combo


def verify_cover(points: Sequence[Point], chosen_ids, ranges: Sequence) -> bool:
    """True iff every point lies in some chosen range (exact containment)."""
    chosen = set(chosen_ids)
    picked = [r for r in ranges if r.id in chosen]
    return all(any(r.contains(p) for r in picked) for p in points)


def memb_eval(sprime: Sequence[Point], chosen_ids, ranges: Sequence) -> int:
    chosen = set(chosen_ids)
    picked = [r for r in ranges if r.id in chosen]
    best = 0
    for q in sprime:
        best = max(best, sum(1 for r in picked if r.contains(q)))
    return best


def _coverage_masks(points: Sequence[Point], ordered: Sequence) -> list[int]:
    """For each point, the bitmask of range positions containing it."""
    masks = []
    for p in points:
        m = 0
        for pos, r in enumerate(ordered):
            if r.contains(p):
                m |= 1 << pos
        masks.append(m)
    return masks


def _deadline(budget: OracleBudget):
    return None if budget.time_cap is None else time.monotonic() + budget.time_cap


def _tick(deadline, counter: int) -> None:
    if deadline is not None and counter % 1024 == 0 and time.monotonic() > deadline:
        raise BudgetExceeded("time cap hit during enumeration")


def exact_mmgsc_bruteforce(
    points: Sequence[Point],
    sprime: Sequence[Point],
    ranges: Sequence,
    budget: OracleBudget = OracleBudget(),
) -> tuple[int, tuple[int, ...]]:
    """Minimum membership over all covering subsets, with witness ids."""
    _check_budget(ranges, budget)
    ordered = sorted(ranges, key=lambda r: r.id)
    cover_masks = _coverage_masks(points, ordered)
    for p, m in zip(points, cover_masks):
        if m == 0:
            raise Uncoverable(p)
    sprime_masks = _coverage_masks(sprime, ordered)
    deadline = _deadline(budget)

    best_val = None
    best_ids: tuple[int, ...] = ()
    for count, (mask, combo) in enumerate(_subsets_by_size(len(ordered))):
        _tick(deadline, count)
        if any(mask & pm == 0 for pm in cover_masks):
            continue
        memb = max((bin(mask & qm).count("1") for qm in sprime_masks), default=0)
        if best_val is None or memb < best_val:
            best_val = memb
            best_ids = tuple([ordered[pos].id for pos in combo])
            if best_val == 0:
                break
    if best_val is None:
        raise RuntimeError("full range set failed after coverage precheck")
    return best_val, best_ids


def exact_minsize_bruteforce(
    points: Sequence[Point],
    ranges: Sequence,
    budget: OracleBudget = OracleBudget(),
) -> tuple[int, tuple[int, ...]]:
    """Minimum-cardinality cover by ascending-size enumeration."""
    _check_budget(ranges, budget)
    ordered = sorted(ranges, key=lambda r: r.id)
    cover_masks = _coverage_masks(points, ordered)
    for p, m in zip(points, cover_masks):
        if m == 0:
            raise Uncoverable(p)
    deadline = _deadline(budget)
    for count, (mask, combo) in enumerate(_subsets_by_size(len(ordered))):
        _tick(deadline, count)
        if all(mask & pm for pm in cover_masks):
            return len(combo), tuple([ordered[pos].id for pos in combo])
    raise AssertionError("full range set failed after coverage precheck")


def exact_mpgsc_bruteforce(
    points: Sequence[Point],
    squares: Sequence[UnitSquare],
    budget: OracleBudget = OracleBudget(),
) -> tuple[int, tuple[int, ...]]:
    """Minimum ply over all covering subsets, with witness ids."""
    _check_budget(squares, budget)
    ordered = sorted(squares, key=lambda r: r.id)
    cover_masks = _coverage_masks(points, ordered)
    for p, m in zip(points, cover_masks):
        if m == 0:
            raise Uncoverable(p)
    deadline = _deadline(budget)
    best_val = None
    best_ids: tuple[int, ...] = ()
    for count, (mask, combo) in enumerate(_subsets_by_size(len(ordered))):
        _tick(deadline, count)
        if any(mask & pm == 0 for pm in cover_masks):
            continue
        value = ply_of([ordered[pos] for pos in combo]).value
        if best_val is None or value < best_val:
            best_val = value
            best_ids = tuple([ordered[pos].id for pos in combo])
            if best_val <= (1 if points else 0):
                break
    if best_val is None:
        raise RuntimeError("full range set failed after coverage precheck")
    return best_val, best_ids
