"""Brute-force exact solvers used as ground truth in tests and benchmarks.

These deliberately share no machinery with the approximation algorithms,
with one exception: `exact_mpgsc_bruteforce` scores subsets with the
solvers' `ply.ply`, which `tests/test_ply.py` checks against a sampling
oracle and an edge-grid scan.  All three optimizers are one subset search,
by size, then lexicographically by range id, over the point-to-range
table `incidence`, the only `Fraction` containment table of the library.
Containment is precomputed into bitmasks so the enumeration itself runs
on machine integers while staying exact.  `verify_cover` and `memb_eval`
stay apart from `covers.first_uncovered` and `covers.depth` on purpose:
they are the independent checker that the benchmark and the tests hold
the solvers' covers against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

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


def incidence(points: Sequence[Point], ranges: Sequence) -> list[int]:
    """Row i is the bitmask of the positions in `ranges` of the ranges that
    contain points[i]: one `range.contains(point)` call per pair.  The
    solvers build the same tables with their own integer kernels
    (`squares.square_tables`, and `_sign_tables` in `halfplanes`, one sign
    pass per halfplane that fills its column and its bit in every row at
    once), and the tests compare those against it."""
    rows = []
    for p in points:
        row = 0
        for j, r in enumerate(ranges):
            if r.contains(p):
                row |= 1 << j
        rows.append(row)
    return rows


def _subsets_by_size(n: int):
    """All subsets of range positions as bitmasks, size ascending then lex.

    Lexicographic on the sorted id tuple: positions are id-ordered, and for
    a fixed size the masks are emitted in increasing tuple order.
    """
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for pos in combo:
                mask |= 1 << pos
            yield mask, combo


def _least_cover(
    points: Sequence[Point],
    ranges: Sequence,
    budget: OracleBudget,
    scorer: Callable[[list], Callable[[int, tuple[int, ...]], int]],
    floor: int,
) -> tuple[int, tuple[int, ...]]:
    """(value, ids) of the covering subset of least value, the first in
    (size, ids) order among ties; the search stops at the first subset whose
    value is at most `floor`.  `scorer(ordered)`, given the id-sorted
    ranges, returns the value of a subset from its position mask and
    position tuple."""
    if len(ranges) > budget.max_ranges:
        raise BudgetExceeded(
            f"{len(ranges)} ranges exceed the enumeration budget of {budget.max_ranges}"
        )
    ordered = sorted(ranges, key=lambda r: r.id)
    rows = incidence(points, ordered)
    for p, row in zip(points, rows):
        if row == 0:
            raise Uncoverable(p)
    value_of = scorer(ordered)
    deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap
    best = None
    for count, (mask, combo) in enumerate(_subsets_by_size(len(ordered))):
        if deadline is not None and count % 1024 == 0 and time.monotonic() > deadline:
            raise BudgetExceeded("time cap hit during enumeration")
        if any(mask & row == 0 for row in rows):
            continue
        value = value_of(mask, combo)
        if best is None or value < best[0]:
            best = (value, tuple([ordered[pos].id for pos in combo]))
            if value <= floor:
                break
    if best is None:
        raise RuntimeError("full range set failed after coverage precheck")
    return best


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


def exact_mmgsc_bruteforce(
    points: Sequence[Point],
    sprime: Sequence[Point],
    ranges: Sequence,
    budget: OracleBudget = OracleBudget(),
) -> tuple[int, tuple[int, ...]]:
    """Minimum membership over all covering subsets, with witness ids."""

    def scorer(ordered):
        sp_rows = incidence(sprime, ordered)
        return lambda mask, _combo: max([(mask & row).bit_count() for row in sp_rows], default=0)

    return _least_cover(points, ranges, budget, scorer, 0)


def exact_minsize_bruteforce(
    points: Sequence[Point],
    ranges: Sequence,
    budget: OracleBudget = OracleBudget(),
) -> tuple[int, tuple[int, ...]]:
    """Minimum-cardinality cover: the first cover by ascending size."""
    _zero, ids = _least_cover(points, ranges, budget, lambda _ordered: lambda _m, _c: 0, 0)
    return len(ids), ids


def exact_mpgsc_bruteforce(
    points: Sequence[Point],
    squares: Sequence[UnitSquare],
    budget: OracleBudget = OracleBudget(),
) -> tuple[int, tuple[int, ...]]:
    """Minimum ply over all covering subsets, with witness ids; a nonempty
    cover has ply at least 1."""

    def scorer(ordered):
        return lambda _mask, combo: ply_of([ordered[pos] for pos in combo]).value

    return _least_cover(points, squares, budget, scorer, 1 if points else 0)
