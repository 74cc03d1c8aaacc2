"""Exact linear programming with Bland's rule on integer rows, for the
fractional cover programs of the square solvers.

A two-phase primal simplex.  All variables are nonnegative; upper bounds
are expanded into rows.  Bland's pivoting rule (lowest eligible index for
both entering and leaving variables) guarantees termination and makes runs
reproducible.

The tableau is a list of dense rows, one per constraint and the
reduced-cost row last, each a list of Python ints with the rhs at its end.
A pivot touches only what it changes.  A row that holds 0 in the entering
column is skipped.  Every other row, the cost row included, is updated in
place, and only at the pivot row's nonzero columns; it is multiplied first
when the pivot entry does not divide its entry in the entering column, and
in almost every pivot of a cover program the pivot entry is 1.  Pricing
out clears the phase-2 cost row the same way, one basic column at a time.

The arithmetic is fraction-free (Edmonds' integer-preserving pivoting).
Every row is equal to the rational row times an implicit positive scale.
A pivot cross-multiplies instead of dividing and then divides each changed
row by the gcd of its entries, which keeps the integers small.  Scaling a
row by a positive constant changes no sign and no ratio rhs/a, and ratios
are compared by cross-multiplying, so Bland's rule takes exactly the pivots
the rational tableau would take and returns the same vertex.  A basic
variable's value is its row's rhs over its own entry in that row.

The programs are the fractional covers of the square solvers, given by
their incidence bitmasks (`CoverProgram`): the membership program
(minimize the largest fractional load on a monitored point) and the size
program (minimize total weight).  Every coefficient is 0, 1 or -1 and every
rhs 0 or 1, so `solve_lp` writes the phase-1 tableau, its basis and both
cost rows straight from the masks, each row at scale 1: no entry needs
scaling, no rhs a sign flip and no row a gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

REL_LE = "<="
REL_GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class ConstraintRow:
    coeffs: tuple[int, ...]
    rel: str
    rhs: int


@dataclass(frozen=True)
class CoverProgram:
    """A fractional cover program over `n_ranges` ranges, by incidence rows.

    Variables are one weight x_j in [0, 1] per range, in table order, and
    with `load` a final load variable y >= 0.  Each row of `s_rows` is the
    bitmask of the ranges holding a mandatory point, which must collect
    total weight at least one; each row of `sp_rows` that of a monitored
    point, which may collect at most y.  The objective is y with the load
    and the total weight without it.
    """

    s_rows: tuple[int, ...]
    sp_rows: tuple[int, ...]
    n_ranges: int
    load: bool

    def __post_init__(self) -> None:
        n = self.n_ranges
        if n < 0:
            raise ValueError(f"n_ranges is {n}, expected at least 0")
        if self.sp_rows and not self.load:
            raise ValueError("S' rows bound the load variable, which the program lacks")
        for name, rows in (("S", self.s_rows), ("S'", self.sp_rows)):
            for i, row in enumerate(rows):
                if row < 0 or row >> n:
                    raise ValueError(f"{name} row {i} is {row}, not a mask of {n} ranges")

    @property
    def n_vars(self) -> int:
        return self.n_ranges + self.load

    @cached_property
    def rows(self) -> tuple[ConstraintRow, ...]:
        """The S rows, then the S' rows, as coefficient rows over the
        `n_vars` variables; the bounds x_j <= 1 are not among them."""
        n, width = self.n_ranges, self.n_vars
        rows = [
            ConstraintRow(tuple([row >> j & 1 for j in range(width)]), REL_GE, 1)
            for row in self.s_rows
        ]
        for row in self.sp_rows:
            coeffs = [row >> j & 1 for j in range(width)]
            coeffs[n] = -1
            rows.append(ConstraintRow(tuple(coeffs), REL_LE, 0))
        return tuple(rows)


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: Fraction | None
    assignment: tuple[Fraction, ...]


def build_membership_lp(
    s_rows: Sequence[int], sp_rows: Sequence[int], n_ranges: int
) -> CoverProgram:
    """Fractional relaxation of the membership objective.

    `s_rows` and `sp_rows` are the incidence tables (`oracle.incidence`) of
    the mandatory and the monitored points over the same `n_ranges` ranges:
    min y such that every mandatory point collects total weight at least
    one and every monitored point at most y.  A row that is negative or has
    a bit at or above `n_ranges` raises `ValueError`.
    """
    return CoverProgram(tuple(s_rows), tuple(sp_rows), n_ranges, True)


def build_size_lp(s_rows: Sequence[int], n_ranges: int) -> CoverProgram:
    """Fractional relaxation of minimum-size cover: min total weight.

    `s_rows` is the incidence table of the points over the `n_ranges`
    ranges, read as `build_membership_lp` reads it.
    """
    return CoverProgram(tuple(s_rows), (), n_ranges, False)


def _clear(rows, prow: list[int], col: int) -> None:
    """Clear column `col` of every row in `rows` but `prow` against `prow`,
    whose entry there is positive, in place; each changed row keeps a
    positive scale.

    A row with 0 in `col` is left as it is.  Any other row is multiplied by
    the pivot entry over its gcd with the row's own entry in `col` (unless
    that is 1), a multiple of `prow` is subtracted at `prow`'s nonzero
    columns only, and the row is divided by the gcd of its entries."""
    piv = prow[col]
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    for trow in rows:
        factor = trow[col]
        if not factor or trow is prow:
            continue
        if piv != 1:
            # the row is divided by its gcd at the end, so scaling by the
            # pivot over its common divisor with the factor gives the same row
            g = math.gcd(piv, factor)
            scale, factor = piv // g, factor // g
            if scale != 1:
                trow[:] = [scale * v for v in trow]
        for j, pv in nonzero:
            trow[j] -= factor * pv
        g = math.gcd(*trow)
        if g > 1:
            trow[:] = [v // g for v in trow]


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int) -> None:
    prow = tableau[row]
    if prow[col] < 0:
        # only the artificial drive-out pivots on a negative entry; the
        # negated row keeps a positive scale
        prow = tableau[row] = [-v for v in prow]
    _clear(tableau, prow, col)
    basis[row] = col


def _simplex_phase(tableau: list[list[int]], basis: list[int], n_cols: int) -> str:
    """Run simplex to optimality on the reduced-cost row, the tableau's last
    row (in place).  `basis` has one entry per constraint row."""
    cost = tableau[-1]
    while True:
        entering = next((j for j in range(n_cols) if cost[j] < 0), -1)
        if entering < 0:
            return OPTIMAL
        # minimum ratio rhs/a over a > 0, compared by cross-multiplying;
        # ties go to the lowest basic index
        leaving = -1
        for r, trow in enumerate(tableau[:-1]):
            a = trow[entering]
            if a > 0:
                if leaving < 0:
                    leaving, num, den = r, trow[-1], a
                    continue
                mine, best = trow[-1] * den, num * a
                if mine < best or (mine == best and basis[r] < basis[leaving]):
                    leaving, num, den = r, trow[-1], a
        if leaving < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leaving, entering)


def _price_out(tableau: list[list[int]], basis: list[int]) -> None:
    """Reduced costs: clear every basic column of the tableau's last row,
    the cost row (in place)."""
    cost = tableau[-1]
    for trow, b in zip(tableau, basis):
        if cost[b]:
            _clear((cost,), trow, b)


def _solve_tableau(
    tableau: list[list[int]],
    basis: list[int],
    phase_one: list[int] | None,
    objective: list[int],
    n_vars: int,
) -> tuple[str, list[Fraction]]:
    """Both phases of the simplex from a phase-1 tableau (in place): the
    status and, at an optimum, the values of the first `n_vars` columns.

    `basis` holds each row's basic column.  The artificial columns are the
    last ones, from `len(objective) - 1` on; a row that holds one basic has
    it at a positive entry and is the only row nonzero in it.  `phase_one`
    is the phase-1 reduced-cost row, None when no row carries an
    artificial; `objective` is the phase-2 cost row over the columns before
    the artificials, its rhs 0 last.
    """
    n_cols = len(objective) - 1
    if phase_one is not None:
        m = len(tableau)
        tableau.append(phase_one)
        if _simplex_phase(tableau, basis, len(phase_one) - 1) != OPTIMAL:
            raise RuntimeError("phase 1 is always bounded")
        if tableau.pop()[-1] != 0:
            return INFEASIBLE, []
        # pivot artificials out of the basis where possible; a row whose
        # artificial cannot leave is redundant and dropped.  The artificials
        # are the last columns, so phase 2 runs on each row cut before them
        keep_rows = []
        for r in range(m):
            if basis[r] >= n_cols:
                pivot_col = next((j for j in range(n_cols) if tableau[r][j] != 0), None)
                if pivot_col is None:
                    continue
                _pivot(tableau, basis, r, pivot_col)
            keep_rows.append(r)
        tableau = [tableau[r] for r in keep_rows]
        basis = [basis[r] for r in keep_rows]
        for trow in tableau:
            del trow[n_cols:-1]

    tableau.append(objective)
    _price_out(tableau, basis)
    if _simplex_phase(tableau, basis, n_cols) == UNBOUNDED:
        return UNBOUNDED, []

    assignment = [Fraction(0)] * n_vars
    for trow, b in zip(tableau, basis):
        if b < n_vars:
            assignment[b] = Fraction(trow[-1], trow[b])
    return OPTIMAL, assignment


def _cover_tableau(
    program: CoverProgram,
) -> tuple[list[list[int]], list[int], list[int] | None, list[int]]:
    """The phase-1 tableau of a cover program, its basis, the phase-1 cost
    row (None without S rows) and the phase-2 objective row, as
    `_solve_tableau` takes them.

    Rows: the S rows, the S' rows, then one bound row x_j + t_j = 1 per
    range.  Columns: the `n_vars` variables | one surplus per S row, one
    slack per S' row and per bound row | one artificial per S row | rhs.
    An S row holds its bits, -1 at its surplus, +1 at its artificial (its
    basic column) and rhs 1; an S' row its bits, -1 at y, +1 at its slack
    and rhs 0.  The phase-1 costs, the artificials priced out, are minus
    the sum of the S rows with the artificial columns cleared.
    """
    s_rows, sp_rows, n = program.s_rows, program.sp_rows, program.n_ranges
    n_vars, m_s = program.n_vars, len(s_rows)
    slack = n_vars + m_s  # the first S' slack
    first_art = slack + len(sp_rows) + n
    pad = [0] * (first_art + m_s + 1 - n)
    tableau = []
    for i, row in enumerate(s_rows):
        trow = [row >> j & 1 for j in range(n)] + pad
        trow[n_vars + i] = -1
        trow[first_art + i] = trow[-1] = 1
        tableau.append(trow)
    for k, row in enumerate(sp_rows):
        trow = [row >> j & 1 for j in range(n)] + pad
        trow[n] = -1
        trow[slack + k] = 1
        tableau.append(trow)
    slack += len(sp_rows)
    for j in range(n):
        trow = [0] * (first_art + m_s + 1)
        trow[j] = trow[slack + j] = trow[-1] = 1
        tableau.append(trow)
    basis = list(range(first_art, first_art + m_s)) + list(range(n_vars + m_s, first_art))

    phase_one = None
    if s_rows:
        phase_one = [-sum(column) for column in zip(*tableau[:m_s])]
        phase_one[first_art:-1] = [0] * m_s
    if program.load:
        objective = [0] * (first_art + 1)
        objective[n] = 1
    else:
        objective = [1] * n + [0] * (first_art + 1 - n)
    return tableau, basis, phase_one, objective


def solve_lp(program: CoverProgram) -> LPSolution:
    """Exact optimum (or infeasible status) of a CoverProgram."""
    status, assignment = _solve_tableau(*_cover_tableau(program), program.n_vars)
    if status != OPTIMAL:
        return LPSolution(status, None, ())
    # most weights of a size program are 0
    value = assignment[-1] if program.load else sum([v for v in assignment if v], start=Fraction(0))
    return LPSolution(OPTIMAL, value, tuple(assignment))
