"""Exact linear programming with Bland's rule on integer rows.

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
out clears the phase-2 cost row the same way, one basic column at a time;
the phase-1 reduced costs are built in one pass over the rows that carry
an artificial.

The arithmetic is fraction-free (Edmonds' integer-preserving pivoting).
Every row is equal to the rational row times an implicit positive scale.
A row is built as ints straight from its constraint: the coefficients and
the rhs times the lcm of their denominators, the slack at plus or minus
that lcm and the artificial at the lcm, divided by the gcd of the entries.
A pivot cross-multiplies instead of dividing and then divides each changed
row by the gcd of its entries, which keeps the integers small.  Scaling a
row by a positive constant changes no sign and no ratio rhs/a, and ratios
are compared by cross-multiplying, so Bland's rule takes exactly the pivots
the rational tableau would take and returns the same vertex.  A basic
variable's value is its row's rhs over its own entry in that row.

The module also builds the fractional-cover programs used by the square
solvers: the membership program (minimize the largest fractional load on
a monitored point) and the size program (minimize total weight).  Their
0/1/-1 coefficients stay plain ints: `make_program` passes ints through
and reads every other value, a bool too, with `frac`, and the tableau
takes an all-int row as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import frac

REL_LE = "<="
REL_GE = ">="
REL_EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


Rational = int | Fraction  # an int is exact with denominator 1


@dataclass(frozen=True)
class ConstraintRow:
    coeffs: tuple[Rational, ...]
    rel: str
    rhs: Rational


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to rows, 0 <= x_i (<= upper_bounds[i])."""

    n_vars: int
    objective: tuple[Rational, ...]
    rows: tuple[ConstraintRow, ...]
    upper_bounds: tuple[Rational | None, ...]

    def __post_init__(self) -> None:
        if len(self.objective) != self.n_vars:
            raise ValueError(
                f"objective has {len(self.objective)} coefficients, "
                f"expected {self.n_vars}"
            )
        if len(self.upper_bounds) != self.n_vars:
            raise ValueError(
                f"{len(self.upper_bounds)} upper bounds, expected {self.n_vars}"
            )
        for i, row in enumerate(self.rows):
            if len(row.coeffs) != self.n_vars:
                raise ValueError(
                    f"row {i} has {len(row.coeffs)} coefficients, "
                    f"expected {self.n_vars}"
                )
            if row.rel not in (REL_LE, REL_GE, REL_EQ):
                raise ValueError(f"row {i} has unknown relation {row.rel!r}")


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: Fraction | None
    assignment: tuple[Fraction, ...]


def _all_ints(values: Sequence) -> bool:
    """Is every value an int (a bool is not)?"""
    return set(map(type, values)) <= {int}


def _rational(value) -> Rational:
    """Ints as they are, anything else (a bool too) through `frac`."""
    return value if type(value) is int else frac(value)


def _rationals(values) -> tuple[Rational, ...]:
    """Each value as `_rational` reads it; an all-int list in one check."""
    values = list(values)
    return tuple(values if _all_ints(values) else [_rational(v) for v in values])


def make_program(n_vars, objective, rows, upper_bounds=None) -> LinearProgram:
    # tuples come from lists, not generators: CPython resizes a tuple built
    # from a generator, and the resized blocks pile up on its tuple free
    # lists until a full collection, which the integer tableau rarely triggers
    ups = tuple(upper_bounds) if upper_bounds is not None else (None,) * n_vars
    return LinearProgram(
        n_vars=n_vars,
        objective=_rationals(objective),
        rows=tuple([
            ConstraintRow(_rationals(coeffs), rel, _rational(rhs)) for coeffs, rel, rhs in rows
        ]),
        upper_bounds=tuple([None if u is None else _rational(u) for u in ups]),
    )


def _reduce(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a positive constant)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


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


def _phase_one_costs(
    tableau: list[list[int]], basis: list[int], first_art: int, n_cols: int
) -> list[int]:
    """The phase-1 reduced-cost row, the sum of the artificials priced out.

    Each row that carries an artificial has it basic, at a positive entry
    t, and is the only row nonzero in that column; every other basic
    column costs 0.  So the reduced costs are minus the sum of those rows,
    each scaled by L / t for L the lcm of the entries t, with the
    artificial columns cleared, reduced by their gcd: the row that a
    `_price_out` of each artificial in turn gives."""
    carriers = [(trow, trow[b]) for trow, b in zip(tableau, basis) if b >= first_art]
    scale = math.lcm(*[t for _trow, t in carriers])
    cost = [0] * (n_cols + 1)
    for trow, t in carriers:
        f = scale // t
        for j, v in enumerate(trow):
            if v:
                cost[j] -= f * v
    cost[first_art:n_cols] = [0] * (n_cols - first_art)
    return _reduce(cost)


def _scaled(coeffs: Sequence[Rational], rhs: Rational) -> tuple[list[int], int, int]:
    """Integer coefficients and rhs equal to the rational ones times the
    lcm of their denominators, and that lcm."""
    if type(rhs) is int and _all_ints(coeffs):
        return list(coeffs), rhs, 1  # no denominator to read
    scale = math.lcm(rhs.denominator, *[c.denominator for c in coeffs])
    return (
        [c.numerator * (scale // c.denominator) for c in coeffs],
        rhs.numerator * (scale // rhs.denominator),
        scale,
    )


def _initial_tableau(lp: LinearProgram) -> tuple[list[list[int]], list[int], list[int], int]:
    """The phase-1 tableau as integer rows, its basis, the artificial
    columns and the column count.

    One row per constraint, then one per upper bound, each normalized to a
    nonnegative rhs.  Columns: structural | one slack or surplus per
    inequality | one artificial per row lacking a natural basic column.
    """
    n = lp.n_vars
    rows = [_scaled(r.coeffs, r.rhs) + (r.rel,) for r in lp.rows]
    for i, ub in enumerate(lp.upper_bounds):
        if ub is not None:
            coeffs = [0] * n
            coeffs[i] = ub.denominator
            rows.append((coeffs, ub.numerator, ub.denominator, REL_LE))
    for r, (coeffs, rhs, scale, rel) in enumerate(rows):
        if rhs < 0:
            flipped = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}[rel]
            rows[r] = ([-c for c in coeffs], -rhs, scale, flipped)

    m = len(rows)
    n_slacks = sum(1 for *_, rel in rows if rel != REL_EQ)
    n_cols = n + n_slacks + sum(1 for *_, rel in rows if rel != REL_LE)
    tableau: list[list[int]] = []
    basis: list[int] = [-1] * m
    artificials: list[int] = []
    slack, art = n, n + n_slacks
    for r, (coeffs, rhs, scale, rel) in enumerate(rows):
        trow = coeffs + [0] * (n_cols - n) + [rhs]
        if rel != REL_EQ:
            trow[slack] = scale if rel == REL_LE else -scale
            basis[r] = slack
            slack += 1
        if rel != REL_LE:
            trow[art] = scale
            basis[r] = art
            artificials.append(art)
            art += 1
        # the slack or artificial entry is +-scale, so a row at scale 1 is reduced
        tableau.append(_reduce(trow) if scale > 1 else trow)
    return tableau, basis, artificials, n_cols


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Exact optimum (or infeasible/unbounded status) of a LinearProgram."""
    n = lp.n_vars
    tableau, basis, artificials, n_cols = _initial_tableau(lp)
    m = len(tableau)

    if artificials:
        tableau.append(_phase_one_costs(tableau, basis, artificials[0], n_cols))
        if _simplex_phase(tableau, basis, n_cols) != OPTIMAL:
            raise RuntimeError("phase 1 is always bounded")
        if tableau.pop()[-1] != 0:
            return LPSolution(INFEASIBLE, None, ())
        # pivot artificials out of the basis where possible; a row whose
        # artificial cannot leave is redundant and dropped.  The artificials
        # are the last columns, so phase 2 runs on each row cut before them
        n_cols = artificials[0]
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

    objective, _, _ = _scaled(lp.objective, 0)
    tableau.append(_reduce(objective + [0] * (n_cols + 1 - n)))
    _price_out(tableau, basis)
    status = _simplex_phase(tableau, basis, n_cols)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, ())

    assignment = [Fraction(0)] * n
    for trow, b in zip(tableau, basis):
        if b < n:
            assignment[b] = Fraction(trow[-1], trow[b])
    # most weights of a cover program are 0, and so are most of its costs
    value = sum(
        [c * v for c, v in zip(lp.objective, assignment) if c and v], start=Fraction(0)
    )
    return LPSolution(OPTIMAL, value, tuple(assignment))


# ---------------------------------------------------------------------------
# cover programs
# ---------------------------------------------------------------------------

def _indicator(row: int, width: int) -> list[int]:
    """Coefficients one at the set bits of an incidence row, zero elsewhere."""
    return [row >> j & 1 for j in range(width)]


def build_membership_lp(
    s_rows: Sequence[int], sp_rows: Sequence[int], n_ranges: int
) -> LinearProgram:
    """Fractional relaxation of the membership objective.

    `s_rows` and `sp_rows` are the incidence tables (`oracle.incidence`) of
    the mandatory and the monitored points over the same `n_ranges` ranges.
    Variables are one weight per range (in table order, bounded by one)
    plus a final load variable y; every mandatory point must collect total
    weight at least one, every monitored point at most y.
    """
    n = n_ranges
    rows = [(_indicator(row, n + 1), REL_GE, 1) for row in s_rows]
    for row in sp_rows:
        coeffs = _indicator(row, n + 1)
        coeffs[n] = -1
        rows.append((coeffs, REL_LE, 0))
    return make_program(n + 1, [0] * n + [1], rows, [1] * n + [None])


def build_size_lp(s_rows: Sequence[int], n_ranges: int) -> LinearProgram:
    """Fractional relaxation of minimum-size cover: min total weight.

    `s_rows` is the incidence table of the points over the `n_ranges` ranges.
    """
    n = n_ranges
    rows = [(_indicator(row, n), REL_GE, 1) for row in s_rows]
    return make_program(n, [1] * n, rows, [1] * n)
