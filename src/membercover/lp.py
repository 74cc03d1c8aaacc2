"""Exact linear programming with Bland's rule on integer rows.

A small dense two-phase primal simplex.  All variables are nonnegative;
upper bounds are expanded into rows.  Bland's pivoting rule (lowest
eligible index for both entering and leaving variables) guarantees
termination and makes runs reproducible.

The arithmetic is fraction-free (Edmonds' integer-preserving pivoting).
The rows are built once over `fractions.Fraction`; from then on every
tableau row, the reduced-cost row included, is a list of Python ints
equal to the rational row times an implicit positive scale.  A pivot
cross-multiplies instead of dividing and then divides each changed row by
the gcd of its entries, which keeps the integers small.  Scaling a row by
a positive constant changes no sign and no ratio rhs/a, and ratios are
compared by cross-multiplying, so Bland's rule takes exactly the pivots
the rational tableau would take and returns the same vertex.  A basic
variable's value is its row's rhs over its own entry in that row.

The module also builds the fractional-cover programs used by the square
solvers: the membership program (minimize the largest fractional load on
a monitored point) and the size program (minimize total weight).
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


@dataclass(frozen=True)
class ConstraintRow:
    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to rows, 0 <= x_i (<= upper_bounds[i])."""

    n_vars: int
    objective: tuple[Fraction, ...]
    rows: tuple[ConstraintRow, ...]
    upper_bounds: tuple[Fraction | None, ...]

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


def make_program(n_vars, objective, rows, upper_bounds=None) -> LinearProgram:
    # tuples come from lists, not generators: CPython resizes a tuple built
    # from a generator, and the resized blocks pile up on its tuple free
    # lists until a full collection, which the integer tableau rarely triggers
    ups = tuple(upper_bounds) if upper_bounds is not None else (None,) * n_vars
    return LinearProgram(
        n_vars=n_vars,
        objective=tuple([frac(c) for c in objective]),
        rows=tuple([
            ConstraintRow(tuple([frac(c) for c in coeffs]), rel, frac(rhs))
            for coeffs, rel, rhs in rows
        ]),
        upper_bounds=tuple([None if u is None else frac(u) for u in ups]),
    )


def _reduce(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a positive constant)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _to_ints(row: Sequence[Fraction]) -> list[int]:
    """Integer row equal to the rational one times a positive scale."""
    scale = math.lcm(*[v.denominator for v in row])
    return _reduce([v.numerator * (scale // v.denominator) for v in row])


def _eliminate(trow: list[int], prow: list[int], col: int) -> list[int]:
    """`trow` with column `col` cleared against `prow`, whose entry there is
    positive; the result keeps a positive scale."""
    factor = trow[col]
    if not factor:
        return trow
    piv = prow[col]
    return _reduce([piv * v - factor * pv for v, pv in zip(trow, prow)])


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int) -> None:
    prow = tableau[row]
    if prow[col] < 0:
        # only the artificial drive-out pivots on a negative entry; the
        # negated row keeps a positive scale
        prow = tableau[row] = [-v for v in prow]
    for r, trow in enumerate(tableau):
        if r != row:
            tableau[r] = _eliminate(trow, prow, col)
    basis[row] = col


def _simplex_phase(
    tableau: list[list[int]],
    basis: list[int],
    cost: list[int],
    n_cols: int,
) -> str:
    """Run simplex to optimality on the given reduced-cost row (in place)."""
    while True:
        entering = next((j for j in range(n_cols) if cost[j] < 0), -1)
        if entering < 0:
            return OPTIMAL
        # minimum ratio rhs/a over a > 0, compared by cross-multiplying;
        # ties go to the lowest basic index
        leaving = -1
        for r, trow in enumerate(tableau):
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
        cost[:] = _eliminate(cost, tableau[leaving], entering)


def _price_out(cost: list[int], tableau: list[list[int]], basis: list[int]) -> list[int]:
    """Reduced costs: clear every basic column of the cost row."""
    for r, b in enumerate(basis):
        cost = _eliminate(cost, tableau[r], b)
    return cost


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Exact optimum (or infeasible/unbounded status) of a LinearProgram."""
    rows: list[tuple[list[Fraction], str, Fraction]] = [
        (list(r.coeffs), r.rel, r.rhs) for r in lp.rows
    ]
    for i, ub in enumerate(lp.upper_bounds):
        if ub is not None:
            coeffs = [Fraction(0)] * lp.n_vars
            coeffs[i] = Fraction(1)
            rows.append((coeffs, REL_LE, ub))

    m = len(rows)
    n = lp.n_vars
    # normalize rhs >= 0, then add one slack/surplus per inequality and
    # one artificial per row lacking a natural basic column
    norm_rows = []
    for coeffs, rel, rhs in rows:
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}[rel]
        norm_rows.append((coeffs, rel, rhs))

    # columns: structural | slacks | artificials
    col = n
    tableau: list[list[int]] = []
    basis: list[int] = [-1] * m
    slack_of_row: list[int | None] = [None] * m
    for r, (coeffs, rel, rhs) in enumerate(norm_rows):
        if rel != REL_EQ:
            slack_of_row[r] = col
            col += 1
    art_of_row: list[int | None] = [None] * m
    for r, (coeffs, rel, rhs) in enumerate(norm_rows):
        needs_artificial = rel == REL_EQ or rel == REL_GE
        if needs_artificial:
            art_of_row[r] = col
            col += 1
    n_cols = col

    for r, (coeffs, rel, rhs) in enumerate(norm_rows):
        trow = [Fraction(0)] * (n_cols + 1)
        for j, c in enumerate(coeffs):
            trow[j] = c
        if slack_of_row[r] is not None:
            trow[slack_of_row[r]] = Fraction(1) if rel == REL_LE else Fraction(-1)
        if art_of_row[r] is not None:
            trow[art_of_row[r]] = Fraction(1)
            basis[r] = art_of_row[r]
        else:
            basis[r] = slack_of_row[r]
        trow[-1] = rhs
        tableau.append(_to_ints(trow))

    artificials = [a for a in art_of_row if a is not None]
    if artificials:
        cost = [0] * (n_cols + 1)
        for a in artificials:
            cost[a] = 1
        cost = _price_out(cost, tableau, basis)
        if _simplex_phase(tableau, basis, cost, n_cols) != OPTIMAL:
            raise RuntimeError("phase 1 is always bounded")
        if cost[-1] != 0:
            return LPSolution(INFEASIBLE, None, ())
        # pivot artificials out of the basis where possible; a row whose
        # artificial cannot leave is redundant and dropped
        art_set = set(artificials)
        keep_rows = []
        for r in range(m):
            if basis[r] in art_set:
                pivot_col = next(
                    (
                        j
                        for j in range(n_cols)
                        if j not in art_set and tableau[r][j] != 0
                    ),
                    None,
                )
                if pivot_col is None:
                    continue
                _pivot(tableau, basis, r, pivot_col)
            keep_rows.append(r)
        tableau = [tableau[r] for r in keep_rows]
        basis = [basis[r] for r in keep_rows]
        for trow in tableau:
            for a in artificials:
                trow[a] = 0

    cost = _to_ints(list(lp.objective) + [Fraction(0)] * (n_cols + 1 - n))
    cost = _price_out(cost, tableau, basis)
    status = _simplex_phase(tableau, basis, cost, n_cols)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, ())

    assignment = [Fraction(0)] * n
    for trow, b in zip(tableau, basis):
        if b < n:
            assignment[b] = Fraction(trow[-1], trow[b])
    value = sum(
        (c * v for c, v in zip(lp.objective, assignment)), start=Fraction(0)
    )
    return LPSolution(OPTIMAL, value, tuple(assignment))


# ---------------------------------------------------------------------------
# cover programs
# ---------------------------------------------------------------------------

def _indicator(row: int, width: int, zero: Fraction, one: Fraction) -> list[Fraction]:
    """Coefficients one at the set bits of an incidence row, zero elsewhere."""
    return [one if row >> j & 1 else zero for j in range(width)]


def build_membership_lp(
    s_rows: Sequence[int], sp_rows: Sequence[int], n_ranges: int
) -> LinearProgram:
    """Fractional relaxation of the membership objective.

    `s_rows` and `sp_rows` are the incidence tables (`covers.incidence`) of
    the mandatory and the monitored points over the same `n_ranges` ranges.
    Variables are one weight per range (in table order, bounded by one)
    plus a final load variable y; every mandatory point must collect total
    weight at least one, every monitored point at most y.
    """
    n = n_ranges
    zero, one, minus_one = Fraction(0), Fraction(1), Fraction(-1)
    rows = [(_indicator(row, n + 1, zero, one), REL_GE, one) for row in s_rows]
    for row in sp_rows:
        coeffs = _indicator(row, n + 1, zero, one)
        coeffs[n] = minus_one
        rows.append((coeffs, REL_LE, zero))
    return make_program(n + 1, [zero] * n + [one], rows, [one] * n + [None])


def build_size_lp(s_rows: Sequence[int], n_ranges: int) -> LinearProgram:
    """Fractional relaxation of minimum-size cover: min total weight.

    `s_rows` is the incidence table of the points over the `n_ranges` ranges.
    """
    n = n_ranges
    zero, one = Fraction(0), Fraction(1)
    rows = [(_indicator(row, n, zero, one), REL_GE, one) for row in s_rows]
    return make_program(n, [one] * n, rows, [one] * n)
