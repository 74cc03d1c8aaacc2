"""Shared test helpers: independent oracles and seeded instance builders.

Everything here is deliberately naive (dense enumeration, Gaussian
elimination, direct point sampling) so the production algorithms are
checked against genuinely different computations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

import math

from membercover import GridCell, Halfplane, Point, SquareGrid, UnitSquare, grid_partition
from membercover import lp as lpmod
from membercover.covers import CoverSolution, depth, first_uncovered, quiet_cover
from membercover.geometry import _line_intersect, frac
from membercover.halfplanes import (
    SegmentPhi,
    WindGraph,
    _AnchorContext,
    _cross2,
    _dirvec,
    _dot2,
    _hpt,
    _plane_covers,
    _ray_direction,
    build_segments,
    find_winding_cycle,
    one_stable_local_search,
)
from membercover.lp import (
    INFEASIBLE,
    OPTIMAL,
    REL_GE,
    REL_LE,
    UNBOUNDED,
    ConstraintRow,
    CoverProgram,
    LPSolution,
    build_membership_lp,
    build_size_lp,
    solve_lp,
)
from membercover.oracle import incidence
from membercover.squares import (
    _corner_local,
    quadrant_greedy_cover,
    solve_cell_lp,
    solve_one_corner,
)


# ---------------------------------------------------------------------------
# general linear programs: a front end over rational rows that drives the
# library's simplex core, `lp._solve_tableau`, beside its cover programs
# ---------------------------------------------------------------------------

REL_EQ = "=="

Rational = int | Fraction  # an int is exact with denominator 1


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


def _all_ints(values) -> bool:
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
    ups = tuple(upper_bounds) if upper_bounds is not None else (None,) * n_vars
    return LinearProgram(
        n_vars=n_vars,
        objective=_rationals(objective),
        rows=tuple([
            ConstraintRow(_rationals(coeffs), rel, _rational(rhs)) for coeffs, rel, rhs in rows
        ]),
        upper_bounds=tuple([None if u is None else _rational(u) for u in ups]),
    )


def as_linear_program(lp) -> LinearProgram:
    """A CoverProgram as the LinearProgram it stands for; any other program
    as it is."""
    if not isinstance(lp, CoverProgram):
        return lp
    n = lp.n_ranges
    return LinearProgram(
        n_vars=lp.n_vars,
        objective=(0,) * n + (1,) if lp.load else (1,) * n,
        rows=lp.rows,
        upper_bounds=(1,) * n + (None,) * lp.load,
    )


def _reduce(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a positive constant)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _phase_one_costs(
    tableau: list[list[int]], basis: list[int], first_art: int, n_cols: int
) -> list[int]:
    """The phase-1 reduced-cost row, the sum of the artificials priced out.

    Each row that carries an artificial has it basic, at a positive entry
    t, and is the only row nonzero in that column; every other basic
    column costs 0.  So the reduced costs are minus the sum of those rows,
    each scaled by L / t for L the lcm of the entries t, with the
    artificial columns cleared, reduced by their gcd: the row that a
    price-out of each artificial in turn gives."""
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


def _scaled(coeffs, rhs: Rational) -> tuple[list[int], int, int]:
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


def initial_tableau(lp: LinearProgram) -> tuple[list[list[int]], list[int], list[int], int]:
    """The phase-1 tableau as integer rows, its basis, the artificial
    columns and the column count.

    One row per constraint, then one per upper bound, each normalized to a
    nonnegative rhs.  Columns: structural | one slack or surplus per
    inequality | one artificial per row lacking a natural basic column.
    A row is built as ints straight from its constraint: the coefficients
    and the rhs times the lcm of their denominators, the slack at plus or
    minus that lcm and the artificial at the lcm, divided by the gcd of
    the entries.
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


def objective_row(lp: LinearProgram, n_cols: int) -> list[int]:
    """The phase-2 cost row over the first `n_cols` columns, as ints."""
    objective, _, _ = _scaled(lp.objective, 0)
    return _reduce(objective + [0] * (n_cols + 1 - lp.n_vars))


def general_solve_lp(lp: LinearProgram) -> LPSolution:
    """Exact optimum (or infeasible/unbounded status) of a LinearProgram,
    by `initial_tableau` and the library's simplex core."""
    tableau, basis, artificials, n_cols = initial_tableau(lp)
    phase_one = None
    if artificials:
        phase_one = _phase_one_costs(tableau, basis, artificials[0], n_cols)
        n_cols = artificials[0]
    status, assignment = lpmod._solve_tableau(
        tableau, basis, phase_one, objective_row(lp, n_cols), lp.n_vars
    )
    if status != OPTIMAL:
        return LPSolution(status, None, ())
    value = sum(
        [c * v for c, v in zip(lp.objective, assignment) if c and v], start=Fraction(0)
    )
    return LPSolution(OPTIMAL, value, tuple(assignment))


# ---------------------------------------------------------------------------
# exact linear algebra for the LP vertex-enumeration oracle
# ---------------------------------------------------------------------------

def gauss_solve(matrix, rhs):
    """Solve a square rational system; None if singular."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def lp_vertex_enumeration(lp: LinearProgram):
    """Optimal value by enumerating basic feasible solutions.

    Collects every constraint (rows, upper bounds, nonnegativity) as an
    equality candidate, solves all n-subsets, filters feasible points and
    minimizes the objective.  Exponential, test-only.
    """
    lp = as_linear_program(lp)
    n = lp.n_vars
    cons = []  # (coeffs, rhs, kind) with kind in {le, ge, eq}
    for row in lp.rows:
        cons.append((list(row.coeffs), row.rhs, row.rel))
    for i, ub in enumerate(lp.upper_bounds):
        if ub is not None:
            coeffs = [Fraction(0)] * n
            coeffs[i] = Fraction(1)
            cons.append((coeffs, ub, REL_LE))
    for i in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(1)
        cons.append((coeffs, Fraction(0), REL_GE))

    def feasible(x):
        for coeffs, rhs, rel in cons:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if rel == REL_LE and lhs > rhs:
                return False
            if rel == REL_GE and lhs < rhs:
                return False
            if rel == REL_EQ and lhs != rhs:
                return False
        return True

    best = None
    for subset in combinations(range(len(cons)), n):
        matrix = [cons[i][0] for i in subset]
        rhs = [cons[i][1] for i in subset]
        x = gauss_solve(matrix, rhs)
        if x is None or not feasible(x):
            continue
        value = sum(c * v for c, v in zip(lp.objective, x))
        if best is None or value < best:
            best = value
    return best


# ---------------------------------------------------------------------------
# the phase-1 tableau over Fraction rows, the reference for the integer rows
# ---------------------------------------------------------------------------

def to_ints(row) -> list[int]:
    """Integer row equal to the rational one times a positive scale."""
    scale = math.lcm(*[v.denominator for v in row])
    return _reduce([v.numerator * (scale // v.denominator) for v in row])


def fraction_tableau(lp):
    """(tableau, basis, artificials, n_cols) of the phase 1 of a
    LinearProgram or a CoverProgram, with every row built over Fraction at
    full width and then turned into ints by `to_ints`: the reference for
    `initial_tableau` and for `lp._cover_tableau`."""
    lp = as_linear_program(lp)
    rows = [(list(r.coeffs), r.rel, r.rhs) for r in lp.rows]
    for i, ub in enumerate(lp.upper_bounds):
        if ub is not None:
            coeffs = [Fraction(0)] * lp.n_vars
            coeffs[i] = Fraction(1)
            rows.append((coeffs, REL_LE, ub))
    norm_rows = []
    for coeffs, rel, rhs in rows:
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}[rel]
        norm_rows.append((coeffs, rel, rhs))
    m = len(norm_rows)
    col = lp.n_vars
    slack_of_row = [None] * m
    for r, (_coeffs, rel, _rhs) in enumerate(norm_rows):
        if rel != REL_EQ:
            slack_of_row[r] = col
            col += 1
    art_of_row = [None] * m
    for r, (_coeffs, rel, _rhs) in enumerate(norm_rows):
        if rel in (REL_EQ, REL_GE):
            art_of_row[r] = col
            col += 1
    n_cols = col
    tableau, basis = [], []
    for r, (coeffs, rel, rhs) in enumerate(norm_rows):
        trow = [Fraction(0)] * (n_cols + 1)
        trow[:len(coeffs)] = coeffs
        if slack_of_row[r] is not None:
            trow[slack_of_row[r]] = Fraction(1) if rel == REL_LE else Fraction(-1)
        if art_of_row[r] is not None:
            trow[art_of_row[r]] = Fraction(1)
        basis.append(slack_of_row[r] if art_of_row[r] is None else art_of_row[r])
        trow[-1] = rhs
        tableau.append(to_ints(trow))
    return tableau, basis, [a for a in art_of_row if a is not None], n_cols


# ---------------------------------------------------------------------------
# the dense integer-row simplex, the reference for `lp.solve_lp`'s pivots
# ---------------------------------------------------------------------------
# Every pivot clears the entering column of every row over the whole row
# width, the cost row included, with one call per row.  The start tableau
# and the cost row come from `fraction_tableau` and `to_ints`.

def _reference_eliminate(trow: list[int], prow: list[int], col: int) -> list[int]:
    """`trow` with column `col` cleared against `prow`, whose entry there is
    positive; the result keeps a positive scale."""
    factor = trow[col]
    if not factor:
        return trow
    piv = prow[col]
    return _reduce([piv * v - factor * pv for v, pv in zip(trow, prow)])


def _reference_pivot(tableau: list[list[int]], basis: list[int], row: int, col: int) -> None:
    prow = tableau[row]
    if prow[col] < 0:
        # only the artificial drive-out pivots on a negative entry; the
        # negated row keeps a positive scale
        prow = tableau[row] = [-v for v in prow]
    for r, trow in enumerate(tableau):
        if r != row:
            tableau[r] = _reference_eliminate(trow, prow, col)
    basis[row] = col


def _reference_simplex_phase(
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
        _reference_pivot(tableau, basis, leaving, entering)
        cost[:] = _reference_eliminate(cost, tableau[leaving], entering)


def _reference_price_out(cost: list[int], tableau: list[list[int]], basis: list[int]) -> list[int]:
    """Reduced costs: clear every basic column of the cost row."""
    for r, b in enumerate(basis):
        cost = _reference_eliminate(cost, tableau[r], b)
    return cost


def reference_solve_lp(lp) -> LPSolution:
    """Exact optimum (or infeasible/unbounded status) of a LinearProgram or
    a CoverProgram."""
    lp = as_linear_program(lp)
    n = lp.n_vars
    tableau, basis, artificials, n_cols = fraction_tableau(lp)
    m = len(tableau)

    if artificials:
        cost = [0] * (n_cols + 1)
        for a in artificials:
            cost[a] = 1
        cost = _reference_price_out(cost, tableau, basis)
        if _reference_simplex_phase(tableau, basis, cost, n_cols) != OPTIMAL:
            raise RuntimeError("phase 1 is always bounded")
        if cost[-1] != 0:
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
                _reference_pivot(tableau, basis, r, pivot_col)
            keep_rows.append(r)
        tableau = [tableau[r] for r in keep_rows]
        basis = [basis[r] for r in keep_rows]
        for trow in tableau:
            del trow[n_cols:-1]

    cost = to_ints(list(lp.objective) + [Fraction(0)] * (n_cols + 1 - n))
    cost = _reference_price_out(cost, tableau, basis)
    status = _reference_simplex_phase(tableau, basis, cost, n_cols)
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
# corner-local coordinates in Fraction, the reference for the integer
# reflection of the squares solvers
# ---------------------------------------------------------------------------

def cell_corners(cell: GridCell) -> tuple[Point, Point, Point, Point]:
    """The corners of the closed cell in corner order: bottom-left,
    bottom-right, top-left, top-right; the reference for the corner split."""
    i, j = Fraction(cell.i), Fraction(cell.j)
    return (Point(i, j), Point(i + 1, j), Point(i, j + 1), Point(i + 1, j + 1))


def canonical_point(p: Point, cell: GridCell, corner: int) -> tuple[Fraction, Fraction]:
    """Map a point into corner-local coordinates with the corner at the origin.

    After the reflection the cell is [0,1]^2 and a square containing the
    corner acts as the quadrant x <= u, y <= v for its canonical (u, v).
    An axis flipped by the corner maps to (cell index + 1) - coordinate,
    the other to coordinate - index.
    """
    return (
        cell.i + 1 - p.x if corner & 1 else p.x - cell.i,
        cell.j + 1 - p.y if corner & 2 else p.y - cell.j,
    )


def canonical_square(q: UnitSquare, cell: GridCell, corner: int) -> tuple[Fraction, Fraction]:
    """Clipped top-right corner of the square in corner-local coordinates:
    the canonical point of its far edge, one unit beyond the cell's."""
    return (
        cell.i + 2 - q.tr.x if corner & 1 else q.tr.x - cell.i,
        cell.j + 2 - q.tr.y if corner & 2 else q.tr.y - cell.j,
    )


def maximal_squares_reference(squares, cell: GridCell, corner: int) -> list[UnitSquare]:
    """The dominance-maximal squares by id, on the Fraction keys of
    `canonical_square`: the reference for `staircase_squares`."""
    decorated = sorted(
        [(canonical_square(q, cell, corner), q) for q in squares],
        key=lambda t: (-t[0][0], -t[0][1], t[1].id),
    )
    kept, best_v = [], None
    for (_u, v), q in decorated:
        if best_v is None or v > best_v:
            kept.append(q)
            best_v = v
    return sorted(kept, key=lambda q: q.id)


def staircase_squares(grid, cell: GridCell, corner: int) -> list[UnitSquare]:
    """The dominance-maximal squares of the grid, by id, on the corner-local
    grid corners that the solvers use: those whose cell-clipped region no
    other square swallows.

    After the reflection the cell is [0, D]^2 and a square containing the
    corner acts as the quadrant x <= u, y <= v, so Q is dominated by Q' iff
    u <= u' and v <= v'.  Exact duplicates keep the lowest id.  The
    reference for the quadrant greedy's picks, which are always among
    these.
    """
    decorated = sorted(
        [_corner_local(uv, cell, corner, 2, grid.d) + (q,) for uv, q in zip(grid.uv, grid.squares)],
        key=lambda t: (-t[0], -t[1], t[2].id),
    )
    kept, best_v = [], None
    for _u, v, q in decorated:
        if best_v is None or v > best_v:
            kept.append(q)
            best_v = v
    return sorted(kept, key=lambda q: q.id)


def solve_grid_corner(grid, cell: GridCell, corner: int) -> tuple[int, ...]:
    """`solve_one_corner` with every point and square of the grid as the
    bucket."""
    return solve_one_corner(grid, cell, corner, range(len(grid.xy)), range(len(grid.squares)))


def min_size_cell_cover_reference(points, squares, cell: GridCell) -> tuple[int, ...]:
    """The ids of `ply.min_size_cell_cover_approx` by the eager rounding:
    always solve the size LP, send each square to the first cell corner it
    contains and each point to the corner of largest Fraction load (ties
    to the lowest corner), then run the quadrant greedy on each bucket's
    `maximal_squares_reference` in `canonical_point` coordinates."""
    if not points:
        return ()
    sol = solve_lp(build_size_lp(incidence(points, squares), len(squares)))
    corners = cell_corners(cell)
    at = [next(k for k, c in enumerate(corners) if q.contains(c)) for q in squares]
    chosen = set()
    for k in range(4):
        bucket = [q for q, c in zip(squares, at) if c == k]
        mine = []
        for p in points:
            loads = [
                sum(w for q, c, w in zip(squares, at, sol.assignment) if c == corner and q.contains(p))
                for corner in range(4)
            ]
            if max(range(4), key=lambda corner: (loads[corner], -corner)) == k:
                mine.append(canonical_point(p, cell, k))
        if mine:
            quads = [
                (q.id,) + canonical_square(q, cell, k)
                for q in maximal_squares_reference(bucket, cell, k)
            ]
            chosen.update(quadrant_greedy_cover(mine, quads))
    return tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# LP oracle for strict feasibility of a halfplane system
# ---------------------------------------------------------------------------

def strict_feasible_lp(cons) -> bool:
    """Strict feasibility of {a*x + b*y + c > 0} by LP: maximize the slack t
    of a*x + b*y + c >= t over split variables x+, x-, y+, y-, t >= 0.

    The reference for `geometry.strictly_feasible`, which decides the same
    question by sign tests on pairs and triples instead of a simplex.
    """
    rows = [([a, -a, b, -b, -1], REL_GE, -c) for (a, b, c) in cons]
    sol = general_solve_lp(make_program(5, [0, 0, 0, 0, -1], rows, [None] * 5))
    if sol.status == UNBOUNDED:
        return True
    if sol.status != OPTIMAL:
        return False  # even t = 0 infeasible: closed system already empty
    return -sol.value > 0


def union_within_lp(z, z2) -> bool:
    """Is the union of the closed halfplanes z inside that of z2?  Each h
    of z is the closure of {h > 0} and the complement of the union of z2 is
    open, so h lies in that union iff {h > 0} and {-g > 0 : g in z2} have
    no common point: one `strict_feasible_lp` call per h.  The union
    reference of the one-stability tests, apart from the sign kernel
    `one_stable_local_search` runs on."""
    flipped = [(-g.a, -g.b, -g.c) for g in z2]
    return not any(strict_feasible_lp([h.line(), *flipped]) for h in z)


def union_grows_lp(z, z2) -> bool:
    """Is the union of z2 strictly larger than that of z?"""
    return union_within_lp(z, z2) and not union_within_lp(z2, z)


# ---------------------------------------------------------------------------
# face sampling of a line arrangement in Fraction, the reference for the
# integer sampler
# ---------------------------------------------------------------------------

def face_sample_points_reference(lines) -> list[Point]:
    """Points hitting the interior of every face of the arrangement of the
    (a, b, c) lines, in (x, y) order: midpoints between consecutive
    ordinates on vertical lines midway between consecutive critical
    abscissas, with sentinels one unit beyond the extremes, all in
    Fraction.  The reference for `geometry.face_sample_points`."""
    xs: set[Fraction] = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = Fraction(a1) * b2 - Fraction(a2) * b1
        if det == 0:
            continue
        xs.add((Fraction(b1) * c2 - Fraction(b2) * c1) / det)
    for (a, b, c) in lines:
        if b == 0:
            xs.add(Fraction(-c, a))

    def mid_candidates(values: set[Fraction]) -> list[Fraction]:
        if not values:
            return [Fraction(0)]
        ordered = sorted(values)
        out = [ordered[0] - 1]
        out.extend((lo + hi) / 2 for lo, hi in zip(ordered, ordered[1:]))
        out.append(ordered[-1] + 1)
        return out

    samples: list[Point] = []
    for x_star in mid_candidates(xs):
        ys: set[Fraction] = set()
        for (a, b, c) in lines:
            if b != 0:
                ys.add(Fraction(-(a * x_star + c), b))
        for y_star in mid_candidates(ys):
            samples.append(Point(x_star, y_star))
    return samples


def face_samples_in_box_reference(lines, box) -> tuple[list[Point], int]:
    """The sample `face_sample_points(Arrangement.of(lines), box)` gives each
    face inside the box, in its order: the first point of
    `face_sample_points_reference` in each face whose points lie strictly
    between the bottom and top lines (a == 0) and the left and right lines
    (b == 0) that `box` indexes; and the number of faces outside the box."""
    y_lo, y_hi = [Fraction(-lines[i][2], lines[i][1]) for i in box[:2]]
    x_lo, x_hi = [Fraction(-lines[i][2], lines[i][0]) for i in box[2:]]
    first: dict[tuple[bool, ...], Point] = {}
    for p in face_sample_points_reference(lines):
        # the sign of a*x + b*y + c, times the positive denominators
        xn, xd, yn, yd = p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator
        first.setdefault(tuple([a * xn * yd + b * yn * xd + c * xd * yd > 0 for a, b, c in lines]), p)
    inside = [p for p in first.values() if x_lo < p.x < x_hi and y_lo < p.y < y_hi]
    return inside, len(first) - len(inside)


# ---------------------------------------------------------------------------
# fractional covers for the bucket-membership bound (criterion 5)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalCover:
    """Range-id -> weight map with every weight in [0, 1]."""

    weights: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        for rid, w in self.weights.items():
            if not 0 <= w <= 1:
                raise ValueError(f"weight of range {rid} outside [0, 1]: {w}")

    def weight(self, rid: int) -> Fraction:
        return self.weights.get(rid, Fraction(0))


def membership_of_fractional(sprime, cover: FractionalCover, ranges) -> Fraction:
    """Largest total weight any monitored point collects; 0 when empty."""
    loads = [
        sum((cover.weight(r.id) for r in ranges if r.contains(p)), start=Fraction(0))
        for p in sprime
    ]
    return max(loads, default=Fraction(0))


def bucket_fractional_cover(report, corner: int) -> FractionalCover:
    """Per-bucket weights of a non-quiet CellReport's corner partition:
    four times the cell LP weight, capped at one."""
    partition, sol = report.partition, report.lp_solution
    bucket = set(q.id for q in partition.buckets[corner].squares)
    weights = {
        q.id: min(4 * sol.assignment[pos], Fraction(1))
        for pos, q in enumerate(partition.squares)
        if q.id in bucket
    }
    return FractionalCover(weights)


def eager_max_lp_value(points, sprime, squares) -> Fraction | None:
    """The largest cell LP value of a squares membership solve with every
    non-quiet cell's LP built and solved, from `oracle.incidence` tables:
    the reference for `SquaresReport.max_lp_value`.  None when every cell
    is quiet."""
    values = []
    for grid in grid_partition(SquareGrid.of(points, squares, sprime)).values():
        s_rows = incidence(grid.points, grid.squares)
        sp_rows = [row for row in incidence(sprime, grid.squares) if row]
        if quiet_cover(grid.points, s_rows, sp_rows, grid.squares) is None:
            program = build_membership_lp(s_rows, sp_rows, len(grid.squares))
            values.append(solve_cell_lp(program).value)
    return max(values, default=None)


# ---------------------------------------------------------------------------
# per-anchor segments and per-segment containment, the references for the
# anchor-context segments and masks
# ---------------------------------------------------------------------------

def _orient(p, q, r) -> int:
    """Sign of the turn p->q->r; weights are positive so the homogeneous
    3x3 determinant carries the affine orientation sign directly."""
    d = (
        p[0] * (q[1] * r[2] - r[1] * q[2])
        - p[1] * (q[0] * r[2] - r[0] * q[2])
        + p[2] * (q[0] * r[1] - r[0] * q[1])
    )
    return (d > 0) - (d < 0)


def reference_segments(h_active, p):
    """All finite arrangement segments of the active boundary lines, built
    for one anchor p: one intersection per pair of lines and one
    orientation test per segment.

    Each line contributes one segment per pair of its intersection points
    with the other lines.  Raises ValueError when p sits on a boundary
    line or inside an active halfplane.
    """
    p_h = _hpt(p)
    for h in h_active:
        v = h.a * p_h[0] + h.b * p_h[1] + h.c * p_h[2]
        if v == 0:
            raise ValueError(f"anchor {p!r} lies on the boundary of {h.id}")
        if v > 0:
            raise ValueError(f"halfplane {h.id} contains the anchor {p!r}")
    segments = []
    lines = [h.line() for h in h_active]
    for i, host in enumerate(h_active):
        pts = set()
        for j, other in enumerate(lines):
            if j == i:
                continue
            hit = _line_intersect(lines[i], other)
            if hit is not None:
                pts.add(hit)
        ordered = sorted(pts)
        for a, b in combinations(ordered, 2):
            if _orient(p_h, a, b) < 0:
                segments.append(SegmentPhi(host.id, a, b))
            else:
                segments.append(SegmentPhi(host.id, b, a))
    return segments


def on_segment(x, a, b) -> bool:
    """Is the homogeneous point x on the closed segment [a, b]?  One
    orientation and two dot products, per point and segment."""
    if _orient(a, b, x) != 0:
        return False
    da = _dirvec(a, x)
    db = _dirvec(b, x)
    return _dot2(da, _dirvec(a, b)) >= 0 and _dot2(db, _dirvec(b, a)) >= 0


def in_triangle(x, p, a, b) -> bool:
    """Is the homogeneous point x in the closed triangle (p, a, b)?  Three
    orientations, per point and segment."""
    o1 = _orient(p, a, x)
    o2 = _orient(a, b, x)
    o3 = _orient(b, p, x)
    return (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0)


def segment_masks(s_hpts, anchor, segments):
    """Per segment, the points of S in its closed triangle with the anchor
    and the points on it: one `in_triangle` and one `on_segment` test per
    segment and point."""
    p_h = _hpt(anchor)
    tris, ons = [], []
    for seg in segments:
        tri = on = 0
        for bit, x in enumerate(s_hpts):
            if in_triangle(x, p_h, seg.a_h, seg.b_h):
                tri |= 1 << bit
                if on_segment(x, seg.a_h, seg.b_h):
                    on |= 1 << bit
        tris.append(tri)
        ons.append(on)
    return tris, ons


def window_relation(inst, anchor, active):
    """The window relation's decision at one anchor: a function telling, for
    k, whether its decision graph at k holds a cycle winding once around
    the anchor.

    The window relation tests S on k+1 edges at a time.  It drops a segment
    only when its triangle swallows a point of S on no active line; a
    successor may turn clockwise or go straight on, cross(dir s, dir j) <= 0;
    and a chain passes when every point of S that its triangles swallow
    lies on one of its segments and no point of S' lies in all its hosts.
    A prefix is cut off when a point it swallows and does not carry lies on
    no segment that the segments still to add can reach, as then no
    completion of it passes.  The search is `find_winding_cycle` on the
    chains, met on demand from the crossing ones."""
    active_lines = [h.line() for h in active]
    on_some_line = sum([
        1 << bit
        for bit, (x, y, w) in enumerate(inst.s_hpts)
        if any(a * x + b * y + c * w == 0 for a, b, c in active_lines)
    ])
    segments = reference_segments(active, anchor)
    tri_all, on_all = segment_masks(inst.s_hpts, anchor, segments)
    kept = [i for i, tri in enumerate(tri_all) if not tri & ~on_some_line]
    segs = [segments[i] for i in kept]
    tri, on = [tri_all[i] for i in kept], [on_all[i] for i in kept]
    sp = [inst.sp_masks[seg.host] for seg in segs]
    dirs = [_dirvec(seg.a_h, seg.b_h) for seg in segs]
    starting = {}
    for j, seg in enumerate(segs):
        starting.setdefault(seg.a_h, []).append(j)
    succ = [
        [j for j in starting.get(seg.b_h, []) if _cross2(dirs[i], dirs[j]) <= 0]
        for i, seg in enumerate(segs)
    ]
    p_h = _hpt(anchor)
    ray = _ray_direction(p_h, [e for seg in segs for e in seg[1:]])
    cross = [
        _cross2(_dirvec(p_h, seg.a_h), ray) < 0 < _cross2(_dirvec(p_h, seg.b_h), ray)
        for seg in segs
    ]
    # reach[t][s]: the S points on some segment 1..t successor steps from s
    reach = [[0] * len(segs)]

    def has_cycle(k):
        while len(reach) <= k:
            prev, row = reach[-1], []
            for nexts in succ:
                seen = 0
                for j in nexts:
                    seen |= on[j] | prev[j]
                row.append(seen)
            reach.append(row)

        def chains(starts):
            out = []

            def extend(chain, tri_or, on_or, sp_and):
                left = k + 1 - len(chain)
                if tri_or & ~on_or & ~reach[left][chain[-1]]:
                    return
                if not left:
                    if not sp_and:
                        out.append(chain)
                    return
                for j in succ[chain[-1]]:
                    extend(chain + (j,), tri_or | tri[j], on_or | on[j], sp_and & sp[j])

            for prefix in starts:
                tri_or = on_or = 0
                sp_and = -1
                for s in prefix:
                    tri_or, on_or, sp_and = tri_or | tri[s], on_or | on[s], sp_and & sp[s]
                extend(prefix, tri_or, on_or, sp_and)
            return out

        def step(v):
            return chains([v[1:]] if k else [(j,) for j in succ[v[0]]])

        crossing = chains([(s,) for s in range(len(segs)) if cross[s]])
        return find_winding_cycle(WindGraph(crossing, step)) is not None

    return has_cycle


def anchors(inst):
    """The faces of a halfplane instance as points, each with its face:
    entry i tells whether it lies outside extended[i]."""
    n = len(inst.lines)
    return [
        (Point(Fraction(x, w), Fraction(y, w)), tuple([outside >> i & 1 == 1 for i in range(n)]))
        for x, y, w, outside in inst.faces
    ]


# ---------------------------------------------------------------------------
# the whole (k+1)-chain graph and one search per crossing arc, the reference
# for the on-demand walk of `find_winding_cycle` on its line graph
# ---------------------------------------------------------------------------

def anchor_context(anchor, active, inst):
    """The context of `inst` at the Point `anchor`, outside the halfplanes
    `active` of `inst.extended`, built from the forms the instance holds
    them in: the anchor's homogeneous point and the bitmask of the lines."""
    return _AnchorContext(_hpt(anchor), sum([1 << inst.position[h.id] for h in active]), inst)


def walk_segments(inst, active, wedge):
    """Every segment that `build_segments` keeps from each vertex of each
    line of the instance's arrangement in the bitmask `active` that lies
    on another such line, in key order (the line's position, then the
    lower and the higher HPt rank of the endpoints): all that an anchor's
    context can walk."""
    found = []
    for i, vertices in enumerate(inst.arrangement.vertices):
        if active >> i & 1:
            host = inst.extended[i].id
            side, online = inst.line_sides[host]
            for t, (u, through, r) in enumerate(vertices):
                if through & active:
                    for v, q in build_segments(vertices, t, t + 1, active, side & ~online, wedge):
                        found.append(((i, min(r, q), max(r, q)), SegmentPhi(host, u, v)))
    return [seg for _key, seg in sorted(found)]


def materialize(ctx):
    """Walk all of an anchor context by its own walk: `leaving` from each
    vertex of each active line that lies on another active line, then
    `successors` of every segment.  Its tables then hold every kept segment
    and successor list, under its own ids; returns the ids in key order,
    the order of the ids of a build of every segment."""
    for i, vertices in enumerate(ctx.arrangement.vertices):
        if ctx.active >> i & 1:
            for t, (_v, through, _rank) in enumerate(vertices):
                if through & ctx.active:
                    ctx.leaving(i, t)
    for s in range(len(ctx.segments)):
        ctx.successors(s)
    keys = list(ctx.ids)  # in id order
    return sorted(range(len(keys)), key=keys.__getitem__)


def all_chains(ctx, k):
    """Every passing (k+1)-chain of an anchor context, k >= 1, in
    enumeration order: `ctx.chains(k)` from every one-segment prefix, in
    key order, once the context is materialized."""
    return ctx.chains(k, [(s,) for s in materialize(ctx)])


def reference_graph(ctx, k):
    """The (k+1)-chain graph of an anchor context at k >= 1, in full: every
    chain of `all_chains(ctx, k)` a node, in its order, and the successors
    of v the chains whose first k segments are v's last k, in node order.
    The decision graph is its line graph."""
    vertices = all_chains(ctx, k)
    by_head = {}
    for i, v in enumerate(vertices):
        by_head.setdefault(v[:-1], []).append(i)
    succ = [by_head.get(v[1:], []) for v in vertices]
    crossing = set(ctx.crossing)
    return vertices, succ, [v[0] in crossing for v in vertices]


def reference_cycle(succ, cross):
    """For each crossing arc (u -> v) in node order, a breadth-first search
    for u from v that expands no crossing node; the first cycle found, as
    node indices with the first repeated at the end, or None."""
    for u in range(len(succ)):
        if not cross[u]:
            continue
        for v in succ[u]:
            parent = {v: None}
            queue = [v]
            while queue and u not in parent:
                frontier = []
                for w in queue:
                    if cross[w]:
                        continue
                    for nxt in succ[w]:
                        if nxt not in parent:
                            parent[nxt] = w
                            frontier.append(nxt)
                queue = frontier
            if u not in parent:
                continue
            path = []
            node = u
            while node is not None:
                path.append(node)
                node = parent[node]
            return [u] + path[::-1]
    return None


def reference_winding_cycle(ctx, k):
    """The chains of the once-winding cycle that the full graph's
    per-arc search finds at k, or None."""
    vertices, succ, cross = reference_graph(ctx, k)
    cycle = reference_cycle(succ, cross)
    return None if cycle is None else [vertices[v] for v in cycle]


def reference_line_cycle(ctx, k):
    """The first segments of the nodes of the once-winding cycle that the
    per-arc search finds on the line graph of `reference_graph(ctx, k)`,
    or None.  Its nodes are the k-chains that begin or end a passing
    (k+1)-chain, in key order, and its arcs are those chains, in key
    order: the decision graph at k, given whole."""
    chains = all_chains(ctx, k)
    keys = list(ctx.ids)  # in id order
    nodes = sorted({c[:-1] for c in chains} | {c[1:] for c in chains}, key=lambda v: [keys[s] for s in v])
    index = {v: i for i, v in enumerate(nodes)}
    succ = [[] for _ in nodes]
    for c in chains:
        succ[index[c[:-1]]].append(index[c[1:]])
    crossing = set(ctx.crossing)
    cycle = reference_cycle(succ, [v[0] in crossing for v in nodes])
    return None if cycle is None else [nodes[v][0] for v in cycle]


def additive_reference(inst):
    """The additive-error cover of a `_HalfplaneInstance`, one
    CoverSolution.build per candidate and the least membership by `min`:
    the reference for `_HalfplaneInstance.rough`, which builds only the
    winner, and reads plane covers only until one reaches the floor."""
    if not inst.points:
        return CoverSolution((), 0)
    stable = one_stable_local_search(inst.min_cover, inst.halfplanes)
    best = CoverSolution.build([h.id for h in stable], inst.sp_rows, inst.halfplanes)
    candidates = [
        CoverSolution.build([inst.halfplanes[j].id for j in combo], inst.sp_rows, inst.halfplanes)
        for combo in _plane_covers(inst.halfplanes)
    ]
    return min([best, *candidates], key=lambda cs: cs.memb)


def small_scan_reference(inst):
    """`_HalfplaneInstance._small_scan` on the rows: each combination of at
    most three halfplanes in (size, ids) order, tested by `first_uncovered`
    on the S rows, returning at the first cover at the floor; the reference
    for the scan on the S columns."""
    floor = 0 if inst.quiet_cover is not None else 1
    best = None
    least_size = 4
    for size in (1, 2, 3):
        for combo in combinations(range(len(inst.halfplanes)), size):
            chosen = sum([1 << j for j in combo])
            if first_uncovered(inst.points, inst.s_rows, chosen) is None:
                least_size = min(least_size, size)
                memb = depth(inst.sp_rows, chosen)
                if best is None or memb < best[0]:
                    best = (memb, size, tuple([inst.halfplanes[j].id for j in combo]))
                    if memb <= floor:
                        return best, least_size
    return best, least_size


# ---------------------------------------------------------------------------
# seeded instance builders
# ---------------------------------------------------------------------------

RES = 64


def grid_frac(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo * RES, hi * RES), RES)


def least_cover_reference(points, ranges, value):
    """(value, ids) of the least (value(chosen), size, ids) over every subset
    `chosen` of `ranges` (a tuple of ranges in id order) that covers
    `points`, enumerated by itertools; None when no subset covers."""
    ordered = sorted(ranges, key=lambda r: r.id)
    holds = {r.id: frozenset([i for i, p in enumerate(points) if r.contains(p)]) for r in ordered}
    every = frozenset(range(len(points)))
    best = None
    for size in range(len(ordered) + 1):
        for chosen in combinations(ordered, size):
            if frozenset().union(*[holds[r.id] for r in chosen]) == every:
                key = (value(chosen), size, tuple([r.id for r in chosen]))
                best = key if best is None else min(best, key)
    return None if best is None else (best[0], best[2])


def cell_instance(seed: int, max_squares: int = 10, max_points: int = 12):
    """Single-cell instance: points in [0,1) x [0,1), squares meeting it.

    Every point is guaranteed coverable.  Monitored points live in the
    surrounding 3x3 block so membership interactions stay interesting.
    """
    rng = random.Random(("cell", seed).__repr__())
    n_squares = rng.randint(1, max_squares)
    squares = [
        UnitSquare(i, Point(grid_frac(rng, 0, 2), grid_frac(rng, 0, 2)))
        for i in range(n_squares)
    ]
    n_points = rng.randint(1, max_points)
    points = []
    while len(points) < n_points:
        p = Point(
            Fraction(rng.randint(0, RES - 1), RES),
            Fraction(rng.randint(0, RES - 1), RES),
        )
        if any(q.contains(p) for q in squares):
            points.append(p)
    n_prime = rng.randint(0, max_points)
    sprime = [
        Point(grid_frac(rng, -1, 2), grid_frac(rng, -1, 2)) for _ in range(n_prime)
    ]
    return points, sprime, squares


def mixed_grid_instance(rng: random.Random, cell: GridCell, max_squares: int = 8):
    """Points, monitored points and squares around `cell` on the lattices
    1/3, 1/7 and 1/64 mixed, so the common grid unit is not 64.

    Squares are duplicates of earlier ones, have integer corners (each
    then sits on a cell corner), or have a free corner in the 3x3 block of
    cells around `cell`.  Points are square corners, points on square
    edges, or free points in that block.
    """

    def coord(base: int) -> Fraction:
        den = rng.choice([1, 3, 7, 64])
        return base + Fraction(rng.randint(-den, 2 * den), den)

    squares: list[UnitSquare] = []
    for i in range(rng.randint(1, max_squares)):
        kind = rng.random()
        if squares and kind < 0.15:
            tr = rng.choice(squares).tr
        elif kind < 0.4:
            tr = Point(Fraction(cell.i + rng.randint(0, 2)), Fraction(cell.j + rng.randint(0, 2)))
        else:
            tr = Point(coord(cell.i), coord(cell.j))
        squares.append(UnitSquare(i, tr))

    def point() -> Point:
        if rng.random() < 0.5:
            q = rng.choice(squares)
            x = rng.choice([q.tr.x - 1, q.tr.x, coord(cell.i)])
            y = rng.choice([q.tr.y - 1, q.tr.y, coord(cell.j)])
            return Point(x, y)
        return Point(coord(cell.i), coord(cell.j))

    points = [point() for _ in range(rng.randint(1, 10))]
    sprime = [point() for _ in range(rng.randint(0, 10))]
    return points, sprime, squares


def one_corner_instance(seed: int, max_squares: int = 8, max_points: int = 8):
    """Canonical one-corner data: quadrant pairs and coverable points."""
    rng = random.Random(("corner", seed).__repr__())
    n_quads = rng.randint(1, max_squares)
    quads = [
        (i, Fraction(rng.randint(1, RES), RES), Fraction(rng.randint(1, RES), RES))
        for i in range(n_quads)
    ]
    n_points = rng.randint(1, max_points)
    points = []
    while len(points) < n_points:
        u = Fraction(rng.randint(0, RES), RES)
        v = Fraction(rng.randint(0, RES), RES)
        if any(u <= qu and v <= qv for _, qu, qv in quads):
            points.append((u, v))
    return points, quads


def halfplane_instance(seed: int, max_planes: int = 8, max_points: int = 8):
    """Random halfplane instance with every point coverable."""
    rng = random.Random(("halfplane", seed).__repr__())
    n_h = rng.randint(2, max_planes)
    extent = 4
    corners = [(0, 0), (extent, 0), (0, extent), (extent, extent)]
    planes = []
    for i in range(n_h):
        a = b = 0
        while a == 0 and b == 0:
            a = rng.randint(-8, 8)
            b = rng.randint(-8, 8)
        values = [a * cx + b * cy for cx, cy in corners]
        c = -rng.randint(min(values), max(values))
        planes.append(Halfplane(i, a, b, c))
    n_points = rng.randint(1, max_points)
    points = []
    attempts = 0
    while len(points) < n_points and attempts < 4000:
        attempts += 1
        p = Point(grid_frac(rng, 0, extent), grid_frac(rng, 0, extent))
        if any(h.contains(p) for h in planes):
            points.append(p)
    n_prime = rng.randint(0, max_points)
    sprime = [
        Point(grid_frac(rng, 0, extent), grid_frac(rng, 0, extent))
        for _ in range(n_prime)
    ]
    return points, sprime, planes


def fan_instance(seed: int):
    """Eight halfplanes tangent to a circle: every cover needs all of them.

    The tangency points are each covered by exactly one halfplane, so the
    minimum-size cover is the whole set and the optimal membership is
    dictated purely by where the monitored points fall.  These instances
    force the solver through its polygon-cycle search.
    """
    rng = random.Random(("fan", seed).__repr__())
    normals = [(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (-3, 4), (3, -4), (-3, -4)]
    drop = rng.sample(range(8), rng.randint(0, 2))
    tx, ty = rng.randint(-3, 3), rng.randint(-3, 3)
    planes = []
    points = []
    idx = 0
    for pos, (a, b) in enumerate(normals):
        if pos in drop:
            continue
        planes.append(Halfplane(idx, a, b, -25 - (a * tx + b * ty)))
        points.append(Point(Fraction(a + tx), Fraction(b + ty)))
        idx += 1
    n_prime = rng.randint(1, 8)
    sprime = [
        Point(Fraction(tx + rng.randint(-7, 7)), Fraction(ty + rng.randint(-7, 7)))
        for _ in range(n_prime)
    ]
    return points, sprime, planes


# the integer points of the radius-65 circle, by angle: halfplanes tangent
# there share one norm, so each tangency point lies in its own halfplane only
FAN_RADIUS = 65
FAN_POINTS = sorted(
    [
        (x, y)
        for x in range(-FAN_RADIUS, FAN_RADIUS + 1)
        for y in range(-FAN_RADIUS, FAN_RADIUS + 1)
        if x * x + y * y == FAN_RADIUS * FAN_RADIUS
    ],
    key=lambda t: math.atan2(t[1], t[0]),
)


def tangent_fan(seed, n: int, k: int, n_prime: int = 6):
    """n halfplanes a*x + b*y >= 65^2 tangent to the circle at (a, b),
    sampled by random.Random(seed), with monitored points in the box of
    half-width 130: the first has depth exactly k, the others at most k.

    Every cover takes all n halfplanes, so the optimum membership is k.
    The same draws as the benchmark's `halfplanes-fan` generator with n
    halfplanes and optimum k; its ladder rows use seed 1.
    """
    rng = random.Random(seed)
    r2 = FAN_RADIUS * FAN_RADIUS
    box = 2 * FAN_RADIUS
    tangents = sorted(rng.sample(FAN_POINTS, n), key=FAN_POINTS.index)

    def monitored(exact: bool) -> Point:
        while True:
            x, y = rng.randint(-box, box), rng.randint(-box, box)
            depth = sum(1 for a, b in tangents if a * x + b * y >= r2)
            if depth == k or (depth < k and not exact):
                return Point(Fraction(x), Fraction(y))

    sprime = [monitored(exact=True)] + [monitored(exact=False) for _ in range(n_prime - 1)]
    points = [Point(Fraction(a), Fraction(b)) for a, b in tangents]
    planes = [Halfplane(i, a, b, -r2) for i, (a, b) in enumerate(tangents)]
    return points, sprime, planes


def ring_instance(seed, n: int, n_points: int = 12, n_prime: int = 12):
    """n halfplanes missing the origin, with S on the radius-40 circle.

    A halfplane has a random direction t, normal (a, b) = round(16 cos t,
    16 sin t) and c = -round(28 |(a, b)| U(0.9, 1.1)).  Each of the
    `n_points` draws round(40 cos f, 40 sin f) is kept if some halfplane
    contains it, and S' holds `n_prime` integer points of [-60, 60]^2.
    All draws come from random.Random(seed) in that order.
    """
    rng = random.Random(seed)
    planes = []
    for i in range(n):
        t = rng.uniform(0, 2 * math.pi)
        a, b = round(16 * math.cos(t)), round(16 * math.sin(t))
        planes.append(Halfplane(i, a, b, -round(28 * math.hypot(a, b) * rng.uniform(0.9, 1.1))))
    points = []
    for _ in range(n_points):
        f = rng.uniform(0, 2 * math.pi)
        p = Point(Fraction(round(40 * math.cos(f))), Fraction(round(40 * math.sin(f))))
        if any(h.contains(p) for h in planes):
            points.append(p)
    sprime = [
        Point(Fraction(rng.randint(-60, 60)), Fraction(rng.randint(-60, 60)))
        for _ in range(n_prime)
    ]
    return points, sprime, planes


def verify_winding_certificate(report, points, sprime, planes):
    """Independent replay of a cycle certificate: winding number, convex
    clockwise polygon, no mandatory point strictly inside, membership
    within the threshold.  Uses none of the graph machinery."""
    import math

    cert = report.certificate
    poly = cert.polygon
    n = len(poly)
    assert n >= 3
    p = cert.anchor
    total = 0.0
    for i in range(n):
        ax, ay = poly[i].x - p.x, poly[i].y - p.y
        bx, by = poly[(i + 1) % n].x - p.x, poly[(i + 1) % n].y - p.y
        cross = float(ax * by - ay * bx)
        dot = float(ax * bx + ay * by)
        total += math.atan2(cross, dot)
    assert abs(total + 2 * math.pi) < 1e-6  # clockwise single revolution
    for i in range(n):
        a, b, c = poly[i], poly[(i + 1) % n], poly[(i + 2) % n]
        cr = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
        assert cr <= 0  # consistently clockwise, exact
    assert cert.crossings == 1
    for q in points:
        strict_inside = True
        for i in range(n):
            a, b = poly[i], poly[(i + 1) % n]
            cr = (b.x - a.x) * (q.y - a.y) - (b.y - a.y) * (q.x - a.x)
            if cr >= 0:
                strict_inside = False
                break
        assert not strict_inside
    chosen = set(h for h in cert.hosts if h >= 0)
    by_id = {h.id: h for h in planes}
    for q in sprime:
        depth = sum(1 for hid in chosen if by_id[hid].contains(q))
        assert depth <= cert.k


def square_instance(seed: int, max_squares: int = 10, max_points: int = 10, extent: int = 3):
    """Multi-cell unit-square instance with every point coverable."""
    rng = random.Random(("squares", seed).__repr__())
    n_squares = rng.randint(1, max_squares)
    squares = [
        UnitSquare(i, Point(grid_frac(rng, 0, extent + 1), grid_frac(rng, 0, extent + 1)))
        for i in range(n_squares)
    ]
    n_points = rng.randint(1, max_points)
    points = []
    while len(points) < n_points:
        p = Point(grid_frac(rng, 0, extent), grid_frac(rng, 0, extent))
        if any(q.contains(p) for q in squares):
            points.append(p)
    n_prime = rng.randint(0, max_points)
    sprime = [
        Point(grid_frac(rng, 0, extent), grid_frac(rng, 0, extent))
        for _ in range(n_prime)
    ]
    return points, sprime, squares
