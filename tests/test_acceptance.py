"""Acceptance suite: every guarantee checked at scale, one line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
Batteries are module-scoped fixtures so the expensive solves run once.
"""

import io
import time
from fractions import Fraction

import pytest

from conftest import (
    bucket_fractional_cover,
    cell_instance,
    fan_instance,
    halfplane_instance,
    membership_of_fractional,
    one_corner_instance,
    square_instance,
    staircase_squares,
    union_grows_lp,
    verify_winding_certificate,
)

from membercover import (
    GridCell,
    Point,
    SquareGrid,
    UnitSquare,
    build_membership_lp,
    build_size_lp,
    exact_minsize_bruteforce,
    exact_mmgsc_bruteforce,
    exact_mpgsc_bruteforce,
    incidence,
    memb_eval,
    ptas,
    quadrant_greedy_cover,
    solve_lp,
    solve_mpgsc,
    verify_cover,
)
from membercover.cli import run_bench
from membercover.halfplanes import (
    additive_error_cover,
    exact_mmgsc_halfplanes_report,
)
from membercover.squares import solve_cell_report

CELL = GridCell(0, 0)

CELL_SEEDS = 300
CORNER_SEEDS = 300
HALFPLANE_SEEDS = 100
FAN_SHARE = 20  # last 20 of the halfplane battery force the cycle search
MPGSC_SEEDS = 200


def _line(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cell_battery():
    start = time.perf_counter()
    rows = []
    for seed in range(CELL_SEEDS):
        points, sprime, squares = cell_instance(seed, max_squares=10, max_points=12)
        report = solve_cell_report(SquareGrid.of(points, squares, sprime), CELL)
        opt, _ = exact_mmgsc_bruteforce(points, sprime, squares)
        rows.append((points, sprime, squares, report, opt))
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.fixture(scope="module")
def halfplane_battery():
    start = time.perf_counter()
    rows = []
    for seed in range(HALFPLANE_SEEDS):
        if seed < HALFPLANE_SEEDS - FAN_SHARE:
            points, sprime, planes = halfplane_instance(seed, max_planes=8, max_points=8)
        else:
            points, sprime, planes = fan_instance(seed)
        report = exact_mmgsc_halfplanes_report(points, sprime, planes)
        opt, _ = exact_mmgsc_bruteforce(points, sprime, planes)
        rows.append((points, sprime, planes, report, opt))
    elapsed = time.perf_counter() - start
    return rows, elapsed


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_cell_bound(cell_battery):
    rows, elapsed = cell_battery
    violations = 0
    for points, sprime, squares, report, opt in rows:
        cover = report.cover
        if not verify_cover(points, cover.ids, squares):
            violations += 1
            continue
        if cover.memb > 16 * opt + 8:
            violations += 1
        if report.lp_value is not None and Fraction(cover.memb) > 16 * report.lp_value + 8:
            violations += 1
    ok = violations == 0 and elapsed < 180
    _line(
        "criterion 1 (cell bound 16*opt+8 and 16*y+8)",
        ok,
        f"{len(rows)} instances, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 180


def test_criterion_02_lp_below_opt(cell_battery):
    rows, _ = cell_battery
    violations = 0
    for points, sprime, squares, report, opt in rows:
        lp_value = report.lp_value
        if lp_value is None:
            lp_value = solve_lp(build_membership_lp(
                incidence(points, squares), incidence(sprime, squares), len(squares)
            )).value
        if lp_value > opt:
            violations += 1
    _line("criterion 2 (fractional optimum below integral)", violations == 0,
          f"{len(rows)} instances, {violations} violations")
    assert violations == 0


def test_criterion_03_quarter_load(cell_battery):
    rows, _ = cell_battery
    checked = 0
    violations = 0
    for points, sprime, squares, report, _opt in rows:
        part = report.partition
        if part is None:
            continue
        sol = report.lp_solution
        for corner in range(4):
            bucket = set(q.id for q in part.buckets[corner].squares)
            for p in part.buckets[corner].points:
                delta = sum(
                    sol.assignment[pos]
                    for pos, q in enumerate(part.squares)
                    if q.id in bucket and q.contains(p)
                )
                checked += 1
                if delta < Fraction(1, 4):
                    violations += 1
    _line("criterion 3 (winning corner load >= 1/4)", violations == 0,
          f"{checked} point assignments, {violations} violations")
    assert checked > 0 and violations == 0


def test_criterion_04_greedy_equals_minimum_and_lp():
    violations = 0
    for seed in range(CORNER_SEEDS):
        canon_points, quads = one_corner_instance(seed, max_squares=8)
        squares = [UnitSquare(i, Point.of(u, v)) for i, u, v in quads]
        points = [Point.of(u, v) for u, v in canon_points]
        maxi = staircase_squares(SquareGrid.of([], squares), CELL, 0)
        chosen = quadrant_greedy_cover(
            canon_points, [(q.id, q.tr.x, q.tr.y) for q in maxi]
        )
        opt_size, _ = exact_minsize_bruteforce(points, squares)
        lp_value = solve_lp(build_size_lp(incidence(points, squares), len(squares))).value
        if len(chosen) != opt_size or Fraction(opt_size) != lp_value:
            violations += 1
    _line("criterion 4 (quadrant greedy = minimum = size LP)", violations == 0,
          f"{CORNER_SEEDS} instances, {violations} violations")
    assert violations == 0


def test_criterion_05_bucket_membership_within_two(cell_battery):
    rows, _ = cell_battery
    checked = 0
    violations = 0
    for points, sprime, squares, report, _opt in rows:
        if report.partition is None:
            continue
        for corner in range(4):
            if not report.partition.buckets[corner].points:
                continue
            memb = memb_eval(sprime, report.bucket_ids[corner], squares)
            frac = bucket_fractional_cover(report, corner)
            frac_memb = membership_of_fractional(sprime, frac, squares)
            checked += 1
            if Fraction(memb) > frac_memb + 2:
                violations += 1
    _line("criterion 5 (bucket membership <= fractional + 2)", violations == 0,
          f"{checked} buckets, {violations} violations")
    assert checked > 0 and violations == 0


def test_criterion_06_exact_solver_matches_oracle(halfplane_battery):
    rows, elapsed = halfplane_battery
    violations = 0
    cycles = 0
    for points, sprime, planes, report, opt in rows:
        if report.cover.memb != opt or report.k != opt:
            violations += 1
            continue
        if not verify_cover(points, report.cover.ids, planes):
            violations += 1
            continue
        if report.certificate is not None:
            cycles += 1
            verify_winding_certificate(report, points, sprime, planes)
    ok = violations == 0 and cycles > 0 and elapsed < 600
    _line(
        "criterion 6 (halfplane exact = oracle, cycles re-verified)",
        ok,
        f"{len(rows)} instances, {violations} violations, "
        f"{cycles} cycle certificates, {elapsed:.1f}s",
    )
    assert violations == 0
    assert cycles > 0
    assert elapsed < 600


def test_criterion_07_additive_error(halfplane_battery):
    rows, _ = halfplane_battery
    violations = 0
    unstable = 0
    for points, sprime, planes, _report, opt in rows:
        cover = additive_error_cover(points, sprime, planes)
        if cover.memb > opt + 2:
            violations += 1
        chosen = [h for h in planes if h.id in set(cover.ids)]
        ids = set(cover.ids)
        for h_out in chosen:
            for h_in in planes:
                if h_in.id in ids:
                    continue
                candidate = [h for h in chosen if h.id != h_out.id] + [h_in]
                if union_grows_lp(chosen, candidate):
                    unstable += 1
    _line("criterion 7 (additive error <= 2, output 1-stable)",
          violations == 0 and unstable == 0,
          f"{len(rows)} instances, {violations} bound violations, "
          f"{unstable} improving swaps found")
    assert violations == 0
    assert unstable == 0


def test_criterion_08_ptas_ratio(halfplane_battery):
    rows, _ = halfplane_battery
    violations = 0
    for eps in (Fraction(1), Fraction(1, 2)):
        for points, sprime, planes, _report, opt in rows:
            cover = ptas(points, sprime, planes, eps)
            if opt == 0:
                if cover.memb != 0:
                    violations += 1
            elif Fraction(cover.memb) > (1 + eps) * opt:
                violations += 1
    _line("criterion 8 (ptas ratio for eps in {1, 1/2})", violations == 0,
          f"{2 * len(rows)} runs, {violations} violations")
    assert violations == 0


def test_criterion_09_mpgsc_bound():
    violations = 0
    worst = Fraction(0)
    for seed in range(MPGSC_SEEDS):
        points, _sp, squares = square_instance(seed, max_squares=10)
        cover, report = solve_mpgsc(points, squares)
        if not verify_cover(points, cover.ids, squares):
            violations += 1
            continue
        opt, _ = exact_mpgsc_bruteforce(points, squares)
        if report.value > 576 * opt:
            violations += 1
        if opt:
            worst = max(worst, Fraction(report.value, opt))
    # the bench summary must expose the empirical ratio
    _rows, summary = run_bench(
        kind="squares", seeds=30, max_ranges=8, n_points=5, extent=2, with_oracle=True
    )
    ratio_reported = summary["solvers"]["squares-ply"]["max_ratio"]
    _line("criterion 9 (ply within 576x of optimal)",
          violations == 0 and ratio_reported is not None,
          f"{MPGSC_SEEDS} instances, {violations} violations, "
          f"max ratio {float(worst):.2f}, bench summary ratio {ratio_reported}")
    assert violations == 0
    assert ratio_reported is not None


def test_criterion_10_bench_determinism():
    def matrix():
        chunks = []
        for kind, seeds in (("squares", 40), ("halfplanes", 25)):
            rows, _summary = run_bench(
                kind=kind, seeds=seeds, max_ranges=8, n_points=5, extent=2,
                with_oracle=True,
            )
            chunks.append(rows)
        return chunks

    first = matrix()
    second = matrix()
    identical = True
    for rows1, rows2 in zip(first, second):
        for r in rows1 + rows2:
            r.pop("millis", None)
        buf1, buf2 = io.StringIO(), io.StringIO()
        cols = [c for c in
                ["seed", "kind", "solver", "n_points", "n_ranges", "value",
                 "oracle_value", "lp_value", "size"]]
        import csv as _csv

        for rows, buf in ((rows1, buf1), (rows2, buf2)):
            writer = _csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        if buf1.getvalue().encode() != buf2.getvalue().encode():
            identical = False
    _line("criterion 10 (bench rerun byte-identical)", identical,
          "squares x40 + halfplanes x25, value columns compared as bytes")
    assert identical


def test_criterion_11_property_suites():
    import test_geometry
    import test_halfplanes

    test_geometry.TestSandwich().test_overlap_inside_middle_square()
    test_halfplanes.TestAngleFacts().test_irreducible_sets_admit_strict_angle_order()
    test_halfplanes.TestAngleFacts().test_ordered_irreducible_intersection_is_extremes()
    test_geometry.TestFaceSamples().test_five_general_lines_sixteen_faces()
    test_geometry.TestFaceSamples().test_degenerate_arrangements_up_to_six()
    test_geometry.TestUnionCompare().test_point_grid_oracle()
    test_geometry.TestUnionCompare().test_union_grows_with_members()
    _line("criterion 11 (property suites)", True,
          "sandwich, angle order, extremes intersection, face samples, union compare")
