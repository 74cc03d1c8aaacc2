"""Command-line front end: gen, solve, exact, verify, bench, plot.

Exit codes: 0 success, 1 usage or parse errors, 2 uncoverable instance.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .covers import CoverSolution, Uncoverable
from .geometry import frac, integer
from .halfplanes import additive_error_cover, exact_mmgsc_halfplanes_report, ptas
from .instances import (
    KIND_HALFPLANES,
    KIND_SQUARES,
    InstanceDoc,
    InstanceParseError,
    generate,
    parse_instance,
    read_json,
    serialize_instance,
)
from .oracle import (
    BudgetExceeded,
    OracleBudget,
    exact_minsize_bruteforce,
    exact_mmgsc_bruteforce,
    exact_mpgsc_bruteforce,
    memb_eval,
    verify_cover,
)
from .ply import ply as ply_of
from .ply import solve_mpgsc
from .squares import solve_mmgsc_squares_report
from .svgplot import render_svg

BENCH_SCHEMA_VERSION = 1
CSV_COLUMNS = [
    "seed",
    "kind",
    "solver",
    "n_points",
    "n_ranges",
    "value",
    "oracle_value",
    "lp_value",
    "size",
    "millis",
]

OBJECTIVE_MEMBERSHIP = "membership"
OBJECTIVE_PLY = "ply"
OBJECTIVE_SIZE = "size"


@dataclass(frozen=True)
class RunReport:
    solver: str
    cover: tuple[int, ...]
    value: int
    size: int
    lp_value: Fraction | None
    millis: float
    oracle_value: int | None = None

    def to_json(self, doc: InstanceDoc) -> str:
        ids = set(self.cover)
        value = (
            ply_of([r for r in doc.ranges if r.id in ids]).value
            if self.solver.endswith("ply")
            else memb_eval(doc.sprime, self.cover, doc.ranges)
        )
        if value != self.value:
            raise RuntimeError("cached objective drifted from the cover")
        obj = {
            "schema": BENCH_SCHEMA_VERSION,
            "solver": self.solver,
            "digest": doc.digest(),
            "kind": doc.kind,
            "n_points": doc.n_points,
            "n_ranges": doc.n_ranges,
            "cover": list(self.cover),
            "value": self.value,
            "size": self.size,
            "lp_value": None if self.lp_value is None else str(self.lp_value),
            "millis": round(self.millis, 3),
            "oracle_value": self.oracle_value,
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str):  # map usage errors to exit code 1
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _solve_one(
    doc: InstanceDoc, solver: str, epsilon: Fraction
) -> tuple[CoverSolution, int, Fraction | None]:
    """The cover, its objective value and the largest cell LP value, if any."""
    if solver == "squares-membership":
        report = solve_mmgsc_squares_report(doc.s, doc.sprime, doc.ranges)
        return report.cover, report.cover.memb, report.max_lp_value
    if solver == "squares-ply":
        cover, ply_report = solve_mpgsc(doc.s, doc.ranges)
        return cover, ply_report.value, None
    if solver == "halfplanes-additive":
        cover = additive_error_cover(doc.s, doc.sprime, doc.ranges)
    elif solver.startswith("halfplanes-ptas-"):
        cover = ptas(doc.s, doc.sprime, doc.ranges, solver.removeprefix("halfplanes-ptas-"))
    elif solver == "halfplanes-ptas":
        cover = ptas(doc.s, doc.sprime, doc.ranges, epsilon)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return cover, cover.memb, None


def _oracle_value(doc: InstanceDoc, solver: str) -> int | None:
    """The oracle's optimum under its default budget; None past the budget."""
    try:
        if solver.endswith("ply"):
            value, _ = exact_mpgsc_bruteforce(doc.s, doc.ranges)
        else:
            value, _ = exact_mmgsc_bruteforce(doc.s, doc.sprime, doc.ranges)
        return value
    except BudgetExceeded:
        return None


def run_report(
    doc: InstanceDoc,
    solver: str,
    epsilon: Fraction = Fraction(1),
    with_oracle: bool = False,
) -> RunReport:
    start = time.perf_counter()
    cover, value, lp_value = _solve_one(doc, solver, epsilon)
    millis = (time.perf_counter() - start) * 1000
    oracle_value = _oracle_value(doc, solver) if with_oracle else None
    return RunReport(
        solver=solver,
        cover=cover.ids,
        value=value,
        size=cover.size,
        lp_value=lp_value,
        millis=millis,
        oracle_value=oracle_value,
    )


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def bench_solvers(kind: str) -> list[str]:
    if kind == KIND_SQUARES:
        return ["squares-membership", "squares-ply"]
    return ["halfplanes-additive", "halfplanes-ptas-1", "halfplanes-ptas-1/2"]


def _bench_seed(
    kind: str, seed: int, n_points: int, max_ranges: int, extent: int, with_oracle: bool
) -> list[dict]:
    n_ranges = (seed % max_ranges) + 1
    doc = generate(kind, n_points=n_points, n_ranges=n_ranges, extent=extent, seed=seed)
    rows = []
    for solver in bench_solvers(kind):
        row = {
            "seed": seed,
            "kind": kind,
            "solver": solver,
            "n_points": doc.n_points,
            "n_ranges": doc.n_ranges,
        }
        try:
            report = run_report(doc, solver, with_oracle=with_oracle)
        except Uncoverable:
            row.update(value="uncoverable", oracle_value="", lp_value="", size="", millis="0")
        else:
            row.update(
                value=report.value,
                oracle_value="" if report.oracle_value is None else report.oracle_value,
                lp_value="" if report.lp_value is None else str(report.lp_value),
                size=report.size,
                millis=f"{report.millis:.3f}",
            )
        rows.append(row)
    return rows


def run_bench(
    kind: str,
    seeds: int,
    max_ranges: int,
    n_points: int,
    extent: int,
    with_oracle: bool,
) -> tuple[list[dict], dict]:
    rows = [
        row
        for seed in range(seeds)
        for row in _bench_seed(kind, seed, n_points, max_ranges, extent, with_oracle)
    ]

    summary: dict = {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": kind,
        "seeds": seeds,
        "solvers": {},
    }
    for solver in bench_solvers(kind):
        solver_rows = [r for r in rows if r["solver"] == solver]
        ratios = []
        violations = 0
        for r in solver_rows:
            if r["value"] == "uncoverable" or r["oracle_value"] == "":
                continue
            value, oracle = int(r["value"]), int(r["oracle_value"])
            if oracle > 0:
                ratios.append(value / oracle)
            elif value > 0:
                violations += 1
        summary["solvers"][solver] = {
            "runs": len(solver_rows),
            "max_ratio": max(ratios) if ratios else None,
            "zero_opt_nonzero_value": violations,
        }
    return rows, summary


def write_csv(rows: list[dict], stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(text: str, path: str | None) -> None:
    """Write `text` to the file at `path`, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    doc = generate(
        args.kind,
        n_points=args.points,
        n_ranges=args.ranges,
        extent=args.extent,
        seed=args.seed,
        n_prime=args.prime_points,
    )
    _emit(serialize_instance(doc), args.out)
    return 0


def _load(path: str) -> InstanceDoc:
    with open(path, "rb") as fh:  # the JSON reader decodes, so bad bytes are a parse error
        return parse_instance(fh.read())


def _cmd_solve(args) -> int:
    doc = _load(args.instance)
    if args.objective == OBJECTIVE_PLY:
        if doc.kind != KIND_SQUARES:
            raise _UsageError("ply objective needs a squares instance")
        solver = "squares-ply"
    elif doc.kind == KIND_SQUARES:
        solver = "squares-membership"
    else:
        solver = "halfplanes-ptas"
    report = run_report(doc, solver, epsilon=args.epsilon, with_oracle=args.with_oracle)
    sys.stdout.write(report.to_json(doc))
    return 0


def _cmd_exact(args) -> int:
    doc = _load(args.instance)
    search = args.solver == "search"
    if search and (args.objective != OBJECTIVE_MEMBERSHIP or doc.kind != KIND_HALFPLANES):
        raise _UsageError("the search solver needs membership on a halfplanes instance")
    budget = OracleBudget(max_ranges=args.max_ranges)
    if args.objective == OBJECTIVE_PLY:
        value, ids = exact_mpgsc_bruteforce(doc.s, doc.ranges, budget)
    elif args.objective == OBJECTIVE_SIZE:
        value, ids = exact_minsize_bruteforce(doc.s, doc.ranges, budget)
    elif search:
        cover = exact_mmgsc_halfplanes_report(doc.s, doc.sprime, doc.ranges).cover
        value, ids = cover.memb, cover.ids
    else:
        value, ids = exact_mmgsc_bruteforce(doc.s, doc.sprime, doc.ranges, budget)
    obj = {
        "objective": args.objective,
        "value": value,
        "witness": list(ids),
        "digest": doc.digest(),
    }
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return 0


def _load_cover(path: str, doc: InstanceDoc) -> list[int]:
    """The ids of a cover file: an object whose "cover" lists ids of `doc`."""
    with open(path, "rb") as fh:
        cover_doc = read_json(fh.read(), "cover file")
    ids = cover_doc.get("cover") if isinstance(cover_doc, dict) else None
    if not isinstance(ids, list) or not all(type(i) is int for i in ids):  # no bools
        raise InstanceParseError("cover file needs a list of ids", field_name="cover")
    unknown = sorted(set(ids) - {r.id for r in doc.ranges})
    if unknown:
        raise InstanceParseError(f"cover names unknown ids {unknown}", field_name="cover")
    return ids


def _cmd_verify(args) -> int:
    doc = _load(args.instance)
    ids = _load_cover(args.cover, doc)
    ok = verify_cover(doc.s, ids, doc.ranges)
    memb = memb_eval(doc.sprime, ids, doc.ranges)
    obj = {"covers": ok, "membership": memb, "size": len(set(ids))}
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 2


def _cmd_bench(args) -> int:
    rows, summary = run_bench(
        kind=args.kind,
        seeds=args.seeds,
        max_ranges=args.max_ranges,
        n_points=args.points,
        extent=args.extent,
        with_oracle=args.with_oracle,
    )
    table = io.StringIO()
    write_csv(rows, table)
    _emit(table.getvalue(), args.out_csv)
    _emit(json.dumps(summary, sort_keys=True, indent=2) + "\n", args.out_json)
    return 0


def _cmd_plot(args) -> int:
    doc = _load(args.instance)
    cover_ids = _load_cover(args.cover, doc) if args.cover else []
    _emit(render_svg(doc, cover_ids), args.out)
    return 0


def _integer(text: str) -> int:
    """An argparse type: an integer in `integer`'s grammar."""
    try:
        return integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low: int):
    """An argparse type: an integer in `integer`'s grammar, no smaller than `low`."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _positive_rational(text: str) -> Fraction:
    """An argparse type: a positive rational in `frac`'s grammar."""
    try:
        value = frac(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational, got {text[:60]!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="membercover")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--kind", choices=(KIND_SQUARES, KIND_HALFPLANES), required=True)
    gen.add_argument("--points", type=_at_least(0), default=8)
    gen.add_argument("--prime-points", type=_at_least(0), default=None)
    gen.add_argument("--ranges", type=_at_least(0), default=8)
    gen.add_argument("--extent", type=_at_least(1), default=4)
    gen.add_argument("--seed", type=_integer, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run the approximation solvers")
    solve.add_argument("instance")
    solve.add_argument(
        "--objective",
        choices=(OBJECTIVE_MEMBERSHIP, OBJECTIVE_PLY),
        default=OBJECTIVE_MEMBERSHIP,
    )
    solve.add_argument("--epsilon", type=_positive_rational, default="1")
    solve.add_argument("--with-oracle", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    exact = sub.add_parser("exact", help="run the exact oracles")
    exact.add_argument("instance")
    exact.add_argument(
        "--objective",
        choices=(OBJECTIVE_MEMBERSHIP, OBJECTIVE_PLY, OBJECTIVE_SIZE),
        default=OBJECTIVE_MEMBERSHIP,
    )
    exact.add_argument(
        "--solver",
        choices=("bruteforce", "search"),
        default="bruteforce",
        help="search: the escalation search, for membership on halfplanes only",
    )
    exact.add_argument("--max-ranges", type=_at_least(0), default=16)
    exact.set_defaults(func=_cmd_exact)

    verify = sub.add_parser("verify", help="check a cover file against an instance")
    verify.add_argument("instance")
    verify.add_argument("cover")
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="run a seeded solver matrix")
    bench.add_argument("--kind", choices=(KIND_SQUARES, KIND_HALFPLANES), required=True)
    bench.add_argument("--seeds", type=_at_least(0), default=20)
    bench.add_argument("--max-ranges", type=_at_least(1), default=8)
    bench.add_argument("--points", type=_at_least(0), default=8)
    bench.add_argument("--extent", type=_at_least(1), default=4)
    bench.add_argument("--with-oracle", action="store_true")
    bench.add_argument("--out-csv", default=None)
    bench.add_argument("--out-json", default=None)
    bench.set_defaults(func=_cmd_bench)

    plot = sub.add_parser("plot", help="render an instance (and cover) as SVG")
    plot.add_argument("instance")
    plot.add_argument("--cover", default=None)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=_cmd_plot)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InstanceParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Uncoverable as exc:
        print(f"uncoverable: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
