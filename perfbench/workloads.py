"""The four benchmark workloads: seeded generators, solver calls and checks.

Every generator takes the run seed and returns a pool of *coverable*
instances; `instances.generate` is not used because its squares
instances are almost never coverable.  Each pool goes through
`serialize_instance` -> `parse_instance` before any solver sees it, so the
solvers only ever receive parsed documents.

Instance sizes are fixed per workload, so the cost of one solve depends on
the seed only through the geometry.  At the speed of the library as first
benchmarked, one pass over a pool takes a third to a half of a 25 s run:
the pool is large enough for steady medians from seed to seed, and small
enough that most instances are timed more than once.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

RES = 64  # generated coordinates land on the 1/64 grid


@dataclass(frozen=True)
class Outcome:
    """What one solve returned, reduced to what the checks need."""

    ids: tuple[int, ...]
    value: int     # the objective: membership or ply
    claimed: int   # the value the solver itself reports for `ids`


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool_size: int
    generate: Callable   # (mc, rng) -> InstanceDoc
    solve: Callable      # (mc, doc) -> Outcome
    check: Callable      # (mc, doc, outcome, memo) -> error message or None;
                         # memo is a dict kept per instance for oracle results


def _point(mc, x: int, y: int):
    return mc.geometry.Point(Fraction(x, RES), Fraction(y, RES))


def _square_doc(mc, rng, n_squares, n_points, n_prime, extent):
    """Unit squares with top-right corners in [0, extent+1]^2, S sampled
    inside their union, S' anywhere in [0, extent]^2.

    Sampling runs on integer 1/64 units; only the result becomes rationals.
    """
    hi = extent * RES
    corners = [
        (rng.randint(0, hi + RES), rng.randint(0, hi + RES)) for _ in range(n_squares)
    ]
    points = []
    while len(points) < n_points:
        x, y = rng.randint(0, hi), rng.randint(0, hi)
        if any(u - RES <= x <= u and v - RES <= y <= v for u, v in corners):
            points.append((x, y))
    sprime = [(rng.randint(0, hi), rng.randint(0, hi)) for _ in range(n_prime)]
    return mc.instances.InstanceDoc(
        kind="squares",
        s=tuple(_point(mc, x, y) for x, y in points),
        sprime=tuple(_point(mc, x, y) for x, y in sprime),
        ranges=tuple(
            mc.geometry.UnitSquare(i, _point(mc, u, v)) for i, (u, v) in enumerate(corners)
        ),
    )


# -- checks shared by the workloads -----------------------------------------

def _check_cover(mc, doc, out: Outcome) -> str | None:
    known = {r.id for r in doc.ranges}
    if not set(out.ids) <= known:
        return f"cover names unknown ranges {sorted(set(out.ids) - known)}"
    if not mc.oracle.verify_cover(doc.s, out.ids, doc.ranges):
        return "cover misses a point of S"
    return None


def _check_membership(mc, doc, out: Outcome, memo=None) -> str | None:
    err = _check_cover(mc, doc, out)
    if err:
        return err
    memb = mc.oracle.memb_eval(doc.sprime, out.ids, doc.ranges)
    if out.claimed != memb:
        return f"reported membership {out.claimed} != recomputed {memb}"
    return None


def max_depth(squares) -> int:
    """Exact ply of closed unit squares, computed independently of `ply.ply`.

    The deepest point of closed boxes can be taken at the largest left edge
    and the largest bottom edge of the boxes containing it, so it suffices
    to sweep y over the squares that span each left-edge abscissa.
    """
    best = 0
    for x in {q.tr.x - 1 for q in squares}:
        events = []
        for q in squares:
            if q.tr.x - 1 <= x <= q.tr.x:
                events.append((q.tr.y - 1, 0))  # opens before a close at the same y
                events.append((q.tr.y, 1))
        events.sort()
        depth = 0
        for _, kind in events:
            depth += 1 if kind == 0 else -1
            best = max(best, depth)
    return best


# -- squares-membership -------------------------------------------------------

def _gen_squares_membership(mc, rng):
    return _square_doc(mc, rng, n_squares=20, n_points=20, n_prime=20, extent=3)


def _solve_squares_membership(mc, doc) -> Outcome:
    report = mc.squares.solve_mmgsc_squares_report(doc.s, doc.sprime, doc.ranges)
    return Outcome(report.cover.ids, report.cover.memb, report.cover.memb)


# -- squares-ply --------------------------------------------------------------

def _gen_squares_ply(mc, rng):
    return _square_doc(mc, rng, n_squares=90, n_points=90, n_prime=0, extent=9)


def _solve_squares_ply(mc, doc) -> Outcome:
    cover, report = mc.ply.solve_mpgsc(doc.s, doc.ranges)
    return Outcome(cover.ids, report.value, report.value)


def _check_squares_ply(mc, doc, out, memo):
    err = _check_cover(mc, doc, out)
    if err:
        return err
    chosen = set(out.ids)
    depth = max_depth([q for q in doc.ranges if q.id in chosen])
    if out.claimed != depth:
        return f"reported ply {out.claimed} != recomputed {depth}"
    return None


# -- halfplanes-fan -----------------------------------------------------------

FAN_RADIUS = 65
FAN_POINTS = sorted(
    (
        (x, y)
        for x in range(-FAN_RADIUS, FAN_RADIUS + 1)
        for y in range(-FAN_RADIUS, FAN_RADIUS + 1)
        if x * x + y * y == FAN_RADIUS * FAN_RADIUS
    ),
    key=lambda t: math.atan2(t[1], t[0]),
)  # the 36 integer points of the circle, by angle
FAN_SIZE = 8
FAN_K = 2  # optimum membership of every fan instance
FAN_PRIME = 6
FAN_BOX = 2 * FAN_RADIUS


def _gen_halfplanes_fan(mc, rng):
    """Halfplanes a*x + b*y >= 65^2 tangent to the circle at (a, b).

    Each tangency point lies in its own halfplane only, so every cover is
    the whole set and the optimum membership is the largest depth of a
    monitored point.  The first point of S' has depth exactly FAN_K and
    the others at most FAN_K.  One k for the whole pool keeps the cost
    distribution unimodal; k stays small because the search cost grows
    steeply with it.
    """
    Point, Halfplane = mc.geometry.Point, mc.geometry.Halfplane
    r2 = FAN_RADIUS * FAN_RADIUS
    tangents = sorted(rng.sample(FAN_POINTS, FAN_SIZE), key=FAN_POINTS.index)

    def monitored(exact: bool) -> tuple[int, int]:
        while True:
            x, y = rng.randint(-FAN_BOX, FAN_BOX), rng.randint(-FAN_BOX, FAN_BOX)
            depth = sum(1 for a, b in tangents if a * x + b * y >= r2)
            if depth == FAN_K or (depth < FAN_K and not exact):
                return x, y

    sprime = [monitored(exact=True)] + [monitored(exact=False) for _ in range(FAN_PRIME - 1)]
    return mc.instances.InstanceDoc(
        kind="halfplanes",
        s=tuple(Point(Fraction(a), Fraction(b)) for a, b in tangents),
        sprime=tuple(Point(Fraction(x), Fraction(y)) for x, y in sprime),
        ranges=tuple(Halfplane(i, a, b, -r2) for i, (a, b) in enumerate(tangents)),
    )


def _solve_halfplanes_fan(mc, doc) -> Outcome:
    report = mc.halfplanes.exact_mmgsc_halfplanes_report(doc.s, doc.sprime, doc.ranges)
    return Outcome(report.cover.ids, report.k, report.cover.memb)


def _check_halfplanes_fan(mc, doc, out, memo):
    err = _check_membership(mc, doc, out)
    if err:
        return err
    optimum = mc.oracle.memb_eval(doc.sprime, [h.id for h in doc.ranges], doc.ranges)
    if out.value != optimum:
        return f"exact search gave {out.value}, the optimum by construction is {optimum}"
    return None


# -- halfplanes-random --------------------------------------------------------

RANDOM_PLANES = 10
RANDOM_POINTS = 10
RANDOM_EXTENT = 4
RANDOM_NORMAL = 8
PTAS_EPS = 1


def _small_cover_within_one(planes, points, sprime) -> bool:
    """Do at most three of the halfplanes cover S with membership <= 1?"""
    def inside(h, p):
        a, b, c = h
        return a * p[0] + b * p[1] + c * RES >= 0

    for size in (1, 2, 3):
        for combo in combinations(planes, size):
            if all(any(inside(h, p) for h in combo) for p in points) and all(
                sum(inside(h, q) for h in combo) <= 1 for q in sprime
            ):
                return True
    return False


def _gen_halfplanes_random(mc, rng):
    """Random halfplanes whose lines cross the extent box, as in the test
    suite's halfplane instances, with S sampled inside their union.

    Only instances where at most three halfplanes cover S with membership
    at most 1 are kept, so the PTAS's exact search always ends on the
    `quiet` or `small` path without a cycle search.  About one random
    instance in twenty fails this; it runs the whole cycle search at k = 1
    and costs several ordinary solves, so how many of them a pool holds
    would swing the pool's mean cost from seed to seed.  The cycle search
    is `halfplanes-fan`'s job.
    """
    e = RANDOM_EXTENT * RES
    while True:
        planes = []
        for _ in range(RANDOM_PLANES):
            a = b = 0
            while a == 0 and b == 0:
                a = rng.randint(-RANDOM_NORMAL, RANDOM_NORMAL)
                b = rng.randint(-RANDOM_NORMAL, RANDOM_NORMAL)
            values = [a * cx + b * cy for cx in (0, RANDOM_EXTENT) for cy in (0, RANDOM_EXTENT)]
            planes.append((a, b, -rng.randint(min(values), max(values))))
        points = []
        while len(points) < RANDOM_POINTS:
            p = (rng.randint(0, e), rng.randint(0, e))
            if any(a * p[0] + b * p[1] + c * RES >= 0 for a, b, c in planes):
                points.append(p)
        sprime = [(rng.randint(0, e), rng.randint(0, e)) for _ in range(RANDOM_POINTS)]
        if _small_cover_within_one(planes, points, sprime):
            break
    return mc.instances.InstanceDoc(
        kind="halfplanes",
        s=tuple(_point(mc, x, y) for x, y in points),
        sprime=tuple(_point(mc, x, y) for x, y in sprime),
        ranges=tuple(mc.geometry.Halfplane(i, *h) for i, h in enumerate(planes)),
    )


def _solve_halfplanes_random(mc, doc) -> Outcome:
    cover = mc.halfplanes.ptas(doc.s, doc.sprime, doc.ranges, PTAS_EPS)
    return Outcome(cover.ids, cover.memb, cover.memb)


def _check_halfplanes_random(mc, doc, out, memo):
    err = _check_membership(mc, doc, out)
    if err:
        return err
    if "optimum" not in memo:
        memo["optimum"] = mc.oracle.exact_mmgsc_bruteforce(doc.s, doc.sprime, doc.ranges)[0]
    optimum = memo["optimum"]
    if out.value > (1 + PTAS_EPS) * optimum:
        return f"ptas gave {out.value}, above (1 + eps) x optimum {optimum}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "squares-membership",
            "dense cells on an extent-3 grid make the exact cell LP most of each "
            "solve; most S' rows miss every cell square",
            80,
            _gen_squares_membership,
            _solve_squares_membership,
            _check_membership,
        ),
        Workload(
            "squares-ply",
            "90 squares on an extent-9 grid: the O(n^3) ply scan of the cover "
            "leads and the size LPs carry no S' rows",
            50,
            _gen_squares_ply,
            _solve_squares_ply,
            _check_squares_ply,
        ),
        Workload(
            "halfplanes-fan",
            "halfplanes tangent to a circle need all of them, so the exact search "
            "runs anchor contexts, chains and the cycle search up to k = 2",
            40,
            _gen_halfplanes_fan,
            _solve_halfplanes_fan,
            _check_halfplanes_fan,
        ),
        Workload(
            "halfplanes-random",
            "random halfplanes through the PTAS with eps = 1: region building, cover "
            "evaluation and the min-size search's LP bound lead; the exact search "
            "ends on the small path",
            70,
            _gen_halfplanes_random,
            _solve_halfplanes_random,
            _check_halfplanes_random,
        ),
    )
}


def generate_pool(mc, workload: Workload, seed: int) -> list[str]:
    """The serialized instances of one workload and seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [
        mc.instances.serialize_instance(workload.generate(mc, rng))
        for _ in range(workload.pool_size)
    ]
