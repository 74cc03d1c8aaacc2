"""Membership cover for halfplanes: exact decision search, additive-error
local search, and the approximation scheme that combines them.

The exact decision procedure asks whether some cover of the mandatory
points keeps every monitored point inside at most k chosen halfplanes.
Candidate solutions that do not cover the whole plane are recognized by
their complement: a bounded convex polygon whose edges lie on boundary
lines of the chosen halfplanes.  The search walks a graph whose nodes are
(k+1)-tuples of consecutive candidate edges; a polygon exists iff the
graph has a cycle winding exactly once around a guessed interior point.
Winding is counted combinatorially, as crossings of a reference ray, so
irrational angle sums never appear: every edge subtends an arc smaller
than a halfturn, hence a cycle's crossing count equals its winding
number.

All hot predicates run on homogeneous integer coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from . import lp as lpmod
from .covers import (
    ALL,
    CoverSolution,
    Uncoverable,
    depth,
    first_uncovered,
    incidence,
    mask_of,
    quiet_cover,
)
from .geometry import Halfplane, Point, face_sample_points, strictly_feasible

# nothing in this module calls these; the names stay only because
# perfbench/tracing.py patches them here and raises KeyError when missing
from .geometry import complement_region, region_subset  # noqa: F401

DUMMY_BASE_ID = -1  # dummies use ids -1..-4, never colliding with instances


class AnchorOnLine(ValueError):
    """The anchor point lies on a boundary line; pick a different face."""


# ---------------------------------------------------------------------------
# homogeneous integer points
# ---------------------------------------------------------------------------

HPt = tuple[int, int, int]  # (X, Y, W) with W > 0, meaning (X/W, Y/W)


def _hpt(p: Point) -> HPt:
    w = math.lcm(p.x.denominator, p.y.denominator)
    return (int(p.x * w), int(p.y * w), w)


def _hpt_point(h: HPt) -> Point:
    return Point(Fraction(h[0], h[2]), Fraction(h[1], h[2]))


def _hpt_normalize(x: int, y: int, w: int) -> HPt:
    if w < 0:
        x, y, w = -x, -y, -w
    g = math.gcd(math.gcd(abs(x), abs(y)), w)
    if g > 1:
        x, y, w = x // g, y // g, w // g
    return (x, y, w)


def _line_intersect(l1: tuple[int, int, int], l2: tuple[int, int, int]) -> HPt | None:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return _hpt_normalize(b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, det)


def _orient(p: HPt, q: HPt, r: HPt) -> int:
    """Sign of the turn p->q->r; weights are positive so the homogeneous
    3x3 determinant carries the affine orientation sign directly."""
    d = (
        p[0] * (q[1] * r[2] - r[1] * q[2])
        - p[1] * (q[0] * r[2] - r[0] * q[2])
        + p[2] * (q[0] * r[1] - r[0] * q[1])
    )
    return (d > 0) - (d < 0)


def _dirvec(p: HPt, q: HPt) -> tuple[int, int]:
    """Integer direction from p to q (scaled by the positive weight product)."""
    return (q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2])


def _cross2(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _dot2(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _on_segment(x: HPt, a: HPt, b: HPt) -> bool:
    if _orient(a, b, x) != 0:
        return False
    da = _dirvec(a, x)
    db = _dirvec(b, x)
    return _dot2(da, _dirvec(a, b)) >= 0 and _dot2(db, _dirvec(b, a)) >= 0


def _in_triangle(x: HPt, p: HPt, a: HPt, b: HPt) -> bool:
    o1 = _orient(p, a, x)
    o2 = _orient(a, b, x)
    o3 = _orient(b, p, x)
    return (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0)


# ---------------------------------------------------------------------------
# segments of the boundary arrangement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentPhi:
    """A candidate polygon edge: a finite piece of a host boundary line.

    Both endpoints are intersections of the host line with other boundary
    lines; seen from the anchor, the order anchor -> left -> right is
    clockwise and spans less than a halfturn.
    """

    host: int  # halfplane id
    anchor: Point
    a_h: HPt
    b_h: HPt

    @property
    def left(self) -> Point:
        return _hpt_point(self.a_h)

    @property
    def right(self) -> Point:
        return _hpt_point(self.b_h)


def build_segments(h_active: Sequence[Halfplane], p: Point) -> list[SegmentPhi]:
    """All finite arrangement segments of the active boundary lines.

    Each line contributes one segment per pair of its intersection points
    with the other lines.  Raises AnchorOnLine when p sits on a boundary
    line; callers must then pick a different face sample.
    """
    p_h = _hpt(p)
    for h in h_active:
        if h.a * p_h[0] + h.b * p_h[1] + h.c * p_h[2] == 0:
            raise AnchorOnLine(f"anchor {p!r} lies on the boundary of {h.id}")
        if h.contains(p):
            raise ValueError(f"halfplane {h.id} contains the anchor {p!r}")
    segments: list[SegmentPhi] = []
    lines = [h.line() for h in h_active]
    for i, host in enumerate(h_active):
        pts: set[HPt] = set()
        for j, other in enumerate(lines):
            if j == i:
                continue
            hit = _line_intersect(lines[i], other)
            if hit is not None:
                pts.add(hit)
        ordered = sorted(pts)
        for a, b in combinations(ordered, 2):
            if _orient(p_h, a, b) < 0:
                segments.append(SegmentPhi(host.id, p, a, b))
            else:
                segments.append(SegmentPhi(host.id, p, b, a))
    return segments


def _ray_direction(p_h: HPt, endpoints: Iterable[HPt]) -> tuple[int, int]:
    """An integer ray direction from p hitting no segment endpoint."""
    dirs = [_dirvec(p_h, e) for e in set(endpoints)]
    q = 0
    while True:
        for cand in ((1, q), (1, -q)) if q else ((1, 0),):
            if all(
                not (_cross2(cand, d) == 0 and _dot2(cand, d) > 0) for d in dirs
            ):
                return cand
        q += 1


# ---------------------------------------------------------------------------
# the decision graph
# ---------------------------------------------------------------------------

@dataclass
class WindGraph:
    """Nodes are (k+1)-tuples of chained segments; arcs shift by one.

    `cross[v]` tells whether the angular arc of the node's first segment
    crosses the reference ray; it is the crossing flag of every arc
    leaving v.
    """

    k: int
    segments: list[SegmentPhi]
    vertices: list[tuple[int, ...]]
    succ: list[list[int]]
    cross: list[bool]
    ray: tuple[int, int]
    anchor: Point


class _AnchorContext:
    """Segment arrangement plus containment bitmasks for one anchor."""

    def __init__(
        self,
        anchor: Point,
        active: list[Halfplane],
        s_pts: list[HPt],
        sp_masks: dict[int, int],
    ):
        self.anchor = anchor
        self.active = active
        self.p_h = _hpt(anchor)
        self.segments = build_segments(active, anchor)
        self.ray = _ray_direction(
            self.p_h, [s.a_h for s in self.segments] + [s.b_h for s in self.segments]
        )

        # points of S on at least one active boundary line can still end
        # up on a chain segment; any other point swallowed by a triangle
        # kills every chain through it
        on_some_line = 0
        for bit, x in enumerate(s_pts):
            for h in active:
                if h.a * x[0] + h.b * x[1] + h.c * x[2] == 0:
                    on_some_line |= 1 << bit
                    break

        keep: list[SegmentPhi] = []
        tri_list: list[int] = []
        on_list: list[int] = []
        for seg in self.segments:
            tri = 0
            on = 0
            for bit, x in enumerate(s_pts):
                if _in_triangle(x, self.p_h, seg.a_h, seg.b_h):
                    tri |= 1 << bit
                    if _on_segment(x, seg.a_h, seg.b_h):
                        on |= 1 << bit
            if tri & ~on_some_line:
                continue  # swallows a point that no segment can carry
            keep.append(seg)
            tri_list.append(tri)
            on_list.append(on)
        self.segments = keep
        self.tri_mask = tri_list
        self.on_mask = on_list
        self.sp_mask = [sp_masks[s.host] for s in self.segments]
        self.dirs = [_dirvec(s.a_h, s.b_h) for s in self.segments]
        self.cross = [
            _cross2(_dirvec(self.p_h, s.a_h), self.ray) < 0
            and _cross2(self.ray, _dirvec(self.p_h, s.b_h)) < 0
            for s in self.segments
        ]

        by_left: dict[HPt, list[int]] = {}
        for idx, seg in enumerate(self.segments):
            by_left.setdefault(seg.a_h, []).append(idx)
        self.succ_seg: list[list[int]] = []
        for idx, seg in enumerate(self.segments):
            nexts = [
                j
                for j in by_left.get(seg.b_h, ())
                if _cross2(self.dirs[idx], self.dirs[j]) <= 0
            ]
            self.succ_seg.append(nexts)

    def chains(self, k: int) -> list[tuple[int, ...]]:
        """All (k+1)-chains passing the containment conditions."""
        out: list[tuple[int, ...]] = []
        n = len(self.segments)
        tri, on, sp = self.tri_mask, self.on_mask, self.sp_mask
        succ = self.succ_seg

        def extend(chain: list[int]) -> None:
            if len(chain) == k + 1:
                tri_or = 0
                on_or = 0
                sp_and = -1
                for idx in chain:
                    tri_or |= tri[idx]
                    on_or |= on[idx]
                    sp_and &= sp[idx]
                if tri_or & ~on_or:
                    return
                if sp_and:
                    return
                out.append(tuple(chain))
                return
            for j in succ[chain[-1]]:
                chain.append(j)
                extend(chain)
                chain.pop()

        for start in range(n):
            extend([start])
        return out

    def graph(self, k: int) -> WindGraph:
        vertices = self.chains(k)
        index: dict[tuple[int, ...], int] = {v: i for i, v in enumerate(vertices)}
        succ: list[list[int]] = []
        if k == 0:
            for v in vertices:
                succ.append(
                    sorted(
                        index[(j,)] for j in self.succ_seg[v[0]] if (j,) in index
                    )
                )
        else:
            by_head: dict[tuple[int, ...], list[int]] = {}
            for i, v in enumerate(vertices):
                by_head.setdefault(v[:-1], []).append(i)
            for v in vertices:
                succ.append(sorted(by_head.get(v[1:], ())))
        cross = [self.cross[v[0]] for v in vertices]
        return WindGraph(
            k=k,
            segments=self.segments,
            vertices=vertices,
            succ=succ,
            cross=cross,
            ray=self.ray,
            anchor=self.anchor,
        )


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """The transpose of an incidence table: entry j is the bitmask of the
    points whose row holds range position j."""
    return [sum([(row >> j & 1) << bit for bit, row in enumerate(rows)]) for j in range(width)]


def build_decision_graph(
    points: Sequence[Point],
    sprime: Sequence[Point],
    h_active: Sequence[Halfplane],
    p: Point,
    k: int,
) -> WindGraph:
    """Decision graph for one anchor; exact and self-contained."""
    inst = _HalfplaneInstance(points, sprime, h_active)
    return _AnchorContext(p, list(h_active), inst.s_hpts, inst.sp_masks).graph(k)


def find_winding_cycle(graph: WindGraph) -> list[int] | None:
    """A cycle crossing the reference ray exactly once, if one exists.

    Every arc's angular extent is below a halfturn, so the crossing count
    of a cycle equals its winding number and a single crossing forces a
    total turning of one full revolution.  For each crossing arc
    (u -> v) we search a v -> u path through non-crossing arcs, breadth
    first, and return the first cycle found.

    Returns vertex indices with the first repeated at the end, or None.
    """
    for u in range(len(graph.vertices)):
        if not graph.cross[u]:
            continue
        for v in graph.succ[u]:
            parent: dict[int, int | None] = {v: None}
            queue = [v]
            while queue and u not in parent:
                frontier: list[int] = []
                for w in queue:
                    if graph.cross[w]:
                        continue  # its outgoing arcs would cross again
                    for nxt in graph.succ[w]:
                        if nxt not in parent:
                            parent[nxt] = w
                            frontier.append(nxt)
                queue = frontier
            if u not in parent:
                continue
            path = []
            node: int | None = u
            while node is not None:
                path.append(node)
                node = parent[node]
            path.reverse()  # v ... u
            return [u] + path
    return None


# ---------------------------------------------------------------------------
# one instance: the decision procedure, the exact optimum, the additive cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindingCertificate:
    """Everything needed to re-verify a cycle independently."""

    anchor: Point
    ray: tuple[int, int]
    k: int
    polygon: tuple[Point, ...]
    hosts: tuple[int, ...]
    crossings: int


@dataclass(frozen=True)
class ExactSolveReport:
    """A cover accepted at threshold k (the optimum, from the exact solver)."""

    cover: CoverSolution
    k: int
    path: str  # "empty" | "quiet" | "small" | "minsize" | "cycle"
    certificate: WindingCertificate | None


def _dummy_halfplanes(
    points: Sequence[Point], sprime: Sequence[Point]
) -> tuple[list[Halfplane], int]:
    """Four axis-aligned halfplanes outside a box holding every point.

    The offset is integral (one beyond the floor of the largest coordinate
    magnitude) so the coefficients stay integers, and strict so no input
    point touches a dummy.
    """
    coords = [abs(c) for p in points for c in (p.x, p.y)]
    coords += [abs(c) for p in sprime for c in (p.x, p.y)]
    delta = math.floor(max(coords, default=0)) + 1
    return [
        Halfplane(DUMMY_BASE_ID - 0, 0, -1, -delta),  # y <= -delta
        Halfplane(DUMMY_BASE_ID - 1, 0, 1, -delta),   # y >= delta
        Halfplane(DUMMY_BASE_ID - 2, -1, 0, -delta),  # x <= -delta
        Halfplane(DUMMY_BASE_ID - 3, 1, 0, -delta),   # x >= delta
    ], delta


class _HalfplaneInstance:
    """One instance (S, S', H), built once per public call, and every fact
    its solvers read off it; the PTAS asks one for both of its solvers.

    One S and one S' table over the id-sorted halfplanes are the only
    point-in-halfplane tests.  The dummies contain no point, so the same
    rows serve over `extended`.  Other facts are computed on first use.
    """

    def __init__(
        self,
        points: Sequence[Point],
        sprime: Sequence[Point],
        halfplanes: Sequence[Halfplane],
    ):
        self.points = list(points)
        self.halfplanes = sorted(halfplanes, key=lambda h: h.id)
        self.dummies, self.delta = _dummy_halfplanes(points, sprime)
        self.extended = self.halfplanes + self.dummies
        self.s_rows = incidence(self.points, self.halfplanes)
        # the minimum-size cover alone passes no S' and needs no S' table
        self.sp_rows = incidence(sprime, self.halfplanes) if sprime else []
        self.s_hpts = [_hpt(q) for q in self.points]
        # S' mask per id of `extended`: the columns of the S' table, 0 for dummies
        ids = [h.id for h in self.extended]
        self.sp_masks = dict(zip(ids, _columns(self.sp_rows, len(ids))))
        self._contexts: dict[int, _AnchorContext] = {}

    # -- cheap certificates -------------------------------------------------

    @cached_property
    def uncovered(self) -> Point | None:
        """The first point of S that no halfplane contains, if any."""
        return first_uncovered(self.points, self.s_rows, ALL)

    @cached_property
    def quiet_cover(self) -> CoverSolution | None:
        """The exact zero-membership test: halfplanes avoiding every
        monitored point either cover the mandatory points or nothing does."""
        return quiet_cover(self.points, self.s_rows, self.sp_rows, self.halfplanes)

    @cached_property
    def small_options(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """Covers of size <= 3 as (membership, size, ids), sorted.

        Any valid solution whose irreducible closure spans the whole plane
        leaves a cover of at most three instance halfplanes once the
        dummies are stripped, so scanning these small subsets completes
        the non-polygonal side of the decision.
        """
        opts = []
        for size in (1, 2, 3):
            for combo in combinations(range(len(self.halfplanes)), size):
                chosen = sum([1 << j for j in combo])
                if first_uncovered(self.points, self.s_rows, chosen) is None:
                    ids = tuple([self.halfplanes[j].id for j in combo])
                    opts.append((depth(self.sp_rows, chosen), size, ids))
        opts.sort()
        return opts

    @cached_property
    def plane_covers(self) -> list[tuple[Halfplane, ...]]:
        """The pairs, then the triples, of halfplanes covering the plane;
        empty iff the halfplanes do not cover it (Helly)."""
        return list(_plane_covers(self.halfplanes))

    @cached_property
    def min_cover(self) -> list[Halfplane]:
        """A minimum-cardinality cover of S in id order; Uncoverable names
        the first point of S that no halfplane contains."""
        if self.uncovered is not None:
            raise Uncoverable(self.uncovered)
        return _min_size_cover(self.halfplanes, self.s_rows)

    # -- anchors ------------------------------------------------------------

    @cached_property
    def anchors(self) -> list[Point]:
        lines = [h.line() for h in self.extended]
        samples = sorted(
            (
                p
                for p in face_sample_points(lines)
                if abs(p.x) < self.delta and abs(p.y) < self.delta
            ),
            key=lambda p: (p.x, p.y),
        )
        seen: set[tuple[int, ...]] = set()
        chosen = []
        for p in samples:
            sig = tuple(
                1 if a * p.x + b * p.y + c > 0 else -1
                for (a, b, c) in lines
            )
            if sig not in seen:
                seen.add(sig)
                chosen.append(p)
        return chosen

    def context(self, idx: int) -> _AnchorContext:
        ctx = self._contexts.get(idx)
        if ctx is None:
            p = self.anchors[idx]
            active = [h for h in self.extended if not h.contains(p)]
            ctx = _AnchorContext(p, active, self.s_hpts, self.sp_masks)
            self._contexts[idx] = ctx
        return ctx

    # -- the decision -------------------------------------------------------

    def decide(self, k: int) -> ExactSolveReport | None:
        if not self.points:
            return ExactSolveReport(CoverSolution((), 0), k, "empty", None)
        if self.uncovered is not None:
            return None

        quiet = self.quiet_cover
        if quiet is not None:
            return ExactSolveReport(quiet, k, "quiet", None)
        if k == 0:
            return None  # zero membership needs a cover by quiet halfplanes

        for memb, _size, ids in self.small_options:
            if memb <= k:
                return ExactSolveReport(CoverSolution(ids, memb), k, "small", None)

        mc = self.min_cover
        if len(mc) <= k:
            cover = CoverSolution.build([h.id for h in mc], self.sp_rows, self.halfplanes)
            if cover.memb > k:
                raise RuntimeError("a cover of size <= k has membership above k")
            return ExactSolveReport(cover, k, "minsize", None)

        for idx in range(len(self.anchors)):
            ctx = self.context(idx)
            graph = ctx.graph(k)
            cycle = find_winding_cycle(graph)
            if cycle is not None:
                return self._outcome_from_cycle(ctx, graph, cycle, k)
        return None

    def _outcome_from_cycle(
        self, ctx: _AnchorContext, graph: WindGraph, cycle: list[int], k: int
    ) -> ExactSolveReport:
        heads = [graph.vertices[v][0] for v in cycle[:-1]]
        hosts_in_order = tuple(ctx.segments[s].host for s in heads)
        polygon = tuple(_hpt_point(ctx.segments[s].a_h) for s in heads)
        crossings = sum(1 for v in cycle[:-1] if graph.cross[v])
        cover_ids = sorted(set(h for h in hosts_in_order if h >= 0))
        chosen = mask_of(cover_ids, self.halfplanes)
        cover = CoverSolution(tuple(cover_ids), depth(self.sp_rows, chosen))
        # machinery self-check: the reconstructed solution must be valid
        if crossings != 1:
            raise RuntimeError("cycle search returned a multi-winding cycle")
        if cover.memb > k:
            raise RuntimeError("reconstructed cover exceeds the threshold")
        if first_uncovered(self.points, self.s_rows, chosen) is not None:
            raise RuntimeError("reconstructed cover misses a point")
        cert = WindingCertificate(
            anchor=ctx.anchor,
            ray=ctx.ray,
            k=k,
            polygon=polygon,
            hosts=hosts_in_order,
            crossings=crossings,
        )
        return ExactSolveReport(cover, k, "cycle", cert)

    def escalate(self) -> ExactSolveReport:
        """The first k = 0, 1, 2, ... whose decision accepts.  All of H is a
        cover of membership at most |H|, so k never passes |H|; Uncoverable
        when S has a point outside every halfplane."""
        if self.uncovered is not None:
            raise Uncoverable(self.uncovered)
        for k in range(len(self.halfplanes) + 1):
            report = self.decide(k)
            if report is not None:
                return report
        raise AssertionError("escalation must succeed at k = |H| for coverable input")

    def additive(self) -> CoverSolution:
        """The additive-error cover: the minimum-size cover after one-stable
        local search, unless a plane cover has lower membership."""
        if not self.points:
            return CoverSolution((), 0)
        stable = one_stable_local_search(self.min_cover, self.halfplanes)
        best = CoverSolution.build([h.id for h in stable], self.sp_rows, self.halfplanes)
        # the first cover of least membership wins, the local-search one on a tie
        candidates = (
            CoverSolution.build([h.id for h in combo], self.sp_rows, self.halfplanes)
            for combo in self.plane_covers
        )
        return min((best, *candidates), key=lambda cs: cs.memb)


def decide_membership(
    points: Sequence[Point],
    sprime: Sequence[Point],
    halfplanes: Sequence[Halfplane],
    k: int,
) -> CoverSolution | None:
    """Is there a cover whose membership stays at most k?  Exact."""
    report = _HalfplaneInstance(points, sprime, halfplanes).decide(k)
    return report.cover if report is not None else None


def exact_mmgsc_halfplanes_report(
    points: Sequence[Point],
    sprime: Sequence[Point],
    halfplanes: Sequence[Halfplane],
) -> ExactSolveReport:
    """The optimal membership cover, with its k, path and certificate."""
    return _HalfplaneInstance(points, sprime, halfplanes).escalate()


def exact_mmgsc_halfplanes(
    points: Sequence[Point],
    sprime: Sequence[Point],
    halfplanes: Sequence[Halfplane],
) -> CoverSolution:
    """Optimal membership cover by escalating the decision threshold."""
    return exact_mmgsc_halfplanes_report(points, sprime, halfplanes).cover


# ---------------------------------------------------------------------------
# plane covers, minimum-size covers, local search
# ---------------------------------------------------------------------------

def _flipped(halfplanes: Iterable[Halfplane]) -> list[tuple[int, int, int]]:
    return [(-h.a, -h.b, -h.c) for h in halfplanes]  # open complements: -h > 0


def _plane_covers(halfplanes: Sequence[Halfplane]) -> Iterator[tuple[Halfplane, ...]]:
    """Every pair, then every triple, of halfplanes whose union is the
    plane, in id order.

    The union is the plane iff the open complements have no common point,
    and an empty intersection already shows on a pair or triple (Helly).
    """
    ordered = sorted(halfplanes, key=lambda h: h.id)
    for size in (2, 3):
        for combo in combinations(ordered, size):
            if not strictly_feasible(_flipped(combo)):
                yield combo


def plane_cover_triple(halfplanes: Sequence[Halfplane]) -> list[Halfplane] | None:
    """Up to three halfplanes covering the whole plane, if any exist."""
    combo = next(_plane_covers(halfplanes), None)
    return None if combo is None else list(combo)


def _min_size_cover(ordered: Sequence[Halfplane], s_rows: Sequence[int]) -> list[Halfplane]:
    """Exact minimum-cardinality cover via branch and bound, given the S
    table over `ordered` with no zero row.

    Candidates are ordered by coverage; the incumbent starts from the
    greedy cover, and the relaxed size LP gives a global lower bound that
    often certifies the greedy cover outright.
    """
    if not s_rows:
        return []
    masks = _columns(s_rows, len(ordered))
    full = (1 << len(s_rows)) - 1

    # greedy incumbent
    covered = 0
    greedy: list[int] = []
    while covered != full:
        pick = max(
            range(len(ordered)),
            key=lambda i: (bin(masks[i] & ~covered).count("1"), -ordered[i].id),
        )
        if masks[pick] & ~covered == 0:
            raise AssertionError("greedy stalled despite full coverage existing")
        greedy.append(pick)
        covered |= masks[pick]

    lp_bound = lpmod.solve_lp(lpmod.build_size_lp(s_rows, len(ordered)))
    if lp_bound.status != lpmod.OPTIMAL:
        raise RuntimeError("coverage was prechecked")
    lower = math.ceil(lp_bound.value)
    if len(greedy) <= lower:
        return [ordered[i] for i in sorted(greedy)]

    order = sorted(
        range(len(ordered)), key=lambda i: (-bin(masks[i]).count("1"), ordered[i].id)
    )
    suffix_union = [0] * (len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        suffix_union[pos] = suffix_union[pos + 1] | masks[order[pos]]

    best_size = len(greedy)
    best_pick = sorted(greedy)
    max_gain = max(bin(m).count("1") for m in masks)

    def dfs(pos: int, chosen: list[int], covered: int) -> None:
        nonlocal best_size, best_pick
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_pick = sorted(chosen)
            return
        if pos == len(order):
            return
        if covered | suffix_union[pos] != full:
            return
        missing = bin(full & ~covered).count("1")
        if len(chosen) + (missing + max_gain - 1) // max_gain >= best_size:
            return
        i = order[pos]
        if masks[i] & ~covered:
            chosen.append(i)
            dfs(pos + 1, chosen, covered | masks[i])
            chosen.pop()
        dfs(pos + 1, chosen, covered)

    dfs(0, [], 0)
    return [ordered[i] for i in best_pick]


def min_size_halfplane_cover(
    points: Sequence[Point], halfplanes: Sequence[Halfplane]
) -> list[Halfplane]:
    """An exact minimum-cardinality cover of `points` in id order (branch and
    bound); Uncoverable names the first point that no halfplane contains."""
    return _HalfplaneInstance(points, (), halfplanes).min_cover


def one_stable_local_search(
    chosen: Sequence[Halfplane], pool: Sequence[Halfplane]
) -> list[Halfplane]:
    """Swap one halfplane at a time while the union strictly grows.

    Cardinality never changes and coverage is preserved automatically (the
    union only grows).  For a minimum-size starting cover each member can
    leave at most once, so the round budget of 2*|pool| + 8 is generous.
    The result admits no further improving swap.
    """
    current = sorted(chosen, key=lambda h: h.id)
    pool_sorted = sorted(pool, key=lambda h: h.id)

    def improving_swap() -> list[Halfplane] | None:
        # a closed h lies in union(Z) iff h > 0 and all -z > 0 (z in Z) have
        # no common solution: h is the closure of its interior and the
        # complement of union(Z) is open.  So the union strictly grows iff
        # inc leaves union(current) and out stays inside union(rest + inc).
        ids = set(h.id for h in current)
        outside = _flipped(current)
        growing = [
            h for h in pool_sorted
            if h.id not in ids and strictly_feasible([h.line(), *outside])
        ]
        for out in current:
            rest = [h for h in current if h != out]
            escapes = [out.line(), *_flipped(rest)]
            for inc in growing:
                if not strictly_feasible(escapes + _flipped([inc])):
                    return sorted(rest + [inc], key=lambda h: h.id)
        return None

    for _ in range(2 * len(pool_sorted) + 8):
        swapped = improving_swap()
        if swapped is None:
            return current
        current = swapped
    raise RuntimeError("local search failed to stabilize within its round budget")


def additive_error_cover(
    points: Sequence[Point],
    sprime: Sequence[Point],
    halfplanes: Sequence[Halfplane],
) -> CoverSolution:
    """Cover with membership at most two above optimal (three if the
    available halfplanes cover the whole plane).

    When the plane is coverable the best small plane cover competes with
    the local-search cover and the lower membership wins; both candidates
    admit no improving single swap.
    """
    return _HalfplaneInstance(points, sprime, halfplanes).additive()


ADDITIVE_ERROR = 2
ADDITIVE_ERROR_PLANE = 3


def ptas(
    points: Sequence[Point],
    sprime: Sequence[Point],
    halfplanes: Sequence[Halfplane],
    eps,
) -> CoverSolution:
    """(1 + eps)-approximation of the optimal membership.

    The additive-error cover either certifies the ratio outright (when
    its membership is large against the additive constant) or is itself
    below a constant depending only on eps; the exact search then stops
    at the optimum, no later than that membership.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    inst = _HalfplaneInstance(points, sprime, halfplanes)
    rough = inst.additive()
    constant = ADDITIVE_ERROR_PLANE if inst.plane_covers else ADDITIVE_ERROR
    threshold = (1 + eps) / eps * constant
    if rough.memb >= threshold:
        return rough
    return inst.escalate().cover
