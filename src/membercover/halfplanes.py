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
from itertools import combinations
from typing import Iterable, Sequence

from . import lp as lpmod
from .covers import CoverSolution, Uncoverable
from .geometry import (
    Halfplane,
    Point,
    complement_region,
    face_sample_points,
    region_subset,
)

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


def build_decision_graph(
    points: Sequence[Point],
    sprime: Sequence[Point],
    h_active: Sequence[Halfplane],
    p: Point,
    k: int,
) -> WindGraph:
    """Decision graph for one anchor; exact and self-contained."""
    s_pts = [_hpt(q) for q in points]
    sp_masks = {
        h.id: sum(
            1 << bit for bit, q in enumerate(sprime) if h.contains(q)
        )
        for h in h_active
    }
    ctx = _AnchorContext(p, list(h_active), s_pts, sp_masks)
    return ctx.graph(k)


def find_winding_cycle(
    graph: WindGraph, minimize: str = "none"
) -> list[int] | None:
    """A cycle crossing the reference ray exactly once, if one exists.

    Every arc's angular extent is below a halfturn, so the crossing count
    of a cycle equals its winding number and a single crossing forces a
    total turning of one full revolution.  For each crossing arc
    (u -> v) we search a v -> u path through non-crossing arcs;
    `minimize="hops"` keeps the breadth-first shortest such cycle.

    Returns vertex indices with the first repeated at the end, or None.
    """
    best: list[int] | None = None
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
            cycle = [u] + path
            if best is None or len(cycle) < len(best):
                best = cycle
                if minimize != "hops":
                    return best
    return best


# ---------------------------------------------------------------------------
# decision procedure and exact optimum
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
class DecisionOutcome:
    cover: CoverSolution
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


class _Decider:
    """Shared state for deciding membership thresholds k = 0, 1, 2, ...

    Anchor contexts are independent of k, so the escalation loop of the
    exact solver reuses them.
    """

    def __init__(
        self,
        points: Sequence[Point],
        sprime: Sequence[Point],
        halfplanes: Sequence[Halfplane],
    ):
        self.points = list(points)
        self.sprime = list(sprime)
        self.halfplanes = sorted(halfplanes, key=lambda h: h.id)
        self.dummies, self.delta = _dummy_halfplanes(points, sprime)
        self.extended = self.halfplanes + self.dummies
        self._quiet: CoverSolution | None | str = "unset"
        self._small_options: list[tuple[int, int, tuple[int, ...]]] | None = None
        self._min_cover: list[Halfplane] | None = None
        self._anchors: list[Point] | None = None
        self._contexts: dict[int, _AnchorContext] = {}
        self._s_hpts = [_hpt(q) for q in points]
        self._sp_masks = {
            h.id: sum(1 << b for b, q in enumerate(sprime) if h.contains(q))
            for h in self.extended
        }

    # -- cheap certificates -------------------------------------------------

    def quiet_cover(self) -> CoverSolution | None:
        """The exact zero-membership test: halfplanes avoiding every
        monitored point either cover the mandatory points or nothing does."""
        if self._quiet == "unset":
            quiet = [
                h for h in self.halfplanes
                if not any(h.contains(q) for q in self.sprime)
            ]
            if all(any(h.contains(p) for h in quiet) for p in self.points):
                self._quiet = CoverSolution(tuple(sorted(h.id for h in quiet)), 0)
            else:
                self._quiet = None
        return self._quiet

    def small_options(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """Covers of size <= 3 as (membership, size, ids), sorted.

        Any valid solution whose irreducible closure spans the whole plane
        leaves a cover of at most three instance halfplanes once the
        dummies are stripped, so scanning these small subsets completes
        the non-polygonal side of the decision.
        """
        if self._small_options is None:
            opts = []
            for size in (1, 2, 3):
                for combo in combinations(self.halfplanes, size):
                    if all(
                        any(h.contains(p) for h in combo) for p in self.points
                    ):
                        cs = CoverSolution.build(
                            [h.id for h in combo], self.sprime, self.halfplanes
                        )
                        opts.append((cs.memb, len(combo), cs.ids))
            opts.sort()
            self._small_options = opts
        return self._small_options

    def min_cover(self) -> list[Halfplane]:
        if self._min_cover is None:
            self._min_cover = min_size_halfplane_cover(self.points, self.halfplanes)
        return self._min_cover

    # -- anchors ------------------------------------------------------------

    def anchors(self) -> list[Point]:
        if self._anchors is None:
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
            self._anchors = chosen
        return self._anchors

    def context(self, idx: int) -> _AnchorContext:
        ctx = self._contexts.get(idx)
        if ctx is None:
            p = self.anchors()[idx]
            active = [h for h in self.extended if not h.contains(p)]
            ctx = _AnchorContext(p, active, self._s_hpts, self._sp_masks)
            self._contexts[idx] = ctx
        return ctx

    # -- the decision -------------------------------------------------------

    def decide(self, k: int) -> DecisionOutcome | None:
        if not self.points:
            return DecisionOutcome(CoverSolution((), 0), "empty", None)
        if any(
            not any(h.contains(p) for h in self.halfplanes) for p in self.points
        ):
            return None

        quiet = self.quiet_cover()
        if quiet is not None:
            return DecisionOutcome(quiet, "quiet", None)
        if k == 0:
            return None  # zero membership needs a cover by quiet halfplanes

        for memb, _size, ids in self.small_options():
            if memb <= k:
                return DecisionOutcome(CoverSolution(ids, memb), "small", None)

        mc = self.min_cover()
        if len(mc) <= k:
            cover = CoverSolution.build(
                [h.id for h in mc], self.sprime, self.halfplanes
            )
            assert cover.memb <= k
            return DecisionOutcome(cover, "minsize", None)

        for idx in range(len(self.anchors())):
            ctx = self.context(idx)
            graph = ctx.graph(k)
            cycle = find_winding_cycle(graph)
            if cycle is None:
                continue
            outcome = self._outcome_from_cycle(ctx, graph, cycle, k)
            if outcome is not None:
                return outcome
        return None

    def _outcome_from_cycle(
        self, ctx: _AnchorContext, graph: WindGraph, cycle: list[int], k: int
    ) -> DecisionOutcome:
        heads = [graph.vertices[v][0] for v in cycle[:-1]]
        hosts_in_order = tuple(ctx.segments[s].host for s in heads)
        polygon = tuple(_hpt_point(ctx.segments[s].a_h) for s in heads)
        crossings = sum(1 for v in cycle[:-1] if graph.cross[v])
        cover_ids = sorted(set(h for h in hosts_in_order if h >= 0))
        cover = CoverSolution.build(cover_ids, self.sprime, self.halfplanes)
        # machinery self-check: the reconstructed solution must be valid
        assert crossings == 1, "cycle search returned a multi-winding cycle"
        assert cover.memb <= k, "reconstructed cover exceeds the threshold"
        picked = [h for h in self.halfplanes if h.id in set(cover_ids)]
        assert all(
            any(h.contains(p) for h in picked) for p in self.points
        ), "reconstructed cover misses a point"
        cert = WindingCertificate(
            anchor=ctx.anchor,
            ray=ctx.ray,
            k=k,
            polygon=polygon,
            hosts=hosts_in_order,
            crossings=crossings,
        )
        return DecisionOutcome(cover, "cycle", cert)


def decide_membership(
    points: Sequence[Point],
    sprime: Sequence[Point],
    halfplanes: Sequence[Halfplane],
    k: int,
) -> CoverSolution | None:
    """Is there a cover whose membership stays at most k?  Exact."""
    outcome = _Decider(points, sprime, halfplanes).decide(k)
    return outcome.cover if outcome is not None else None


@dataclass(frozen=True)
class ExactSolveReport:
    cover: CoverSolution
    k: int
    path: str
    certificate: WindingCertificate | None


def exact_mmgsc_halfplanes_report(
    points: Sequence[Point],
    sprime: Sequence[Point],
    halfplanes: Sequence[Halfplane],
    max_k: int | None = None,
) -> ExactSolveReport:
    for p in points:
        if not any(h.contains(p) for h in halfplanes):
            raise Uncoverable(p)
    decider = _Decider(points, sprime, halfplanes)
    cap = len(halfplanes) if max_k is None else max_k
    for k in range(cap + 1):
        outcome = decider.decide(k)
        if outcome is not None:
            return ExactSolveReport(outcome.cover, k, outcome.path, outcome.certificate)
    raise AssertionError("escalation must succeed at k = |H| for coverable input")


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

def plane_cover_triple(halfplanes: Sequence[Halfplane]) -> list[Halfplane] | None:
    """Up to three halfplanes covering the whole plane, if any exist.

    The union is the plane iff the intersection of the complements is
    empty, and an empty intersection already shows on a pair or triple.
    """
    ordered = sorted(halfplanes, key=lambda h: h.id)
    for size in (2, 3):
        for combo in combinations(ordered, size):
            if complement_region(combo).empty:
                return list(combo)
    return None


def min_size_halfplane_cover(
    points: Sequence[Point], halfplanes: Sequence[Halfplane]
) -> list[Halfplane]:
    """Exact minimum-cardinality cover via branch and bound.

    Candidates are ordered by coverage; the incumbent starts from the
    greedy cover, and the relaxed size LP gives a global lower bound that
    often certifies the greedy cover outright.
    """
    if not points:
        return []
    ordered = sorted(halfplanes, key=lambda h: h.id)
    masks = []
    for h in ordered:
        m = 0
        for bit, p in enumerate(points):
            if h.contains(p):
                m |= 1 << bit
        masks.append(m)
    full = (1 << len(points)) - 1
    union_all = 0
    for m in masks:
        union_all |= m
    if union_all != full:
        missing = (~union_all) & full
        raise Uncoverable(points[missing.bit_length() - 1])

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

    lp_bound = lpmod.solve_lp(lpmod.build_size_lp(points, ordered))
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


@dataclass(frozen=True)
class StabilityConfig:
    k: int = 1
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("swap size must be at least 1")


def one_stable_local_search(
    chosen: Sequence[Halfplane],
    pool: Sequence[Halfplane],
    config: StabilityConfig = StabilityConfig(),
) -> list[Halfplane]:
    """Swap up to k halfplanes at a time while the union strictly grows.

    Cardinality never changes and coverage is preserved automatically (the
    union only grows).  For a minimum-size starting cover each member can
    leave at most once, so the default round budget of 2*|pool| + 8 is
    generous; for other starting sets pass an explicit max_rounds.  The
    result admits no further improving swap.
    """
    current = sorted(chosen, key=lambda h: h.id)
    pool_sorted = sorted(pool, key=lambda h: h.id)
    regions: dict[frozenset[int], object] = {}

    def region_of(subset: Sequence[Halfplane]):
        key = frozenset(h.id for h in subset)
        reg = regions.get(key)
        if reg is None:
            reg = complement_region(subset)
            regions[key] = reg
        return reg

    max_rounds = config.max_rounds
    if max_rounds is None:
        max_rounds = 2 * len(pool_sorted) + 8
    for _ in range(max_rounds):
        base_region = region_of(current)
        ids = set(h.id for h in current)
        improved = False
        for t in range(1, config.k + 1):
            for outs in combinations(current, t):
                rest = [h for h in current if h not in outs]
                for ins in combinations(
                    [h for h in pool_sorted if h.id not in ids], t
                ):
                    candidate = sorted(rest + list(ins), key=lambda h: h.id)
                    cand_region = region_of(candidate)
                    if region_subset(cand_region, base_region) and not region_subset(
                        base_region, cand_region
                    ):
                        current = candidate
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            return current
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
    for p in points:
        if not any(h.contains(p) for h in halfplanes):
            raise Uncoverable(p)
    if not points:
        return CoverSolution((), 0)

    stable = min_size_halfplane_cover(points, halfplanes)
    stable = one_stable_local_search(stable, halfplanes)
    best = CoverSolution.build([h.id for h in stable], sprime, halfplanes)

    if complement_region(halfplanes).empty:
        plane_best: CoverSolution | None = None
        for size in (2, 3):
            for combo in combinations(sorted(halfplanes, key=lambda h: h.id), size):
                if complement_region(combo).empty:
                    cs = CoverSolution.build(
                        [h.id for h in combo], sprime, halfplanes
                    )
                    if plane_best is None or cs.memb < plane_best.memb:
                        plane_best = cs
        if plane_best is not None and plane_best.memb < best.memb:
            return plane_best
    return best


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
    its membership is large against the additive constant) or caps the
    threshold escalation of the exact search at a constant depending only
    on eps.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    rough = additive_error_cover(points, sprime, halfplanes)
    constant = (
        ADDITIVE_ERROR_PLANE
        if complement_region(halfplanes).empty
        else ADDITIVE_ERROR
    )
    threshold = (1 + eps) / eps * constant
    if rough.memb >= threshold:
        return rough
    return exact_mmgsc_halfplanes_report(
        points, sprime, halfplanes, max_k=rough.memb
    ).cover
