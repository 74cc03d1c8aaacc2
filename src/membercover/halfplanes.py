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
number.  The polygon's hosts are the cover returned and all lie outside
the guessed point, so only faces whose outside halfplanes cover the
mandatory points are searched.

The graph is never listed whole.  It starts from the chains whose first
edge crosses the ray, and a node's successors are enumerated, and new
chains given ids, only when the search first asks for them.  The arcs
that do not cross the ray form no cycle: every arc turns clockwise by
more than zero and less than a halfturn, so a closed walk turns by a
positive multiple of a full revolution and crosses the ray.  One
memoized post-order walk over them therefore gives each node it meets
the set of crossing nodes it reaches, and only the crossing arc that
closes a cycle gets a breadth-first search.

All hot predicates run on homogeneous integer coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress
from typing import Callable, Iterable, Iterator, Sequence

from . import lp as lpmod
from .covers import (
    ALL,
    CoverSolution,
    Uncoverable,
    depth,
    first_uncovered,
    mask_of,
    quiet_cover,
)
from .geometry import (
    Halfplane,
    Point,
    face_sample_points,
    frac,
    pair_certificate,
    strictly_feasible,
    triple_certificate,
)

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
    x, y = p.x, p.y
    w = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w)


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


def _cross3(p: HPt, q: HPt) -> tuple[int, int, int]:
    """The homogeneous line through p and q: x . (p x q) = det(p, q, x), so
    its sign at x is the turn p->q->x."""
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _sign_masks(line: tuple[int, int, int], pts: Sequence[HPt]) -> tuple[int, int]:
    """Bitmasks of the points x with line . x <= 0 and with line . x >= 0."""
    a, b, c = line
    nonpos = nonneg = 0
    for bit, (x, y, w) in enumerate(pts):
        v = a * x + b * y + c * w
        if v <= 0:
            nonpos |= 1 << bit
        if v >= 0:
            nonneg |= 1 << bit
    return nonpos, nonneg


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
    a_h: HPt
    b_h: HPt


def build_segments(h_active: Sequence[Halfplane], p: Point) -> list[SegmentPhi]:
    """All finite arrangement segments of the active boundary lines.

    Each line contributes one segment per pair of its intersection points
    with the other lines.  Raises AnchorOnLine when p sits on a boundary
    line; callers must then pick a different face sample.
    """
    p_h = _hpt(p)
    for h in h_active:
        v = h.a * p_h[0] + h.b * p_h[1] + h.c * p_h[2]
        if v == 0:
            raise AnchorOnLine(f"anchor {p!r} lies on the boundary of {h.id}")
        if v > 0:
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
                segments.append(SegmentPhi(host.id, a, b))
            else:
                segments.append(SegmentPhi(host.id, b, a))
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

Chain = tuple[int, ...]


@dataclass
class WindGraph:
    """Nodes are (k+1)-tuples of chained segments, as indices into the
    anchor context's kept segments; arcs shift by one.

    A node's id is its position in `vertices`.  The graph starts with every
    crossing node; `successors(v)` fills `succ[v]` on first request, by
    `step` on the node's chain, and appends each chain not met before as a
    new, non-crossing node.  A graph given whole has no `step`.

    `cross[v]` tells whether the angular arc of the node's first segment
    crosses the reference ray; it is the crossing flag of every arc
    leaving v.
    """

    vertices: list[Chain]
    succ: list[list[int] | None]
    cross: list[bool]
    step: Callable[[Chain], list[Chain]] | None = None

    def __post_init__(self) -> None:
        self.ids = {v: i for i, v in enumerate(self.vertices)}

    def successors(self, v: int) -> list[int]:
        out = self.succ[v]
        if out is None:
            ids, vertices = self.ids, self.vertices
            out = []
            for chain in self.step(vertices[v]):
                w = ids.get(chain)
                if w is None:
                    w = ids[chain] = len(vertices)
                    vertices.append(chain)
                    self.succ.append(None)
                    self.cross.append(False)
                out.append(w)
            self.succ[v] = out
        return out


class _AnchorContext:
    """Segment arrangement plus containment bitmasks for one anchor.

    A segment's closed triangle (anchor, left, right) is the intersection
    of {orient(p, left, x) <= 0}, {orient(p, right, x) >= 0} and the host
    line's closed side holding the anchor, so its mask is an AND of one
    orientation mask per endpoint and one side mask of the instance; the
    points of the triangle on the host line are those on the segment.
    """

    def __init__(self, anchor: Point, active: list[Halfplane], inst: _HalfplaneInstance):
        self.anchor = anchor
        self.p_h = _hpt(anchor)
        self.segments = build_segments(active, anchor)
        endpoints = set([s.a_h for s in self.segments] + [s.b_h for s in self.segments])
        self.ray = _ray_direction(self.p_h, endpoints)

        s_pts, sides = inst.s_hpts, inst.line_sides
        # per endpoint e, the points x with orient(p, e, x) <= 0 and >= 0
        wedge = {e: _sign_masks(_cross3(self.p_h, e), s_pts) for e in endpoints}
        # points of S on at least one active boundary line can still end
        # up on a chain segment; any other point swallowed by a triangle
        # kills every chain through it
        on_some_line = 0
        for h in active:
            on_some_line |= sides[h.id][1]

        keep: list[SegmentPhi] = []
        tri_list: list[int] = []
        on_list: list[int] = []
        for seg in self.segments:
            side, online = sides[seg.host]
            tri = wedge[seg.a_h][0] & wedge[seg.b_h][1] & side
            if tri & ~on_some_line:
                continue  # swallows a point that no segment can carry
            keep.append(seg)
            tri_list.append(tri)
            on_list.append(tri & online)
        self.segments = keep
        self.tri_mask = tri_list
        self.on_mask = on_list
        self.sp_mask = [inst.sp_masks[s.host] for s in self.segments]
        # a segment crosses the ray iff its left endpoint lies clockwise of
        # the ray and its right endpoint counterclockwise: one side test per
        # endpoint
        ray_side = {e: _cross2(_dirvec(self.p_h, e), self.ray) for e in endpoints}
        self.cross = [ray_side[s.a_h] < 0 < ray_side[s.b_h] for s in self.segments]

        # succ_seg[s]: the segments j starting at the right endpoint of s
        # that turn clockwise from s, cross(dir s, dir j) <= 0.  Segment s
        # on host (a, b, c) has orient(p, left, right) < 0 with the anchor
        # on the side a*x + b*y + c < 0, so right - left is a positive
        # multiple of (b, -a), the same for every anchor; the cross product
        # then has the sign of a_s * b_j - a_j * b_s on the hosts' normals.
        normal = {h.id: (h.a, h.b) for h in active}
        by_left: dict[HPt, list[tuple[int, int, int]]] = {}
        for idx, seg in enumerate(self.segments):
            by_left.setdefault(seg.a_h, []).append((idx, *normal[seg.host]))
        self.succ_seg: list[list[int]] = []
        for seg in self.segments:
            a, b = normal[seg.host]
            self.succ_seg.append(
                [j for j, a_j, b_j in by_left.get(seg.b_h, ()) if a * b_j <= a_j * b]
            )

        # every_succ_sp[s]: the S' points in every successor of s (-1, all
        # of them, when s has none); reach[t][s]: the S points on some
        # segment 1..t successor steps from s, grown by `_reach` on demand
        every_succ_sp = []
        for nexts in self.succ_seg:
            common = -1
            for j in nexts:
                common &= self.sp_mask[j]
            every_succ_sp.append(common)
        self.every_succ_sp = every_succ_sp
        self.reach: list[list[int]] = [[0] * len(self.segments)]

    def _reach(self, t: int) -> list[list[int]]:
        """The reach table through t steps, extending the rows built so far:
        reach[t][s] is the OR over successors j of on_mask[j] | reach[t-1][j]."""
        reach, on = self.reach, self.on_mask
        while len(reach) <= t:
            prev = reach[-1]
            row = []
            for nexts in self.succ_seg:
                seen = 0
                for j in nexts:
                    seen |= on[j] | prev[j]
                row.append(seen)
            reach.append(row)
        return reach

    def chains(self, k: int, starts: Iterable[Chain]) -> list[Chain]:
        """The (k+1)-chains passing the containment conditions that extend
        the increasing prefixes `starts`, chains of 1 to k+1 segments,
        depth first.

        Each step carries the running OR of the triangle and on-segment
        masks and the running AND of the S' masks; a chain is tested at its
        last segment.  A prefix is cut off as soon as no completion of it
        can pass, by two necessary conditions:

        - a point in the prefix's triangles and on none of its segments
          must lie on a later segment, and every later segment is reached
          from the prefix's last segment s within the t segments still to
          add: the point must be in reach[t][s];
        - before the last segment, the prefix's S' AND must miss some
          successor's S' mask, so it must miss every_succ_sp[s].

        Both conditions hold for every prefix of a passing chain, so the
        cut subtrees emit nothing and the chains come out as the full
        enumeration lists them, in the same order: increasing, since every
        successor list increases.
        """
        out: list[Chain] = []
        tri, on, sp = self.tri_mask, self.on_mask, self.sp_mask
        succ, every_succ_sp = self.succ_seg, self.every_succ_sp
        reach = self._reach(k)

        def extend(chain: Chain, tri_or: int, on_or: int, sp_and: int) -> None:
            s = chain[-1]
            left = k - len(chain)  # segments still to add after a successor
            if left:
                ahead = reach[left]
                for j in succ[s]:
                    t_or, o_or = tri_or | tri[j], on_or | on[j]
                    if not (t_or & ~o_or & ~ahead[j]):
                        extend(chain + (j,), t_or, o_or, sp_and & sp[j])
                return
            if sp_and & every_succ_sp[s]:
                return
            for j in succ[s]:  # the last segment: test the chain, do not descend
                if not (sp_and & sp[j]) and not ((tri_or | tri[j]) & ~(on_or | on[j])):
                    out.append(chain + (j,))

        for prefix in starts:
            tri_or = on_or = 0
            sp_and = -1
            for s in prefix:
                tri_or |= tri[s]
                on_or |= on[s]
                sp_and &= sp[s]
            if len(prefix) > k:  # a whole chain: test it
                if not sp_and and not (tri_or & ~on_or):
                    out.append(prefix)
            elif not (tri_or & ~on_or & ~reach[k + 1 - len(prefix)][prefix[-1]]):
                extend(prefix, tri_or, on_or, sp_and)
        return out

    def graph(self, k: int) -> WindGraph:
        """The decision graph at k, holding at first only its crossing
        nodes: the passing chains whose first segment crosses the ray.

        The successors of a node v are the passing chains v[1:] + (j,),
        for j in succ_seg[v[-1]], listed by `chains` from the prefix v[1:]
        (from the one-segment chains (j,) at k = 0); they come out
        increasing.  Every passing chain with a crossing first segment is
        a crossing node already, so each chain met later is non-crossing.
        """
        succ = self.succ_seg

        def step(v: Chain) -> list[Chain]:
            return self.chains(k, [v[1:]] if k else [(j,) for j in succ[v[0]]])

        crossing = self.chains(k, [(s,) for s in compress(range(len(succ)), self.cross)])
        return WindGraph(crossing, [None] * len(crossing), [True] * len(crossing), step)


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """The transpose of a bit table: entry j is the bitmask of the rows
    that hold bit j.  Its own inverse: rows to columns and back."""
    return [sum([(row >> j & 1) << bit for bit, row in enumerate(rows)]) for j in range(width)]


def find_winding_cycle(graph: WindGraph) -> list[int] | None:
    """A cycle crossing the reference ray exactly once, if one exists.

    Every arc's angular extent is below a halfturn, so the crossing count
    of a cycle equals its winding number and a single crossing forces a
    total turning of one full revolution.  For each crossing arc
    (u -> v), in node order, a v -> u path through non-crossing nodes
    closes such a cycle.  Whether v reaches u is read off
    `_crossings_reached`, one walk shared by every arc, so only the first
    arc that closes a cycle gets a breadth-first search, and its cycle is
    returned.

    Returns node ids with the first repeated at the end, or None.
    """
    cross, successors = graph.cross, graph.successors
    reached: dict[int, int] = {}
    for u in range(len(graph.vertices)):  # nodes added by the walk do not cross
        if not cross[u]:
            continue
        for v in successors(u):
            if not _crossings_reached(graph, v, reached) >> u & 1:
                continue
            parent: dict[int, int | None] = {v: None}
            queue = [v]
            while queue and u not in parent:
                frontier: list[int] = []
                for w in queue:
                    if cross[w]:
                        continue  # its outgoing arcs would cross again
                    for nxt in successors(w):
                        if nxt not in parent:
                            parent[nxt] = w
                            frontier.append(nxt)
                queue = frontier
            if u not in parent:
                continue  # only past a mask the walk saturated
            path = []
            node: int | None = u
            while node is not None:
                path.append(node)
                node = parent[node]
            path.reverse()  # v ... u
            return [u] + path
    return None


def _crossings_reached(graph: WindGraph, v: int, reached: dict[int, int]) -> int:
    """The bitmask of the crossing nodes w with a path v ... w whose nodes
    before w do not cross; a crossing v reaches only itself.

    One post-order walk, memoized in `reached` across calls.  On a
    decision graph the non-crossing arcs hold no cycle: every arc turns
    clockwise by more than zero and less than a halfturn, so a closed walk
    winds at least once and crosses the ray.  On any other graph, an arc
    back to an open node ORs in -1, the open node's mark, which saturates
    the masks of the nodes on that path: every bit set, so the caller's
    search decides for them.  Every other mask is exact.
    """
    cross, successors = graph.cross, graph.successors
    if cross[v]:
        return 1 << v
    mask = reached.get(v)
    if mask is not None:
        return mask
    reached[v] = -1  # open
    path, arcs, acc = [v], [iter(successors(v))], [0]
    while path:
        for w in arcs[-1]:
            if cross[w]:
                acc[-1] |= 1 << w
                continue
            mask = reached.get(w)
            if mask is not None:
                acc[-1] |= mask
                continue
            reached[w] = -1
            path.append(w)
            arcs.append(iter(successors(w)))
            acc.append(0)
            break
        else:
            arcs.pop()
            mask = reached[path.pop()] = acc.pop()
            if acc:
                acc[-1] |= mask
    return reached[v]


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
    # the floor of the largest magnitude is the largest floor, on ints
    floors = [abs(c.numerator) // c.denominator for p in points for c in (p.x, p.y)]
    floors += [abs(c.numerator) // c.denominator for p in sprime for c in (p.x, p.y)]
    delta = max(floors, default=0) + 1
    return [
        Halfplane(DUMMY_BASE_ID - 0, 0, -1, -delta),  # y <= -delta
        Halfplane(DUMMY_BASE_ID - 1, 0, 1, -delta),   # y >= delta
        Halfplane(DUMMY_BASE_ID - 2, -1, 0, -delta),  # x <= -delta
        Halfplane(DUMMY_BASE_ID - 3, 1, 0, -delta),   # x >= delta
    ], delta


class _HalfplaneInstance:
    """One instance (S, S', H), built once per public call, and every fact
    its solvers read off it; the PTAS asks one for both of its solvers.

    One integer sign pass per line of `extended` over S and S' is the only
    point-versus-line test: it gives the line sides and the S and S' tables
    over the id-sorted halfplanes.  The dummies contain no point, so the
    same rows serve over `extended`.  Other facts are computed on first use.
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
        self.s_hpts = [_hpt(q) for q in self.points]
        sp_hpts = [_hpt(q) for q in sprime]
        # per id of `extended`: S on the closed side h <= 0 and on the line,
        # and S' in h; the tables transpose the columns of the instance
        # halfplanes, which lead `extended`
        self.line_sides: dict[int, tuple[int, int]] = {}
        self.sp_masks: dict[int, int] = {}
        s_columns = []
        for h in self.extended:
            nonpos, nonneg = _sign_masks(h.line(), self.s_hpts)
            self.line_sides[h.id] = (nonpos, nonpos & nonneg)
            self.sp_masks[h.id] = _sign_masks(h.line(), sp_hpts)[1]
            s_columns.append(nonneg)
        n = len(self.halfplanes)
        self.s_columns = s_columns[:n]
        self.s_rows = _columns(self.s_columns, len(self.points))
        self.sp_rows = _columns(list(self.sp_masks.values())[:n], len(sp_hpts))
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
    def _small_scan(self) -> tuple[tuple[int, int, tuple[int, ...]] | None, int]:
        # combinations come out in (size, ids) order, the halfplanes being
        # id-sorted, and no cover has membership 0 without a quiet cover;
        # so the first cover at that floor is the least option.  The first
        # cover met, no later than that return, has the least size.
        floor = 0 if self.quiet_cover is not None else 1
        best = None
        least_size = 4
        for size in (1, 2, 3):
            for combo in combinations(range(len(self.halfplanes)), size):
                chosen = sum([1 << j for j in combo])
                if first_uncovered(self.points, self.s_rows, chosen) is None:
                    least_size = min(least_size, size)
                    memb = depth(self.sp_rows, chosen)
                    if best is None or memb < best[0]:
                        best = (memb, size, tuple([self.halfplanes[j].id for j in combo]))
                        if memb <= floor:
                            return best, least_size
        return best, least_size

    @property
    def small_option(self) -> tuple[int, int, tuple[int, ...]] | None:
        """The least cover of size <= 3 as (membership, size, ids), if any.

        Any valid solution whose irreducible closure spans the whole plane
        leaves a cover of at most three instance halfplanes once the
        dummies are stripped, so scanning these small subsets completes
        the non-polygonal side of the decision.
        """
        return self._small_scan[0]

    @property
    def size_floor(self) -> int:
        """A proven lower bound on the size of a cover of S: the least size
        of a cover of at most three halfplanes, which is then the minimum,
        or 4 when no such cover exists.  The small-cover scan meets its
        first cover, of least size, before it can stop."""
        return self._small_scan[1]

    @cached_property
    def covers_plane(self) -> bool:
        """Do the halfplanes cover the plane?  Iff some pair or triple does
        (Helly), so the first plane cover found decides."""
        return next(_plane_covers(self.halfplanes), None) is not None

    @cached_property
    def min_cover(self) -> list[Halfplane]:
        """A minimum-cardinality cover of S in id order; Uncoverable names
        the first point of S that no halfplane contains."""
        if self.uncovered is not None:
            raise Uncoverable(self.uncovered)
        return _min_size_cover(self.halfplanes, self.s_rows, self.s_columns, self.size_floor)

    # -- anchors ------------------------------------------------------------

    @cached_property
    def anchors(self) -> list[tuple[Point, tuple[bool, ...]]]:
        """One sample per face inside the dummy box, with its face: entry i
        tells whether it lies outside extended[i] (no sample is on a line).
        The samples come in (x, y) order, so each face keeps its least one."""
        lines = [h.line() for h in self.extended]
        seen: set[tuple[bool, ...]] = set()
        chosen = []
        for x, y, w in face_sample_points(lines):
            bound = self.delta * w
            if not (-bound < x < bound and -bound < y < bound):
                continue
            outside = tuple([a * x + b * y + c * w < 0 for (a, b, c) in lines])
            if outside not in seen:
                seen.add(outside)
                chosen.append((Point(Fraction(x, w), Fraction(y, w)), outside))
        return chosen

    @cached_property
    def covering_anchors(self) -> list[int]:
        """Indices of the anchors whose outside halfplanes cover S.  A cycle's
        hosts are the cover it returns and all lie outside its anchor, so
        no other anchor holds a cycle."""
        full = (1 << len(self.points)) - 1
        chosen = []
        for idx, (_p, outside) in enumerate(self.anchors):
            covered = 0
            for column in compress(self.s_columns, outside):  # dummies cover nothing
                covered |= column
            if covered == full:
                chosen.append(idx)
        return chosen

    def context(self, idx: int) -> _AnchorContext:
        ctx = self._contexts.get(idx)
        if ctx is None:
            p, outside = self.anchors[idx]
            ctx = _AnchorContext(p, list(compress(self.extended, outside)), self)
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

        small = self.small_option
        if small is not None and small[0] <= k:
            memb, _size, ids = small
            return ExactSolveReport(CoverSolution(ids, memb), k, "small", None)

        # a cover of size <= k has membership <= k; at k <= 3, or with a small
        # cover, the small option above would already have returned it
        if small is None and k >= 4:
            mc = self.min_cover
            if len(mc) <= k:
                cover = CoverSolution.build([h.id for h in mc], self.sp_rows, self.halfplanes)
                if cover.memb > k:
                    raise RuntimeError("a cover of size <= k has membership above k")
                return ExactSolveReport(cover, k, "minsize", None)

        for idx in self.covering_anchors:
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
        hosts_in_order = tuple([ctx.segments[s].host for s in heads])
        polygon = tuple([_hpt_point(ctx.segments[s].a_h) for s in heads])
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
        local search, unless a plane cover has lower membership.

        The local-search cover wins ties, then the first plane cover of
        least membership.  A plane cover holds every monitored point, so
        none goes below 1 when S' is not empty (0 when it is): the scan
        stops at that floor, or never starts when the local-search cover
        is at it already.
        """
        if not self.points:
            return CoverSolution((), 0)
        stable = one_stable_local_search(self.min_cover, self.halfplanes)
        best = CoverSolution.build([h.id for h in stable], self.sp_rows, self.halfplanes)
        floor = 1 if self.sp_rows else 0
        if best.memb <= floor or not self.covers_plane:
            return best
        for combo in _plane_covers(self.halfplanes):
            memb = depth(self.sp_rows, sum([1 << j for j in combo]))
            if memb < best.memb:
                best = CoverSolution(tuple([self.halfplanes[j].id for j in combo]), memb)
                if memb <= floor:
                    break
        return best


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


# ---------------------------------------------------------------------------
# plane covers, minimum-size covers, local search
# ---------------------------------------------------------------------------

def _flipped(halfplanes: Iterable[Halfplane]) -> list[tuple[int, int, int]]:
    return [(-h.a, -h.b, -h.c) for h in halfplanes]  # open complements: -h > 0


def _plane_covers(halfplanes: Sequence[Halfplane]) -> Iterator[tuple[int, ...]]:
    """Every pair, then every triple, of halfplanes whose union is the
    plane, as increasing positions in the id-sorted halfplanes.

    The union is the plane iff the open complements have no common point,
    and an empty intersection already shows on a pair or triple (Helly).
    No normal is zero, so a pair covers iff its complements carry the
    antiparallel certificate (`pair_certificate`), and a triple covers iff
    it holds a covering pair or its complements carry the three-normal
    certificate (`triple_certificate`).  The halfplanes are flipped once
    and each pair is tested once.
    """
    flipped = _flipped(sorted(halfplanes, key=lambda h: h.id))
    covering: set[tuple[int, int]] = set()
    for i, j in combinations(range(len(flipped)), 2):
        if pair_certificate(flipped[i], flipped[j]):
            covering.add((i, j))
            yield (i, j)
    for i, j, k in combinations(range(len(flipped)), 3):
        if (
            (i, j) in covering
            or (i, k) in covering
            or (j, k) in covering
            or triple_certificate(flipped[i], flipped[j], flipped[k])
        ):
            yield (i, j, k)


def _min_size_cover(
    ordered: Sequence[Halfplane],
    s_rows: Sequence[int],
    masks: Sequence[int],
    floor: int,
) -> list[Halfplane]:
    """Exact minimum-cardinality cover via branch and bound, given the S
    table over `ordered` with no zero row and its columns `masks`.

    Candidates are ordered by coverage; the incumbent starts from the
    greedy cover.  `floor` is a proven lower bound on the minimum size (0
    for none), as `_HalfplaneInstance.size_floor` certifies from the small
    covers: a greedy cover no larger is returned at once.  A floor of 1 to
    3 is the minimum itself, so no LP bound can reach past it; at 4 or 0
    the relaxed size LP gives a global lower bound that often certifies
    the greedy cover.  The search stops as soon as its incumbent reaches
    the proven bound.  It replaces the incumbent only with a strictly
    smaller cover, so every certificate and every stop returns the set the
    full search would.
    """
    if not s_rows:
        return []
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
    if len(greedy) <= floor:
        return [ordered[i] for i in sorted(greedy)]

    lower = floor
    if not 0 < floor < 4:
        lp_bound = lpmod.solve_lp(lpmod.build_size_lp(s_rows, len(ordered)))
        if lp_bound.status != lpmod.OPTIMAL:
            raise RuntimeError("coverage was prechecked")
        lower = max(floor, math.ceil(lp_bound.value))
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
        if best_size <= lower:
            return
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
    bound behind the small-cover floor); Uncoverable names the first point
    that no halfplane contains."""
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
    at the optimum, no later than that membership.  `eps` is read by
    `geometry.frac`, so a float or a decimal string raises ValueError.
    """
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    inst = _HalfplaneInstance(points, sprime, halfplanes)
    rough = inst.additive()
    constant = ADDITIVE_ERROR_PLANE if inst.covers_plane else ADDITIVE_ERROR
    threshold = (1 + eps) / eps * constant
    if rough.memb >= threshold:
        return rough
    return inst.escalate().cover
