"""Membership cover for halfplanes: exact decision search, additive-error
local search, and the approximation scheme that combines them.

The exact decision procedure asks whether some cover of the mandatory
points keeps every monitored point inside at most k chosen halfplanes.
Candidate solutions that do not cover the whole plane are recognized by
their complement: a bounded convex polygon whose edges lie on boundary
lines of the chosen halfplanes.  The search walks a graph whose nodes are
k-tuples of consecutive candidate edges and whose arcs are the (k+1)-tuples
that pass the membership test, each from its first k edges to its last k;
a polygon exists iff the graph has a cycle winding exactly once around a
guessed interior point.  Winding is counted combinatorially, as crossings
of a reference ray, so irrational angle sums never appear: every edge
subtends an arc smaller than a halfturn, hence a cycle's crossing count
equals its winding number.  The polygon's hosts are the cover returned
and all lie outside the guessed point, so only faces whose outside
halfplanes cover the mandatory points are searched.  Of those, only the
faces whose outside sets are maximal: a point outside every halfplane
that the guessed point is outside of lies inside every polygon around the
guessed point, so its own search finds each of those polygons.

The graph is the line graph of the one whose nodes are the passing
(k+1)-tuples, an arc joining two that overlap in k edges.  A tuple's
successors there depend only on its last k edges, so that graph holds
each k-tuple many times over, and this one once.  A closed walk in either
is the same cyclic sequence of edges with the same crossings, and a
search in node order closes its first cycle with the same first
(k+1)-tuple in both.

The cycle's polygon is convex with the guessed point p strictly inside,
and its interior lies outside every host, so the cover is valid iff no
point of S lies in that interior.  The closed triangle (p, a, b) of an
edge [a, b], minus the edge, lies in the interior, and the triangles of
the edges tile the polygon.  So a segment whose triangle holds a point of
S off the segment is dropped from the anchor's context at once, and on
the segments kept every polygon is valid: the chains test only the
monitored points.

A segment's successors are the segments that leave its right endpoint and
turn strictly clockwise from it.  No polygon is lost when a collinear step
is refused: each edge joins two intersections of boundary lines, so it is
one segment, and the walk with one segment per edge passes whenever a walk
in collinear pieces does.  An edge's triangle is the union of its pieces'
triangles, and a window of k+1 pieces spans at most k+1 consecutive
edges, so its hosts are among those of the window of edges that starts
with it, whose S' AND is therefore no larger.  Each segment runs
along (b, -a) on its host, so the turn is read off the two hosts'
normals, not the segments.  The successor list and the S' points in every
successor therefore depend only on the segment's right endpoint and host:
an anchor context builds each once per such group, and every segment of
the group reads it.

The boundary arrangement is one `geometry.Arrangement` per instance, each
line with its vertices in order along (b, -a): the anchors are its face
samples, one per face inside the dummy box, from a sweep over those
vertices between the box's vertical sides, and segments join them.  An
anchor lies strictly outside each of its active halfplanes h,
h(anchor) < 0, so for u, v on h's line orient(anchor, u, v) < 0 iff v - u
is a positive multiple of (b_h, -a_h): no anchor changes how a segment is
oriented.  A walk from a vertex u of an active line keeps the segments to
the next vertices v while the triangle (anchor, u, v) holds no point of S
off the line, and stops at the first that does, whose triangle lies inside
that of every vertex beyond it.  An anchor's context walks only where the
cycle search goes: from the vertices before the reference ray's hit on
each line, outward, to those after it, for the crossing segments; then
from a segment's right endpoint along each line through it, when the
search first asks for its successors.  Segments get ids as they are met,
but the crossing ones and every successor list are sorted by the key
(line position, lower and higher HPt rank of the endpoints) that orders a
build of every segment, so the search meets the chains and the cycle that
such a build gives.

All hot predicates run on homogeneous integer coordinates.  An instance
reads each coordinate of S and S' once, into those integers, and sizes the
dummy box from them.  One sign pass per instance halfplane over S and S'
sets the points' bits in its columns and its bit in the points' rows at
once; the dummies hold no point, so their facts need no pass.  The scan
for covers of at most three halfplanes ORs S columns against the mask of
all of S, in (size, ids) order; it takes a pair's OR once for all its
triples, and skips the triples of a pair that misses more points than the
widest column holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    Arrangement,
    Halfplane,
    HPt,
    Point,
    Vertex,
    face_sample_points,
    frac,
    pair_certificate,
    strictly_feasible,
    triple_certificate,
)

# placeholders read only by perfbench/tracing.py, which patches these names
# here and raises KeyError when one is missing; no solve calls them.  ROADMAP
# item 9 deletes them together with the tracer's patch.
complement_region = region_subset = None

DUMMY_BASE_ID = -1  # dummies use ids -1..-4, never colliding with instances


# ---------------------------------------------------------------------------
# homogeneous integer points
# ---------------------------------------------------------------------------

def _hpt(p: Point) -> HPt:
    """(X, Y, W) with W the lcm of the denominators, reading each
    coordinate's numerator and denominator once."""
    x, y = p.x, p.y
    xd, yd = x.denominator, y.denominator
    if xd == yd:
        return (x.numerator, y.numerator, xd)
    w = math.lcm(xd, yd)
    return (x.numerator * (w // xd), y.numerator * (w // yd), w)


def _hpt_point(h: HPt) -> Point:
    return Point(Fraction(h[0], h[2]), Fraction(h[1], h[2]))


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


def _sign_tables(
    lines: Sequence[tuple[int, int, int]], s_pts: Sequence[HPt], sp_pts: Sequence[HPt]
) -> tuple[list[tuple[int, int]], list[int], list[int], list[int], list[int]]:
    """The sides, the S columns, the S' columns, the S rows and the S' rows
    of `lines`: per line, the bitmasks of S on its side <= 0 and on it, of S
    on its side >= 0 and of S' on that side, and per point of S and of S',
    the bitmask of the lines with the point on their side >= 0.

    One integer sign pass per line over S and then S' sets a point's bit
    in the line's masks and the line's bit in the point's row at once, so
    neither table is a transpose of the other."""
    s_rows = [0] * len(s_pts)
    sp_rows = [0] * len(sp_pts)
    sides: list[tuple[int, int]] = []
    s_columns: list[int] = []
    sp_columns: list[int] = []
    for j, (a, b, c) in enumerate(lines):
        line_bit = 1 << j
        nonpos = nonneg = 0
        for i, (x, y, w) in enumerate(s_pts):
            v = a * x + b * y + c * w
            if v <= 0:
                nonpos |= 1 << i
            if v >= 0:
                nonneg |= 1 << i
                s_rows[i] |= line_bit
        inside = 0
        for i, (x, y, w) in enumerate(sp_pts):
            if a * x + b * y + c * w >= 0:
                inside |= 1 << i
                sp_rows[i] |= line_bit
        sides.append((nonpos, nonpos & nonneg))
        s_columns.append(nonneg)
        sp_columns.append(inside)
    return sides, s_columns, sp_columns, s_rows, sp_rows


# ---------------------------------------------------------------------------
# segments of the boundary arrangement
# ---------------------------------------------------------------------------

class SegmentPhi(NamedTuple):
    """A candidate polygon edge: a finite piece of a host boundary line.

    Both endpoints are intersections of the host line with other boundary
    lines; seen from the anchor, the order anchor -> left -> right is
    clockwise and spans less than a halfturn.  As h(anchor) < 0 on the host
    h, that is: right - left is a positive multiple of (b_h, -a_h).  A
    named tuple, as an anchor context builds many.

    As an edge of a polygon around the anchor, it bounds the closed
    triangle (anchor, left, right), which lies in the polygon's interior
    except for the segment itself: an anchor keeps the segment only when
    no point of S lies in the triangle off the segment.
    """

    host: int  # halfplane id
    a_h: HPt
    b_h: HPt


# a segment's place in the order of the eager tables: its line's position in
# `extended`, then the lower and the higher HPt rank of its endpoints
SegmentKey = tuple[int, int, int]


def build_segments(
    vertices: list[Vertex],
    t: int,
    start: int,
    active: int,
    off: int,
    wedge: Mapping[HPt, tuple[int, int]],
) -> list[tuple[HPt, int]]:
    """One walk of the module docstring, on one line's `vertices`: from
    vertex t, the vertices v from index `start` on that lie on a line in the
    bitmask `active`, while the triangle (anchor, vertex t, v) holds no
    point of S off the line; it stops at the first that does.  `off` holds
    the points of S strictly on the anchor's side of the line, `wedge[e]`
    the points x of S with orient(anchor, e, x) <= 0 and >= 0.  Each kept v
    comes with its HPt rank."""
    left = wedge[vertices[t][0]][0] & off
    kept: list[tuple[HPt, int]] = []
    for v, through, rank in vertices[start:]:
        if through & active:
            if left & wedge[v][1]:
                break
            kept.append((v, rank))
    return kept


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


class WindGraph:
    """Nodes are k-chains, k >= 1 chained segments as ids of the anchor
    context's kept segments, which it walks as the graph asks for them; an
    arc v -> w is a passing (k+1)-chain whose first k segments are v and
    whose last k are w.

    A node's id is its position in `vertices`.  The graph starts with the
    given chains, its crossing nodes, whose first segment's angular arc
    crosses the reference ray: node v crosses iff v < crossing, and so
    does every arc leaving it.  `successors(v)` fills `succ[v]` on first
    request, by `step` on the node's chain, and appends each chain not met
    before as a new, non-crossing node.  `step` lists chains in their
    segments' key order, so the node ids are those that a context holding
    every segment gives.
    """

    def __init__(self, vertices: list[Chain], step: Callable[[Chain], list[Chain]]):
        self.vertices = vertices
        self.step = step
        self.crossing = len(vertices)
        self.succ: list[list[int] | None] = [None] * len(vertices)
        self.ids = {v: i for i, v in enumerate(vertices)}

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
                out.append(w)
            self.succ[v] = out
        return out


class _OnDemand(dict):
    """A table filled on first read: a missing key's entry is `fill(key)`."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _AnchorContext:
    """The kept segments and their successor facts for one anchor, walked
    on demand.

    A segment is kept only when its closed triangle (anchor, left, right)
    holds no point of S off the segment.  A cycle winding once around the
    anchor is a convex polygon with the anchor strictly inside, and its
    interior lies outside every host, so its cover is valid iff no point
    of S lies in that interior.  Each triangle minus its edge lies in the
    interior, and the triangles of the edges tile the polygon: a polygon
    is valid iff every one of its edges passes this test, so the search
    never needs to look at more than one segment's masks at a time.

    The triangle is the intersection of {orient(p, left, x) <= 0},
    {orient(p, right, x) >= 0} and the host line's closed side holding the
    anchor, so its mask is an AND of one orientation mask per endpoint,
    `wedge`, and one side mask of the instance; its points on the host line
    are those on the segment.

    The anchor comes as the instance holds it, `p_h` a homogeneous point
    in lowest terms, and the active lines as `active_bits`, bit i set iff
    the anchor lies outside extended[i].  `__init__` walks the crossing
    segments, `leaving` and `successors` the others on first request (None
    in `succ_seg` and `every_succ_sp` until then), as the module docstring
    says; `wedge` signs S against a vertex on first read, and `ids` maps
    each `SegmentKey` to its id.  The context refers neither to its
    instance nor to itself, so it is freed without the cycle collector.
    """

    def __init__(self, p_h: HPt, active_bits: int, inst: _HalfplaneInstance):
        self.p_h, self.active = p_h, active_bits
        self.arrangement, self.extended, self.slots = inst.arrangement, inst.extended, inst.slots
        self.line_sides, self.sp_masks, self.position = inst.line_sides, inst.sp_masks, inst.position
        # the endpoints of every segment of the active lines: on each active
        # line with two or more, its vertices that lie on another active line
        endpoints: set[HPt] = set()
        ends: dict[int, list[int]] = {}  # per such line, the endpoints' indices
        for i, vertices in enumerate(self.arrangement.vertices):
            if active_bits >> i & 1:
                on = [t for t, (_v, through, _rank) in enumerate(vertices) if through & active_bits]
                if len(on) > 1:
                    ends[i] = on
                    endpoints.update([vertices[t][0] for t in on])
        self.ray = ray = _ray_direction(p_h, endpoints)
        self.wedge: dict[HPt, tuple[int, int]] = _OnDemand(partial(self._sign_wedge, p_h, inst.s_hpts))
        self.segments: list[SegmentPhi] = []
        self.ids: dict[SegmentKey, int] = {}
        self.sp_mask: list[int] = []
        # succ_seg[s]: the segments j starting at the right endpoint of s
        # that turn strictly clockwise from s; every_succ_sp[s]: the S'
        # points in every successor of s (-1, all of them, when s has none)
        self.succ_seg: list[list[int] | None] = []
        self.every_succ_sp: list[int | None] = []
        self._walks: dict[tuple[int, int], list[int]] = {}
        self._groups: dict[tuple[HPt, int], tuple[list[int], int]] = {}
        # the segments from the endpoints before the ray's hit on a line,
        # which see the ray clockwise and come first, to those after it;
        # triangles nest, so none is left once a walk outward keeps nothing
        for i, on in ends.items():
            a, b, _c = self.arrangement.lines[i]
            if a * ray[0] + b * ray[1] <= 0:
                continue  # the ray misses the line
            vertices = self.arrangement.vertices[i]
            m = 0
            while m < len(on) and _cross2(_dirvec(p_h, vertices[on[m]][0]), ray) < 0:
                m += 1
            if m < len(on):
                for t in reversed(on[:m]):
                    if not self._walk(i, t, on[m]):
                        break
        self.crossing = [s for _key, s in sorted(self.ids.items())]

    @staticmethod
    def _sign_wedge(p_h: HPt, s_pts: Sequence[HPt], e: HPt) -> tuple[int, int]:
        return _sign_masks(_cross3(p_h, e), s_pts)

    def _walk(self, i: int, t: int, start: int) -> list[int]:
        """The ids of the kept segments from vertex t of active line i to
        its vertices from index `start` on, by `build_segments`, in key
        order; those not met before get the next ids."""
        host, vertices = self.extended[i].id, self.arrangement.vertices[i]
        side, online = self.line_sides[host]
        u, _through, r = vertices[t]
        kept = build_segments(vertices, t, start, self.active, side & ~online, self.wedge)
        ids = self.ids
        out: list[int] = []
        new: list[SegmentPhi] = []
        for key, v in sorted([((i, r, q) if r < q else (i, q, r), v) for v, q in kept]):
            s = ids.get(key)
            if s is None:
                s = ids[key] = len(ids)
                new.append(SegmentPhi(host, u, v))
            out.append(s)
        if new:
            self.segments += new
            self.sp_mask += [self.sp_masks[host]] * len(new)
            self.succ_seg += [None] * len(new)
            self.every_succ_sp += [None] * len(new)
        return out

    def leaving(self, i: int, t: int) -> list[int]:
        """The ids of the kept segments leaving vertex t of active line i,
        in key order: one walk, on first request."""
        out = self._walks.get((i, t))
        if out is None:
            out = self._walks[i, t] = self._walk(i, t, t + 1)
        return out

    def successors(self, s: int) -> list[int]:
        """succ_seg[s], filled with every_succ_sp[s] from the facts of its
        (right endpoint, host) group, built on the group's first request.
        Segment s on host (a, b, c) runs along (b, -a), so a segment j
        leaving its right endpoint turns strictly clockwise iff a * b_j <
        a_j * b; every_succ_sp ANDs the S' masks of the turning hosts that
        give a kept segment.  Lines come in position order, so the list
        comes in key order."""
        out = self.succ_seg[s]
        if out is not None:
            return out
        host, _a_h, b_h = self.segments[s]
        i = self.position[host]
        facts = self._groups.get((b_h, i))
        if facts is None:
            lines, slots = self.arrangement.lines, self.slots
            a, b, _c = lines[i]
            through = self.arrangement.vertices[i][slots[b_h, i]][1] & self.active
            nexts: list[int] = []
            common = -1
            while through:
                j = (through & -through).bit_length() - 1  # the lowest line left
                through &= through - 1
                a_j, b_j, _c_j = lines[j]
                if a * b_j < a_j * b:
                    starting = self.leaving(j, slots[b_h, j])
                    if starting:
                        nexts += starting
                        common &= self.sp_masks[self.extended[j].id]
            facts = self._groups[b_h, i] = (nexts, common)
        self.succ_seg[s], self.every_succ_sp[s] = facts
        return facts[0]

    def chains(self, k: int, starts: Iterable[Chain]) -> list[Chain]:
        """The (k+1)-chains passing the membership condition that extend the
        prefixes in `starts`, of 1 to k segments each, depth first: no point
        of S' lies in every host of the chain.

        Every kept segment's triangle holds no point of S off the segment,
        so the S test of a window of k+1 edges holds on every chain, and a
        chain carries only the running AND of its S' masks.  Before the last
        segment, that AND must miss some successor's S' mask, so it must
        miss every_succ_sp[s] of the prefix's last segment s; a prefix that
        does not is cut off, as no completion of it can pass.  The chains
        come out in key order, as every successor list does.
        """
        out: list[Chain] = []
        sp, succ, every_succ_sp = self.sp_mask, self.succ_seg, self.every_succ_sp
        successors = self.successors
        for prefix in starts:
            sp_and = -1
            for s in prefix:
                sp_and &= sp[s]
            stack = [(prefix, sp_and)]
            while stack:
                chain, sp_and = stack.pop()
                s = chain[-1]
                if succ[s] is None:
                    successors(s)
                if len(chain) < k:
                    stack += [(chain + (j,), sp_and & sp[j]) for j in reversed(succ[s])]
                elif not sp_and & every_succ_sp[s]:
                    # the last segment: test the chain, do not descend
                    out += [chain + (j,) for j in succ[s] if not sp_and & sp[j]]
        return out

    def graph(self, k: int) -> WindGraph:
        """The decision graph at k >= 1, holding at first only its crossing
        nodes: the first k segments, in order and each once, of the passing
        chains from the crossing segments.

        The successors of a node v are the last k segments of the passing
        chains that `chains` extends v to, in key order.  A node met later
        is non-crossing, or a crossing k-chain with no passing extension,
        which leaves no arc to cross.  As the line graph of the graph on the
        passing chains, it holds a once-winding cycle iff that graph does.
        """
        crossing = list(dict.fromkeys([c[:-1] for c in self.chains(k, [(s,) for s in self.crossing])]))
        return WindGraph(crossing, lambda v: [c[1:] for c in self.chains(k, [v])])


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
    crossing, successors = graph.crossing, graph.successors
    reached: dict[int, int] = {}
    for u in range(crossing):
        for v in successors(u):
            if not _crossings_reached(graph, v, reached) >> u & 1:
                continue
            parent: dict[int, int | None] = {v: None}
            queue = [v]
            while queue and u not in parent:
                frontier: list[int] = []
                for w in queue:
                    if w < crossing:
                        continue  # its outgoing arcs would cross again
                    for nxt in successors(w):
                        if nxt not in parent:
                            parent[nxt] = w
                            frontier.append(nxt)
                queue = frontier
            if u not in parent:
                raise RuntimeError("the search missed a path that the reach mask promised")
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

    One post-order walk, memoized in `reached` across calls, in which -1
    marks a node still open.  The non-crossing arcs hold no cycle: every
    arc turns clockwise by more than zero and less than a halfturn, so a
    closed walk winds at least once and crosses the ray.  An arc back to an
    open node would close such a cycle, so it raises RuntimeError.
    """
    crossing, successors = graph.crossing, graph.successors
    if v < crossing:
        return 1 << v
    mask = reached.get(v)
    if mask is not None:
        return mask
    reached[v] = -1  # open
    path, arcs, acc = [v], [iter(successors(v))], [0]
    while path:
        for w in arcs[-1]:
            if w < crossing:
                acc[-1] |= 1 << w
                continue
            mask = reached.get(w)
            if mask is not None:
                if mask < 0:
                    raise RuntimeError("the non-crossing arcs hold a cycle")
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


class _HalfplaneInstance:
    """One instance (S, S', H), built once per public call, and every fact
    its solvers read off it; the PTAS asks one for both of its solvers.

    Each coordinate of S and S' is read once, into homogeneous integers,
    and the box of the four dummies is sized from those.  One integer sign
    pass per instance halfplane over S and S', `_sign_tables`, is the only
    point-versus-line test: it gives the line sides, the S columns and S'
    masks, and the S and S' rows over the id-sorted halfplanes.  The
    dummies' facts need no pass: every point lies strictly inside the box,
    on each dummy's side <= 0, and in none of them, so the same rows serve
    over `extended`.  Other facts are computed on first use.
    """

    def __init__(
        self,
        points: Sequence[Point],
        sprime: Sequence[Point],
        halfplanes: Sequence[Halfplane],
    ):
        self.points = list(points)
        self.halfplanes = sorted(halfplanes, key=lambda h: h.id)
        self.s_hpts = [_hpt(q) for q in self.points]
        sp_hpts = [_hpt(q) for q in sprime]
        # four axis-aligned halfplanes outside a box holding every point: the
        # offset is one beyond the largest floor of a coordinate magnitude,
        # integral so the coefficients stay integers, and strict so no point
        # touches a dummy
        self.delta = delta = max(
            [max(abs(x), abs(y)) // w for x, y, w in self.s_hpts + sp_hpts], default=0
        ) + 1
        self.dummies = [
            Halfplane(DUMMY_BASE_ID - 0, 0, -1, -delta),  # y <= -delta
            Halfplane(DUMMY_BASE_ID - 1, 0, 1, -delta),   # y >= delta
            Halfplane(DUMMY_BASE_ID - 2, -1, 0, -delta),  # x <= -delta
            Halfplane(DUMMY_BASE_ID - 3, 1, 0, -delta),   # x >= delta
        ]
        self.extended = self.halfplanes + self.dummies
        self.lines = [h.line() for h in self.extended]
        self.position = {h.id: i for i, h in enumerate(self.extended)}
        n = len(self.halfplanes)
        sides, self.s_columns, sp_columns, self.s_rows, self.sp_rows = _sign_tables(
            self.lines[:n], self.s_hpts, sp_hpts
        )
        # per id of `extended`: S on the closed side h <= 0 and on the line,
        # and S' in h
        ids = [h.id for h in self.extended]
        in_box = ((1 << len(self.points)) - 1, 0)  # a dummy's side: all of S, none on it
        self.line_sides: dict[int, tuple[int, int]] = dict(zip(ids, sides + [in_box] * 4))
        self.sp_masks: dict[int, int] = dict(zip(ids, sp_columns + [0] * 4))
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
        # the small covers come out in (size, ids) order, the halfplanes being
        # id-sorted, and no cover has membership 0 without a quiet cover;
        # so the first cover at that floor is the least option.  The first
        # cover met, no later than that return, has the least size.
        floor = 0 if self.quiet_cover is not None else 1
        best = None
        least_size = 4
        for combo in _small_covers(self.s_columns, (1 << len(self.points)) - 1):
            size = len(combo)
            least_size = min(least_size, size)
            chosen = sum([1 << j for j in combo])
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

    # -- the boundary arrangement ------------------------------------------

    @cached_property
    def arrangement(self) -> Arrangement:
        """The arrangement of `extended`, whose faces are sampled and which
        every anchor context walks."""
        return Arrangement.of(self.lines)

    @cached_property
    def slots(self) -> dict[tuple[HPt, int], int]:
        """Per vertex of the arrangement and position in `extended` of a line
        through it, the vertex's index on that line."""
        return {
            (v, i): t
            for i, vertices in enumerate(self.arrangement.vertices)
            for t, (v, _through, _rank) in enumerate(vertices)
        }

    # -- anchors ------------------------------------------------------------

    @cached_property
    def faces(self) -> list[tuple[int, int, int, int]]:
        """One sample per face inside the dummy box, as `face_sample_points`
        gives it: (X, Y, W, outside), bit i of outside set iff the point
        (X/W, Y/W) lies outside extended[i].  The dummies come last, as the
        box's bottom, top, left and right sides."""
        n = len(self.halfplanes)
        return face_sample_points(self.arrangement, (n, n + 1, n + 2, n + 3))

    @cached_property
    def covering_anchors(self) -> list[int]:
        """Indices of the faces whose outside halfplanes cover S and whose
        outside sets are maximal among those, in face order.

        A cycle's hosts are the cover it returns and all lie outside its
        anchor, so no anchor whose outside halfplanes miss a point of S
        holds a cycle.  If anchor q is outside every halfplane that anchor
        p is outside of, every polygon around p, the intersection of its
        hosts' complements, holds q strictly inside, and its edges are
        segments of q's context too: q's search finds each cycle around p.
        Distinct faces have distinct outside sets, so p is dropped when
        its set is a proper subset of another covering anchor's.
        """
        full = (1 << len(self.points)) - 1
        covering: list[tuple[int, int]] = []
        for idx, (_x, _y, _w, outside) in enumerate(self.faces):
            covered = 0
            # the columns stop before the dummies: they cover nothing, and
            # every face lies outside all four
            for bit, column in enumerate(self.s_columns):
                if outside >> bit & 1:
                    covered |= column
            if covered == full:
                covering.append((idx, outside))
        return [
            idx
            for idx, mask in covering
            if not any(mask != other and mask & other == mask for _j, other in covering)
        ]

    def context(self, idx: int) -> _AnchorContext:
        ctx = self._contexts.get(idx)
        if ctx is None:
            x, y, w, outside = self.faces[idx]
            g = math.gcd(x, y, w)
            ctx = _AnchorContext((x // g, y // g, w // g), outside, self)
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
        crossings = sum(1 for v in cycle[:-1] if v < graph.crossing)
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
            anchor=_hpt_point(ctx.p_h),
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
    """Is there a cover whose membership stays at most k?  Exact.  `k` is
    an int (not a bool), else ValueError; below 0 no cover qualifies."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 0:
        return None
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


def _small_covers(columns: Sequence[int], full: int) -> Iterator[tuple[int, ...]]:
    """Every set of at most three positions whose S columns OR to `full`,
    as increasing positions in (size, positions) order, the order of
    `combinations`.

    A pair's OR is taken once for all its triples, which are read one by
    one only when one of them covers.  No third column adds more points
    than the widest column holds, so a pair that misses more points than
    that has no covering triple and is skipped at once."""
    n = len(columns)
    for i in range(n):
        if columns[i] == full:
            yield (i,)
    for i in range(n):
        for j in range(i + 1, n):
            if columns[i] | columns[j] == full:
                yield (i, j)
    least = full.bit_count() - max([c.bit_count() for c in columns], default=0)
    for i in range(n):
        for j in range(i + 1, n):
            pair = columns[i] | columns[j]
            if pair.bit_count() >= least and full in map(pair.__or__, columns[j + 1:]):
                for m in range(j + 1, n):
                    if pair | columns[m] == full:
                        yield (i, j, m)


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
            key=lambda i: ((masks[i] & ~covered).bit_count(), -ordered[i].id),
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
        range(len(ordered)), key=lambda i: (-masks[i].bit_count(), ordered[i].id)
    )
    suffix_union = [0] * (len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        suffix_union[pos] = suffix_union[pos + 1] | masks[order[pos]]

    best_size = len(greedy)
    best_pick = sorted(greedy)
    max_gain = max([m.bit_count() for m in masks])

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
        missing = (full & ~covered).bit_count()
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
