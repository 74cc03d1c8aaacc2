import gc
import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    additive_reference,
    all_chains,
    anchor_context,
    anchors,
    face_samples_in_box_reference,
    fan_instance,
    halfplane_instance,
    in_triangle,
    materialize,
    on_segment,
    reference_cycle,
    reference_graph,
    reference_line_cycle,
    reference_segments,
    reference_winding_cycle,
    ring_instance,
    segment_masks,
    small_scan_reference,
    strict_feasible_lp,
    tangent_fan,
    union_grows_lp,
    union_within_lp,
    verify_winding_certificate,
    walk_segments,
    window_relation,
)

from membercover import (
    Halfplane,
    Point,
    Uncoverable,
    additive_error_cover,
    decide_membership,
    exact_minsize_bruteforce,
    exact_mmgsc_bruteforce,
    find_winding_cycle,
    incidence,
    memb_eval,
    min_size_halfplane_cover,
    one_stable_local_search,
    ptas,
    verify_cover,
)
from membercover.halfplanes import (
    WindGraph,
    WindingCertificate,
    _HalfplaneInstance,
    _cross2,
    _cross3,
    _dirvec,
    _flipped,
    _hpt,
    _hpt_point,
    _min_size_cover,
    _plane_covers,
    _sign_masks,
    exact_mmgsc_halfplanes_report,
)
from membercover.geometry import Arrangement, strictly_feasible


def P(x, y):
    return Point.of(x, y)


BOX = [
    Halfplane(0, 1, 0, -1),   # x >= 1
    Halfplane(1, -1, 0, -1),  # x <= -1
    Halfplane(2, 0, 1, -1),   # y >= 1
    Halfplane(3, 0, -1, -1),  # y <= -1
]


class TestPlaneCover:
    def test_opposite_pair(self):
        hs = [Halfplane(0, 0, 1, 0), Halfplane(1, 0, -1, 0)]
        assert list(_plane_covers(hs)) == [(0, 1)]
        assert _HalfplaneInstance([], [], hs).covers_plane

    def test_three_at_120_degrees(self):
        hs = [Halfplane(0, 1, 0, 1), Halfplane(1, -1, 2, 2), Halfplane(2, -1, -2, 2)]
        assert list(_plane_covers(hs)) == [(0, 1, 2)]
        assert not strictly_feasible(_flipped(hs))
        assert _HalfplaneInstance([], [], hs).covers_plane

    def test_narrow_normal_fan_has_none(self):
        hs = [Halfplane(i, 1, i, -1) for i in range(4)]
        assert list(_plane_covers(hs)) == []
        assert not _HalfplaneInstance([], [], hs).covers_plane

    def test_plane_covers_match_lp_oracle(self):
        degenerate = [
            [Halfplane(0, 0, 1, 0), Halfplane(1, 0, -1, 0)],    # antiparallel, touching
            [Halfplane(0, 0, 1, 1), Halfplane(1, 0, -1, 1)],    # antiparallel, overlapping
            [Halfplane(0, 0, 1, -1), Halfplane(1, 0, -1, -1)],  # antiparallel, a slab apart
            [Halfplane(0, 1, 2, 0), Halfplane(1, 2, 4, 3), Halfplane(2, -1, -2, 5),
             Halfplane(3, -2, -4, -1)],                         # parallel normals
            [Halfplane(0, 1, 1, 0), Halfplane(1, 1, 1, 0), Halfplane(2, 2, 2, 0),
             Halfplane(3, -1, -1, 0), Halfplane(4, -3, -3, 0)],  # duplicate lines
            [Halfplane(0, 1, 0, 0), Halfplane(1, -1, 2, 0),
             Halfplane(2, -1, -2, 0)],                          # concurrent, covering
            [Halfplane(0, 1, 0, 0), Halfplane(1, 0, 1, 0),
             Halfplane(2, 1, 1, 0)],                            # concurrent, not covering
            [Halfplane(0, 1, 0, 0), Halfplane(1, 0, 1, 0), Halfplane(2, -1, -1, 0),
             Halfplane(3, 1, 1, 0)],                            # concurrent, mixed
        ]
        cases = [halfplane_instance(seed) for seed in range(200)]
        cases += [([], [], hs) for hs in degenerate]
        sizes = []
        for points, sprime, hs in cases:
            ordered = sorted(hs, key=lambda h: h.id)
            combos = [*combinations(ordered, 2), *combinations(ordered, 3)]
            # a union is the plane iff the open complements -h > 0 share no point
            expected = [
                c for c in combos
                if not strict_feasible_lp([(-h.a, -h.b, -h.c) for h in c])
            ]
            assert [tuple([ordered[j] for j in c]) for c in _plane_covers(hs)] == expected
            assert _HalfplaneInstance(points, sprime, hs).covers_plane == bool(expected)
            sizes += [len(c) for c in expected]
        assert 2 in sizes and 3 in sizes  # both pairs and triples are exercised

    def test_pair_table_matches_per_combo_test(self):
        # the scan that reuses its covering pairs for the triples gives the
        # list of one strict-feasibility test per combination; normals from
        # a small box make parallel and antiparallel pairs common, and half
        # the batteries put every line through one point
        rng = random.Random(13)
        seen = {"parallel": 0, "antiparallel": 0, "concurrent": 0, "triple only": 0}
        for _ in range(400):
            n = rng.randint(2, 7)
            q = (rng.randint(-2, 2), rng.randint(-2, 2))
            concurrent = rng.random() < 0.5
            hs = []
            for hid in rng.sample(range(30), n):
                a = b = 0
                while a == 0 and b == 0:
                    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                c = -(a * q[0] + b * q[1]) if concurrent else rng.randint(-3, 3)
                hs.append(Halfplane(hid, a, b, c))
            ordered = sorted(hs, key=lambda h: h.id)
            expected = [
                c for size in (2, 3) for c in combinations(ordered, size)
                if not strictly_feasible(_flipped(c))
            ]
            assert [tuple([ordered[j] for j in c]) for c in _plane_covers(hs)] == expected
            assert _HalfplaneInstance([], [], hs).covers_plane == bool(expected)
            for g, h in combinations(hs, 2):
                if g.a * h.b == g.b * h.a:
                    seen["antiparallel" if g.a * h.a + g.b * h.b < 0 else "parallel"] += 1
            seen["concurrent"] += concurrent
            seen["triple only"] += any(
                len(c) == 3 and all(strictly_feasible(_flipped(p)) for p in combinations(c, 2))
                for c in expected
            )
        assert min(seen.values()) >= 20, seen  # every degenerate kind is exercised


def _segments_of(hs):
    """The segments of the lines of `hs` alone, walked from every vertex on
    the arrangement of an instance over them with no point of S, so no
    triangle blocks."""
    inst = _HalfplaneInstance([], [], hs)
    wedge = {v: (0, 0) for vertices in inst.arrangement.vertices for v, _through, _rank in vertices}
    active = sum([1 << inst.position[h.id] for h in hs])
    return walk_segments(inst, active, wedge)


def _walk_cases():
    """Seeded instances whose lines hold duplicates, parallels and
    concurrent triples, with points of S on their lines and at their
    crossings."""
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 8)
        planes = []
        while len(planes) < n:
            kind = rng.randrange(4) if planes else 0
            a, b, c = rng.choice(planes).line() if planes else (0, 0, 0)
            if kind in (0, 3):
                a = b = 0
                while a == 0 and b == 0:
                    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                # a fresh line, or one concurrent at (1, 2)
                c = rng.randint(-6, 6) if kind == 0 else -(a + 2 * b)
            elif kind == 2:
                c = rng.randint(-6, 6)  # parallel, or a duplicate by chance
            planes.append(Halfplane(len(planes), a, b, c))  # kind 1 keeps the duplicate
        points = [P(1, 2)]
        for _ in range(rng.randint(2, 7)):
            a, b, c = rng.choice(planes).line()
            t = Fraction(rng.randint(-12, 12), 2)
            points.append(Point(Fraction(-(b * t + c), a), t) if b == 0 else Point(t, Fraction(-(a * t + c), b)))
        points.append(P(rng.randint(-5, 5), rng.randint(-5, 5)))
        yield points, planes


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestBuildSegments:
    def test_walk_keeps_what_the_exhaustive_filter_keeps(self):
        # at every face of arrangements with duplicate, parallel and
        # concurrent host lines and points of S on them, the walks from
        # every vertex keep the segments that a triangle test of every pair
        # keeps, in key order, and each walk reads the wedge of each vertex
        # it tests once: its left endpoint, the vertices it keeps, and the
        # first blocked one
        faces = blocked = on_host = 0
        kinds = {"duplicate": 0, "parallel": 0, "concurrent": 0}
        for points, planes in _walk_cases():
            lines = [h.line() for h in planes]
            kinds["duplicate"] += len(set(lines)) < len(lines)
            kinds["parallel"] += any(
                g[0] * h[1] == g[1] * h[0] and g != h for g, h in combinations(lines, 2)
            )
            kinds["concurrent"] += sum(1 for a, b, c in lines if a + 2 * b + c == 0) >= 3
            inst = _HalfplaneInstance(points, [], planes)
            for x, y, w, outside in inst.faces:
                anchor = Point(Fraction(x, w), Fraction(y, w))
                active = [h for i, h in enumerate(inst.extended) if outside >> i & 1]
                p_h = _hpt(anchor)
                wedge = _CountingDict({
                    v: _sign_masks(_cross3(p_h, v), inst.s_hpts)
                    for vertices in inst.arrangement.vertices
                    for v, _through, _rank in vertices
                })
                kept = walk_segments(inst, outside, wedge)
                assert kept == _reference_context(anchor, active, inst.s_hpts)
                ends = pairs = 0
                for i, vertices in enumerate(inst.arrangement.vertices):
                    if outside >> i & 1:
                        m = len([v for v, through, _rank in vertices if through & outside])
                        ends += m
                        pairs += m * (m - 1) // 2
                assert wedge.reads <= 2 * ends + len(kept)
                faces += 1
                blocked += pairs - len(kept)
                on_host += sum(
                    1 for seg in kept for q in inst.s_hpts if on_segment(q, seg.a_h, seg.b_h)
                )
        assert faces > 600 and blocked > 12000 and on_host > 10000
        assert min(kinds.values()) >= 10, kinds

    def test_triangle_arrangement(self):
        hs = [
            Halfplane(0, -1, 0, 0),   # x <= 0
            Halfplane(1, 0, -1, 0),   # y <= 0
            Halfplane(2, 1, 1, -4),   # x + y >= 4
        ]
        p = P(1, 1)
        assert not any(h.contains(p) for h in hs)
        segs = _segments_of(hs)
        assert len(segs) == 3
        for seg in segs:
            # clockwise orientation seen from the anchor, arc below a halfturn
            left, right = _hpt_point(seg.a_h), _hpt_point(seg.b_h)
            ux, uy = left.x - p.x, left.y - p.y
            vx, vy = right.x - p.x, right.y - p.y
            assert ux * vy - uy * vx < 0

    def test_two_lines_no_finite_segments(self):
        assert _segments_of([Halfplane(0, 1, 0, -1), Halfplane(1, 0, 1, -1)]) == []

    def test_counts_match_per_line_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            hs = []
            for i in range(5):
                a = b = 0
                while a == 0 and b == 0:
                    a = rng.randint(-5, 5)
                    b = rng.randint(-5, 5)
                hs.append(Halfplane(i, a, b, rng.randint(-40, -10)))
            active = [h for h in hs if not h.contains(P(0, 0))]
            segs = _segments_of(active)
            # oracle: intersections per line via pairwise elimination
            total = 0
            for h in active:
                pts = set()
                for o in active:
                    if o is h:
                        continue
                    det = h.a * o.b - o.a * h.b
                    if det == 0:
                        continue
                    x = Fraction(h.b * o.c - o.b * h.c, det)
                    y = Fraction(o.a * h.c - h.a * o.c, det)
                    pts.add((x, y))
                m = len(pts)
                total += m * (m - 1) // 2
            assert len(segs) == total

    def test_selection_matches_per_anchor_build(self):
        # every anchor, covering or not, walks the instance's one
        # arrangement to the segments that a build from its own active
        # lines and its own orientation tests keeps, those whose triangle
        # holds no point of S off the segment, in the same order (key order)
        cases = [fan_instance(seed) for seed in range(20)]
        cases += [halfplane_instance(seed) for seed in range(150)]
        cases += [ring_instance(seed, 12) for seed in range(6)]
        searched = segments = 0
        for points, sprime, planes in cases:
            inst = _HalfplaneInstance(points, sprime, planes)
            for idx, (anchor, outside) in enumerate(anchors(inst)):
                active = [h for h, out in zip(inst.extended, outside) if out]
                ctx = inst.context(idx)
                kept = [ctx.segments[s] for s in materialize(ctx)]
                assert kept == _reference_context(anchor, active, inst.s_hpts)
                searched += 1
                segments += len(kept)
        assert searched > 2500 and segments >= 289875


def _forward_table(rng, n, crossing):
    """A random successor table of the decision graph's shape on n nodes:
    those below `crossing` cross, and an arc leaving another node goes to
    a crossing node or forward in `order`, a random order of the others,
    so the non-crossing arcs hold no cycle.  Returns (table, order)."""
    order = list(range(crossing, n))
    rng.shuffle(order)
    rank = {v: r for r, v in enumerate(order)}
    table = []
    for v in range(n):
        targets = [w for w in range(n) if v < crossing or w < crossing or rank[w] > rank[v]]
        table.append(rng.sample(targets, rng.randint(0, min(len(targets), 3))))
    return table, order


def _table_graph(table, crossing):
    """The decision graph over a successor table of labels: the crossing
    labels are given as one-label chains, and `step` grows the rest."""
    return WindGraph([(v,) for v in range(crossing)], lambda v: [(w,) for w in table[v[0]]])


def _labels(graph, cycle):
    """A cycle's node ids as the labels of their chains."""
    return None if cycle is None else [graph.vertices[v][0] for v in cycle]


class TestDecisionGraph:
    def test_box_cycle_k1(self):
        # the walk starts from the one crossing node and meets the other
        # three, the first segments of the full (k+1)-chain graph's nodes
        ctx = anchor_context(P(0, 0), BOX, _HalfplaneInstance([], [], BOX))
        vertices, succ, cross = reference_graph(ctx, 1)
        assert len(vertices) == 4
        assert sum(len(s) for s in succ) == 4
        assert sum(cross) == 1
        graph = ctx.graph(1)
        assert len(graph.vertices) == 1
        cycle = find_winding_cycle(graph)
        assert cycle is not None and len(cycle) == 5
        assert [graph.vertices[v][0] for v in cycle] == [c[0] for c in reference_winding_cycle(ctx, 1)]
        assert sorted(graph.vertices) == sorted([v[:-1] for v in vertices])

    def test_point_inside_triangle_blocks_segment(self):
        # a mandatory point swallowed by a segment's triangle knocks the
        # segment out of the graph; the box can then no longer close
        anchor = P("1/2", "1/2")
        ctx = anchor_context(anchor, BOX, _HalfplaneInstance([P(0, 0)], [], BOX))
        free = anchor_context(anchor, BOX, _HalfplaneInstance([], [], BOX))
        blocked = reference_graph(ctx, 1)[0]
        assert len(reference_graph(free, 1)[0]) == 4
        assert len(blocked) < 4
        for v in blocked:
            for s in v:
                seg = ctx.segments[s]
                # the witness point (0,0) must not lie inside this triangle
                assert not in_triangle(_hpt(P(0, 0)), _hpt(anchor), seg.a_h, seg.b_h)
        assert reference_winding_cycle(ctx, 1) is None
        assert find_winding_cycle(ctx.graph(1)) is None

    def test_monitored_point_in_host_intersection_blocks(self):
        far = [
            Halfplane(0, 1, 0, -1),
            Halfplane(1, -1, 0, -1),
            Halfplane(2, 0, 1, -1),
            Halfplane(3, 0, -1, -1),
        ]
        # x >= 1 and y >= 1 contain the monitored point: at k = 1 the chain
        # from y = 1 to x = 1 fails, the other three pass
        ctx = anchor_context(P(0, 0), far, _HalfplaneInstance([], [P(2, 2)], far))
        hosts = [{ctx.segments[s].host for s in v} for v in all_chains(ctx, 1)]
        assert len(hosts) == 3 and {0, 2} not in hosts
        assert find_winding_cycle(ctx.graph(1)) is None

    def test_winding_two_rejected(self):
        # the one cycle passes both crossing nodes, 0 and 1: it winds twice
        table = [[2], [3], [1], [0]]
        assert find_winding_cycle(_table_graph(table, 2)) is None
        assert reference_cycle(table, [True, True, False, False]) is None

    def test_no_crossing_edge_no_cycle(self):
        # with no crossing node the search steps no chain; past a crossing
        # node whose descendants never come back, it meets them all
        stepped = []
        assert find_winding_cycle(WindGraph([], lambda v: stepped.append(v) or [])) is None
        assert stepped == []
        graph = _table_graph([[1, 2], [2], []], 1)
        assert find_winding_cycle(graph) is None
        assert graph.vertices == [(0,), (1,), (2,)]

    def test_cycles_match_reference_on_random_graphs(self):
        # on graphs of the decision graph's shape the search returns the
        # per-arc reference's cycle, or both find none
        rng = random.Random(5)
        cycles = 0
        for _ in range(400):
            n = rng.randint(1, 9)
            crossing = rng.randint(0, min(n, 3))
            table, _order = _forward_table(rng, n, crossing)
            graph = _table_graph(table, crossing)
            expected = reference_cycle(table, [v < crossing for v in range(n)])
            assert _labels(graph, find_winding_cycle(graph)) == expected, (table, crossing)
            cycles += expected is not None
        assert 50 < cycles < 350

    def test_non_crossing_cycle_behind_crossing_node(self):
        # no decision graph has a cycle of non-crossing arcs, as each arc
        # turns clockwise by less than a halfturn; a walk that meets one
        # raises rather than answer past it.  In the first, the crossing
        # node also closes a winding cycle, 0 1 2 3 0, past the loop 1 2 1
        cases = [
            ([[1], [2], [1, 3], [0]], 1),
            ([[2], [0], [3], [4, 1], [2]], 1),
            ([[2], [], [3, 1], [2]], 2),
        ]
        for table, crossing in cases:
            with pytest.raises(RuntimeError, match="non-crossing arcs hold a cycle"):
                find_winding_cycle(_table_graph(table, crossing))
        assert reference_cycle(cases[0][0], [True, False, False, False]) == [0, 1, 2, 3, 0]
        # a loop a -> b -> a of non-crossing nodes added to a random graph:
        # the search raises once its walk meets the loop, and until then
        # it answers as the reference does
        rng = random.Random(7)
        raised = answered = 0
        for _ in range(300):
            n = rng.randint(2, 9)
            crossing = rng.randint(1, min(n - 1, 3))
            table, order = _forward_table(rng, n, crossing)
            a, b = sorted(rng.choices(range(len(order)), k=2))
            a, b = order[a], order[b]
            if a != b and b not in table[a]:
                table[a].append(b)
            table[b].append(a)
            graph = _table_graph(table, crossing)
            try:
                got = find_winding_cycle(graph)
            except RuntimeError:
                raised += 1
                continue
            assert _labels(graph, got) == reference_cycle(table, [v < crossing for v in range(n)])
            answered += 1
        assert raised > 50 and answered > 50

    def test_cycles_match_reference(self):
        # the search finds the first cycle of the per-arc search on the
        # whole decision graph, or both find none.  It has a cycle exactly
        # when the (k+1)-chain graph has one: the same first crossing
        # (k+1)-chain closes both, so their first k+1 segments agree, and
        # its breadth-first search starts from that chain's last k
        # segments, not from one arc out of them, so its cycle is no
        # longer.  The references search once per crossing arc, so the
        # rings go to k = 3 at three anchors each
        contexts = [(c[-1], 3) for c in list(_hand_contexts()) + list(_seeded_contexts())]
        contexts += [(c[-1], 4) for c in _tangent_fan_contexts()]
        for seed in range(4):
            inst = _HalfplaneInstance(*ring_instance(seed, 12))
            covering = _covering_indices(inst)
            contexts += [(inst.context(idx), 3 if pos < 3 else 1) for pos, idx in enumerate(covering)]
        found = shorter = 0
        for ctx, top in contexts:
            for k in range(1, top + 1):
                graph = ctx.graph(k)
                cycle = find_winding_cycle(graph)
                got = None if cycle is None else [graph.vertices[v][0] for v in cycle]
                assert got == reference_line_cycle(ctx, k)
                chains = reference_winding_cycle(ctx, k)
                assert (got is None) == (chains is None)
                if got is not None:
                    heads = [c[0] for c in chains]
                    assert got[:k + 1] == heads[:k + 1] and len(got) <= len(heads)
                    shorter += len(got) < len(heads)
                assert len(set(graph.vertices)) == len(graph.vertices)  # one id per chain
                found += got is not None
        assert found > 50 and shorter > 0

    def test_fan_walk_gives_ids_to_few_chains(self, monkeypatch):
        # the search meets only part of the chains the full graph lists
        import membercover.halfplanes as hp

        graphs = []
        raw_graph = hp._AnchorContext.graph

        def recording(ctx, k):
            graphs.append((ctx, k, raw_graph(ctx, k)))
            return graphs[-1][-1]

        monkeypatch.setattr(hp._AnchorContext, "graph", recording)
        report = exact_mmgsc_halfplanes_report(*tangent_fan(1, 16, 4))
        assert report.path == "cycle" and report.k == 4
        ctx, k, graph = graphs[-1]
        assert k == 4
        chains = all_chains(ctx, k)
        listed = {c[:-1] for c in chains} | {c[1:] for c in chains}
        assert set(graph.vertices) <= listed
        assert len(graph.vertices) < len(listed)


def _reference_context(anchor, active, s_hpts):
    """The segments of one anchor, by one `in_triangle` and one
    `on_segment` test per segment and point of S: a segment whose triangle
    holds a point off the segment is dropped."""
    segments = reference_segments(active, anchor)
    tris, ons = segment_masks(s_hpts, anchor, segments)
    return [seg for seg, tri, on in zip(segments, tris, ons) if not tri & ~on]


def _reference_chains(ctx, k, s_hpts):
    """Every (k+1)-path of successors whose triangles swallow only points
    on its segments and whose hosts share no point of S', the masks
    combined at its last segment, as the chains were first enumerated,
    from every segment of the materialized context in key order."""
    out = []
    order = materialize(ctx)
    tris, ons = segment_masks(s_hpts, _hpt_point(ctx.p_h), ctx.segments)

    def extend(chain):
        if len(chain) == k + 1:
            tri_or = on_or = 0
            sp_and = -1
            for idx in chain:
                tri_or |= tris[idx]
                on_or |= ons[idx]
                sp_and &= ctx.sp_mask[idx]
            if not tri_or & ~on_or and not sp_and:
                out.append(tuple(chain))
            return
        for j in ctx.succ_seg[chain[-1]]:
            chain.append(j)
            extend(chain)
            chain.pop()

    for start in order:
        extend([start])
    return out


# x >= 1, x <= -1, y >= 1, y <= -1, x + y >= 3, and x - y >= -1, which
# holds the anchor (0, 0) and meets x = 1 and x + y = 3 at (1, 2).  S has
# a segment endpoint (1, -1), the points (1/2, 1/2) and (2, 2) on the ray
# from (0, 0) through the endpoint (1, 1), the point (1, 5) on x = 1
# beyond its other intersections, the intersection (-1, -1) of two active
# lines, (1, 2) where three lines meet, and (-2, -1), where the active
# y = -1 meets the inactive x - y = -1.
HAND_PLANES = [
    Halfplane(0, 1, 0, -1),
    Halfplane(1, -1, 0, -1),
    Halfplane(2, 0, 1, -1),
    Halfplane(3, 0, -1, -1),
    Halfplane(4, 1, 1, -3),
    Halfplane(5, 1, -1, 1),
]
HAND_ON_LINES = [P(1, -1), P(1, 5), P(-1, -1), P(1, 2), P(-2, -1)]
HAND_OFF_LINES = [P("1/2", "1/2"), P(2, 2)]
HAND_ANCHORS = [P(0, 0), P("1/2", "-1/3"), P(5, 5), P("-3/2", "1/7")]


# sha256 of the concatenated repr of `anchors` over fan_instance(0..19),
# halfplane_instance(0..149) and ring_instance(0..5, 12)
ANCHORS_SHA256 = "733cada870947ace349c555bfa53f390073aee956ae2e547c8b97bc1fa85bef6"

# sha256 of the concatenated repr of `exact_mmgsc_halfplanes_report` over
# fan_instance(0..19), ring_instance(0..11, 12), halfplane_instance(0..149),
# tangent_fan(1, 24, 6) and tangent_fan(1, 16, 7)
REPORTS_SHA256 = "619cc2d1433abb6176ebc352b8e1795c3e14b053e5a928d31694981a0ffb66b2"


def _hand_contexts():
    """Contexts of the hand-built instance at the chosen anchors."""
    inst = _HalfplaneInstance(HAND_ON_LINES + HAND_OFF_LINES, [P(2, 2)], HAND_PLANES)
    for anchor in HAND_ANCHORS:
        active = _active(inst, anchor)
        yield inst, anchor, active, anchor_context(anchor, active, inst)


def _seeded_contexts():
    """Every anchor context of a few fan and random instances."""
    cases = [fan_instance(seed) for seed in range(3)]
    cases += [halfplane_instance(seed) for seed in range(12)]
    for points, sprime, planes in cases:
        inst = _HalfplaneInstance(points, sprime, planes)
        for idx in range(len(inst.faces)):
            ctx = inst.context(idx)
            anchor = _hpt_point(ctx.p_h)
            yield inst, anchor, _active(inst, anchor), ctx


def _tangent_fan_contexts():
    """The covering anchor contexts of radius-65 tangent fans as the
    benchmark draws them: the first 8-halfplane, optimum-2 instance of the
    seed-1 pool, and the n=10, k=3 ladder row."""
    for points, sprime, planes in (tangent_fan("halfplanes-fan:1", 8, 2), tangent_fan(1, 10, 3)):
        inst = _HalfplaneInstance(points, sprime, planes)
        for idx in inst.covering_anchors:
            ctx = inst.context(idx)
            anchor = _hpt_point(ctx.p_h)
            yield inst, anchor, _active(inst, anchor), ctx


def _active(inst, anchor):
    """The halfplanes of `extended` that the anchor lies outside of."""
    return [h for h in inst.extended if not h.contains(anchor)]


def _covering_indices(inst):
    """The anchors whose outside halfplanes cover S, by Halfplane.contains:
    the faces searched before only the maximal ones were."""
    planes = inst.halfplanes
    return [
        idx
        for idx, (anchor, _outside) in enumerate(anchors(inst))
        if all(any(h.contains(q) and not h.contains(anchor) for h in planes) for q in inst.points)
    ]


def _ring_contexts(per_seed):
    """The contexts of the first `per_seed` anchors that cover S, and of
    every searched one, of ring_instance(0..3, 12)."""
    for seed in range(4):
        inst = _HalfplaneInstance(*ring_instance(seed, 12))
        chosen = _covering_indices(inst)[:per_seed]
        for idx in chosen + [i for i in inst.covering_anchors if i not in chosen]:
            ctx = inst.context(idx)
            anchor = _hpt_point(ctx.p_h)
            yield inst, anchor, _active(inst, anchor), ctx


class TestAnchorContext:
    def test_masks_match_per_segment_reference(self):
        contexts = list(_hand_contexts()) + list(_seeded_contexts())
        for inst, anchor, active, ctx in contexts:
            kept = [ctx.segments[s] for s in materialize(ctx)]
            assert kept == _reference_context(anchor, active, inst.s_hpts), anchor
        assert len(contexts) > 100

    def test_hand_built_boundary_cases(self):
        # points on an active line are carried by some kept segment; a
        # kept segment's triangle holds points of S only on the segment
        on_bits = (1 << len(HAND_ON_LINES)) - 1
        for inst, anchor, _active_planes, ctx in _hand_contexts():
            materialize(ctx)
            carried = 0
            for tri, on in zip(*segment_masks(inst.s_hpts, anchor, ctx.segments)):
                assert tri & ~on_bits == 0
                assert tri == on
                carried |= on
            if anchor == P(0, 0):
                assert carried == on_bits

    def test_chains_match_reference(self):
        # the cutoff drops only prefixes that no completion lets pass, and
        # the triangles of a passing chain swallow only points on it
        contexts = list(_hand_contexts()) + list(_seeded_contexts())
        contexts += list(_tangent_fan_contexts())
        for inst, _anchor, _active_planes, ctx in contexts:
            for k in range(1, 5):
                assert all_chains(ctx, k) == _reference_chains(ctx, k, inst.s_hpts)

    def test_cutoff_tables_match_successor_walk(self):
        contexts = [c[-1] for c in list(_hand_contexts()) + list(_seeded_contexts())]
        contexts += [c[-1] for c in _tangent_fan_contexts()]
        for ctx in contexts:
            for s in materialize(ctx):
                nexts = ctx.succ_seg[s]
                common = -1
                for j in nexts:
                    common &= ctx.sp_mask[j]
                assert ctx.every_succ_sp[s] == common

    def test_successors_match_direction_reference(self):
        # succ_seg turns by the hosts' normals; the reference turns by the
        # segments' own directions, one _cross2 per (segment, successor),
        # and lists them in key order
        contexts = [c[-1] for c in list(_hand_contexts()) + list(_seeded_contexts())]
        contexts += [c[-1] for c in _tangent_fan_contexts()]
        contexts += [c[-1] for c in _ring_contexts(5)]
        pairs = 0
        for ctx in contexts:
            order = materialize(ctx)
            dirs = [_dirvec(seg.a_h, seg.b_h) for seg in ctx.segments]
            expected = []
            for i, seg in enumerate(ctx.segments):
                starts = [j for j in order if ctx.segments[j].a_h == seg.b_h]
                pairs += len(starts)
                expected.append([j for j in starts if _cross2(dirs[i], dirs[j]) < 0])
            assert ctx.succ_seg == expected
        assert pairs > 1000

    def test_successor_facts_shared_per_group(self):
        # a segment's successors, and with them its every_succ_sp entry,
        # depend only on its right endpoint and host: segments share one
        # succ_seg list object iff they share (b_h, host)
        contexts = [c[-1] for c in list(_hand_contexts()) + list(_seeded_contexts())]
        contexts += [c[-1] for c in _tangent_fan_contexts()]
        contexts += [c[-1] for c in _ring_contexts(5)]
        shared = 0
        for ctx in contexts:
            ctx.graph(3)
            first: dict = {}  # per (b_h, host), its first segment
            for s in materialize(ctx):
                seg = ctx.segments[s]
                g = first.setdefault((seg.b_h, seg.host), s)
                assert ctx.succ_seg[s] is ctx.succ_seg[g]
                assert ctx.every_succ_sp[s] == ctx.every_succ_sp[g]
                shared += s != g
            lists = {id(ctx.succ_seg[g]) for g in first.values()}
            assert len(lists) == len(first)
        assert shared > 1000

    def test_cycles_exist_as_under_window_relation(self):
        # testing each segment's triangle alone and refusing collinear
        # steps keep the decision: the window relation's graph holds a
        # once-winding cycle at k exactly when the context's graph does.
        # On the rings the window relation's walk meets millions of chains
        # at k = 4, so they go to k = 2, where each ring draw is decided
        contexts = list(_hand_contexts()) + list(_seeded_contexts())
        contexts += list(_tangent_fan_contexts())
        contexts = [(c, 4) for c in contexts] + [(c, 2) for c in _ring_contexts(3)]
        found = 0
        for (inst, anchor, active, ctx), top in contexts:
            has_cycle = window_relation(inst, anchor, active)
            for k in range(1, top + 1):
                got = find_winding_cycle(ctx.graph(k)) is not None
                assert got == has_cycle(k), (anchor, k)
                found += got
        assert found > 50

    def test_successor_lists_increase(self):
        # each successor list, filled on demand on a context walked only as
        # far as the graph goes, lists the last k segments of the full
        # (k+1)-chain graph's nodes that start with its chain, in order,
        # and they increase in the ids of a build of every segment: in key
        # order
        for inst, anchor, active, _ctx in list(_hand_contexts()) + list(_seeded_contexts()):
            for k in range(1, 4):
                ctx = anchor_context(anchor, active, inst)
                graph = ctx.graph(k)
                v = 0
                while v < len(graph.vertices):  # every chain the crossing ones reach
                    graph.successors(v)
                    v += 1
                vertices, _succ, _cross = reference_graph(ctx, k)
                keys = list(ctx.ids)
                for v, nexts in enumerate(graph.succ):
                    nexts = [graph.vertices[w] for w in nexts]
                    assert nexts == [c[1:] for c in vertices if c[:-1] == graph.vertices[v]]
                    ranked = [[keys[s] for s in chain] for chain in nexts]
                    assert all(a < b for a, b in zip(ranked, ranked[1:]))

    def test_crossing_flags_match_per_segment_formula(self):
        # the walks outward from the ray's hit on each line meet the
        # segments that the two ray-side tests per segment call crossing,
        # and list them in key order
        contexts = [c[-1] for c in list(_hand_contexts()) + list(_seeded_contexts())]
        contexts += [c[-1] for c in _tangent_fan_contexts()]
        contexts += [c[-1] for c in _ring_contexts(5)]
        for ctx in contexts:
            assert ctx.crossing == [
                s
                for s in materialize(ctx)
                if _cross2(_dirvec(ctx.p_h, ctx.segments[s].a_h), ctx.ray) < 0
                and _cross2(ctx.ray, _dirvec(ctx.p_h, ctx.segments[s].b_h)) < 0
            ]
        assert sum(len(ctx.crossing) for ctx in contexts) > 100

    def test_orientation_tests_per_context(self, monkeypatch):
        # an orientation test is one point of a _sign_masks call: at most
        # one call per active vertex, a point on an active line and on
        # another, however much of the context is walked; the arrangement
        # orders every line's vertices once per instance, with no anchor
        import membercover.halfplanes as hp

        masks = _count_calls(monkeypatch, (hp,), "_sign_masks")
        for points, sprime, planes in (fan_instance(1), halfplane_instance(3)):
            inst = _HalfplaneInstance(points, sprime, planes)
            for idx, (_x, _y, _w, outside) in enumerate(inst.faces):
                del masks[:]
                materialize(inst.context(idx))
                active_vertices = {
                    v
                    for i, vertices in enumerate(inst.arrangement.vertices)
                    if outside >> i & 1
                    for v, through, _rank in vertices
                    if through & outside
                }
                assert len(masks) <= len(active_vertices)

    def test_solves_walk_at_most_half_the_segments(self, monkeypatch):
        # a context walks the segments crossing the ray and then only where
        # the cycle search goes: summed over the fan instances, and on the
        # k = 6 fan, the solves meet at most half of the kept segments
        import membercover.halfplanes as hp

        built = []
        raw_init = hp._AnchorContext.__init__

        def recording(self, p_h, active_bits, inst):
            raw_init(self, p_h, active_bits, inst)
            built.append(self)

        monkeypatch.setattr(hp._AnchorContext, "__init__", recording)
        for cases in ([fan_instance(seed) for seed in range(20)], [tangent_fan(1, 24, 6)]):
            del built[:]
            for points, sprime, planes in cases:
                exact_mmgsc_halfplanes_report(points, sprime, planes)
            walked = sum(len(ctx.segments) for ctx in built)
            kept = sum(len(materialize(ctx)) for ctx in built)
            assert built and 2 * walked <= kept, (walked, kept)

    def test_solves_leave_no_reference_cycles(self):
        # a context refers neither to its instance nor to itself, so each
        # solve's objects are freed as it returns, without the collector
        gc.collect()
        gc.disable()
        try:
            for points, sprime, planes in [fan_instance(seed) for seed in range(8)] + [tangent_fan(1, 16, 4)]:
                assert exact_mmgsc_halfplanes_report(points, sprime, planes).path in ("cycle", "quiet")
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCoveringAnchors:
    def test_skipped_anchors_hold_no_cycle(self):
        # an anchor whose outside halfplanes miss a point of S has no cycle
        # at any k, and a covering anchor whose outside set lies inside
        # another's has none that the other lacks; the covering sets are
        # checked against Halfplane.contains, and the searched anchors are
        # those whose sets are maximal
        cases = [(HAND_ON_LINES + HAND_OFF_LINES, [P(2, 2)], HAND_PLANES)]
        cases += [fan_instance(seed) for seed in range(3)]
        cases += [halfplane_instance(seed) for seed in range(12)]
        skipped = dominated = 0
        for points, sprime, planes in cases:
            inst = _HalfplaneInstance(points, sprime, planes)
            covering = _covering_indices(inst)
            points_of = [anchor for anchor, _outside in anchors(inst)]
            outside = {
                idx: {h.id for h in planes if not h.contains(points_of[idx])}
                for idx in covering
            }
            searched = [i for i in covering if not any(outside[i] < outside[j] for j in covering)]
            assert inst.covering_anchors == searched
            for idx in range(len(inst.faces)):
                if idx in searched:
                    continue
                ctx = inst.context(idx)
                if idx not in covering:
                    skipped += 1
                    for k in range(1, 4):
                        assert find_winding_cycle(ctx.graph(k)) is None
                    continue
                dominated += 1
                (over, *_) = [j for j in searched if outside[idx] < outside[j]]
                for k in range(1, 4):
                    if find_winding_cycle(ctx.graph(k)) is not None:
                        assert find_winding_cycle(inst.context(over).graph(k)) is not None
        assert skipped > 100 and dominated > 50

    def test_fan_solves_build_contexts_only_at_covering_anchors(self, monkeypatch):
        import membercover.halfplanes as hp

        built = []
        raw_init = hp._AnchorContext.__init__

        def recording(self, p_h, active_bits, inst):
            built.append((p_h, inst))
            raw_init(self, p_h, active_bits, inst)

        monkeypatch.setattr(hp._AnchorContext, "__init__", recording)
        paths = []
        for seed in range(8):
            points, sprime, planes = fan_instance(seed)
            del built[:]
            report = exact_mmgsc_halfplanes_report(points, sprime, planes)
            paths.append(report.path)
            if report.path != "cycle":
                assert built == []  # a quiet solve never reaches the anchors
                continue
            # only the face outside every halfplane covers the tangency points
            ((p_h, inst),) = built
            assert len(inst.faces) > 1
            assert [_hpt(anchors(inst)[idx][0]) for idx in inst.covering_anchors] == [p_h]
        assert paths.count("cycle") == 6

    def test_one_arrangement_per_solve(self, monkeypatch):
        # an exact solve that reaches the cycle search intersects the pairs
        # of lines once: it builds one Arrangement, and the face sweep reads
        # that same object
        import membercover.halfplanes as hp

        built = []
        raw_of = Arrangement.of

        def recording(lines):
            built.append(raw_of(lines))
            return built[-1]

        monkeypatch.setattr(Arrangement, "of", staticmethod(recording))
        swept = _count_calls(monkeypatch, (hp,), "face_sample_points")
        assert exact_mmgsc_halfplanes_report(*fan_instance(1)).path == "cycle"
        assert len(built) == 1 and len(swept) == 1
        assert swept[0][0] is built[0]

    def test_faces_are_the_full_sweep_inside_the_box(self):
        # the sweep between the vertical dummies, filtered by the other
        # two, gives each face inside the dummy box the sample the Fraction
        # sweep of the whole arrangement gives it, in its order, with the
        # mask of direct signs
        cases = [(HAND_ON_LINES + HAND_OFF_LINES, [P(2, 2)], HAND_PLANES)]
        cases += [fan_instance(seed) for seed in range(20)]
        cases += [halfplane_instance(seed) for seed in range(150)]
        cases += [ring_instance(seed, 12) for seed in range(12)]
        cases += [ring_instance(seed, 24) for seed in range(4)]
        cases += [tangent_fan(1, 24, 6), tangent_fan(1, 16, 7)]
        outside_box = 0
        for points, sprime, planes in cases:
            inst = _HalfplaneInstance(points, sprime, planes)
            lines = inst.arrangement.lines
            n = len(inst.halfplanes)
            inside, outside = face_samples_in_box_reference(lines, (n, n + 1, n + 2, n + 3))
            assert [Point(Fraction(x, w), Fraction(y, w)) for x, y, w, _o in inst.faces] == inside
            for x, y, w, mask in inst.faces:
                assert mask == sum([1 << i for i, (a, b, c) in enumerate(lines) if a * x + b * y + c * w < 0])
            outside_box += outside
        assert outside_box > 5000

    def test_anchors_match_recorded_digest(self):
        # the anchors, points and face tuples, as the sampler gave them when
        # they signed every sample against every line
        digest = hashlib.sha256()
        cases = [fan_instance(seed) for seed in range(20)]
        cases += [halfplane_instance(seed) for seed in range(150)]
        cases += [ring_instance(seed, 12) for seed in range(6)]
        for points, sprime, planes in cases:
            digest.update(repr(anchors(_HalfplaneInstance(points, sprime, planes))).encode())
        assert digest.hexdigest() == ANCHORS_SHA256


class TestDecideMembership:
    def test_empty_points(self):
        cover = decide_membership([], [P(0, 0)], BOX, 0)
        assert cover is not None and cover.ids == ()

    def test_single_halfplane(self):
        h = Halfplane(0, 0, 1, 1)  # y >= -1
        cover = decide_membership([P(0, 0)], [P(0, 0)], [h], 1)
        assert cover is not None and cover.ids == (0,)

    def test_uncoverable_is_none(self):
        assert decide_membership([P(0, 5)], [], [Halfplane(0, 0, -1, -1)], 1) is None

    def test_negative_k_is_none(self):
        # membership is never below 0, even where k = 0 has a cover
        points, planes = [P(1, 1)], [Halfplane(0, 1, 0, 0)]
        assert decide_membership(points, [], planes, 0) is not None
        assert decide_membership(points, [], planes, -1) is None

    @pytest.mark.parametrize("k", [True, False, 1.5, 1.0, Fraction(1), "1", None])
    def test_k_not_an_int_raises(self, k):
        with pytest.raises(ValueError):
            decide_membership([P(1, 1)], [], [Halfplane(0, 1, 0, 0)], k)

    def test_agrees_with_oracle_threshold(self):
        for seed in range(40):
            points, sprime, planes = halfplane_instance(seed, max_planes=6, max_points=5)
            opt, _ = exact_mmgsc_bruteforce(points, sprime, planes)
            for k in range(0, 3):
                got = decide_membership(points, sprime, planes, k)
                if k >= opt:
                    assert got is not None and got.memb <= k
                    assert verify_cover(points, got.ids, planes)
                else:
                    assert got is None

    def test_decider_facts_read_the_tables(self, monkeypatch):
        # once the decider holds its S and S' tables, the cheap facts are
        # bit arithmetic: no halfplane is asked about a point again
        points, sprime, planes = halfplane_instance(1)
        decider = _HalfplaneInstance(points, sprime, planes)
        calls = []
        contains = Halfplane.contains

        def counting(self, p):
            calls.append(p)
            return contains(self, p)

        monkeypatch.setattr(Halfplane, "contains", counting)
        assert decider.uncovered is None
        assert decider.quiet_cover is None
        assert decider.small_option == (1, 1, (6,))
        assert calls == []


class TestExactSolver:
    def test_zero_membership_instance(self):
        planes = [Halfplane(0, 0, 1, 0), Halfplane(1, 0, -1, 5)]
        cover = exact_mmgsc_halfplanes_report([P(0, 1)], [P(0, -10)], planes).cover
        assert cover.memb == 0

    def test_forced_two(self):
        # the monitored point lies in both halfplanes and both are needed
        planes = [Halfplane(0, 1, 0, 0), Halfplane(1, -1, 0, 0)]
        points = [P(1, 0), P(-1, 0)]
        cover = exact_mmgsc_halfplanes_report(points, [P(0, 0)], planes).cover
        assert cover.memb == 2

    def test_uncoverable(self):
        with pytest.raises(Uncoverable):
            exact_mmgsc_halfplanes_report([P(0, 5)], [], [Halfplane(0, 0, -1, -1)])

    def test_matches_oracle(self):
        for seed in range(30):
            points, sprime, planes = halfplane_instance(seed, max_planes=6, max_points=5)
            report = exact_mmgsc_halfplanes_report(points, sprime, planes)
            opt, _ = exact_mmgsc_bruteforce(points, sprime, planes)
            assert report.cover.memb == opt
            assert report.k == opt
            assert verify_cover(points, report.cover.ids, planes)
            if report.certificate is not None:
                verify_winding_certificate(report, points, sprime, planes)

    def test_forced_cycle_path(self):
        points, sprime, planes = fan_instance(0)
        report = exact_mmgsc_halfplanes_report(points, sprime, planes)
        opt, _ = exact_mmgsc_bruteforce(points, sprime, planes)
        assert report.cover.memb == opt
        if report.path == "cycle":
            verify_winding_certificate(report, points, sprime, planes)

    def test_tangent_fan_ladder_row(self):
        # the n=16, k=3 ladder row: every cover takes all 16 halfplanes, so
        # the optimum is the depth of the deepest monitored point
        points, sprime, planes = tangent_fan(1, 16, 3)
        report = exact_mmgsc_halfplanes_report(points, sprime, planes)
        assert (report.k, report.path) == (3, "cycle")
        assert report.cover.ids == tuple(range(16))
        assert report.cover.memb == memb_eval(sprime, report.cover.ids, planes) == 3
        verify_winding_certificate(report, points, sprime, planes)

    def test_tangent_fan_high_k_graphs_stay_small(self, monkeypatch):
        # every kept segment's triangle holds S only on the segment, so the
        # chains test only S'; at k = 6 and 7 the graphs that the whole
        # escalation builds hold a few hundred chains between them
        import membercover.halfplanes as hp

        graphs = []
        raw_graph = hp._AnchorContext.graph

        def recording(ctx, k):
            graphs.append(raw_graph(ctx, k))
            return graphs[-1]

        monkeypatch.setattr(hp._AnchorContext, "graph", recording)
        for n, k, bound in ((24, 6, 300), (16, 7, 100)):
            del graphs[:]
            points, sprime, planes = tangent_fan(1, n, k)
            report = exact_mmgsc_halfplanes_report(points, sprime, planes)
            assert (report.k, report.path, report.cover.ids) == (k, "cycle", tuple(range(n)))
            verify_winding_certificate(report, points, sprime, planes)
            assert sum(len(graph.vertices) for graph in graphs) < bound

    def test_ring_decides_under_an_address_limit(self):
        # at k = 2 this ring's graph on (k+1)-chains held 2.4 M nodes, and
        # the reach masks over them ran out of memory under this limit; on
        # k-chains both decisions run in one child process limited to
        # 1.5 GB of address space
        import membercover.halfplanes as hp

        src = Path(hp.__file__).resolve().parent.parent
        code = (
            "import resource\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, hard))\n"
            "from conftest import ring_instance\n"
            "from membercover.halfplanes import _HalfplaneInstance\n"
            "inst = _HalfplaneInstance(*ring_instance(1, 48, 24, 12))\n"
            "print(inst.decide(1), inst.decide(2).path)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert (out.returncode, out.stdout, out.stderr) == (0, "None cycle\n", "")

    def test_ring_graph_holds_each_k_chain_once(self, monkeypatch):
        # the k = 2 graph of this ring once its search ends: on (k+1)-chains
        # it held 115,292 nodes, 41,933 of them crossing
        import membercover.halfplanes as hp

        graphs = []
        raw_graph = hp._AnchorContext.graph

        def recording(ctx, k):
            graphs.append(raw_graph(ctx, k))
            return graphs[-1]

        monkeypatch.setattr(hp._AnchorContext, "graph", recording)
        assert _HalfplaneInstance(*ring_instance(2, 40, 24, 12)).decide(2).path == "cycle"
        assert [(len(graph.vertices), graph.crossing) for graph in graphs] == [(22798, 1799)]

    def test_reports_match_recorded_digest(self):
        # the reports, covers, paths and winding certificates, as the
        # context that built every segment and successor list gave them
        digest = hashlib.sha256()
        cases = [fan_instance(seed) for seed in range(20)]
        cases += [ring_instance(seed, 12) for seed in range(12)]
        cases += [halfplane_instance(seed) for seed in range(150)]
        cases += [tangent_fan(1, 24, 6), tangent_fan(1, 16, 7)]
        for points, sprime, planes in cases:
            digest.update(repr(exact_mmgsc_halfplanes_report(points, sprime, planes)).encode())
        assert digest.hexdigest() == REPORTS_SHA256

    def test_minsize_path(self):
        # four halfplanes below tangents of y = x^2 + 10, each holding only
        # its own point of S and all holding the origin: no small cover
        # exists, every cover takes all four, and k = 4 accepts the
        # minimum-size cover
        ts = (-3, -1, 1, 3)
        planes = [Halfplane(i, 2 * t, -1, 10 - t * t) for i, t in enumerate(ts)]
        points = [P(t, t * t + 9) for t in ts]
        report = exact_mmgsc_halfplanes_report(points, [P(0, 0)], planes)
        assert (report.path, report.k, report.cover.ids) == ("minsize", 4, (0, 1, 2, 3))
        assert report.cover.memb == 4
        assert exact_mmgsc_bruteforce(points, [P(0, 0)], planes) == (4, (0, 1, 2, 3))

    def test_identical_inputs_identical_outputs(self):
        for seed in (1, 4, 9):
            points, sprime, planes = halfplane_instance(seed, max_planes=7, max_points=6)
            a = exact_mmgsc_halfplanes_report(points, sprime, planes).cover
            b = exact_mmgsc_halfplanes_report(points, sprime, planes).cover
            assert a == b
            c = additive_error_cover(points, sprime, planes)
            d = additive_error_cover(points, sprime, planes)
            assert c == d
        points, sprime, planes = fan_instance(3)
        r1 = exact_mmgsc_halfplanes_report(points, sprime, planes)
        r2 = exact_mmgsc_halfplanes_report(points, sprime, planes)
        assert r1.cover == r2.cover and r1.path == r2.path


class TestMinSizeCover:
    def test_single_point(self):
        planes = [Halfplane(0, 0, 1, 0)]
        assert [h.id for h in min_size_halfplane_cover([P(0, 0)], planes)] == [0]

    def test_three_clusters(self):
        planes = [
            Halfplane(0, 0, 1, -90),   # y >= 90
            Halfplane(1, 0, -1, -90),  # y <= -90
            Halfplane(2, 1, 0, -90),   # x >= 90
        ]
        points = [P(0, 95), P(0, -95), P(95, 0)]
        assert len(min_size_halfplane_cover(points, planes)) == 3

    def test_matches_bruteforce(self):
        for seed in range(40):
            points, _sp, planes = halfplane_instance(seed, max_planes=8, max_points=8)
            got = min_size_halfplane_cover(points, planes)
            opt, _ = exact_minsize_bruteforce(points, planes)
            assert len(got) == opt
            assert verify_cover(points, [h.id for h in got], planes)

    def test_branch_and_bound_on_ring_draws(self):
        # the search after the LP bound runs when the greedy cover is larger
        # than both the small-cover floor and the rounded-up size LP value;
        # on ring draws with 20 points of S that mostly means no cover of at
        # most three halfplanes (floor 4) and a greedy cover of 5 or 6
        import membercover.halfplanes as hp

        searches = []

        def profile(frame, event, _arg):
            code = frame.f_code
            if event == "call" and code.co_name == "dfs" and code.co_filename == hp.__file__:
                searches.append(code)

        searched = []
        for n in (8, 10, 12, 16):
            for seed in range(60):
                points, sprime, planes = ring_instance(seed, n, n_points=20)
                inst = _HalfplaneInstance(points, sprime, planes)
                if inst.uncovered is not None:
                    continue
                del searches[:]
                previous = sys.getprofile()
                sys.setprofile(profile)
                try:
                    cover = inst.min_cover
                finally:
                    sys.setprofile(previous)
                if not searches:
                    continue
                searched.append(inst.size_floor)
                assert len(cover) == exact_minsize_bruteforce(points, planes)[0]
                assert verify_cover(points, [h.id for h in cover], planes)
        # 36 of the 240 draws have floor 4; in 6 more a floor below 4
        # already is the minimum, but the greedy cover is larger and the LP
        # bound does not reach it
        assert (len(searched), searched.count(4)) == (42, 36)

    def test_floor_below_four_skips_the_size_lp(self, monkeypatch):
        # a floor of 1 to 3 is the minimum size, so ceil(size LP) <= floor
        # and the LP could never certify the greedy cover: the search runs
        # without it, stops at the floor and returns the set it returned
        # with no floor
        import membercover.halfplanes as hp

        searches, lp_calls = [], []
        solve_lp = hp.lpmod.solve_lp

        def counting(program):
            lp_calls.append(program)
            return solve_lp(program)

        def profile(frame, event, _arg):
            code = frame.f_code
            if event == "call" and code.co_name == "dfs" and code.co_filename == hp.__file__:
                searches.append(code)

        monkeypatch.setattr(hp.lpmod, "solve_lp", counting)
        searched = 0
        for n in (8, 10, 12, 16):
            for seed in range(60):
                points, sprime, planes = ring_instance(seed, n, n_points=20)
                inst = _HalfplaneInstance(points, sprime, planes)
                if inst.uncovered is not None or inst.size_floor == 4:
                    continue
                del searches[:], lp_calls[:]
                previous = sys.getprofile()
                sys.setprofile(profile)
                try:
                    cover = inst.min_cover
                finally:
                    sys.setprofile(previous)
                assert lp_calls == []
                if not searches:
                    continue
                searched += 1
                assert len(cover) == inst.size_floor
                assert cover == _min_size_cover(inst.halfplanes, inst.s_rows, inst.s_columns, 0)
        assert searched == 6

    def test_uncoverable_names_first_point(self):
        planes = [Halfplane(0, 0, 1, 0)]  # y >= 0
        with pytest.raises(Uncoverable) as err:
            min_size_halfplane_cover([P(0, 1), P(0, -1), P(0, -2)], planes)
        assert err.value.point == P(0, -1)


class TestSizeFloor:
    """The small covers certify the minimum size: the least size of a cover
    of at most three halfplanes, or 4 when none exists."""

    @staticmethod
    def _cases():
        return [halfplane_instance(seed) for seed in range(120)] + [
            fan_instance(seed) for seed in range(8)
        ]

    def test_floor_keeps_the_search_outcome(self):
        floors = set()
        for points, sprime, planes in self._cases():
            inst = _HalfplaneInstance(points, sprime, planes)
            # the LP and branch and bound alone, with no certified floor
            plain = _min_size_cover(inst.halfplanes, inst.s_rows, inst.s_columns, 0)
            opt, _ids = exact_minsize_bruteforce(points, planes)
            assert [h.id for h in inst.min_cover] == [h.id for h in plain]
            assert len(inst.min_cover) == opt
            assert inst.size_floor == min(opt, 4)
            floors.add(inst.size_floor)
        assert floors == {1, 2, 3, 4}

    def test_small_option_is_the_least_small_cover(self):
        for points, sprime, planes in self._cases():
            inst = _HalfplaneInstance(points, sprime, planes)
            ordered = sorted(planes, key=lambda h: h.id)
            options = []
            for size in (1, 2, 3):
                for combo in combinations(ordered, size):
                    ids = [h.id for h in combo]
                    if verify_cover(points, ids, planes):
                        memb = max(
                            [sum([h.contains(q) for h in combo]) for q in sprime], default=0
                        )
                        options.append((memb, size, tuple(ids)))
            assert inst.small_option == min(options, default=None)

    def test_small_scan_matches_the_row_scan(self):
        # the scan on the S columns against `first_uncovered` on the rows
        # for each combination, on the batteries and on a quiet instance
        # (floor 0), one with empty S and ones with no small cover
        cases = [halfplane_instance(seed) for seed in range(200)]
        cases += [fan_instance(seed) for seed in range(20)]
        cases += [ring_instance(seed, 12) for seed in range(12)]
        cases += [([P(2, 2), P(-2, 0)], [P(0, 0)], BOX), ([], [P(0, 0), P(2, 0)], BOX)]
        floors, quiet, empty = set(), 0, 0
        for points, sprime, planes in cases:
            inst = _HalfplaneInstance(points, sprime, planes)
            assert inst._small_scan == small_scan_reference(inst)
            floors.add(inst.size_floor)
            quiet += inst.quiet_cover is not None
            empty += not points
        assert floors == {1, 2, 3, 4}
        assert quiet and empty

    def test_small_scan_reads_no_rows(self, monkeypatch):
        # a fan has no small cover, so the scan meets every combination of
        # at most three halfplanes, and tests none of them on the rows
        import membercover.covers as covers
        import membercover.halfplanes as hp

        inst = _HalfplaneInstance(*fan_instance(1))
        assert inst.quiet_cover is None  # read first: it tests the rows once
        calls = _count_calls(monkeypatch, (covers, hp), "first_uncovered")
        assert inst.size_floor == 4
        assert calls == []
        assert inst.uncovered is None  # the counter does see a test
        assert len(calls) == 1

    def test_small_covers_skip_the_size_lp(self, monkeypatch):
        import membercover.lp as lpmod

        calls = _count_calls(monkeypatch, (lpmod,), "solve_lp")
        for seed in range(40):
            points, sprime, planes = halfplane_instance(seed)
            assert _HalfplaneInstance(points, sprime, planes).small_option is not None
            ptas(points, sprime, planes, 1)
            ptas(points, sprime, planes, Fraction(1, 2))
        assert calls == []

    def test_exact_search_below_four_reads_no_min_cover(self, monkeypatch):
        # fan_instance(1) has optimum 3 and no cover of three halfplanes: the
        # exact search ends on a cycle without the minimum-size cover
        import membercover.lp as lpmod

        calls = _count_calls(monkeypatch, (lpmod,), "solve_lp")
        assert exact_mmgsc_halfplanes_report(*fan_instance(1)).k == 3
        inst = _HalfplaneInstance(*fan_instance(1))
        assert inst.escalate().path == "cycle"
        assert inst.small_option is None and "min_cover" not in inst.__dict__
        assert calls == []


class TestLocalSearch:
    def test_already_stable(self):
        full = [Halfplane(0, 0, 1, 0)]
        out = one_stable_local_search(full, full)
        assert [h.id for h in out] == [0]

    def test_swaps_to_larger_union(self):
        small = Halfplane(0, 0, 1, 0)    # y >= 0
        large = Halfplane(1, 0, 1, 1)    # y >= -1
        out = one_stable_local_search([small], [small, large])
        assert [h.id for h in out] == [1]

    def test_output_is_one_stable(self):
        for seed in range(20):
            points, _sp, planes = halfplane_instance(seed, max_planes=6, max_points=5)
            start = min_size_halfplane_cover(points, planes)
            out = one_stable_local_search(start, planes)
            assert len(out) == len(start)
            ids = {h.id for h in out}
            for h_out in out:
                for h_in in planes:
                    if h_in.id in ids:
                        continue
                    candidate = [h for h in out if h.id != h_out.id] + [h_in]
                    assert not union_grows_lp(out, candidate)

    def test_matches_reference_local_search(self):
        # seeded random starts of every size, not only minimum-size covers
        rng = random.Random(53)
        swapped = 0
        for seed in range(120):
            _points, _sp, planes = halfplane_instance(seed, max_planes=7)
            start = rng.sample(planes, rng.randint(1, min(4, len(planes))))
            expected, swaps = _reference_local_search(start, planes)
            assert one_stable_local_search(start, planes) == expected
            swapped += swaps > 0
        assert swapped >= 20  # the check is not vacuous


def _reference_local_search(chosen, pool):
    """The swap loop on the LP union test: take the first (out, inc) in id
    order whose swap strictly grows the union, until none does.  Returns
    the stable set and the number of swaps taken."""
    current = sorted(chosen, key=lambda h: h.id)
    pool_sorted = sorted(pool, key=lambda h: h.id)
    for swaps in range(2 * len(pool_sorted) + 8):
        ids = set(h.id for h in current)
        candidates = (
            sorted([h for h in current if h != out] + [inc], key=lambda h: h.id)
            for out in current
            for inc in pool_sorted
            if inc.id not in ids
        )
        better = next((c for c in candidates if union_grows_lp(current, c)), None)
        if better is None:
            return current, swaps
        current = better
    raise RuntimeError("local search failed to stabilize within its round budget")


class TestAdditiveError:
    def test_trivial_zero(self):
        planes = [Halfplane(0, 0, 1, 0)]
        cover = additive_error_cover([P(0, 1)], [P(0, -5)], planes)
        assert cover.memb == 0

    def test_plane_coverable_small(self):
        planes = [Halfplane(0, 0, 1, 0), Halfplane(1, 0, -1, 0)]
        cover = additive_error_cover([P(0, 1), P(0, -1)], [P(0, 0)], planes)
        assert cover.memb <= 3

    def test_matches_one_build_per_candidate(self, monkeypatch):
        # one membership per candidate cover and one build, of the winner,
        # give the cover that building every candidate gives
        import membercover.halfplanes as hp

        cases = [halfplane_instance(seed) for seed in range(120)]
        cases += [fan_instance(seed) for seed in range(8)]
        expected = [additive_reference(_HalfplaneInstance(*case)) for case in cases]
        builds = _count_calls(monkeypatch, (hp.CoverSolution,), "build")
        for case, want in zip(cases, expected):
            del builds[:]
            assert _HalfplaneInstance(*case).additive() == want
            assert len(builds) <= 2
        # not vacuous: some of the instances have plane covers to compare
        assert any(_HalfplaneInstance(*case).covers_plane for case in cases)

    def test_additive_bound_battery(self):
        for seed in range(30):
            points, sprime, planes = halfplane_instance(seed, max_planes=6, max_points=5)
            cover = additive_error_cover(points, sprime, planes)
            opt, _ = exact_mmgsc_bruteforce(points, sprime, planes)
            assert verify_cover(points, cover.ids, planes)
            assert cover.memb <= opt + 2


def _tangent_fan():
    """Eight halfplanes tangent to one circle, each mandatory point private.

    All integer normals share the same norm, so each tangency point lies in
    its own halfplane only: every cover takes all eight.
    """
    normals = [(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (-3, 4), (3, -4), (-3, -4)]
    planes = [Halfplane(i, a, b, -25) for i, (a, b) in enumerate(normals)]
    points = [P(a, b) for (a, b) in normals]
    sprime = [P(25, 25)]
    return points, sprime, planes


class TestPtas:
    def test_exact_branch_small_opt(self):
        for seed in range(12):
            points, sprime, planes = halfplane_instance(seed, max_planes=5, max_points=4)
            opt, _ = exact_mmgsc_bruteforce(points, sprime, planes)
            got = ptas(points, sprime, planes, 1)
            assert got.memb <= 2 * opt
            if opt == 0:
                assert got.memb == 0

    def test_ratio_half(self):
        for seed in range(12):
            points, sprime, planes = halfplane_instance(seed, max_planes=5, max_points=4)
            opt, _ = exact_mmgsc_bruteforce(points, sprime, planes)
            got = ptas(points, sprime, planes, Fraction(1, 2))
            assert 2 * got.memb <= 3 * opt or (opt == 0 and got.memb == 0)

    def test_additive_branch_on_forced_overlap(self, monkeypatch):
        points, sprime, planes = _tangent_fan()
        # every halfplane is needed; the monitored point sits in four of
        # them (one on its boundary), so the optimum is forced to four
        opt, _ = exact_mmgsc_bruteforce(points, sprime, planes)
        assert opt == 4
        rough = additive_error_cover(points, sprime, planes)
        assert rough.memb == 4
        import membercover.halfplanes as hp

        def _boom(*args, **kwargs):
            raise AssertionError("exact search must not run on this branch")

        monkeypatch.setattr(hp._HalfplaneInstance, "escalate", _boom)
        got = hp.ptas(points, sprime, planes, 1)
        assert got.memb == 4  # threshold is 4: the rough cover is accepted
        assert got.ids == tuple(range(8))

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            ptas([], [], BOX, 0)


# Outputs recorded with the solvers as they stood before the plane-cover
# enumeration and the coverage test were folded into one implementation
# each.  Seeds 4, 5, 9, 13, 26 and 73 are plane-coverable, the rest are
# not; the two hand-built instances are plane-coverable and their best
# plane cover (a pair, then a triple) beats the local-search cover.
GOLDEN_SEEDS = {
    # seed: (additive, ptas eps=1, ptas eps=1/2, exact (ids, memb, k, path))
    4: (((0,), 1), ((1, 2, 3, 5), 0), ((1, 2, 3, 5), 0), ((1, 2, 3, 5), 0, 0, "quiet")),
    5: (((0,), 1), ((0,), 1), ((0,), 1), ((0,), 1, 1, "small")),
    9: (((0,), 1), ((0,), 1), ((0,), 1), ((0,), 1, 1, "small")),
    13: (((2,), 1), ((2,), 1), ((2,), 1), ((2,), 1, 1, "small")),
    16: (((0,), 1), ((0,), 1), ((0,), 1), ((0,), 1, 1, "small")),
    19: (((0, 3), 2), ((2, 3), 1), ((2, 3), 1), ((2, 3), 1, 1, "small")),
    23: (((0, 1), 2), ((0, 1), 2), ((0, 1), 2), ((0, 1), 2, 2, "small")),
    26: (((0, 1), 2), ((0, 1), 2), ((0, 1), 2), ((0, 1), 2, 2, "small")),
    45: (((1,), 1), ((0, 3, 5, 6), 0), ((0, 3, 5, 6), 0), ((0, 3, 5, 6), 0, 0, "quiet")),
    48: (((1, 2), 2), ((1, 2), 2), ((1, 2), 2), ((1, 2), 2, 2, "small")),
    52: (((0, 2), 2), ((0, 2), 2), ((0, 2), 2), ((0, 2), 2, 2, "small")),
    73: (((0,), 1), ((1, 2, 4), 0), ((1, 2, 4), 0), ((1, 2, 4), 0, 0, "quiet")),
}

GOLDEN_HAND = [
    (
        [Halfplane(0, 0, 3, 1), Halfplane(1, 0, -3, 4), Halfplane(2, 0, 2, -1)],
        [P(-3, 3), P(-4, 0), P(0, -2)],
        [P(-3, -3), P(3, 2), P(-4, 0)],
        (((1, 2), 1), ((1, 2), 1), ((1, 2), 1), ((1, 2), 1, 1, "small")),
    ),
    (
        [
            Halfplane(0, 2, 2, -1),
            Halfplane(1, -1, 2, 4),
            Halfplane(2, -3, -2, -2),
            Halfplane(3, 1, -3, -3),
            Halfplane(4, 1, 2, -2),
        ],
        [P(0, 4), P(4, -1), P(-4, 0)],
        [P(-4, 1), P(1, 0)],
        (((1, 3, 4), 1), ((0, 2), 1), ((0, 2), 1), ((0, 2), 1, 1, "small")),
    ),
]


def _golden_row(points, sprime, planes):
    rough = additive_error_cover(points, sprime, planes)
    one = ptas(points, sprime, planes, 1)
    half = ptas(points, sprime, planes, Fraction(1, 2))
    exact = exact_mmgsc_halfplanes_report(points, sprime, planes)
    return (
        (rough.ids, rough.memb),
        (one.ids, one.memb),
        (half.ids, half.memb),
        (exact.cover.ids, exact.cover.memb, exact.k, exact.path),
    )


class TestGoldens:
    def test_seeded_instances(self):
        for seed, expected in GOLDEN_SEEDS.items():
            points, sprime, planes = halfplane_instance(seed)
            assert (not strictly_feasible(_flipped(planes))) == (seed in (4, 5, 9, 13, 26, 73))
            assert _golden_row(points, sprime, planes) == expected, seed

    def test_plane_cover_beats_local_search(self):
        for planes, points, sprime, expected in GOLDEN_HAND:
            assert not strictly_feasible(_flipped(planes))
            assert _golden_row(points, sprime, planes) == expected

    def test_cycle_certificates(self):
        fan1 = exact_mmgsc_halfplanes_report(*fan_instance(1))
        assert (fan1.cover.ids, fan1.cover.memb, fan1.k, fan1.path) == (
            (0, 1, 2, 3, 4, 5, 6), 3, 3, "cycle"
        )
        assert fan1.certificate == WindingCertificate(
            anchor=P("-16/3", 2),
            ray=(1, 0),
            k=3,
            polygon=(
                P(3, 7), P(3, "-1/2"), P("-1/3", -3), P("-11/3", -3),
                P(-7, "-1/2"), P(-7, "9/2"), P("-11/3", 7),
            ),
            hosts=(0, 5, 3, 6, 2, 4, 1),
            crossings=1,
        )
        fan5 = exact_mmgsc_halfplanes_report(*fan_instance(5))
        assert (fan5.cover.ids, fan5.cover.memb, fan5.k, fan5.path) == (
            (0, 1, 2, 3, 4, 5), 1, 1, "cycle"
        )
        assert fan5.certificate == WindingCertificate(
            anchor=P("-16/3", 2),
            ray=(1, 0),
            k=1,
            polygon=(
                P(3, 7), P(3, -3), P("-11/3", -3), P(-7, "-1/2"),
                P(-7, "9/2"), P("-11/3", 7),
            ),
            hosts=(0, 3, 5, 2, 4, 1),
            crossings=1,
        )


def _transpose(rows, width):
    """The transpose of a bit table: entry j is the bitmask of the rows
    that hold bit j."""
    return [sum([(row >> j & 1) << i for i, row in enumerate(rows)]) for j in range(width)]


def _count_calls(monkeypatch, owners, name):
    """Patch `name` in each of `owners` to count its calls in one list."""
    calls = []
    for owner in owners:
        raw = getattr(owner, name)

        def counting(*args, raw=raw):
            calls.append(args)
            return raw(*args)

        monkeypatch.setattr(owner, name, counting)
    return calls


class TestOneInstance:
    def test_hpt_matches_fraction_scaling(self):
        rng = random.Random("hpt")
        dens = [1, 2, 3, 7, 12, 64, 81]
        coords = [Fraction(rng.randint(-500, 500), rng.choice(dens)) for _ in range(200)]
        coords += [Fraction(-5, 3), Fraction(7, -12), Fraction(0), Fraction(-4)]
        for x, y in zip(coords, reversed(coords)):
            p = Point(x, y)
            w = math.lcm(x.denominator, y.denominator)
            assert _hpt(p) == (int(p.x * w), int(p.y * w), w)
        assert _hpt(P("-5/3", "-7/12")) == (-20, -7, 12)

    def test_dummy_offset_matches_fraction_floor(self):
        rng = random.Random("dummies")
        for _ in range(100):
            pts = [
                P(*[Fraction(rng.randint(-900, 900), rng.randint(1, 40)) for _ in "xy"])
                for _ in range(rng.randint(0, 5))
            ]
            sprime = [P(Fraction(rng.randint(-900, 0), 7), Fraction(-rng.randint(1, 99), 13))]
            coords = [abs(c) for q in pts + sprime for c in (q.x, q.y)]
            assert _HalfplaneInstance(pts, sprime, []).delta == math.floor(max(coords)) + 1
        assert _HalfplaneInstance([P("-7/2", "1/3")], [], []).delta == 4
        assert _HalfplaneInstance([], [], []).delta == 1

    def test_plane_flag_matches_full_region(self):
        fans = [
            [Halfplane(i, 1, i, -1) for i in range(4)],
            _tangent_fan()[2],
            *(fan_instance(seed)[2] for seed in range(4)),
        ]
        cases = [halfplane_instance(seed) for seed in range(200)]
        cases += [([], [], hs) for hs in fans]
        for points, sprime, hs in cases:
            inst = _HalfplaneInstance(points, sprime, hs)
            full_set_covers = not strict_feasible_lp([(-h.a, -h.b, -h.c) for h in hs])
            assert inst.covers_plane == full_set_covers
        assert all(strictly_feasible(_flipped(hs)) for hs in fans)  # not vacuous

    def test_dummies_contain_no_point(self):
        # the tables over the instance halfplanes serve over `extended`;
        # delta is floor(max |coordinate|) + 1, so probe coordinates at and
        # just below an integer magnitude, on both signs
        rng = random.Random(41)
        for seed in range(40):
            points, sprime, planes = halfplane_instance(seed)
            m = rng.randint(5, 12)
            below = m - Fraction(1, 64)
            at = [P(-m, -m), P(m, -below), P(-below, m)]
            near = [P(-below, -below), P(below, 0), P(0, -below)]
            for extra, delta in ((at, m + 1), (near, m)):
                for pts, sp in ((points + extra, sprime), (points, sprime + extra)):
                    inst = _HalfplaneInstance(pts, sp, planes)
                    assert inst.delta == delta
                    for q in (pts, sp):
                        assert incidence(q, inst.extended) == incidence(q, inst.halfplanes)

    @staticmethod
    def _table_cases():
        cases = [halfplane_instance(seed) for seed in range(200)]
        cases += [fan_instance(seed) for seed in range(8)]
        hand_s = HAND_ON_LINES + HAND_OFF_LINES
        # mixed denominators, in S and S', and S' points on boundary lines
        mixed = [P("1/3", "-5/7"), P("7/12", 2), P("-9/4", "1/6"), P(3, "-1/2")]
        on_lines = [P("1/2", "5/2"), P(-1, "1/3"), P("4/3", "7/3"), P(1, "-2/5")]
        cases += [
            (hand_s, HAND_ON_LINES + [P(2, 2)], HAND_PLANES),
            (hand_s, [], HAND_PLANES),
            ([], HAND_ON_LINES, HAND_PLANES),
            (hand_s + mixed, mixed + on_lines, HAND_PLANES),
            (mixed, on_lines, HAND_PLANES),
        ]
        return cases

    def test_tables_match_fraction_incidence(self):
        # the integer sign pass of the instance against Fraction arithmetic
        for points, sprime, planes in self._table_cases():
            inst = _HalfplaneInstance(points, sprime, planes)
            assert inst.s_rows == incidence(points, inst.halfplanes)
            assert inst.sp_rows == incidence(sprime, inst.halfplanes)
            for h in inst.extended:
                values = [h.a * p.x + h.b * p.y + h.c for p in points]
                nonpos = sum([1 << bit for bit, v in enumerate(values) if v <= 0])
                online = sum([1 << bit for bit, v in enumerate(values) if v == 0])
                assert inst.line_sides[h.id] == (nonpos, online)
            assert [inst.sp_masks[h.id] for h in inst.dummies] == [0] * 4

    def test_columns_transpose_rows(self):
        # the one sign pass fills the columns and the rows together: the S
        # columns and the S' masks of the instance halfplanes are the
        # transposes of the S and S' rows
        on_lines = 0
        for points, sprime, planes in self._table_cases():
            inst = _HalfplaneInstance(points, sprime, planes)
            n = len(inst.halfplanes)
            sp_columns = [inst.sp_masks[h.id] for h in inst.halfplanes]
            assert inst.s_columns == _transpose(inst.s_rows, n)
            assert inst.s_rows == _transpose(inst.s_columns, len(points))
            assert sp_columns == _transpose(inst.sp_rows, n)
            assert inst.sp_rows == _transpose(sp_columns, len(sprime))
            on_lines += sum(1 for h in planes for q in sprime if h.a * q.x + h.b * q.y + h.c == 0)
        assert on_lines >= 8  # S' points on boundary lines are tested

    def test_solves_make_no_fraction_containment_test(self, monkeypatch):
        # every side of a point against a boundary line is an integer sign
        # test of the instance; Halfplane.contains is left to the oracles
        cases = (halfplane_instance(4), fan_instance(1))  # samples with contains
        calls = []
        contains = Halfplane.contains

        def counting(self, p):
            calls.append(p)
            return contains(self, p)

        monkeypatch.setattr(Halfplane, "contains", counting)
        for points, sprime, planes in cases:
            ptas(points, sprime, planes, 1)
            additive_error_cover(points, sprime, planes)
            exact_mmgsc_halfplanes_report(points, sprime, planes)
            min_size_halfplane_cover(points, planes)
        assert calls == []
        planes[0].contains(points[0])  # the counter does see a test
        assert len(calls) == 1

    def test_ptas_solves_the_size_lp_once(self, monkeypatch):
        import membercover.lp as lpmod

        calls = _count_calls(monkeypatch, (lpmod,), "solve_lp")
        ptas(*fan_instance(1), 1)
        assert len(calls) == 1


class TestAngleFacts:
    def _irreducible_with_common_point(self, rng):
        """Random halfplanes through a common point, pruned to an
        irreducible set with union below the whole plane."""
        q = P(rng.randint(-2, 2), rng.randint(-2, 2))
        planes = []
        for i in range(rng.randint(2, 5)):
            a = b = 0
            while a == 0 and b == 0:
                a = rng.randint(-4, 4)
                b = rng.randint(-4, 4)
            c = -(a * q.x + b * q.y) + rng.randint(0, 3)
            planes.append(Halfplane(i, a, b, int(c)))
        if not strictly_feasible(_flipped(planes)):
            return None
        # drop union-redundant members
        kept = list(planes)
        changed = True
        while changed:
            changed = False
            for h in list(kept):
                rest = [o for o in kept if o.id != h.id]
                if rest and union_within_lp([h], rest):
                    kept = rest
                    changed = True
                    break
        if len(kept) < 2 or not all(h.contains(q) for h in kept):
            return None
        return q, kept

    def test_irreducible_sets_admit_strict_angle_order(self):
        rng = random.Random(27)
        found = 0
        for _ in range(300):
            built = self._irreducible_with_common_point(rng)
            if built is None:
                continue
            _q, kept = built
            found += 1

            def ordering_from(base):
                others = [h for h in kept if h.id != base.id]
                rel = sorted(
                    others,
                    key=lambda h: _cw_key(base.normal(), h.normal()),
                )
                # strictly increasing, all below a halfturn
                last = None
                for h in rel:
                    key = _cw_key(base.normal(), h.normal())
                    if key[0] >= 2:  # at or past a halfturn
                        return False
                    if last is not None and _same_direction(last.normal(), h.normal()):
                        return False
                    if _same_direction(base.normal(), h.normal()):
                        return False
                    last = h
                return True

            assert any(ordering_from(h) for h in kept)
        assert found >= 30

    def test_ordered_irreducible_intersection_is_extremes(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(300):
            built = self._irreducible_with_common_point(rng)
            if built is None or len(built[1]) < 3:
                continue
            q, kept = built
            base = None
            ordered = None
            for h in kept:
                others = sorted(
                    (o for o in kept if o.id != h.id),
                    key=lambda o: _cw_key(h.normal(), o.normal()),
                )
                if all(_cw_key(h.normal(), o.normal())[0] < 2 for o in others):
                    strict = not any(
                        _same_direction(a.normal(), b.normal())
                        for a, b in zip(others, others[1:])
                    )
                    if strict:
                        base = h
                        ordered = [h] + others
                        break
            if ordered is None:
                continue
            checked += 1
            first, last = ordered[0], ordered[-1]
            samples = [
                P(Fraction(x, 2), Fraction(y, 2))
                for x in range(-10, 11)
                for y in range(-10, 11)
            ]
            for s in samples:
                in_all = all(h.contains(s) for h in ordered)
                in_extremes = first.contains(s) and last.contains(s)
                assert in_all == in_extremes
        assert checked >= 10


def _same_direction(u, v):
    """Are the nonzero vectors u and v positive multiples of each other?"""
    return u[0] * v[1] - u[1] * v[0] == 0 and u[0] * v[0] + u[1] * v[1] > 0


def _cw_key(ref, w):
    """Sort key for the clockwise angle from ref to w: the exact half index
    (0 at angle 0, 1 in (0, pi), 2 at pi, 3 in (pi, 2pi)), then the angle."""
    cross = ref[0] * w[1] - ref[1] * w[0]
    half = 1 if cross < 0 else 3 if cross > 0 else 0 if _same_direction(ref, w) else 2
    return (half, (math.atan2(ref[1], ref[0]) - math.atan2(w[1], w[0])) % (2 * math.pi))
