"""Exact tree geometry: distances, lines, projections, bridges.

The reference oracle here is graph shortest-path (Dijkstra over the tree
with the query points spliced in as extra nodes), which shares no code
with the routing tables under test.
"""

import heapq
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flipcluster.errors import InvalidPointError, NotOnLineError, SegmentOverflow
from flipcluster.metric_tree import (
    Line,
    MetricTree,
    Overlap,
    TreePoint,
    bridge,
    line_intersection,
    project_to_line,
)

F = Fraction


def dijkstra_point_distance(tree: MetricTree, p: TreePoint, q: TreePoint) -> Fraction:
    """Shortest path in the tree graph with p and q spliced in as nodes."""
    # node names: ("v", vertex) and ("p", 0/1) for the query points
    edges: list[tuple[object, object, Fraction]] = []
    specials = {0: p, 1: q}
    for eid, e in enumerate(tree.edges):
        cuts = sorted(
            (pt.offset, ("p", i))
            for i, pt in specials.items()
            if pt.edge == eid and 0 < pt.offset < e.length
        )
        chain = [(F(0), ("v", e.a))] + cuts + [(e.length, ("v", e.b))]
        for (o1, n1), (o2, n2) in zip(chain, chain[1:]):
            edges.append((n1, n2, o2 - o1))
    for i, pt in specials.items():
        v = tree.point_vertex(pt)
        if v is not None:
            edges.append((("p", i), ("v", v), F(0)))
    adj: dict[object, list[tuple[object, Fraction]]] = {}
    for a, b, w in edges:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    dist = {("p", 0): F(0)}
    heap = [(F(0), 0, ("p", 0))]
    tick = 1
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        if node == ("p", 1):
            return d
        for nxt, w in adj.get(node, []):
            nd = d + w
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, tick, nxt))
                tick += 1
    raise AssertionError("query point unreachable")


def tripod() -> MetricTree:
    return MetricTree([(0, 1, 1), (0, 2, 2), (0, 3, 3)])


def h_tree() -> MetricTree:
    # two spans joined through a middle rung of length 5/4
    return MetricTree([(0, 1, 1), (1, 2, 1), (1, 3, F(5, 4)), (4, 3, 1), (3, 5, 1)])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            MetricTree([(0, 0, 1)])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="non-positive"):
            MetricTree([(0, 1, 0)])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            MetricTree([(0, 1, 1), (1, 2, 1), (2, 0, 1)])

    def test_rejects_disconnected(self):
        # vertex/edge counts line up, so only the reachability sweep can object
        with pytest.raises(ValueError, match="connected"):
            MetricTree([(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MetricTree([])

    def test_leaves_and_degree(self):
        t = tripod()
        assert t.leaves == (1, 2, 3)
        assert t.degree(0) == 3

    def test_point_validation(self):
        t = tripod()
        with pytest.raises(InvalidPointError):
            t.point(0, 2)
        with pytest.raises(InvalidPointError):
            t.point(0, -1)
        with pytest.raises(InvalidPointError):
            t.point(9, 0)


class TestPointsAndDistance:
    def test_vertex_point_canonical(self):
        t = tripod()
        # vertex 0 sits on edges 0, 1, 2; the lowest edge id wins
        assert t.vertex_point(0) == TreePoint(0, F(0))
        assert t.point(1, 0) == TreePoint(0, F(0))
        assert t.point(2, 0) == TreePoint(0, F(0))
        assert t.point(0, 1) == t.vertex_point(1)

    def test_tripod_distances(self):
        t = tripod()
        d = t.distance
        assert d(t.vertex_point(1), t.vertex_point(2)) == 3
        assert d(t.vertex_point(1), t.vertex_point(3)) == 4
        assert d(t.vertex_point(2), t.vertex_point(3)) == 5
        assert d(t.point(0, F(1, 2)), t.point(2, F(1, 2))) == 1

    def test_same_edge_distance(self):
        t = tripod()
        assert t.distance(t.point(2, F(1, 3)), t.point(2, F(5, 2))) == F(13, 6)

    def test_matches_dijkstra_on_fixture(self):
        t = h_tree()
        pts = [t.point(e, off) for e in range(5) for off in (F(0), F(1, 3), F(2, 3))]
        for p in pts:
            for q in pts:
                assert t.distance(p, q) == dijkstra_point_distance(t, p, q)

    def test_geodesic_structure(self):
        t = h_tree()
        p = t.point(0, F(1, 2))
        q = t.point(4, F(1, 2))
        segs = t.geodesic(p, q)
        assert sum(s.length for s in segs) == t.distance(p, q)
        assert segs[0].edge == p.edge and segs[0].start == p.offset
        assert segs[-1].edge == q.edge and segs[-1].end == q.offset
        assert all(s.length > 0 for s in segs)
        assert t.geodesic(p, p) == []


def rational(num_range=8, den_range=4):
    return st.builds(
        F, st.integers(1, num_range), st.integers(1, den_range)
    )


@st.composite
def tree_strategy(draw, max_vertices=8):
    n = draw(st.integers(2, max_vertices))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.append((parent, v, draw(rational())))
    return MetricTree(edges)


@st.composite
def tree_with_points(draw, k=2):
    tree = draw(tree_strategy())
    pts = []
    for _ in range(k):
        eid = draw(st.integers(0, len(tree.edges) - 1))
        num = draw(st.integers(0, 12))
        pts.append(tree.point(eid, tree.edges[eid].length * F(num, 12)))
    return tree, pts


class TestMetricProperties:
    @settings(max_examples=150, deadline=None)
    @given(tree_with_points(k=2))
    def test_agrees_with_dijkstra(self, tp):
        tree, (p, q) = tp
        assert tree.distance(p, q) == dijkstra_point_distance(tree, p, q)

    @settings(max_examples=100, deadline=None)
    @given(tree_with_points(k=3))
    def test_metric_axioms(self, tp):
        tree, (p, q, r) = tp
        d = tree.distance
        assert d(p, q) == d(q, p)
        assert d(p, p) == 0
        assert (d(p, q) == 0) == (p == q)
        assert d(p, r) <= d(p, q) + d(q, r)

    @settings(max_examples=100, deadline=None)
    @given(tree_with_points(k=4))
    def test_four_point_condition(self, tp):
        tree, (x, y, z, w) = tp
        d = tree.distance
        s1 = d(x, y) + d(z, w)
        s2 = d(x, z) + d(y, w)
        s3 = d(x, w) + d(y, z)
        assert s1 <= max(s2, s3)

    @settings(max_examples=100, deadline=None)
    @given(tree_with_points(k=2))
    def test_geodesic_length(self, tp):
        tree, (p, q) = tp
        segs = tree.geodesic(p, q)
        assert sum(s.length for s in segs) == tree.distance(p, q)


@st.composite
def tree_with_line(draw):
    tree = draw(tree_strategy())
    start = draw(st.sampled_from(tree.vertices))
    path = []
    used = set()
    v = start
    for _ in range(draw(st.integers(1, 4))):
        options = [(eid, w) for eid, w in tree.neighbors(v) if eid not in used]
        if not options:
            break
        eid, w = draw(st.sampled_from(options))
        path.append(eid)
        used.add(eid)
        v = w
    if not path:
        eid, w = tree.neighbors(start)[0]
        path.append(eid)
    lo = draw(st.integers(-6, 6))
    return tree, Line(tree, path, start, F(lo))


def scan_point_at(line: Line, t: Fraction) -> TreePoint:
    """Reference Line.point_at: the first path edge ending at or after t."""
    for eid in line.edge_path:
        enter_t, enter_v = line.edge_spans[eid]
        e = line.tree.edges[eid]
        if t <= enter_t + e.length:
            along = t - enter_t
            return line.tree.point(eid, along if enter_v == e.a else e.length - along)
    raise AssertionError(f"parameter {t} beyond the line")


class TestLine:
    def test_params_and_points(self):
        t = h_tree()
        ln = Line(t, [0, 1], 0, F(-1))
        assert (ln.lo, ln.hi) == (F(-1), F(1))
        assert ln.vertex_params == {0: F(-1), 1: F(0), 2: F(1)}
        assert ln.point_at(F(-1)) == t.vertex_point(0)
        assert ln.point_at(F(-1, 2)) == t.point(0, F(1, 2))
        assert ln.coord_of(t.point(1, F(1, 4))) == F(1, 4)
        with pytest.raises(SegmentOverflow):
            ln.point_at(F(3, 2))
        with pytest.raises(NotOnLineError):
            ln.coord_of(t.point(3, F(1, 2)))

    def test_rejects_broken_path(self):
        t = h_tree()
        with pytest.raises(ValueError, match="breaks"):
            Line(t, [0, 3], 0, 0)
        with pytest.raises(ValueError, match="repeats"):
            Line(t, [0, 0], 0, 0)

    @settings(max_examples=120, deadline=None)
    @given(tree_with_line(), st.integers(0, 12), st.integers(0, 12))
    def test_roundtrip_and_gates(self, tl, a, b):
        tree, line = tl
        t = line.lo + line.length * F(a, 12)
        assert line.coord_of(line.point_at(t)) == t
        # gate identity against the plain metric
        u = line.lo + line.length * F(b, 12)
        for v in tree.vertices:
            g, d = line.vertex_gates[v]
            assert tree.distance(tree.vertex_point(v), line.point_at(u)) == d + abs(u - g)


    @settings(max_examples=120, deadline=None)
    @given(tree_with_line(), st.lists(st.integers(1, 15), max_size=4))
    def test_point_at_inverts_coord_of(self, tl, sixteenths):
        tree, line = tl
        on = [tree.vertex_point(v) for v in line.vertex_params]
        off = [tree.vertex_point(v) for v in tree.vertices if v not in line.vertex_params]
        for eid, e in enumerate(tree.edges):
            pts = [tree.point(eid, e.length * F(k, 16)) for k in sixteenths]
            (on if eid in line.edge_spans else off).extend(pts)
        for p in on:
            t = line.coord_of(p)
            assert line.contains(p)
            assert line.point_at(t) == p == scan_point_at(line, t)
        for p in off:
            assert not line.contains(p)
            with pytest.raises(NotOnLineError):
                line.coord_of(p)


class TestProjection:
    def test_on_line_point(self):
        t = h_tree()
        ln = Line(t, [0, 1], 0, 0)
        pr = project_to_line(t, t.point(1, F(1, 2)), ln)
        assert pr.dist == 0 and pr.param == F(3, 2)

    def test_off_line_from_interior_vertex(self):
        t = h_tree()
        ln = Line(t, [0, 1], 0, 0)
        pr = project_to_line(t, t.vertex_point(4), ln)
        assert (pr.param, pr.dist) == (F(1), F(9, 4))
        pr2 = project_to_line(t, t.point(2, F(1, 2)), ln)
        assert (pr2.param, pr2.dist) == (F(1), F(1, 2))

    def test_overflow_at_extendable_end(self):
        t = h_tree()
        short = Line(t, [0], 0, 0)  # ends at vertex 1, which has degree 3
        with pytest.raises(SegmentOverflow):
            project_to_line(t, t.vertex_point(4), short)

    def test_no_overflow_at_leaf_end(self):
        t = tripod()
        ln = Line(t, [0], 1, 0)  # leaf 1 to center 0; center end extendable
        pr = project_to_line(t, t.point(0, F(1, 2)), ln)
        assert pr.dist == 0
        with pytest.raises(SegmentOverflow):
            project_to_line(t, t.vertex_point(2), ln)

    @settings(max_examples=120, deadline=None)
    @given(tree_with_line(), st.integers(0, 30))
    def test_projection_minimizes(self, tl, sel):
        tree, line = tl
        eid = sel % len(tree.edges)
        p = tree.point(eid, tree.edges[eid].length * F(sel % 7, 7))
        try:
            pr = project_to_line(tree, p, line)
        except SegmentOverflow:
            return
        cands = list(line.vertex_params.values())
        best = min(tree.distance(p, line.point_at(t)) for t in cands)
        if line.contains(p):
            assert pr.dist == 0
        else:
            assert pr.dist == best
        # the gate identity must hold through the reported foot
        for t in cands:
            assert tree.distance(p, line.point_at(t)) == pr.dist + abs(t - pr.param)


class TestIntersectionAndBridge:
    def test_overlap_with_reversal(self):
        t = h_tree()
        l1 = Line(t, [0, 1], 0, 0)
        l3 = Line(t, [1, 2], 2, 0)  # runs back through edge 1, then out edge 2
        ov = line_intersection(l1, l3)
        assert ov == Overlap(F(1), F(2), -1, F(2))
        # the matching holds pointwise on the shared edge
        for k in range(5):
            s = F(1) + F(k, 4)
            assert l1.point_at(s) == l3.point_at(ov.sigma * s + ov.shift)

    def test_single_vertex_overlap(self):
        t = tripod()
        l1 = Line(t, [0], 1, 0)  # leaf 1 -> center
        l2 = Line(t, [1], 2, 5)  # leaf 2 -> center
        ov = line_intersection(l1, l2)
        assert ov == Overlap(F(1), F(1), 1, F(6))

    def test_disjoint(self):
        t = h_tree()
        assert line_intersection(Line(t, [0], 0, 0), Line(t, [3], 4, 0)) is None

    def test_bridge_disjoint_gap(self):
        t = h_tree()
        l1 = Line(t, [0, 1], 0, 0)
        l2 = Line(t, [3, 4], 4, 0)
        br = bridge(t, l1, l2)
        assert (br.param_p, br.param_q, br.gap) == (F(1), F(1), F(5, 4))
        assert br.p == t.vertex_point(1) and br.q == t.vertex_point(3)

    def test_bridge_intersecting_midpoint(self):
        t = h_tree()
        l1 = Line(t, [0, 1], 0, 0)
        l3 = Line(t, [1, 2], 2, 0)
        br = bridge(t, l1, l3)
        assert br.gap == 0
        assert br.param_p == F(3, 2)
        assert br.param_q == F(1, 2)
        assert br.p == br.q == t.point(1, F(1, 2))

    @settings(max_examples=100, deadline=None)
    @given(tree_with_line(), st.data())
    def test_bridge_is_closest_pair(self, tl, data):
        tree, l1 = tl
        # draw a second line over the same tree
        start = data.draw(st.sampled_from(tree.vertices))
        path = []
        used = set()
        v = start
        for _ in range(data.draw(st.integers(1, 3))):
            options = [(eid, w) for eid, w in tree.neighbors(v) if eid not in used]
            if not options:
                break
            eid, w = data.draw(st.sampled_from(options))
            path.append(eid)
            used.add(eid)
            v = w
        if not path:
            path = [tree.neighbors(start)[0][0]]
        l2 = Line(tree, path, start, 0)
        try:
            br = bridge(tree, l1, l2)
        except SegmentOverflow:
            return
        best = min(
            tree.distance(l1.point_at(s), l2.point_at(u))
            for s in l1.vertex_params.values()
            for u in l2.vertex_params.values()
        )
        assert br.gap == best
        assert tree.distance(br.p, br.q) == br.gap
        assert l1.point_at(br.param_p) == br.p
        assert l2.point_at(br.param_q) == br.q
