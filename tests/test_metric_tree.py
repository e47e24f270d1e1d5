"""Exact tree geometry: distances, lines, projections, bridges.

The reference oracle here is graph shortest-path (Dijkstra over the tree
with the query points spliced in as extra nodes), which shares no code
with the rooted tree under test; RootedTree itself is checked against a
plain breadth-first search.
"""

import heapq
import time
import tracemalloc
from collections import deque
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from flipcluster.errors import InvalidPointError, NotOnLineError, SegmentOverflow
from flipcluster.generator import _diameter
from flipcluster.rational import parse_rational
from flipcluster.metric_tree import (
    Line,
    MetricTree,
    Overlap,
    RootedTree,
    TreeEdge,
    TreePoint,
    bridge,
    line_gate,
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

    def test_degree(self):
        t = tripod()
        assert [t.degree(v) for v in t.vertices] == [3, 1, 1, 1]

    def test_point_validation(self):
        t = tripod()
        with pytest.raises(InvalidPointError):
            t.point(0, 2)
        with pytest.raises(InvalidPointError):
            t.point(0, -1)
        with pytest.raises(InvalidPointError):
            t.point(9, 0)


def ref_point(tree: MetricTree, eid: int, off: Fraction) -> TreePoint | str:
    """MetricTree.point on Fractions: the canonical point, or the message
    of the InvalidPointError it raises."""
    e = tree.edges[eid]
    if off < 0 or off > e.length:
        return f"offset {off} outside [0, {e.length}] on edge {eid}"
    if off in (0, e.length):
        v = e.a if off == 0 else e.b
        first = min(i for i, f in enumerate(tree.edges) if v in (f.a, f.b))
        return TreePoint(first, F(0) if tree.edges[first].a == v else tree.edges[first].length)
    return TreePoint(eid, off)


class TestPointsAndDistance:
    @pytest.mark.parametrize("tree", [h_tree(), MetricTree(
        [(0, 1, F(3, 2)), (1, 2, F(7, 8)), (1, 3, 5), (3, 4, F(1, 4))])])
    def test_point_boundaries_against_fraction_reference(self, tree):
        """Offsets 0 and the edge length, 1/(13 * scale) either side of
        each, and off-scale interior offsets: the int range and vertex
        tests give the Fraction reference's point, vertex or message."""
        assert tree.scale > 1
        tiny = F(1, 13 * tree.scale)
        for eid, e in enumerate(tree.edges):
            for off in (F(0), e.length, -tiny, tiny, e.length - tiny, e.length + tiny,
                        e.length * F(5, 11), e.length * F(6, 7)):
                want = ref_point(tree, eid, off)
                if isinstance(want, str):
                    with pytest.raises(InvalidPointError) as exc:
                        tree.point(eid, off)
                    assert str(exc.value) == want
                    continue
                assert tree.point(eid, off) == want
                ends = {F(0): e.a, e.length: e.b}
                assert tree.point_vertex(TreePoint(eid, off)) == ends.get(off)
                assert tree.point_vertex(want) == ends.get(off)

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
                d = t.distance(p, q)
                assert type(d) is Fraction   # on the same edge and across edges
                assert d == dijkstra_point_distance(t, p, q)


def rational(num_range=8, den_range=4):
    return st.builds(
        F, st.integers(1, num_range), st.integers(1, den_range)
    )


@st.composite
def tree_edge_list(draw, max_vertices=8):
    """The edge list of a random tree, with scattered vertex ids and edges
    drawn in either direction, so the lowest id (the routing root) may sit
    anywhere and either end of an edge may be its lower end."""
    n = draw(st.integers(2, max_vertices))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    edges = []
    for v in range(1, n):
        a, b = ids[draw(st.integers(0, v - 1))], ids[v]
        if draw(st.booleans()):
            a, b = b, a
        edges.append((a, b, draw(rational())))
    return edges


def tree_strategy(max_vertices=8):
    return tree_edge_list(max_vertices).map(MetricTree)


def off_scale_point(draw, tree: MetricTree, eid: int) -> TreePoint:
    """A point on edge eid at an offset whose denominator (7, 11 or 13) is
    prime to every edge length's (1 to 4), so it sits off the tree's scale."""
    den = draw(st.sampled_from([7, 11, 13]))
    return tree.point(eid, F(draw(st.integers(0, int(tree.edges[eid].length * den))), den))


@st.composite
def tree_with_points(draw, k=2):
    tree = draw(tree_strategy())
    pts = []
    for _ in range(k):
        eid = draw(st.integers(0, len(tree.edges) - 1))
        if draw(st.booleans()):
            pts.append(off_scale_point(draw, tree, eid))
        else:
            num = draw(st.integers(0, 12))
            pts.append(tree.point(eid, tree.edges[eid].length * F(num, 12)))
    return tree, pts


class ReferenceTree:
    """A reference metric tree constructor: the same checks in the same
    order, with one TreeEdge per edge, the scale's lcm taken edge by edge
    and the units in a second pass.  It shares no code with MetricTree."""

    def __init__(self, edges):
        def int_id(x):
            if type(x) is not int:
                raise TypeError(f"ids must be integers, got {x!r}")
            return x

        parsed, adj, scale = [], {}, 1
        for i, (a, b, length) in enumerate(edges):
            if type(length) is int:
                length = Fraction(length)
            elif type(length) is str:
                length = parse_rational(length)
            elif type(length) is not Fraction:
                raise TypeError(
                    f"rational must be a Fraction, an int or a string, got {length!r}")
            if a == b:
                raise ValueError(f"edge {i} is a self-loop at vertex {a}")
            if length.numerator <= 0:
                raise ValueError(f"edge {i} has non-positive length {length}")
            a, b = int_id(a), int_id(b)
            parsed.append(TreeEdge(a, b, length))
            scale = lcm(scale, length.denominator)
            adj.setdefault(a, []).append((i, b))
            adj.setdefault(b, []).append((i, a))
        if not parsed:
            raise ValueError("a metric tree needs at least one edge")
        self.edges = tuple(parsed)
        self.scale = scale
        self._units = [e.length.numerator * (scale // e.length.denominator) for e in parsed]
        self.vertices = tuple(sorted(adj))
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("edge set contains a cycle or a parallel edge")
        seen, stack = {self.vertices[0]}, [self.vertices[0]]
        while stack:
            for _, w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(adj):
            raise ValueError("edge set is not connected")
        self._adj = adj

    def neighbors(self, v):
        return self._adj[v]


# values that break an edge: ids that are not plain ints, lengths that are
# not positive or not numbers, and entries of the wrong size
BAD_IDS = [True, False, 1.0, 2.5, "3", None]
BAD_LENGTHS = [0, -1, F(-1, 3), "0", "-2/3", "abc", "", None, [1], 0.0, -1.5]
# Fraction() reads all of these as positive; both constructors take only the last
ODD_LENGTHS = [1.5, True, "2/4", " 3 ", "1e1", F(7, 6)]


@st.composite
def faulty_edge_list(draw):
    """A tree's edge list, or one with up to two faults put in: self-loops,
    bad lengths, bad ids, short or long entries, an extra edge closing a
    cycle, a disjoint triangle (so the counts match but the walk fails),
    or no edges at all."""
    edges = [list(e) for e in draw(tree_edge_list(max_vertices=6))]
    verts = sorted({v for a, b, _ in edges for v in (a, b)})
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["self-loop", "length", "odd-length", "id", "entry", "cycle", "triangle", "empty"]))
        if kind == "cycle":
            a, b = draw(st.lists(st.sampled_from(verts), min_size=2, max_size=2, unique=True))
            edges.insert(draw(st.integers(0, len(edges))), [a, b, draw(rational())])
            continue
        if kind == "triangle":
            edges += [[100, 101, 1], [101, 102, 2], [102, 100, 3]]
            continue
        i = draw(st.integers(0, len(edges) - 1)) if edges else None
        if i is None or len(edges[i]) != 3:   # no edge left, or one already cut short
            continue
        if kind == "self-loop":
            edges[i][1] = edges[i][0]
        elif kind == "length":
            edges[i][2] = draw(st.sampled_from(BAD_LENGTHS))
        elif kind == "odd-length":
            edges[i][2] = draw(st.sampled_from(ODD_LENGTHS))
        elif kind == "id":
            edges[i][draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_IDS))
        elif kind == "entry":
            edges[i] = edges[i][:2] if draw(st.booleans()) else edges[i] + ["1"]
        else:
            edges = []
    return [tuple(e) for e in edges]


def build_outcome(build, edges):
    """What a constructor makes of an edge list, fed to it one edge at a
    time: the exception's type and message, or the tree's observable state."""
    try:
        t = build(iter(edges))
    except Exception as ex:   # any failure is an outcome to compare
        return type(ex), str(ex)
    return (t.edges, t.scale, t.vertices, {v: t.neighbors(v) for v in t.vertices},
            list(t._units))


class TestColumns:
    """The column-backed constructor against the TreeEdge-per-edge one."""

    @settings(max_examples=400, deadline=None)
    @given(faulty_edge_list())
    def test_matches_reference_constructor(self, edges):
        got = build_outcome(MetricTree, edges)
        assert got == build_outcome(ReferenceTree, edges)
        if not isinstance(got[0], type):
            assert all(type(e) is TreeEdge for e in got[0])

    def test_edges_view_is_built_once(self):
        t = h_tree()
        assert "edges" not in t.__dict__
        view = t.edges
        assert t.edges is view
        assert view[2] == TreeEdge(1, 3, F(5, 4))


class TestMetricProperties:
    @settings(max_examples=150, deadline=None)
    @given(tree_with_points(k=2))
    def test_agrees_with_dijkstra(self, tp):
        tree, (p, q) = tp
        d = tree.distance(p, q)
        assert type(d) is Fraction
        assert d == dijkstra_point_distance(tree, p, q)

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


def bfs_path(adj, u, v) -> tuple[list[int], list[int]]:
    """(vertices, edge ids) from u to v, by breadth-first search from u."""
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for eid, w in adj[x]:
            if w not in prev:
                prev[w] = (eid, x)
                queue.append(w)
    verts, eids = [v], []
    while verts[-1] != u:
        eid, x = prev[verts[-1]]
        eids.append(eid)
        verts.append(x)
    return verts[::-1], eids[::-1]


@st.composite
def rooted_tree_query(draw):
    """(adjacency, edge lengths, root, u, v) on a random or path-shaped
    tree with scattered vertex ids, shuffled edge ids and any root."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    eids = draw(st.permutations(range(n - 1)))
    path_shaped = draw(st.booleans())
    adj = {x: [] for x in ids}
    lengths = [None] * (n - 1)
    for v in range(1, n):
        parent = v - 1 if path_shaped else draw(st.integers(0, v - 1))
        eid = eids[v - 1]
        lengths[eid] = draw(st.integers(1, 24))   # a metric tree's lengths at its scale
        adj[ids[parent]].append((eid, ids[v]))
        adj[ids[v]].append((eid, ids[parent]))
    root, u, v = (draw(st.sampled_from(ids)) for _ in range(3))
    return adj, lengths, root, u, v


class TestRootedTree:
    @settings(max_examples=200, deadline=None)
    @given(rooted_tree_query())
    def test_agrees_with_bfs(self, query):
        adj, lengths, root, u, v = query
        verts, eids = bfs_path(adj, u, v)
        weighted = RootedTree(adj, root, lengths)
        unit = RootedTree(adj, root)
        assert weighted.path(u, v) == unit.path(u, v) == (verts, eids)
        hops_from_root = {x: len(bfs_path(adj, root, x)[1]) for x in verts}
        assert weighted.meet(u, v) == min(verts, key=hops_from_root.__getitem__)
        for rt, length in ((weighted, sum(lengths[e] for e in eids)), (unit, len(eids))):
            assert rt.depth[u] + rt.depth[v] - 2 * rt.depth[rt.meet(u, v)] == length

    def test_first_distance_on_a_long_path_is_linear(self):
        """The first query on a path-shaped piece with 2,000 edges, between
        its end leaves, roots the tree in linear time and space."""
        n = 2000
        tree = MetricTree([(v, v + 1, F(v % 7 + 1, 4)) for v in range(n)])
        p, q = tree.vertex_point(0), tree.vertex_point(n)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            d = tree.distance(p, q)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == sum(e.length for e in tree.edges)
        assert elapsed < 1.0
        assert peak < 8 * 2**20

    @settings(max_examples=100, deadline=None)
    @given(tree_strategy())
    def test_diameter_length(self, tree):
        """generator._diameter reads its length off int depths; it must be
        the Fraction sum of its path's edge lengths, and no pair of
        vertices may lie farther apart."""
        eids, start, length = _diameter(tree)
        assert type(length) is Fraction
        assert length == sum(tree.edges[eid].length for eid in eids)
        assert Line(tree, eids, start, 0).hi == length
        assert length == max(dijkstra_point_distance(tree, tree.vertex_point(u), tree.vertex_point(v))
                             for u in tree.vertices for v in tree.vertices)


def walk(tree: MetricTree, start: int, max_edges: int, draw, avoid=()) -> list[int]:
    """A drawn edge path of 1..max_edges edges from start, never reusing an
    edge or stepping onto a vertex in avoid; start needs a neighbor outside
    avoid."""
    path, used, v = [], set(), start
    for _ in range(draw(st.integers(1, max_edges))):
        options = [(eid, w) for eid, w in tree.neighbors(v) if eid not in used and w not in avoid]
        if not options:
            break
        eid, w = draw(st.sampled_from(options))
        path.append(eid)
        used.add(eid)
        v = w
    return path or [tree.neighbors(start)[0][0]]


def off_scale(lo=-36, hi=36):
    """Rationals whose denominators (3, 7, 12) differ from the edge lengths'
    (1 to 4), so a term read at the wrong scale shows."""
    return st.builds(F, st.integers(lo, hi), st.sampled_from([1, 3, 7, 12]))


@st.composite
def line_on(draw, tree: MetricTree, max_edges=4) -> Line:
    start = draw(st.sampled_from(tree.vertices))
    return Line(tree, walk(tree, start, max_edges, draw), start, draw(off_scale()))


@st.composite
def tree_with_line(draw):
    tree = draw(tree_strategy())
    return tree, draw(line_on(tree))


def ref_spans(line: Line) -> tuple[dict[int, tuple[Fraction, int]], dict[int, Fraction]]:
    """(edge -> (parameter and vertex where the line enters it), vertex ->
    parameter), summed edge by edge in Fraction from lo and the carrier."""
    spans, vparams = {}, {}
    t, v = line.lo, line.start_vertex
    vparams[v] = t
    for eid in line.edge_path:
        e = line.tree.edges[eid]
        spans[eid] = (t, v)
        t += e.length
        v = e.b if v == e.a else e.a
        vparams[v] = t
    return spans, vparams


def scan_point_at(line: Line, t: Fraction) -> TreePoint:
    """Reference Line.point_at: the first path edge ending at or after t."""
    spans, _ = ref_spans(line)
    for eid in line.edge_path:
        enter_t, enter_v = spans[eid]
        e = line.tree.edges[eid]
        if t <= enter_t + e.length:
            along = t - enter_t
            return line.tree.point(eid, along if enter_v == e.a else e.length - along)
    raise AssertionError(f"parameter {t} beyond the line")


def ref_coord_of(line: Line, p: TreePoint) -> Fraction | None:
    """Reference Line.coord_of, None off the line."""
    spans, vparams = ref_spans(line)
    if p.edge in spans:
        enter_t, enter_v = spans[p.edge]
        e = line.tree.edges[p.edge]
        return enter_t + (p.offset if enter_v == e.a else e.length - p.offset)
    e = line.tree.edges[p.edge]
    return vparams.get(e.a if p.offset == 0 else e.b if p.offset == e.length else None)


def ref_line_intersection(l1: Line, l2: Line) -> Overlap | None:
    """Reference line_intersection: every shared edge read in Fraction,
    checked against one (sigma, shift) and summed for contiguity."""
    spans1, vparams1 = ref_spans(l1)
    spans2, vparams2 = ref_spans(l2)
    shared = sorted(set(spans1) & set(spans2))
    if shared:
        sigma = shift = lo = hi = None
        total = F(0)
        for eid in shared:
            t1, v1 = spans1[eid]
            t2, v2 = spans2[eid]
            ln = l1.tree.edges[eid].length
            s = 1 if v1 == v2 else -1
            c = t2 - t1 if s == 1 else t2 + ln + t1
            if sigma is None:
                sigma, shift = s, c
            assert (sigma, shift) == (s, c), "inconsistent overlap between tree geodesics"
            lo = t1 if lo is None else min(lo, t1)
            hi = t1 + ln if hi is None else max(hi, t1 + ln)
            total += ln
        assert hi - lo == total, "overlap of tree geodesics is not contiguous"
        return Overlap(lo, hi, sigma, shift)
    common = sorted(set(vparams1) & set(vparams2))
    if common:
        assert len(common) == 1, "two geodesics share vertices but no edge"
        t1 = vparams1[common[0]]
        return Overlap(t1, t1, 1, vparams2[common[0]] - t1)
    return None


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
        """The walk reports the first edge that fails, whether it breaks
        the path or is missing from the tree."""
        t = h_tree()
        with pytest.raises(ValueError, match="breaks"):
            Line(t, [0, 3], 0, 0)
        with pytest.raises(ValueError, match="repeats"):
            Line(t, [0, 0], 0, 0)
        with pytest.raises(ValueError, match=r"^line edge path breaks at edge 3$"):
            Line(t, [0, 3, 9], 0, 0)
        with pytest.raises(ValueError, match=r"^line references missing edge 9$"):
            Line(t, [0, 9, 3], 0, 0)
        with pytest.raises(ValueError, match=r"^line references missing edge -1$"):
            Line(t, [-1], 0, 0)

    @pytest.mark.parametrize("t", [F(-5, 12) - F(1, 7), F(17, 6) + F(1, 7),
                                   F(-5, 12) - F(1, 10**9), F(17, 6) + F(1, 10**9)])
    def test_point_at_just_outside_overflows(self, t):
        ln = Line(h_tree(), [0, 2, 3], 0, F(-5, 12))   # lengths 1, 5/4, 1
        with pytest.raises(SegmentOverflow, match=r"outside line range \[-5/12, 17/6\]") as ex:
            ln.point_at(t)
        assert ex.value.param == t

    def test_point_at_takes_int_and_string(self):
        t = h_tree()
        ln = Line(t, [0, 1], 0, "-1/3")
        assert ln.point_at(0) == ln.point_at(F(0)) == t.point(0, F(1, 3))
        assert ln.point_at("1/6") == t.point(0, F(1, 2))
        assert ln.point_at("5/3") == t.vertex_point(2)
        assert ln.point_at(-F(1, 3)) == t.vertex_point(0)

    @settings(max_examples=150, deadline=None)
    @given(tree_with_line(), st.lists(off_scale(-60, 60), max_size=6))
    def test_agrees_with_fraction_reference(self, tl, ts):
        """Parameters, points and coordinates against ref_spans' Fraction
        sums, at parameters off the carrier's scale and off the line."""
        tree, line = tl
        spans, vparams = ref_spans(line)
        assert (line.lo, line.hi) == (vparams[line.start_vertex], vparams[line.end_vertex])
        assert list(line.vertex_params.items()) == list(vparams.items())
        assert all(line.vertex_param(v) == vparams.get(v) for v in tree.vertices)
        for t in ts + [line.lo, line.hi]:
            if line.lo <= t <= line.hi:
                p = line.point_at(t)
                assert p == scan_point_at(line, t)
                assert line.coord_of(p) == t
            else:
                with pytest.raises(SegmentOverflow) as ex:
                    line.point_at(t)
                assert ex.value.param == t
        for eid, e in enumerate(tree.edges):
            for k in (0, 1, 5, 7):
                p = tree.point(eid, e.length * F(k, 7))
                ref = ref_coord_of(line, p)
                if ref is None:
                    with pytest.raises(NotOnLineError):
                        line.coord_of(p)
                else:
                    assert line.coord_of(p) == ref

    @settings(max_examples=120, deadline=None)
    @given(tree_with_line(), st.integers(0, 12),
           st.lists(st.integers(0, 12), min_size=1, max_size=4), st.data())
    def test_roundtrip_and_gates(self, tl, a, bs, data):
        """dist(p, line(u)) = d + |u - g| with (g, d) = line_gate(tree, p,
        line), against Dijkstra, from every vertex and from a point off the
        tree's scale on every edge."""
        tree, line = tl
        t = line.lo + (line.hi - line.lo) * F(a, 12)
        assert line.coord_of(line.point_at(t)) == t
        pts = [tree.vertex_point(v) for v in tree.vertices]
        pts += [off_scale_point(data.draw, tree, eid) for eid in range(len(tree.edges))]
        for p in pts:
            g, d = line_gate(tree, p, line)
            assert type(d) is Fraction
            for b in bs:
                u = line.lo + (line.hi - line.lo) * F(b, 12)
                assert dijkstra_point_distance(tree, p, line.point_at(u)) == d + abs(u - g)

    @settings(max_examples=120, deadline=None)
    @given(tree_with_line(), st.lists(st.integers(1, 15), max_size=4))
    def test_point_at_inverts_coord_of(self, tl, sixteenths):
        tree, line = tl
        on = [tree.vertex_point(v) for v in line.vertex_params]
        off = [tree.vertex_point(v) for v in tree.vertices if v not in line.vertex_params]
        for eid, e in enumerate(tree.edges):
            pts = [tree.point(eid, e.length * F(k, 16)) for k in sixteenths]
            (on if eid in line.edge_path else off).extend(pts)
        for p in on:
            t = line.coord_of(p)
            assert line.point_at(t) == p == scan_point_at(line, t)
        for p in off:
            with pytest.raises(NotOnLineError):
                line.coord_of(p)


class TestProjection:
    def test_on_line_point(self):
        t = h_tree()
        ln = Line(t, [0, 1], 0, 0)
        p = t.point(1, F(1, 2))
        assert line_gate(t, p, ln) == (F(3, 2), 0)
        assert project_to_line(t, p, ln) == p

    def test_off_line_from_interior_vertex(self):
        t = h_tree()
        ln = Line(t, [0, 1], 0, 0)
        assert line_gate(t, t.vertex_point(4), ln) == (F(1), F(9, 4))
        assert line_gate(t, t.point(2, F(1, 2)), ln) == (F(1), F(1, 2))
        assert project_to_line(t, t.vertex_point(4), ln) == t.vertex_point(1)

    @staticmethod
    def _assert_exact_inner_foot(tree, line, v, end):
        """The foot of vertex v on a carrier that stops at the inner vertex
        `end` is that end, at positive distance, and it is the closest
        carrier point."""
        assert tree.degree(end) > 1
        p = tree.vertex_point(v)
        param, dist = line_gate(tree, p, line)
        assert param == line.hi and dist > 0
        assert project_to_line(tree, p, line) == tree.vertex_point(end)
        assert dist == tree.distance(p, tree.vertex_point(end)) == min(
            tree.distance(p, line.point_at(u)) for u in line.vertex_params.values())

    def test_overflow_at_extendable_end(self):
        """A point beyond an inner carrier end no longer overflows: its
        foot is that end, exactly."""
        t = h_tree()
        short = Line(t, [0], 0, 0)   # ends at vertex 1, which has degree 3
        self._assert_exact_inner_foot(t, short, 4, 1)

    def test_no_overflow_at_leaf_end(self):
        t = tripod()
        ln = Line(t, [0], 1, 0)   # leaf 1 to the center 0
        p = t.point(0, F(1, 2))
        assert line_gate(t, p, ln)[1] == 0
        assert project_to_line(t, p, ln) == p
        self._assert_exact_inner_foot(t, ln, 2, 0)

    @settings(max_examples=120, deadline=None)
    @given(tree_with_line(), st.integers(0, 30))
    def test_projection_minimizes(self, tl, sel):
        """Every drawn point, including those whose foot is a truncated
        carrier end, against the brute-force minimum over carrier vertices."""
        tree, line = tl
        eid = sel % len(tree.edges)
        p = tree.point(eid, tree.edges[eid].length * F(sel % 7, 7))
        param, dist = line_gate(tree, p, line)
        cands = list(line.vertex_params.values())
        best = min(tree.distance(p, line.point_at(t)) for t in cands)
        if ref_coord_of(line, p) is not None:
            assert dist == 0
        else:
            assert dist == best
        assert project_to_line(tree, p, line) == line.point_at(param)
        # the gate identity must hold through the reported foot
        for t in cands:
            assert tree.distance(p, line.point_at(t)) == dist + abs(t - param)


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

    @settings(max_examples=200, deadline=None)
    @given(tree_strategy(), st.data())
    def test_agrees_with_fraction_reference(self, tree, data):
        l1 = data.draw(line_on(tree))
        l2 = data.draw(line_on(tree))
        ov = line_intersection(l1, l2)
        assert ov == ref_line_intersection(l1, l2)
        if ov is not None:
            for s in (ov.lo1, (ov.lo1 + ov.hi1) / 2, ov.hi1):
                assert l1.point_at(s) == l2.point_at(ov.sigma * s + ov.shift)

    def test_lines_on_unlike_trees_fail_loudly(self):
        """Two geodesics of one tree always meet in one segment, so the
        guards show only for lines whose trees disagree on shared edge ids."""
        path = MetricTree([(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        l1 = Line(path, [0, 1, 2], 0, 0)
        star = MetricTree([(0, 1, 1), (1, 4, 1), (1, 2, 1)])   # edges 0 and 2 meet at 1
        with pytest.raises(AssertionError, match="not contiguous"):
            line_intersection(l1, Line(star, [0, 2], 0, 0))
        vee = MetricTree([(0, 1, 1), (0, 2, 1), (2, 3, 1)])   # edge 1 hangs off 0
        with pytest.raises(AssertionError, match="inconsistent"):
            line_intersection(Line(path, [0, 1], 0, 0), Line(vee, [1, 0], 2, 0))
        fork = MetricTree([(2, 0, 1), (0, 3, 1), (0, 1, 1)])   # 2 and 3 joined by edges 0, 1
        with pytest.raises(AssertionError, match="share vertices but no edge"):
            line_intersection(Line(path, [2], 2, 0), Line(fork, [0, 1], 2, 0))

    def test_bridge_disjoint_gap(self):
        t = h_tree()
        l1 = Line(t, [0, 1], 0, 0)
        l2 = Line(t, [3, 4], 4, 0)
        br = bridge(t, l1, l2)
        assert (br.param_p, br.param_q, br.gap) == (F(1), F(1), F(5, 4))
        assert br.p == t.vertex_point(1) and br.q == t.vertex_point(3)

    @settings(max_examples=100, deadline=None)
    @given(tree_with_line(), st.data())
    def test_bridge_is_closest_pair(self, tl, data):
        tree, l1 = tl
        # a second line over the same tree, on vertices off the first
        on = l1.vertex_params.keys()
        starts = [v for v in tree.vertices
                  if v not in on and any(w not in on for _, w in tree.neighbors(v))]
        assume(starts)
        start = data.draw(st.sampled_from(starts))
        l2 = Line(tree, walk(tree, start, 3, data.draw, avoid=on), start, data.draw(off_scale()))
        assert line_intersection(l1, l2) is None
        br = bridge(tree, l1, l2)
        best = min(
            tree.distance(l1.point_at(s), l2.point_at(u))
            for s in l1.vertex_params.values()
            for u in l2.vertex_params.values()
        )
        assert br.gap == best
        assert tree.distance(br.p, br.q) == br.gap
        assert l1.point_at(br.param_p) == br.p
        assert l2.point_at(br.param_q) == br.q
