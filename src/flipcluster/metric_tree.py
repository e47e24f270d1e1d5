"""Finite metric trees with exact rational geometry.

Vertices are integers, edges carry positive rational lengths, and all
computations (distances, geodesics, projections, bridges between line
segments) are exact over ``fractions.Fraction``.  Points are addressed as
(edge id, offset from the edge's first endpoint) and canonicalized so that
equal points compare equal: a point sitting on a vertex is always
represented on the lowest-id edge incident to that vertex.

Routing in both kinds of tree (the metric trees here and the simplicial
tree indexing the pieces) goes through :class:`RootedTree`: one walk from
a root records each vertex's parent edge, hop depth and weighted depth,
and a query climbs from both ends to their meeting vertex, so it costs the
hop length of its path and no all-pairs table is ever built.  A metric
tree is rooted lazily, on its first routing query, since most pieces are
never routed.  Ids are plain ints: a bool, float or string id is rejected
rather than read as a different vertex or edge.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidPointError, NotOnLineError, SegmentOverflow
from .rational import as_fraction


class TreeEdge(NamedTuple):
    a: int
    b: int
    length: Fraction


class TreePoint(NamedTuple):
    edge: int
    offset: Fraction


class TreeSegment(NamedTuple):
    """A directed portion of a single edge, from offset ``start`` to ``end``."""

    edge: int
    start: Fraction
    end: Fraction

    @property
    def length(self) -> Fraction:
        return abs(self.end - self.start)


def int_id(x) -> int:
    """A vertex or edge id, which must be an int and not a bool."""
    if type(x) is not int:
        raise TypeError(f"ids must be integers, got {x!r}")
    return x


class RootedTree:
    """A tree hung from a root: parent edges, hop depths, weighted depths.

    ``adj`` maps each vertex to its (edge id, neighbor) pairs and
    ``lengths`` gives edge lengths by id; without it edges are unit and
    depths are hop counts.  Queries climb from both ends, the deeper end
    stepping first, so each costs the hop length of its path.
    """

    def __init__(self, adj: Mapping[int, Iterable[tuple[int, int]]], root: int,
                 lengths: Sequence[Fraction] | None = None):
        self.up: dict[int, tuple[int, int]] = {}   # vertex -> (parent edge, parent)
        self.hops = {root: 0}
        self.depth = self.hops if lengths is None else {root: Fraction(0)}
        stack = [root]
        while stack:
            v = stack.pop()
            for eid, w in adj[v]:
                if w not in self.hops:
                    self.up[w] = (eid, v)
                    self.hops[w] = self.hops[v] + 1
                    if lengths is not None:
                        self.depth[w] = self.depth[v] + lengths[eid]
                    stack.append(w)

    def meet(self, u: int, v: int) -> int:
        """The vertex where the paths from u and v to the root join."""
        hops, up = self.hops, self.up
        while u != v:
            if hops[u] >= hops[v]:
                u = up[u][1]
            else:
                v = up[v][1]
        return u

    def _rise(self, u: int, top: int) -> tuple[list[int], list[int]]:
        verts, eids = [u], []
        while u != top:
            eid, u = self.up[u]
            eids.append(eid)
            verts.append(u)
        return verts, eids

    def path(self, u: int, v: int) -> tuple[list[int], list[int]]:
        """(vertex sequence u..v, edge ids between them)."""
        m = self.meet(u, v)
        verts_u, eids_u = self._rise(u, m)
        verts_v, eids_v = self._rise(v, m)
        return verts_u + verts_v[-2::-1], eids_u + eids_v[::-1]

    def distance(self, u: int, v: int):
        d = self.depth
        return d[u] + d[v] - 2 * d[self.meet(u, v)]


class MetricTree:
    """A finite connected acyclic graph with positive rational edge lengths.

    The edge list order is significant: the index of an edge in the list is
    its stable id, used by :class:`TreePoint` and by serialized instances.
    """

    def __init__(self, edges: Iterable[tuple[int, int, Fraction | int | str]]):
        parsed: list[TreeEdge] = []
        for i, (a, b, length) in enumerate(edges):
            length = as_fraction(length)
            if a == b:
                raise ValueError(f"edge {i} is a self-loop at vertex {a}")
            if length.numerator <= 0:   # a Fraction has the sign of its numerator
                raise ValueError(f"edge {i} has non-positive length {length}")
            parsed.append(TreeEdge(int_id(a), int_id(b), length))
        if not parsed:
            raise ValueError("a metric tree needs at least one edge")
        self.edges: tuple[TreeEdge, ...] = tuple(parsed)

        adj: dict[int, list[tuple[int, int]]] = {}
        for i, e in enumerate(self.edges):
            adj.setdefault(e.a, []).append((i, e.b))
            adj.setdefault(e.b, []).append((i, e.a))
        self._adj: dict[int, tuple[tuple[int, int], ...]] = {
            v: tuple(sorted(n)) for v, n in adj.items()
        }
        self.vertices: tuple[int, ...] = tuple(sorted(adj))
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("edge set contains a cycle or a parallel edge")
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for _, w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise ValueError("edge set is not connected")

    # -- structure ---------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """(edge id, opposite vertex) pairs, sorted by edge id."""
        return self._adj[v]

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if len(self._adj[v]) == 1)

    def rooted_at(self, root: int) -> RootedTree:
        return RootedTree(self._adj, root, [e.length for e in self.edges])

    @cached_property
    def _rooted(self) -> RootedTree:
        return self.rooted_at(self.vertices[0])

    def vertex_path_edges(self, u: int, v: int) -> list[int]:
        """Edge ids along the geodesic from u to v, in traversal order."""
        return self._rooted.path(u, v)[1]

    # -- points ------------------------------------------------------------

    def vertex_point(self, v: int) -> TreePoint:
        if v not in self._adj:
            raise InvalidPointError(f"vertex {v} not in tree")
        eid, _ = self._adj[v][0]
        e = self.edges[eid]
        return TreePoint(eid, Fraction(0) if e.a == v else e.length)

    def point(self, edge: int, offset: Fraction | int | str) -> TreePoint:
        offset = as_fraction(offset)
        if not 0 <= int_id(edge) < len(self.edges):
            raise InvalidPointError(f"edge id {edge} out of range")
        e = self.edges[edge]
        if offset < 0 or offset > e.length:
            raise InvalidPointError(
                f"offset {offset} outside [0, {e.length}] on edge {edge}"
            )
        return self._on_edge(edge, offset)

    def _on_edge(self, edge: int, offset: Fraction) -> TreePoint:
        """Canonical form of a Fraction offset already known to lie on the edge."""
        e = self.edges[edge]
        if offset == 0:
            return self.vertex_point(e.a)
        if offset == e.length:
            return self.vertex_point(e.b)
        return TreePoint(edge, offset)

    def point_vertex(self, p: TreePoint) -> int | None:
        """The vertex a point sits on, or None for edge-interior points."""
        e = self.edges[p.edge]
        if p.offset == 0:
            return e.a
        if p.offset == e.length:
            return e.b
        return None

    # -- metric ------------------------------------------------------------

    def _lift(self, p: TreePoint) -> tuple[int, Fraction]:
        """The end of p's edge farther from the root, and p's weighted depth."""
        rt = self._rooted
        e = self.edges[p.edge]
        if rt.hops[e.b] > rt.hops[e.a]:
            return e.b, rt.depth[e.b] - (e.length - p.offset)
        return e.a, rt.depth[e.a] - p.offset

    def _meeting(self, p: TreePoint, q: TreePoint
                 ) -> tuple[int, int, Fraction, Fraction, Fraction]:
        """For points on different edges: the vertices where the geodesic
        from p to q leaves p's edge and enters q's, the weighted depths of
        p and q, and the depth of the geodesic's highest point."""
        rt = self._rooted
        cp, dp = self._lift(p)
        cq, dq = self._lift(q)
        m = rt.meet(cp, cq)
        if m == cp:   # q hangs below p's edge: the geodesic descends from p
            return cp, rt.up[cq][1], dp, dq, dp
        if m == cq:
            return rt.up[cp][1], cq, dp, dq, dq
        return rt.up[cp][1], rt.up[cq][1], dp, dq, rt.depth[m]

    def distance(self, p: TreePoint, q: TreePoint) -> Fraction:
        if p.edge == q.edge:
            return abs(p.offset - q.offset)
        _, _, dp, dq, dm = self._meeting(p, q)
        return dp + dq - 2 * dm

    def geodesic(self, p: TreePoint, q: TreePoint) -> list[TreeSegment]:
        """The unique geodesic from p to q as directed edge portions.

        Zero-length portions are dropped; p == q gives the empty list.
        """
        if p == q:
            return []
        if p.edge == q.edge:
            return [TreeSegment(p.edge, p.offset, q.offset)]
        va, vb = self._meeting(p, q)[:2]
        segs: list[TreeSegment] = []
        e = self.edges[p.edge]
        exit_off = Fraction(0) if va == e.a else e.length
        if p.offset != exit_off:
            segs.append(TreeSegment(p.edge, p.offset, exit_off))
        cur = va
        for eid in self.vertex_path_edges(va, vb):
            e = self.edges[eid]
            if cur == e.a:
                segs.append(TreeSegment(eid, Fraction(0), e.length))
                cur = e.b
            else:
                segs.append(TreeSegment(eid, e.length, Fraction(0)))
                cur = e.a
        e = self.edges[q.edge]
        enter_off = Fraction(0) if vb == e.a else e.length
        if enter_off != q.offset:
            segs.append(TreeSegment(q.edge, enter_off, q.offset))
        return segs


class Line:
    """A finite unit-speed geodesic segment spanning whole tree edges.

    The carrier is an ordered edge-id path traversed fully from
    ``start_vertex``; parameters run over [lo, hi] where hi - lo equals the
    carrier length, parameter lo sits at the start vertex, and parameters
    grow along the traversal.
    """

    def __init__(self, tree: MetricTree, edge_path: Iterable[int], start_vertex: int, lo: Fraction | int | str):
        self.tree = tree
        path = tuple(int_id(e) for e in edge_path)
        if not path:
            raise ValueError("line needs a non-empty edge path")
        if len(set(path)) != len(path):
            raise ValueError("line edge path repeats an edge")
        lo = as_fraction(lo)
        spans: dict[int, tuple[Fraction, int]] = {}
        vparams: dict[int, Fraction] = {}
        ends: list[Fraction] = []   # parameter at the far end of each path edge
        v = int_id(start_vertex)
        t = lo
        vparams[v] = t
        for eid in path:
            if not 0 <= eid < len(tree.edges):
                raise ValueError(f"line references missing edge {eid}")
            e = tree.edges[eid]
            if v == e.a:
                nxt = e.b
            elif v == e.b:
                nxt = e.a
            else:
                raise ValueError(f"line edge path breaks at edge {eid}")
            spans[eid] = (t, v)
            t += e.length
            ends.append(t)
            v = nxt
            vparams[v] = t
        self.edge_path = path
        self.edge_ends = ends
        self.start_vertex = start_vertex
        self.end_vertex = v
        self.lo = lo
        self.hi = t
        self.edge_spans = spans
        self.vertex_params = vparams

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def point_at(self, t: Fraction | int | str) -> TreePoint:
        t = as_fraction(t)
        if t < self.lo or t > self.hi:
            raise SegmentOverflow(
                f"parameter {t} outside line range [{self.lo}, {self.hi}]",
                param=t,
            )
        eid = self.edge_path[bisect_left(self.edge_ends, t)]  # first edge ending at or after t
        enter_t, enter_v = self.edge_spans[eid]
        e = self.tree.edges[eid]
        along = t - enter_t
        off = along if enter_v == e.a else e.length - along
        return self.tree._on_edge(eid, off)   # enter_t <= t <= edge end: off is on the edge

    def coord_of(self, p: TreePoint) -> Fraction:
        span = self.edge_spans.get(p.edge)
        if span is not None:
            enter_t, enter_v = span
            e = self.tree.edges[p.edge]
            along = p.offset if enter_v == e.a else e.length - p.offset
            return enter_t + along
        v = self.tree.point_vertex(p)
        if v is not None and v in self.vertex_params:
            return self.vertex_params[v]
        raise NotOnLineError(f"point {p} not on line")

    def contains(self, p: TreePoint) -> bool:
        return p.edge in self.edge_spans or self.tree.point_vertex(p) in self.vertex_params

    @cached_property
    def vertex_gates(self) -> dict[int, tuple[Fraction, Fraction]]:
        """For every tree vertex: (parameter of its gate on the line, distance).

        The gate of a point is the unique entry point of geodesics from it
        into the line, so distances to line points decompose as
        d(v, line(t)) = dist + |t - gate parameter|.
        """
        gates: dict[int, tuple[Fraction, Fraction]] = {
            v: (t, Fraction(0)) for v, t in self.vertex_params.items()
        }
        stack = list(self.vertex_params)
        while stack:
            v = stack.pop()
            g, d = gates[v]
            for eid, w in self.tree.neighbors(v):
                if w not in gates:
                    gates[w] = (g, d + self.tree.edges[eid].length)
                    stack.append(w)
        return gates

    def extendable_end(self, t: Fraction) -> bool:
        """Whether the tree continues past the carrier endpoint at parameter t."""
        if t == self.lo:
            return self.tree.degree(self.start_vertex) >= 2
        if t == self.hi:
            return self.tree.degree(self.end_vertex) >= 2
        return False


class Projection(NamedTuple):
    foot: TreePoint
    param: Fraction
    dist: Fraction


def line_gate(tree: MetricTree, p: TreePoint, line: Line) -> tuple[Fraction, Fraction]:
    """(parameter of the closest line point to p, distance), never raising.

    Distances from p to line points decompose as dist + |t - parameter|.
    """
    try:
        return line.coord_of(p), Fraction(0)
    except NotOnLineError:
        pass
    e = tree.edges[p.edge]
    gates = line.vertex_gates
    ga, da = gates[e.a]
    gb, db = gates[e.b]
    via_a = da + p.offset
    via_b = db + (e.length - p.offset)
    if via_a <= via_b:
        return ga, via_a
    return gb, via_b


def project_to_line(tree: MetricTree, p: TreePoint, line: Line) -> Projection:
    """Closest point of the line to p, with its parameter and the distance.

    Raises SegmentOverflow when the foot lands on a carrier endpoint that
    the tree continues past while the distance is positive: a longer
    segment might then move the foot, which callers that truncate
    bi-infinite lines need to know about.
    """
    param, dist = line_gate(tree, p, line)
    if dist > 0 and line.extendable_end(param):
        raise SegmentOverflow(
            f"projection foot at parameter {param} hits an extendable end of the line",
            param=param,
        )
    return Projection(line.point_at(param), param, dist)


class Overlap(NamedTuple):
    """Intersection of two lines, in the first line's parameters.

    The common segment covers parameters [lo1, hi1] on the first line and
    the matching parameter on the second line is sigma * t + shift.
    """

    lo1: Fraction
    hi1: Fraction
    sigma: int
    shift: Fraction


def line_intersection(l1: Line, l2: Line) -> Overlap | None:
    """The common segment of two lines in one tree, or None if disjoint."""
    shared = sorted(set(l1.edge_spans) & set(l2.edge_spans))
    if shared:
        sigma: int | None = None
        shift: Fraction | None = None
        lo = hi = None
        total = Fraction(0)
        for eid in shared:
            t1, v1 = l1.edge_spans[eid]
            t2, v2 = l2.edge_spans[eid]
            ln = l1.tree.edges[eid].length
            s = 1 if v1 == v2 else -1
            c = t2 - t1 if s == 1 else t2 + ln + t1
            if sigma is None:
                sigma, shift = s, c
            elif (sigma, shift) != (s, c):
                raise AssertionError("inconsistent overlap between tree geodesics")
            lo = t1 if lo is None else min(lo, t1)
            hi = t1 + ln if hi is None else max(hi, t1 + ln)
            total += ln
        assert lo is not None and hi is not None and sigma is not None and shift is not None
        if hi - lo != total:
            raise AssertionError("overlap of tree geodesics is not contiguous")
        return Overlap(lo, hi, sigma, shift)
    common = sorted(set(l1.vertex_params) & set(l2.vertex_params))
    if common:
        if len(common) > 1:
            raise AssertionError("two geodesics share vertices but no edge")
        v = common[0]
        t1 = l1.vertex_params[v]
        t2 = l2.vertex_params[v]
        return Overlap(t1, t1, 1, t2 - t1)
    return None


class Bridge(NamedTuple):
    p: TreePoint
    q: TreePoint
    param_p: Fraction
    param_q: Fraction
    gap: Fraction


def bridge_raw(tree: MetricTree, l1: Line, l2: Line) -> Bridge:
    """Closest pair between two lines, with no overflow guard.

    Intersecting lines share a segment (possibly a point); the midpoint of
    that segment is returned on both sides, which pins a single canonical
    witness.  Disjoint lines have a unique closest pair, found by gating:
    every point of one line reaches the other through the same gate, so
    the result is exact even when a foot sits on a truncated end.
    """
    inter = line_intersection(l1, l2)
    if inter is not None:
        m1 = (inter.lo1 + inter.hi1) / 2
        m2 = inter.sigma * m1 + inter.shift
        pt = l1.point_at(m1)
        return Bridge(pt, pt, m1, m2, Fraction(0))
    anchor = l2.point_at(l2.lo)
    p_param, _ = line_gate(tree, anchor, l1)
    p_foot = l1.point_at(p_param)
    q_param, gap = line_gate(tree, p_foot, l2)
    return Bridge(p_foot, l2.point_at(q_param), p_param, q_param, gap)


def bridge(tree: MetricTree, l1: Line, l2: Line) -> Bridge:
    """Closest pair between two lines; raises SegmentOverflow when a foot
    of a positive-gap bridge sits on an end the tree continues past, since
    extending the carrier could then move the bridge."""
    br = bridge_raw(tree, l1, l2)
    if br.gap > 0:
        for line, param in ((l1, br.param_p), (l2, br.param_q)):
            if line.extendable_end(param):
                raise SegmentOverflow(
                    f"bridge foot at parameter {param} hits an extendable end",
                    param=param,
                )
    return br
