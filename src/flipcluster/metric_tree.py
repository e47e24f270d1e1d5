"""Finite metric trees with exact rational geometry.

Vertices are integers, edges carry positive rational lengths, and all
computations (distances, geodesics, projections, bridges between line
segments) are exact.  Lengths, offsets and line parameters enter and
leave as ``fractions.Fraction``; inside, a line holds its parameters as
ints at one scale per line (see :class:`Line`).  Points are addressed as
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
from math import lcm
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
        # (edge id, neighbor) lists, sorted by edge id as they are filled
        adj: dict[int, list[tuple[int, int]]] = {}
        for i, (a, b, length) in enumerate(edges):
            length = as_fraction(length)
            if a == b:
                raise ValueError(f"edge {i} is a self-loop at vertex {a}")
            if length.numerator <= 0:   # a Fraction has the sign of its numerator
                raise ValueError(f"edge {i} has non-positive length {length}")
            a, b = int_id(a), int_id(b)
            parsed.append(TreeEdge(a, b, length))
            adj.setdefault(a, []).append((i, b))
            adj.setdefault(b, []).append((i, a))
        if not parsed:
            raise ValueError("a metric tree needs at least one edge")
        self.edges: tuple[TreeEdge, ...] = tuple(parsed)
        self._adj = adj
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

    def neighbors(self, v: int) -> list[tuple[int, int]]:
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

    Inside, a parameter is an int position: its distance from the start
    vertex times the carrier's scale, the lcm of the denominators of its
    edge lengths.  ``lo``, ``hi`` and every parameter a method takes or
    returns are Fractions, converted once at that boundary.
    """

    def __init__(self, tree: MetricTree, edge_path: Iterable[int], start_vertex: int, lo: Fraction | int | str):
        self.tree = tree
        path = tuple(int_id(e) for e in edge_path)
        if not path:
            raise ValueError("line needs a non-empty edge path")
        if len(set(path)) != len(path):
            raise ValueError("line edge path repeats an edge")
        lo = as_fraction(lo)
        v = int_id(start_vertex)
        verts, lengths = [v], []   # the vertices along the carrier, the edge lengths
        for eid in path:
            if not 0 <= eid < len(tree.edges):
                raise ValueError(f"line references missing edge {eid}")
            e = tree.edges[eid]
            if v == e.a:
                v = e.b
            elif v == e.b:
                v = e.a
            else:
                raise ValueError(f"line edge path breaks at edge {eid}")
            verts.append(v)
            lengths.append(e.length)
        scale = lcm(*(ln.denominator for ln in lengths))
        cuts = [0]   # position of each carrier vertex
        for ln in lengths:
            cuts.append(cuts[-1] + ln.numerator * (scale // ln.denominator))
        self.edge_path = path
        self.start_vertex = start_vertex
        self.end_vertex = v
        self.lo = lo
        self._lo = (lo.numerator, lo.denominator)
        self._scale = scale
        self._verts = verts
        self._cuts = cuts
        self._edge_at = {eid: k for k, eid in enumerate(path)}
        self._vertex_at = {v: k for k, v in enumerate(verts)}
        self.hi = self._param(cuts[-1])

    def _param(self, pos: int, den: int = 1) -> Fraction:
        """The parameter at position pos / den."""
        a, b = self._lo
        sd = self._scale * den
        return Fraction(a * sd + b * pos, b * sd)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def vertex_params(self) -> dict[int, Fraction]:
        """Each carrier vertex with its parameter, in carrier order."""
        return {v: self._param(c) for v, c in zip(self._verts, self._cuts)}

    def vertex_param(self, v: int | None) -> Fraction | None:
        """The parameter of a carrier vertex; None off the carrier."""
        k = self._vertex_at.get(v)
        return None if k is None else self._param(self._cuts[k])

    def point_at(self, t: Fraction | int | str) -> TreePoint:
        t = as_fraction(t)
        a, b = self._lo
        bq = b * t.denominator
        x = (t.numerator * b - a * t.denominator) * self._scale   # position times bq
        cuts = self._cuts
        if x < 0 or x > cuts[-1] * bq:
            raise SegmentOverflow(
                f"parameter {t} outside line range [{self.lo}, {self.hi}]",
                param=t,
            )
        k = bisect_left(cuts, -(-x // bq), 1) - 1   # first edge ending at or after t
        along = x - cuts[k] * bq
        if along == 0:
            return self.tree.vertex_point(self._verts[k])
        rest = cuts[k + 1] * bq - x
        if rest == 0:
            return self.tree.vertex_point(self._verts[k + 1])
        eid = self.edge_path[k]
        forward = self._verts[k] == self.tree.edges[eid].a
        return TreePoint(eid, Fraction(along if forward else rest, bq * self._scale))

    def coord_of(self, p: TreePoint) -> Fraction:
        k = self._edge_at.get(p.edge)
        if k is not None:
            c, q = p.offset.numerator, p.offset.denominator
            if self._verts[k] == self.tree.edges[p.edge].a:
                return self._param(self._cuts[k] * q + c * self._scale, q)
            return self._param(self._cuts[k + 1] * q - c * self._scale, q)
        t = self.vertex_param(self.tree.point_vertex(p))
        if t is None:
            raise NotOnLineError(f"point {p} not on line")
        return t

    def contains(self, p: TreePoint) -> bool:
        return p.edge in self._edge_at or self.tree.point_vertex(p) in self._vertex_at

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
    shared = l1._edge_at.keys() & l2._edge_at.keys()
    if shared:
        # the shared edges must be consecutive on l1, and on l2 in the
        # same or the reverse order, as positions along each carrier
        first = min(map(l1._edge_at.__getitem__, shared))
        run = l1.edge_path[first:first + len(shared)]
        if not shared.issuperset(run):
            raise AssertionError("overlap of tree geodesics is not contiguous")
        j = l2._edge_at[run[0]]
        sigma = 1 if l1._verts[first] == l2._verts[j] else -1
        if any(l2._edge_at[eid] != j + sigma * k for k, eid in enumerate(run)):
            raise AssertionError("inconsistent overlap between tree geodesics")
        lo1 = l1._param(l1._cuts[first])
        hi1 = l1._param(l1._cuts[first + len(run)])
        at_lo1 = l2._param(l2._cuts[j if sigma == 1 else j + 1])   # l2's parameter there
        return Overlap(lo1, hi1, sigma, at_lo1 - sigma * lo1)
    common = l1._vertex_at.keys() & l2._vertex_at.keys()
    if common:
        if len(common) > 1:
            raise AssertionError("two geodesics share vertices but no edge")
        (v,) = common
        t1 = l1.vertex_param(v)
        return Overlap(t1, t1, 1, l2.vertex_param(v) - t1)
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
