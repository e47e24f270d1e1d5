"""Finite metric trees with exact rational geometry.

Vertices are integers, edges carry positive rational lengths, and all
computations (distances, projections, bridges between line segments) are
exact.  Lengths, offsets, distances and line parameters enter and leave
as ``fractions.Fraction``.  Inside, each tree works at one integer scale,
the lcm of its edge-length denominators: edge lengths, rooted depths,
gate distances and the parameters of every line on the tree are ints at
that scale, and a result is converted to one Fraction on its way out.
A point's offset is checked against its edge's length, and a line
parameter against the line's range, by cross-multiplying ints.
A tree keeps its edges as columns indexed by edge id, filled in one pass
over the edge list: the ends, the Fraction lengths and the int lengths
at the scale.  The package reads only the columns; the public tuple of
:class:`TreeEdge` is a view built on its first read, so validating an
instance and querying it builds no per-edge object.
Points are addressed as (edge id, offset from the edge's first endpoint)
and canonicalized so that equal points compare equal: a point sitting on
a vertex is always represented on the lowest-id edge incident to that
vertex.

Routing in both kinds of tree (the metric trees here and the simplicial
tree indexing the pieces) goes through :class:`RootedTree`: one walk from
a root records each vertex's parent edge, hop depth and weighted depth,
and a query climbs from both ends to their meeting vertex, so it costs the
hop length of its path and no all-pairs table is ever built.  A metric
tree is rooted lazily, on its first routing query, since most pieces are
never routed; tree and graph constructors check connectivity with
:func:`connected`, a bare walk that records nothing.  Ids are plain
ints: a bool, float or string id is rejected rather than read as a
different vertex or edge.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidPointError, NotOnLineError, SegmentOverflow, excerpt
from .rational import as_fraction


_ZERO = Fraction(0)   # the offset of every point at its edge's end a


class TreeEdge(NamedTuple):
    a: int
    b: int
    length: Fraction


class TreePoint(NamedTuple):
    edge: int
    offset: Fraction


def int_id(x) -> int:
    """A vertex or edge id, which must be an int and not a bool."""
    if type(x) is not int:
        raise TypeError(f"ids must be integers, got {excerpt(x)}")
    return x


def connected(adj: Mapping[int, Iterable[tuple[int, int]]]) -> bool:
    """Whether a walk over the (edge id, neighbor) lists of ``adj`` from any
    one vertex reaches every vertex."""
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for _, w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


class RootedTree:
    """A tree hung from a root: parent edges, hop depths, weighted depths.

    ``adj`` maps each vertex to its (edge id, neighbor) pairs and
    ``lengths`` gives edge lengths by id, as ints (a metric tree passes
    its lengths at its scale); without it edges are unit and depths are
    hop counts.  Queries climb from both ends, the deeper end stepping
    first, so each costs the hop length of its path.
    """

    def __init__(self, adj: Mapping[int, Iterable[tuple[int, int]]], root: int,
                 lengths: Sequence[int] | None = None):
        self.up: dict[int, tuple[int, int]] = {}   # vertex -> (parent edge, parent)
        self.hops = {root: 0}
        self.depth = self.hops if lengths is None else {root: 0}
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


class MetricTree:
    """A finite connected acyclic graph with positive rational edge lengths.

    The edge list order is significant: the index of an edge in the list is
    its stable id, used by :class:`TreePoint` and by serialized instances.
    ``scale`` is the lcm of the edge-length denominators; the metric runs
    on each edge's length times the scale, an int.

    Edges are kept as columns indexed by edge id, all filled by the
    constructor's one pass over the edge list: ``_ends`` holds the (a, b)
    pairs, ``_lengths`` the Fraction lengths and ``_units`` the lengths at
    the tree's scale.  Code in this package reads only the columns;
    ``edges``, the tuple of :class:`TreeEdge`, is a view built the first
    time it is read and kept from then on.
    """

    def __init__(self, edges: Iterable[tuple[int, int, Fraction | int | str]]):
        ends: list[tuple[int, int]] = []
        lengths: list[Fraction] = []
        ratios: list[tuple[int, int]] = []   # each length's (numerator, denominator)
        # (edge id, neighbor) lists, sorted by edge id as they are filled
        adj: dict[int, list[tuple[int, int]]] = {}
        # the edges are consumed one at a time, so of two faulty edges the
        # first is reported
        for i, (a, b, length) in enumerate(edges):
            if type(length) is not Fraction:
                length = as_fraction(length)
            if a == b:
                raise ValueError(f"edge {i} is a self-loop at vertex {excerpt(a)}")
            ratio = length.as_integer_ratio()
            if ratio[0] <= 0:   # a Fraction has the sign of its numerator
                raise ValueError(f"edge {i} has non-positive length {excerpt(length)}")
            if type(a) is not int:
                int_id(a)
            if type(b) is not int:
                int_id(b)
            ends.append((a, b))
            lengths.append(length)
            ratios.append(ratio)
            adj.setdefault(a, []).append((i, b))
            adj.setdefault(b, []).append((i, a))
        if not ends:
            raise ValueError("a metric tree needs at least one edge")
        dens = {d for _, d in ratios}
        self.scale = scale = lcm(*dens)
        mult = {d: scale // d for d in dens}
        self._ends = ends
        self._lengths = lengths
        self._units = [n * mult[d] for n, d in ratios]
        self._adj = adj
        self.vertices: tuple[int, ...] = tuple(sorted(adj))
        if len(self.vertices) != len(ends) + 1:
            raise ValueError("edge set contains a cycle or a parallel edge")
        if not connected(adj):
            raise ValueError("edge set is not connected")

    @cached_property
    def edges(self) -> tuple[TreeEdge, ...]:
        """The edges as :class:`TreeEdge` tuples, indexed by edge id."""
        return tuple(TreeEdge(a, b, length) for (a, b), length in zip(self._ends, self._lengths))

    # -- structure ---------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """(edge id, opposite vertex) pairs, sorted by edge id."""
        return self._adj[v]

    def rooted_at(self, root: int) -> RootedTree:
        """The tree hung from root, its depths as ints at the tree's scale."""
        return RootedTree(self._adj, root, self._units)

    @cached_property
    def _rooted(self) -> RootedTree:
        return self.rooted_at(self.vertices[0])

    # -- points ------------------------------------------------------------

    def vertex_point(self, v: int) -> TreePoint:
        if v not in self._adj:
            raise InvalidPointError(f"vertex {excerpt(v)} not in tree")
        eid, _ = self._adj[v][0]
        return TreePoint(eid, _ZERO if self._ends[eid][0] == v else self._lengths[eid])

    def point(self, edge: int, offset: Fraction | int | str) -> TreePoint:
        offset = as_fraction(offset)
        if not 0 <= int_id(edge) < len(self._ends):
            raise InvalidPointError(f"edge id {excerpt(edge)} out of range")
        # offset n/d against the edge's units/scale, both over scale * d
        n, d = offset.numerator, offset.denominator
        ns, ld = n * self.scale, self._units[edge] * d
        if n < 0 or ns > ld:
            raise InvalidPointError(f"offset {excerpt(offset)} outside "
                                    f"[0, {excerpt(self._lengths[edge])}] on edge {excerpt(edge)}")
        if n == 0:
            return self.vertex_point(self._ends[edge][0])
        if ns == ld:
            return self.vertex_point(self._ends[edge][1])
        return TreePoint(edge, offset)

    def point_vertex(self, p: TreePoint) -> int | None:
        """The vertex a point sits on, or None for edge-interior points."""
        n = p.offset.numerator
        if n == 0:
            return self._ends[p.edge][0]
        if n * self.scale == self._units[p.edge] * p.offset.denominator:
            return self._ends[p.edge][1]
        return None

    # -- metric ------------------------------------------------------------

    def distance(self, p: TreePoint, q: TreePoint) -> Fraction:
        (n, dp), (m, dq) = p.offset.as_integer_ratio(), q.offset.as_integer_ratio()
        den = self.scale * dp * dq   # both offsets are ints over it
        span = self._span((p.edge, n * self.scale * dq), (q.edge, m * self.scale * dp), den)
        return Fraction(span, den)

    def _span(self, p: tuple[int, int], q: tuple[int, int], den: int) -> int:
        """The distance times den between two points given as (edge id,
        offset times den), den a multiple of the scale."""
        (ep, op), (eq, oq) = p, q
        if ep == eq:
            return abs(op - oq)
        rt, ends = self._rooted, self._ends
        hops, depth = rt.hops, rt.depth
        u = den // self.scale   # a depth times u is over den
        # Each point climbs from c, the end of its edge farther from the
        # root, and sits at weighted depth x / den.  The offset runs from
        # the edge's end a, so x is a's depth plus the offset when b is
        # deeper, and minus it when a is.
        a, b = ends[ep]
        if hops[b] > hops[a]:
            cp, xp = b, depth[a] * u + op
        else:
            cp, xp = a, depth[a] * u - op
        a, b = ends[eq]
        if hops[b] > hops[a]:
            cq, xq = b, depth[a] * u + oq
        else:
            cq, xq = a, depth[a] * u - oq
        m = rt.meet(cp, cq)
        if m == cp:   # q hangs below p's edge: the geodesic descends from p
            return xq - xp
        if m == cq:
            return xp - xq
        return xp + xq - 2 * depth[m] * u


class Line:
    """A finite unit-speed geodesic segment spanning whole tree edges.

    The carrier is an ordered edge-id path traversed fully from
    ``start_vertex``; parameters run over [lo, hi] where hi - lo equals the
    carrier length, parameter lo sits at the start vertex, and parameters
    grow along the traversal.

    Inside, a parameter is an int position: its distance from the start
    vertex times the tree's scale, which every line on the tree shares.
    ``lo``, ``hi`` and every parameter a method takes or returns are
    Fractions, converted once at that boundary.
    """

    def __init__(self, tree: MetricTree, edge_path: Iterable[int], start_vertex: int, lo: Fraction | int | str):
        self.tree = tree
        path = tuple(edge_path)
        for eid in path:
            if type(eid) is not int:
                int_id(eid)
        if not path:
            raise ValueError("line needs a non-empty edge path")
        edge_at = {eid: k for k, eid in enumerate(path)}
        if len(edge_at) != len(path):
            raise ValueError("line edge path repeats an edge")
        lo = as_fraction(lo)
        v = int_id(start_vertex)
        verts, cuts = [v], [0]   # each carrier vertex and its position
        ends, units = tree._ends, tree._units
        m, pos = len(ends), 0
        for eid in path:
            if not 0 <= eid < m:
                raise ValueError(f"line references missing edge {excerpt(eid)}")
            a, b = ends[eid]
            if v == a:
                v = b
            elif v == b:
                v = a
            else:
                raise ValueError(f"line edge path breaks at edge {eid}")
            verts.append(v)
            pos += units[eid]
            cuts.append(pos)
        self.edge_path = path
        self.start_vertex = start_vertex
        self.end_vertex = v
        self.lo = lo
        self._lo = (lo.numerator, lo.denominator)
        self._verts = verts
        self._cuts = cuts
        self._edge_at = edge_at
        self._vertex_at = {v: k for k, v in enumerate(verts)}
        self.hi = self._param(cuts[-1])

    def _param(self, pos: int, den: int = 1) -> Fraction:
        """The parameter at position pos / den."""
        a, b = self._lo
        sd = self.tree.scale * den
        return Fraction(a * sd + b * pos, b * sd)

    def vertex_param(self, v: int | None) -> Fraction | None:
        """The parameter of a carrier vertex; None off the carrier."""
        k = self._vertex_at.get(v)
        return None if k is None else self._param(self._cuts[k])

    def _range(self, den: int) -> tuple[int, int]:
        """(lo, hi) times den, a multiple of lo's denominator and the scale."""
        a, b = self._lo
        lo = a * (den // b)
        return lo, lo + self._cuts[-1] * (den // self.tree.scale)

    def _lift(self, t: Fraction) -> tuple[int, int] | None:
        """(x, bq) for parameter t, or None when t is outside [lo, hi]: b
        and q are the denominators of lo and t, and x is t's position times
        bq.  The support walk's wall test and _at_vertex share this check."""
        a, b = self._lo
        q = t.denominator
        bq = b * q
        x = (t.numerator * b - a * q) * self.tree.scale
        return (x, bq) if 0 <= x <= self._cuts[-1] * bq else None

    def _at_vertex(self, t: Fraction, v: int | None) -> bool:
        """Whether t is the parameter of carrier vertex v, on ints."""
        k = self._vertex_at.get(v)
        lifted = self._lift(t)
        return k is not None and lifted is not None and lifted[0] == self._cuts[k] * lifted[1]

    def point_at(self, t: Fraction | int | str) -> TreePoint:
        n, q = as_fraction(t).as_integer_ratio()
        tree, b = self.tree, self._lo[1]
        den = b * q * tree.scale   # t over den, b lo's denominator
        eid, offset = self._foot(n * b * tree.scale, den)
        # a vertex gets the offset vertex_point gives it, with no Fraction built
        if offset == 0:
            return TreePoint(eid, _ZERO)
        if offset == tree._units[eid] * b * q:
            return TreePoint(eid, tree._lengths[eid])
        return TreePoint(eid, Fraction(offset, den))

    def _foot(self, t: int, den: int) -> tuple[int, int]:
        """The point at parameter t / den, as (edge id, offset times den)
        and canonical on a vertex; den is a multiple of lo's denominator
        and the scale.  The parameter is checked against the line's range."""
        a, b = self._lo
        u = den // self.tree.scale   # a position times u is over den
        cuts = self._cuts
        x = t - a * (den // b)       # the position times u
        if not 0 <= x <= cuts[-1] * u:
            t = Fraction(t, den)
            raise SegmentOverflow(
                f"parameter {excerpt(t)} outside line range "
                f"[{excerpt(self.lo)}, {excerpt(self.hi)}]",
                param=t,
            )
        k = bisect_left(cuts, -(-x // u), 1) - 1   # first edge ending at or after t
        along = x - cuts[k] * u
        rest = cuts[k + 1] * u - x
        if along and rest:
            eid = self.edge_path[k]
            return eid, along if self._verts[k] == self.tree._ends[eid][0] else rest
        tree = self.tree   # on a vertex: its lowest-id edge, as vertex_point gives it
        v = self._verts[k] if along == 0 else self._verts[k + 1]
        eid, _ = tree._adj[v][0]
        return eid, 0 if tree._ends[eid][0] == v else tree._units[eid] * u

    def coord_of(self, p: TreePoint) -> Fraction:
        k = self._edge_at.get(p.edge)
        if k is not None:
            c, q = p.offset.numerator, p.offset.denominator
            cs = c * self.tree.scale
            if self._verts[k] == self.tree._ends[p.edge][0]:
                return self._param(self._cuts[k] * q + cs, q)
            return self._param(self._cuts[k + 1] * q - cs, q)
        t = self.vertex_param(self.tree.point_vertex(p))
        if t is None:
            raise NotOnLineError(f"point {p} not on line")
        return t

    @cached_property
    def vertex_gates(self) -> dict[int, tuple[int, int]]:
        """For every tree vertex: (position of its gate on the line, distance),
        both ints at the tree's scale.

        The gate of a point is the unique entry point of geodesics from it
        into the line, so distances to line points decompose as
        d(v, line(t)) = dist + |t - gate parameter|.
        """
        gates = {v: (c, 0) for v, c in zip(self._verts, self._cuts)}
        units = self.tree._units
        stack = list(gates)
        while stack:
            v = stack.pop()
            g, d = gates[v]
            for eid, w in self.tree.neighbors(v):
                if w not in gates:
                    gates[w] = (g, d + units[eid])
                    stack.append(w)
        return gates

    def _gate(self, p: tuple[int, int], den: int) -> tuple[int, int]:
        """(gate parameter, distance) times den for the point p given as
        (edge id, offset times den), den a multiple of lo's denominator and
        the scale: line_gate on ints, reading vertex_gates."""
        a, b = self._lo
        tree = self.tree
        u = den // tree.scale   # a position times u is over den
        lo = a * (den // b)
        eid, off = p
        k = self._edge_at.get(eid)
        if k is not None:
            if self._verts[k] == tree._ends[eid][0]:
                return lo + self._cuts[k] * u + off, 0
            return lo + self._cuts[k + 1] * u - off, 0
        # off the carrier's edges: through end a, or back along the edge through b
        ea, eb = tree._ends[eid]
        gates = self.vertex_gates
        ga, da = gates[ea]
        gb, db = gates[eb]
        via_a = da * u + off
        via_b = (db + tree._units[eid]) * u - off
        if via_a <= via_b:
            return lo + ga * u, via_a
        return lo + gb * u, via_b


def line_gate(tree: MetricTree, p: TreePoint, line: Line) -> tuple[Fraction, Fraction]:
    """(parameter of the closest line point to p, distance), never raising.

    Distances from p to line points decompose as dist + |t - parameter|.
    """
    n, q = p.offset.as_integer_ratio()
    den = tree.scale * line._lo[1] * q
    t, dist = line._gate((p.edge, n * (den // q)), den)
    return Fraction(t, den), Fraction(dist, den)


def project_to_line(tree: MetricTree, p: TreePoint, line: Line) -> TreePoint:
    """The closest point of the line to p: its foot at the gate parameter."""
    return line.point_at(line_gate(tree, p, line)[0])


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


def bridge(tree: MetricTree, l1: Line, l2: Line) -> Bridge:
    """Closest pair between two disjoint lines.

    Disjoint lines have a unique closest pair, found by gating: every
    point of one line reaches the other through the same gate.
    """
    anchor = l2.point_at(l2.lo)
    p_param, _ = line_gate(tree, anchor, l1)
    p_foot = l1.point_at(p_param)
    q_param, gap = line_gate(tree, p_foot, l2)
    return Bridge(p_foot, l2.point_at(q_param), p_param, q_param, gap)
