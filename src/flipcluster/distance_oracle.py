"""Exact global distances in a glued cluster, plus a discretized cross-check.

Correctness lemma (used by exact_distance)
------------------------------------------
Let x, y have disjoint support subtrees, let v_0..v_n be the unique
shortest T-path between the closest supports, and e_0..e_{n-1} its edges.
Claim: the glued-space distance d(x, y) equals the minimum over legal
crossing profiles (s_i on mark(v_i, e_i), h_i in the twin range) of

    sum of in-piece l1 legs:   entry_i -> (mark(v_i,e_i)(s_i), h_i)

with entry_0 = x, entry_{i+1} = the flip transfer of the i-th crossing,
and the final leg ending at y.

Sketch: (a) removing the wall of e_i disconnects the glued space with x
and y on opposite sides, because every other wall joins pieces on one
side of the T-edge; so every path meets each wall in order, at a legal
(s_i, h_i).  (b) Between consecutive wall hits a path may leave Q_{v_i}
through a side wall, but it must re-enter through the same side wall
(same separation argument), and the wall metric is the same on both
sides: the flip swaps the two l1 summands, so for two points on a wall
|ds| + |dh| on one side equals |dh'| + |ds'| on the other.  Replacing
each excursion by the in-piece segment between its endpoints therefore
never lengthens the path (up to the usual finite-crossing approximation
of rectifiable paths).  (c) The straightened path's length is at least
the objective at its own profile, hence at least the minimum.  (d) Any
legal profile assembles into an actual path of exactly the objective
value, since validation makes every legal crossing transferable.  Hence
minimum = distance, and the minimum is attained.

Each piece is isometrically embedded (the n = 0 case of the same
argument), so single-piece distances are plain piece distances.

The discretized oracle is an independent route: it samples every piece
on a power-of-two grid, connects grid neighbors at their exact l1
distances, snaps wall transfers to nearby grid nodes, and runs Dijkstra.
Every graph edge weighs at least the true distance between its
endpoints, so the discretized value never undershoots; snapping costs at
most 2*eps per wall plus 2*eps at the ends, so with n+1 pieces traversed

    exact <= discretized <= exact + 4 * eps * (n + 1).

The constant C = 4 is what the agreement criterion checks against.
"""

from __future__ import annotations

import bisect
import heapq
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .cluster import Cluster, ClusterPoint, piece_distance, support_route
from .errors import InstanceDefect, SizeCapError
from .metric_tree import TreePoint, line_gate
from .piecewise_linear import (
    AbsAnchor,
    Const,
    PairAbs,
    Term,
    TreePair,
    minimize_convex_pl,
)

DEFAULT_NODE_CAP = 200_000


class CrossingProfile(NamedTuple):
    """Wall crossings along a T-path: s[i] on mark(v_i, e_i), h[i] in the
    twin range of e_i, so every crossing transfers legally."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    s: tuple[Fraction, ...]
    h: tuple[Fraction, ...]


def crossing_objective(c: Cluster, profile: CrossingProfile,
                       x0: ClusterPoint, xn: ClusterPoint) -> Fraction:
    """Length of the crossing path pinned by the profile.

    Evaluated by walking the legs with plain piece geometry; shares no
    code with the term construction that exact_distance minimizes, so the
    two can check each other.
    """
    verts = profile.vertices
    n = len(verts) - 1
    if n == 0:
        return piece_distance(c, verts[0], x0, xn)
    rx = c.represent_at(x0, verts[0])
    cur_h, cur_t = rx.horizontal, rx.height
    total = Fraction(0)
    for i in range(n):
        v, e = verts[i], profile.edges[i]
        exit_line = c.marks[(v, e)]
        exit_pt = exit_line.point_at(profile.s[i])  # SegmentOverflow if illegal
        twin = c.marks[(verts[i + 1], e)]
        cross_h = twin.point_at(profile.h[i])
        total += c.pieces[v].tree.distance(cur_h, exit_pt) + abs(cur_t - profile.h[i])
        cur_h, cur_t = cross_h, profile.s[i]
    ry = c.represent_at(xn, verts[n])
    total += c.pieces[verts[n]].tree.distance(cur_h, ry.horizontal)
    total += abs(cur_t - ry.height)
    return total


def exact_distance(c: Cluster, x0: ClusterPoint, xn: ClusterPoint
                   ) -> tuple[Fraction, CrossingProfile]:
    """Exact distance and a minimizing crossing profile.

    The objective decomposes into two independent chains of convex PL
    couplings (horizontal legs couple h_{i-1} with s_i; vertical legs
    couple s_{i-1} with h_i), which the chain eliminator solves exactly.
    """
    verts, eids, x0, xn = support_route(c, x0, xn)   # ends now resolved on the route
    n = len(eids)
    if n == 0:
        return piece_distance(c, verts[0], x0, xn), CrossingProfile(verts, (), (), ())
    terms: list[Term] = []
    box: list[tuple[Fraction, Fraction]] = []
    for i in range(n):
        exit_line = c.marks[(verts[i], eids[i])]
        twin = c.marks[(verts[i + 1], eids[i])]
        box.append((exit_line.lo, exit_line.hi))  # var 2i: s_i
        box.append((twin.lo, twin.hi))            # var 2i+1: h_i
    if any(lo > hi for lo, hi in box):
        raise InstanceDefect("empty crossing range despite validation")

    g, d0 = line_gate(c.pieces[verts[0]].tree, x0.horizontal, c.marks[(verts[0], eids[0])])
    terms.append(AbsAnchor(0, g))
    if d0:
        terms.append(Const(d0))
    terms.append(AbsAnchor(1, x0.height))

    for i in range(1, n):
        v = verts[i]
        rel = c.mark_relation(v, eids[i - 1], eids[i])
        var_entry = 2 * (i - 1) + 1   # h_{i-1}, parameter on mark(v, e_{i-1})
        var_exit = 2 * i              # s_i, parameter on mark(v, e_i)
        if rel[0] == "overlap":
            ov = rel[1]
            # r = A-parameter reached by the B-point: invert q = sigma*t + shift
            terms.append(TreePair(var_entry, var_exit, ov.sigma,
                                  -ov.sigma * ov.shift, ov.lo1, ov.hi1))
        else:
            br = rel[1]
            terms.append(AbsAnchor(var_entry, br.param_p))
            terms.append(AbsAnchor(var_exit, br.param_q))
            if br.gap:
                terms.append(Const(br.gap))
        terms.append(PairAbs(2 * (i - 1), 2 * i + 1, 1, Fraction(0)))

    g, dn = line_gate(c.pieces[verts[n]].tree, xn.horizontal, c.marks[(verts[n], eids[n - 1])])
    terms.append(AbsAnchor(2 * n - 1, g))
    if dn:
        terms.append(Const(dn))
    terms.append(AbsAnchor(2 * (n - 1), xn.height))

    arg, value = minimize_convex_pl(terms, box)
    prof = CrossingProfile(verts, eids, arg[0::2], arg[1::2])
    check = crossing_objective(c, prof, x0, xn)
    if check != value:
        raise AssertionError(
            f"crossing objective {check} disagrees with minimized value {value}"
        )
    return value, prof


# -- discretized cross-oracle ----------------------------------------------------


class _PieceGrid:
    """Power-of-two sample grid of one piece.

    Tree samples subdivide each edge into the fewest power-of-two parts
    of length <= eps; height samples do the same between breakpoints
    (window ends and twin-range ends), so refining eps by halves only
    ever adds nodes.
    """

    def __init__(self, c: Cluster, v: int, eps: Fraction):
        piece = c.pieces[v]
        self.v = v
        self.tree = piece.tree
        self.edge_steps: dict[int, Fraction] = {}
        self.edge_parts: dict[int, int] = {}
        for eid, e in enumerate(piece.tree.edges):
            parts = 1
            while e.length / parts > eps:
                parts *= 2
            self.edge_steps[eid] = e.length / parts
            self.edge_parts[eid] = parts
        breaks = {piece.window[0], piece.window[1]}
        for eid, w in c.tree.neighbors(v):
            twin = c.marks[(w, eid)]
            breaks.add(twin.lo)
            breaks.add(twin.hi)
        bs = sorted(b for b in breaks if piece.window[0] <= b <= piece.window[1])
        heights: list[Fraction] = [bs[0]]
        for a, b in zip(bs, bs[1:]):
            if a == b:
                continue
            parts = 1
            while (b - a) / parts > eps:
                parts *= 2
            step = (b - a) / parts
            heights.extend(a + step * k for k in range(1, parts + 1))
        self.heights = heights

    def node_count(self) -> int:
        pts = sum(p - 1 for p in self.edge_parts.values()) + len(self.tree.vertices)
        return pts * len(self.heights)

    def tree_points(self):
        seen = set()
        for eid, parts in self.edge_parts.items():
            step = self.edge_steps[eid]
            for k in range(parts + 1):
                tp = self.tree.point(eid, step * k)
                if tp not in seen:
                    seen.add(tp)
                    yield tp

    def tree_neighbors(self, p: TreePoint) -> list[tuple[TreePoint, Fraction]]:
        """Grid samples adjacent to an arbitrary point on the same edge."""
        step = self.edge_steps[p.edge]
        k = p.offset / step
        lo = int(k)
        out = []
        for j in {lo, lo + 1}:
            off = step * j
            if 0 <= off <= self.tree.edges[p.edge].length:
                q = self.tree.point(p.edge, off)
                out.append((q, abs(off - p.offset)))
        return out

    def height_neighbors(self, h: Fraction) -> list[tuple[Fraction, Fraction]]:
        hs = self.heights
        if h <= hs[0]:
            return [(hs[0], hs[0] - h)]
        if h >= hs[-1]:
            return [(hs[-1], h - hs[-1])]
        i = bisect.bisect_left(hs, h)
        if hs[i] == h:
            return [(h, Fraction(0))]
        return [(hs[i - 1], h - hs[i - 1]), (hs[i], hs[i] - h)]


class DiscretizedOracle:
    """Shortest paths on a sampled graph; reusable across query pairs."""

    def __init__(self, c: Cluster, eps: Fraction, cap: int = DEFAULT_NODE_CAP):
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.cluster = c
        self.eps = eps
        self.grids = {v: _PieceGrid(c, v, eps) for v in c.tree.vertices}
        total = sum(g.node_count() for g in self.grids.values())
        if total > cap:
            raise SizeCapError(
                f"discretization needs {total} nodes, over the cap of {cap}"
            )
        self.adj: dict[tuple, list[tuple[tuple, Fraction]]] = {}
        self._build()
        self._den = 1
        for nbrs in self.adj.values():
            for _, w in nbrs:
                self._den = lcm(self._den, w.denominator)

    def _edge(self, a, b, w: Fraction):
        self.adj.setdefault(a, []).append((b, w))
        self.adj.setdefault(b, []).append((a, w))

    def _build(self):
        c = self.cluster
        for v, grid in self.grids.items():
            pts = list(grid.tree_points())
            # vertical rails
            for p in pts:
                for h1, h2 in zip(grid.heights, grid.heights[1:]):
                    self._edge((v, p, h1), (v, p, h2), h2 - h1)
            # horizontal rungs at every height
            for eid, parts in grid.edge_parts.items():
                step = grid.edge_steps[eid]
                for k in range(parts):
                    a = grid.tree.point(eid, step * k)
                    b = grid.tree.point(eid, step * (k + 1))
                    for h in grid.heights:
                        self._edge((v, a, h), (v, b, h), step)
            # wall snaps into each neighbor
            for eid, w in c.tree.neighbors(v):
                line = c.marks[(v, eid)]
                twin = c.marks[(w, eid)]
                wgrid = self.grids[w]
                for p in pts:
                    if not line.contains(p):
                        continue
                    t = line.coord_of(p)
                    for h in grid.heights:
                        if not twin.lo <= h <= twin.hi:
                            continue
                        other = ClusterPoint(w, twin.point_at(h), t)
                        for q, dq in wgrid.tree_neighbors(other.horizontal):
                            for hh, dh in wgrid.height_neighbors(other.height):
                                self._edge((v, p, h), (w, q, hh), dq + dh)

    def _attach(self, label: str, pt: ClusterPoint):
        c = self.cluster
        for v, (hor, hei) in c.supports(pt).items():
            grid = self.grids[v]
            for q, dq in grid.tree_neighbors(hor):
                for hh, dh in grid.height_neighbors(hei):
                    self._edge((label,), (v, q, hh), dq + dh)

    def distance(self, x0: ClusterPoint, xn: ClusterPoint) -> Fraction:
        if self.cluster.same_point(x0, xn):
            return Fraction(0)
        self._attach("src", x0)
        self._attach("dst", xn)
        den = self._den
        for label in (("src",), ("dst",)):
            for _, w in self.adj.get(label, ()):
                den = lcm(den, w.denominator)
        try:
            return self._dijkstra(("src",), ("dst",), den)
        finally:
            self._detach()

    def _detach(self):
        for label in (("src",), ("dst",)):
            for node, w in self.adj.pop(label, []):
                self.adj[node] = [(n, ww) for n, ww in self.adj[node]
                                 if n != label]

    def _dijkstra(self, src, dst, den: int) -> Fraction:
        # scale to integers: comparisons dominate, Fractions are slow in heaps
        dist = {src: 0}
        heap = [(0, 0, src)]
        tick = 1
        while heap:
            d, _, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            if node == dst:
                return Fraction(d, den)
            for nxt, w in self.adj[node]:
                nd = d + int(w * den)
                if nxt not in dist or nd < dist[nxt]:
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, tick, nxt))
                    tick += 1
        raise AssertionError("endpoint unreachable in discretization graph")


def discretized_distance(c: Cluster, x0: ClusterPoint, xn: ClusterPoint,
                         eps: Fraction, cap: int = DEFAULT_NODE_CAP) -> Fraction:
    return DiscretizedOracle(c, eps, cap).distance(x0, xn)


def default_eps(c: Cluster) -> Fraction:
    """1/8 of the shortest edge over all pieces."""
    m = min(e.length for p in c.pieces.values() for e in p.tree.edges)
    return m / 8
