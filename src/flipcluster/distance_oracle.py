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

The graph is built once per oracle, on integers.  Node (v, tree sample
i, height index j) has the id ``base[v] + i * H_v + j``, so rails and
rungs are index arithmetic; every weight is scaled to an int by the
common denominator of all graph weights.  The wall snaps are hoisted:
the samples around a transferred point depend on the height alone on one
side and on the tree sample alone on the other.  A query joins its two
ends to the samples around them, scales those weights and the graph's to
one common denominator, and runs Dijkstra on Python ints, reaching the
target through one reserved id past the grid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import inf, lcm
from typing import NamedTuple

from .cluster import Cluster, ClusterPoint, SupportRoute, piece_distance, support_route
from .errors import InstanceDefect, SizeCapError
from .metric_tree import Overlap, TreePoint, line_gate
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
    """Exact distance and a minimizing crossing profile."""
    return route_distance(c, support_route(c, x0, xn))


def route_distance(c: Cluster, route: SupportRoute) -> tuple[Fraction, CrossingProfile]:
    """Exact distance and a minimizing crossing profile between the ends
    of a support route, which are already resolved on it.

    The objective decomposes into two independent chains of convex PL
    couplings (horizontal legs couple h_{i-1} with s_i; vertical legs
    couple s_{i-1} with h_i), which the chain eliminator solves exactly.
    """
    verts, eids, x0, xn = route
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
        if isinstance(rel, Overlap):
            # r = A-parameter reached by the B-point: invert q = sigma*t + shift
            terms.append(TreePair(var_entry, var_exit, rel.sigma,
                                  -rel.sigma * rel.shift, rel.lo1, rel.hi1))
        else:
            terms.append(AbsAnchor(var_entry, rel.param_p))
            terms.append(AbsAnchor(var_exit, rel.param_q))
            if rel.gap:
                terms.append(Const(rel.gap))
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
    ever adds nodes.  Tree samples are numbered in edge order, the first
    time each point is met, and heights in increasing order.
    """

    def __init__(self, c: Cluster, v: int, eps: Fraction):
        piece = c.pieces[v]
        self.v = v
        self.tree = piece.tree
        self.edge_steps: dict[int, Fraction] = {}
        self.edge_samples: dict[int, list[int]] = {}   # sample numbers at step * k
        number: dict[TreePoint, int] = {}
        for eid, e in enumerate(piece.tree.edges):
            parts = 1
            while e.length / parts > eps:
                parts *= 2
            step = self.edge_steps[eid] = e.length / parts
            self.edge_samples[eid] = [
                number.setdefault(piece.tree.point(eid, step * k), len(number))
                for k in range(parts + 1)]
        self.points = list(number)
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
        return len(self.points) * len(self.heights)

    def tree_neighbors(self, p: TreePoint) -> list[tuple[int, Fraction]]:
        """Numbers of the samples next to a point on the same edge, with
        their distances to it."""
        step = self.edge_steps[p.edge]
        row = self.edge_samples[p.edge]
        lo = int(p.offset / step)
        return [(row[k], abs(step * k - p.offset))
                for k in (lo, lo + 1) if k < len(row)]

    def height_neighbors(self, h: Fraction) -> list[tuple[int, Fraction]]:
        """Indices of the sample heights next to h, with their distances."""
        hs = self.heights
        if h <= hs[0]:
            return [(0, hs[0] - h)]
        if h >= hs[-1]:
            return [(len(hs) - 1, h - hs[-1])]
        i = bisect_left(hs, h)
        if hs[i] == h:
            return [(i, Fraction(0))]
        return [(i - 1, h - hs[i - 1]), (i, hs[i] - h)]


class DiscretizedOracle:
    """Shortest paths on a sampled graph; reusable across query pairs.

    ``adj`` has one entry per grid node: node (v, tree sample i, height
    index j) is ``adj[base[v] + i * H_v + j]``, with H_v the number of
    sample heights of piece v.  Each entry lists (neighbor id, weight)
    pairs, weights as ints in units of ``1 / den``.
    """

    def __init__(self, c: Cluster, eps: Fraction, cap: int = DEFAULT_NODE_CAP):
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.cluster = c
        self.eps = eps
        self.grids = {v: _PieceGrid(c, v, eps) for v in c.tree.vertices}
        self.base: dict[int, int] = {}
        total = 0
        for v, grid in self.grids.items():
            self.base[v] = total
            total += grid.node_count()
        if total > cap:
            raise SizeCapError(
                f"discretization needs {total} nodes, over the cap of {cap}"
            )
        self.den, self.adj = self._build(total)

    def _build(self, total: int) -> tuple[int, list[list[tuple[int, int]]]]:
        """The common denominator of all weights, and the adjacency lists."""
        c = self.cluster
        grids, base = self.grids, self.base
        # wall snaps, hoisted: the tree samples across the wall depend only
        # on the height index j, the height samples only on the point i
        walls = []
        fractions: list[Fraction] = []
        for v, grid in grids.items():
            hs = grid.heights
            fractions.extend(grid.edge_steps.values())
            fractions.extend(h2 - h1 for h1, h2 in zip(hs, hs[1:]))
            for eid, w in c.tree.neighbors(v):
                line = c.marks[(v, eid)]
                twin = c.marks[(w, eid)]
                wgrid = grids[w]
                rows = [(i, wgrid.height_neighbors(line.coord_of(p)))
                        for i, p in enumerate(grid.points) if line.contains(p)]
                cols = [(j, wgrid.tree_neighbors(twin.point_at(hs[j])))
                        for j in range(bisect_left(hs, twin.lo),
                                       bisect_right(hs, twin.hi))]
                for _, nbrs in rows + cols:
                    fractions.extend(d for _, d in nbrs)
                walls.append((v, w, rows, cols))
        den = lcm(*(f.denominator for f in fractions))

        def scale(f: Fraction) -> int:
            return f.numerator * (den // f.denominator)

        adj: list[list[tuple[int, int]]] = [[]] * total   # every id set below
        for v, grid in grids.items():
            hs = grid.heights
            n_h = len(hs)
            # id steps and weights: vertical rails along one column of
            # heights, horizontal rungs from each tree sample
            rails: list[list[tuple[int, int]]] = [[] for _ in hs]
            for j, (h1, h2) in enumerate(zip(hs, hs[1:])):
                rise = scale(h2 - h1)
                rails[j].append((1, rise))
                rails[j + 1].append((-1, rise))
            rungs: list[list[tuple[int, int]]] = [[] for _ in grid.points]
            for eid, row in grid.edge_samples.items():
                step = scale(grid.edge_steps[eid])
                for i, k in zip(row, row[1:]):
                    rungs[i].append(((k - i) * n_h, step))
                    rungs[k].append(((i - k) * n_h, step))
            for i, moves in enumerate(rungs):
                for a, rail in enumerate(rails, base[v] + i * n_h):
                    adj[a] = [(a + d, weight) for d, weight in moves + rail]
        for v, w, rows, cols in walls:
            b, n_h = base[v], len(grids[v].heights)
            wb, wn_h = base[w], len(grids[w].heights)
            across = [(j, [(wb + k * wn_h, scale(dq)) for k, dq in nbrs])
                      for j, nbrs in cols]
            for i, nbrs in rows:
                ups = [(k, scale(dh)) for k, dh in nbrs]
                node = b + i * n_h
                for j, samples in across:
                    a = node + j
                    for start, dq in samples:
                        for k, dh in ups:
                            z, weight = start + k, dq + dh
                            adj[a].append((z, weight))
                            adj[z].append((a, weight))
        return den, adj

    def _ends(self, reps: dict[int, tuple[TreePoint, Fraction]]
              ) -> list[tuple[int, Fraction]]:
        """Grid nodes next to a point in each of its pieces (its supports),
        with distances."""
        out = []
        for v, (hor, hei) in reps.items():
            grid = self.grids[v]
            b, n_h = self.base[v], len(grid.heights)
            for i, dq in grid.tree_neighbors(hor):
                for j, dh in grid.height_neighbors(hei):
                    out.append((b + i * n_h + j, dq + dh))
        return out

    def distance(self, x0: ClusterPoint, xn: ClusterPoint) -> Fraction:
        sx, sy = self.cluster.supports(x0), self.cluster.supports(xn)
        vx, vy = min(sx), min(sy)
        if vx == vy and sx[vx] == sy[vy]:   # the same canonical point
            return Fraction(0)
        src, dst = self._ends(sx), self._ends(sy)
        den = lcm(self.den, *(w.denominator for _, w in src + dst))

        def scaled(ends) -> dict[int, int]:
            out: dict[int, int] = {}
            for node, w in ends:
                d = w.numerator * (den // w.denominator)
                if d < out.get(node, d + 1):
                    out[node] = d
            return out

        return Fraction(self._dijkstra(scaled(src), scaled(dst), den // self.den), den)

    def _dijkstra(self, src: dict[int, int], dst: dict[int, int], m: int) -> int:
        """Shortest src-to-dst length, in units of 1/(m * den).

        Graph weights count m each; the target is one reserved id past
        the grid, pushed from every settled node that dst attaches.
        """
        adj = self.adj
        goal = len(adj)
        dist = [inf] * goal
        for node, d in src.items():
            dist[node] = d
        heap = [(d, node) for node, d in src.items()]
        heapify(heap)
        while heap:
            d, node = heappop(heap)
            if node == goal:
                return d
            if d > dist[node]:
                continue
            last = dst.get(node)
            if last is not None:
                heappush(heap, (d + last, goal))
            for nxt, w in adj[node]:
                nd = d + w * m
                if nd < dist[nxt]:
                    dist[nxt] = nd
                    heappush(heap, (nd, nxt))
        raise AssertionError("endpoint unreachable in discretization graph")


def default_eps(c: Cluster) -> Fraction:
    """1/8 of the shortest edge over all pieces."""
    m = min(e.length for p in c.pieces.values() for e in p.tree.edges)
    return m / 8
