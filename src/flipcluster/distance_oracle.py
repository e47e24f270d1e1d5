"""Exact global distances in a glued cluster, plus a discretized cross-check.

Correctness lemma (used by exact_distance)
------------------------------------------
Let x, y have disjoint support subtrees, let v_0..v_n be the bridge
between the support subtrees, and e_0..e_{n-1} its edges.
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

The objective is built on ints.  ``Cluster.unit`` clears the denominator
of every piece length, window end and mark parameter, so with m the lcm
of the denominators of the two ends' offsets and heights, every box end,
gate, overlap, bridge and gap of the objective is an int over
D = unit * m.  An inner piece's numbers are the ints at ``unit`` that
``Cluster.mark_relation``'s memo keeps beside each relation, shared with
``special_path.route_path``; mark ranges come from the lines' own ints.
``minimize_convex_pl`` eliminates on those ints, and the distance and
profile come back as Fractions over D.

The discretized oracle is an independent route: it samples every piece
on a power-of-two grid, connects grid neighbors at their exact l1
distances, snaps wall transfers to nearby grid nodes, and runs Dijkstra.
Every graph edge weighs at least the true distance between its
endpoints, so the discretized value never undershoots; snapping costs at
most 2*eps per wall plus 2*eps at the ends, so with n+1 pieces traversed

    exact <= discretized <= exact + 4 * eps * (n + 1).

The constant C = 4 is what the agreement criterion checks against.

The graph is built once per oracle, on integers over one denominator
``den``, fixed before any sample exists: the lcm of ``Cluster.unit``,
which covers every piece length, height breakpoint and line position,
and each edge step and height step.  The part counts come first, so the
node count is known, and an oversized grid refused, before any sample
list is made.  Every
sample offset, height and line parameter is then an int over den, and
den is the unit of every weight.  Node (v, tree sample i, height index
j) has the id ``base[v] + i * H_v + j``, so rails and rungs are index
arithmetic.  The wall snaps are hoisted: the samples around a
transferred point depend on the height alone on one side and on the
tree sample alone on the other, and both are found on ints from the
mark's carrier positions.  A query lifts its two ends to ints over
``den * m``, with m the lcm of their denominators, joins them to the
samples around them, and runs Dijkstra on Python ints, reaching the
target through one reserved id past the grid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from typing import NamedTuple

from .cluster import Cluster, ClusterPoint, SupportRoute, piece_distance, support_route
from .errors import InvalidPointError, RemeasureMismatch, SizeCapError
from .metric_tree import Line, Overlap, TreePoint, line_gate
from .piecewise_linear import Pair, minimize_convex_pl
from .rational import as_fraction

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
    """Length of the crossing path pinned by the profile, from x0
    represented at its first vertex to xn represented at its last.

    Evaluated by walking the legs with plain piece geometry; shares no
    code with the term construction that exact_distance minimizes, so the
    two can check each other.
    """
    verts = profile.vertices
    n = len(verts) - 1
    if (x0.vertex, xn.vertex) != (verts[0], verts[n]):
        raise InvalidPointError(
            f"ends represented at {x0.vertex} and {xn.vertex}, not {verts[0]} and {verts[n]}")
    if n == 0:
        return piece_distance(c, x0, xn)
    cur_h, cur_t = x0.horizontal, x0.height
    total = Fraction(0)
    for i in range(n):
        v, e = verts[i], profile.edges[i]
        exit_line = c.marks[(v, e)]
        exit_pt = exit_line.point_at(profile.s[i])  # SegmentOverflow if illegal
        twin = c.marks[(verts[i + 1], e)]
        cross_h = twin.point_at(profile.h[i])
        total += c.pieces[v].tree.distance(cur_h, exit_pt) + abs(cur_t - profile.h[i])
        cur_h, cur_t = cross_h, profile.s[i]
    total += c.pieces[verts[n]].tree.distance(cur_h, xn.horizontal)
    total += abs(cur_t - xn.height)
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
    It is built on ints at D = ``c.unit * m``, with m the lcm of the
    denominators of the two ends' offsets and heights: every box end,
    gate, overlap, bridge and gap is then an int over D, and only the end
    gates and heights are lifted from Fractions.  The minimum is
    re-measured on Fractions by crossing_objective, and a disagreement
    raises RemeasureMismatch.
    """
    verts, eids, x0, xn = route
    n = len(eids)
    if n == 0:
        return piece_distance(c, x0, xn), CrossingProfile(verts, (), (), ())
    m = lcm(*(f.denominator for p in (x0, xn) for f in (p.horizontal.offset, p.height)))
    d = c.unit * m
    box: list[tuple[int, int]] = []
    for i in range(n):
        box.append(c.marks[(verts[i], eids[i])]._range(d))       # var 2i: s_i
        box.append(c.marks[(verts[i + 1], eids[i])]._range(d))   # var 2i+1: h_i
    anchors: list[list[int]] = [[] for _ in box]
    pairs: list[Pair] = []

    g, d0 = line_gate(c.pieces[verts[0]].tree, x0.horizontal, c.marks[(verts[0], eids[0])])
    anchors[0].append(_lift(g, d))
    anchors[1].append(_lift(x0.height, d))
    const = _lift(d0, d)

    for i in range(1, n):
        rel, ints = c._relation(verts[i], eids[i - 1], eids[i])
        var_entry = 2 * (i - 1) + 1   # h_{i-1}, parameter on mark(v_i, e_{i-1})
        var_exit = 2 * i              # s_i, parameter on mark(v_i, e_i)
        if isinstance(rel, Overlap):
            (lo1, hi1, shift), sigma = ints, rel.sigma
            # r = A-parameter reached by the B-point: invert q = sigma*t + shift
            pairs.append((var_entry, var_exit, sigma, -sigma * shift * m, (lo1 * m, hi1 * m)))
        else:
            param_p, param_q, gap = ints
            anchors[var_entry].append(param_p * m)
            anchors[var_exit].append(param_q * m)
            const += gap * m
        pairs.append((2 * (i - 1), 2 * i + 1, 1, 0, None))

    g, dn = line_gate(c.pieces[verts[n]].tree, xn.horizontal, c.marks[(verts[n], eids[n - 1])])
    anchors[2 * n - 1].append(_lift(g, d))
    anchors[2 * (n - 1)].append(_lift(xn.height, d))
    const += _lift(dn, d)

    arg, value = minimize_convex_pl(anchors, box, pairs)
    value = Fraction(value + const, d)
    prof = CrossingProfile(verts, eids, tuple(Fraction(x, d) for x in arg[0::2]),
                           tuple(Fraction(x, d) for x in arg[1::2]))
    check = crossing_objective(c, prof, x0, xn)
    if check != value:
        raise RemeasureMismatch(
            f"crossing objective {check} disagrees with minimized value {value}"
        )
    return value, prof


# -- discretized cross-oracle ----------------------------------------------------


def _split(length: Fraction, eps: Fraction) -> tuple[int, Fraction]:
    """The fewest power-of-two parts of length <= eps, and their length."""
    r = length / eps
    parts = 1 << (-(-r.numerator // r.denominator) - 1).bit_length()
    return parts, length / parts


def _lift(f: Fraction, den: int) -> int:
    """f times den, an int when f's denominator divides den (as it does
    for every length, window end and mark parameter when den is a
    multiple of the cluster's unit)."""
    return f.numerator * (den // f.denominator)


class _PieceGrid:
    """Power-of-two sample grid of one piece, on ints over one denominator.

    Tree samples subdivide each edge into the fewest power-of-two parts
    of length <= eps; height samples do the same between breakpoints
    (window ends and twin-range ends), so refining eps by halves only
    ever adds nodes.  The constructor only counts parts, which fixes the
    node count and the denominators a sample can have; ``sample(den)``
    then places every sample as an int over ``den``, the oracle's one
    common denominator.  Edge e's samples sit at ``k * steps[e]`` from
    its end a and have numbers ``rows[e][k]``, given in edge order the
    first time each point is met; ``heights`` is a sorted int list.
    """

    def __init__(self, c: Cluster, v: int, eps: Fraction):
        piece = c.pieces[v]
        self.tree = piece.tree
        self.splits = [_split(length, eps) for length in self.tree._lengths]
        self.count = len(self.tree.vertices) + sum(parts - 1 for parts, _ in self.splits)
        lo, hi = piece.window
        breaks = {lo, hi}
        for eid, w in c.tree.neighbors(v):
            twin = c.marks[(w, eid)]
            breaks.add(twin.lo)
            breaks.add(twin.hi)
        bs = sorted(b for b in breaks if lo <= b <= hi)
        self.gaps = [(a, *_split(b - a, eps)) for a, b in zip(bs, bs[1:])]

    def node_count(self) -> int:
        return self.count * (1 + sum(parts for _, parts, _ in self.gaps))

    def denominators(self):
        """The denominators of this piece's edge and height steps; the
        cluster's unit covers every other sample offset, height and line
        position."""
        for _, step in self.splits:
            yield step.denominator
        for _, _, step in self.gaps:
            yield step.denominator

    def sample(self, den: int) -> None:
        """Place the samples, as ints over den."""
        self.den = den
        number: dict[int, int] = {}   # tree vertex -> sample number
        n = 0
        self.rows: list[list[int]] = []
        self.steps: list[int] = []
        for (a, b), (parts, step) in zip(self.tree._ends, self.splits):
            if a not in number:
                number[a] = n
                n += 1
            row = [number[a], *range(n, n + parts - 1)]
            n += parts - 1
            if b not in number:
                number[b] = n
                n += 1
            row.append(number[b])
            self.rows.append(row)
            self.steps.append(_lift(step, den))
        hs = [_lift(self.gaps[0][0], den)]
        for a, parts, step in self.gaps:
            a, step = _lift(a, den), _lift(step, den)
            hs.extend(range(a + step, a + step * parts + 1, step))
        self.heights = hs

    def tree_neighbors(self, eid: int, offset: int, m: int = 1) -> list[tuple[int, int]]:
        """Numbers of the samples of edge eid next to the point at offset
        / (den * m) from its end a, with their distances in that unit."""
        step = self.steps[eid] * m
        row = self.rows[eid]
        k = offset // step
        return [(row[i], abs(step * i - offset)) for i in (k, k + 1) if i < len(row)]

    def height_neighbors(self, h: int, m: int = 1) -> list[tuple[int, int]]:
        """Indices of the sample heights next to h / (den * m), with their
        distances in that unit."""
        hs = self.heights
        if h <= hs[0] * m:
            return [(0, hs[0] * m - h)]
        if h >= hs[-1] * m:
            return [(len(hs) - 1, h - hs[-1] * m)]
        i = bisect_left(hs, -(-h // m))
        if hs[i] * m == h:
            return [(i, 0)]
        return [(i - 1, h - hs[i - 1] * m), (i, hs[i] * m - h)]

    def line_samples(self, line: Line) -> dict[int, int]:
        """Each sample on a line of this piece, with its parameter times den."""
        unit = self.den // self.tree.scale
        t0 = _lift(line.lo, self.den)
        ends, verts, cuts = self.tree._ends, line._verts, line._cuts
        out: dict[int, int] = {}
        for k, eid in enumerate(line.edge_path):
            row, step = self.rows[eid], self.steps[eid]
            if verts[k] == ends[eid][0]:
                start = t0 + cuts[k] * unit
            else:
                start, step = t0 + cuts[k + 1] * unit, -step
            out.update(zip(row, range(start, start + step * len(row), step)))
        return out

    def line_neighbors(self, line: Line, params: list[int]) -> list[list[tuple[int, int]]]:
        """For each parameter of a line of this piece (times den), the
        samples next to its point, as tree_neighbors gives them.  A point
        on a vertex lies on the vertex's lowest-id edge."""
        unit = self.den // self.tree.scale
        t0 = _lift(line.lo, self.den)
        ends, verts = self.tree._ends, line._verts
        cuts = [cut * unit for cut in line._cuts]
        out = []
        for t in params:
            x = t - t0
            k = bisect_left(cuts, x, 1) - 1   # first carrier edge ending at or after x
            if x in (cuts[k], cuts[k + 1]):
                u = verts[k] if x == cuts[k] else verts[k + 1]
                eid, _ = self.tree.neighbors(u)[0]
                offset = 0 if ends[eid][0] == u else self.steps[eid] * (len(self.rows[eid]) - 1)
            else:
                eid = line.edge_path[k]
                offset = x - cuts[k] if verts[k] == ends[eid][0] else cuts[k + 1] - x
            out.append(self.tree_neighbors(eid, offset))
        return out


class DiscretizedOracle:
    """Shortest paths on a sampled graph; reusable across query pairs.

    ``adj`` has one entry per grid node: node (v, tree sample i, height
    index j) is ``adj[base[v] + i * H_v + j]``, with H_v the number of
    sample heights of piece v.  Each entry lists (neighbor id, weight)
    pairs, weights as ints in units of ``1 / den``.
    """

    def __init__(self, c: Cluster, eps: Fraction, cap: int = DEFAULT_NODE_CAP):
        eps = as_fraction(eps)
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
        self.den = lcm(c.unit, *(d for grid in self.grids.values() for d in grid.denominators()))
        for grid in self.grids.values():
            grid.sample(self.den)
        # no weight exceeds a piece's longest tree step plus its height span,
        # so every path in the grid is shorter than this, in units of 1 / den
        self.path_bound = total * max(max(g.steps) + g.heights[-1] - g.heights[0]
                                      for g in self.grids.values())
        self.adj = self._build(total)

    def _build(self, total: int) -> list[list[tuple[int, int]]]:
        """The adjacency lists."""
        c = self.cluster
        grids, base = self.grids, self.base
        adj: list[list[tuple[int, int]]] = [[]] * total   # every id set below
        for v, grid in grids.items():
            hs = grid.heights
            n_h = len(hs)
            # id steps and weights: vertical rails along one column of
            # heights, horizontal rungs from each tree sample
            rails: list[list[tuple[int, int]]] = [[] for _ in hs]
            for j, (h1, h2) in enumerate(zip(hs, hs[1:])):
                rails[j].append((1, h2 - h1))
                rails[j + 1].append((-1, h2 - h1))
            rungs: list[list[tuple[int, int]]] = [[] for _ in range(grid.count)]
            for row, step in zip(grid.rows, grid.steps):
                for i, k in zip(row, row[1:]):
                    rungs[i].append(((k - i) * n_h, step))
                    rungs[k].append(((i - k) * n_h, step))
            for i, moves in enumerate(rungs):
                for a, rail in enumerate(rails, base[v] + i * n_h):
                    adj[a] = [(a + d, weight) for d, weight in moves + rail]
        # wall snaps, hoisted: the tree samples across the wall depend only
        # on the height index j, the height samples only on the sample i
        for v, grid in grids.items():
            hs = grid.heights
            b, n_h = base[v], len(hs)
            for eid, w in c.tree.neighbors(v):
                twin, wgrid = c.marks[(w, eid)], grids[w]
                wb, wn_h = base[w], len(wgrid.heights)
                js = range(bisect_left(hs, _lift(twin.lo, self.den)),
                           bisect_right(hs, _lift(twin.hi, self.den)))
                across = [(j, [(wb + k * wn_h, dq) for k, dq in nbrs])
                          for j, nbrs in zip(js, wgrid.line_neighbors(twin, hs[js.start:js.stop]))]
                for i, t in grid.line_samples(c.marks[(v, eid)]).items():
                    ups = wgrid.height_neighbors(t)
                    node = b + i * n_h
                    for j, samples in across:
                        a = node + j
                        for start, dq in samples:
                            for k, dh in ups:
                                z, weight = start + k, dq + dh
                                adj[a].append((z, weight))
                                adj[z].append((a, weight))
        return adj

    def _ends(self, reps: dict[int, tuple[TreePoint, Fraction]], m: int) -> dict[int, int]:
        """Grid nodes next to a point in each of its pieces (its supports),
        with the least distance to each in units of 1 / (den * m)."""
        dm = self.den * m
        out: dict[int, int] = {}
        for v, (hor, hei) in reps.items():
            grid = self.grids[v]
            b, n_h = self.base[v], len(grid.heights)
            ups = grid.height_neighbors(_lift(hei, dm), m)
            for i, dq in grid.tree_neighbors(hor.edge, _lift(hor.offset, dm), m):
                for j, dh in ups:
                    node, d = b + i * n_h + j, dq + dh
                    if d < out.get(node, d + 1):
                        out[node] = d
        return out

    def distance(self, x0: ClusterPoint, xn: ClusterPoint) -> Fraction:
        sx, sy = self.cluster.supports(x0), self.cluster.supports(xn)
        vx, vy = min(sx), min(sy)
        if vx == vy and sx[vx] == sy[vy]:   # the same canonical point
            return Fraction(0)
        # one multiplier lifts every end offset and height to an int over den * m
        m = lcm(*(f.denominator for reps in (sx, sy)
                  for hor, hei in reps.values() for f in (hor.offset, hei)))
        return Fraction(self._dijkstra(self._ends(sx, m), self._ends(sy, m), m), self.den * m)

    def _dijkstra(self, src: dict[int, int], dst: dict[int, int], m: int) -> int:
        """Shortest src-to-dst length, in units of 1/(m * den).

        Graph weights count m each; the target is one reserved id past
        the grid, pushed from every settled node that dst attaches.  A node
        not reached yet holds the longest attachment plus the grid's path
        bound, which no path reaches.
        """
        adj = self.adj
        goal = len(adj)
        dist = [max(src.values()) + self.path_bound * m] * goal
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
    m = min(length for p in c.pieces.values() for length in p.tree._lengths)
    return m / 8
