"""Deterministic random instances: clusters, isometric pairs, graphs.

Every operation draws from one random.Random seeded explicitly, so a
seed pins the full output byte for byte.  Mark carriers are diameter
paths of their piece trees; a diameter ends at two leaves, so every
generated carrier runs leaf to leaf, as cluster validation requires of
all marks.  A window is the hull of the incoming mark ranges, widened
about its midpoint by the slack factor.  Slack >= 2 leaves a margin of
at least half the hull's width on each side, so the window floor lies
strictly below every twin range: a point at the floor has one support,
which the remark_nice suite's floor points rely on.  The mutations widen
whatever windows they need on their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cluster import Cluster, ClusterPoint, Piece, SimplicialTree, to_spec
from .errors import excerpt
from .metric_tree import Line, MetricTree, RootedTree
from .rational import format_rational


@dataclass(frozen=True)
class GeneratorParams:
    seed: int
    tree_size: tuple[int, int] = (2, 8)          # vertices of T
    piece_edges: tuple[int, int] = (1, 40)       # edges per piece tree
    edge_length: tuple[Fraction, Fraction] = (Fraction(1), Fraction(4))
    max_denominator: int = 8                     # powers of two only
    slack: Fraction = Fraction(2)
    tree_shape: str = "random"                   # or "path"

    def __post_init__(self):
        ints = (*self.tree_size, *self.piece_edges, self.max_denominator)
        if any(type(x) is not int for x in ints):
            raise ValueError(f"size bounds and max denominator must be ints, got {excerpt(ints)}")
        exact = (*self.edge_length, self.slack)
        if any(type(x) not in (int, Fraction) for x in exact):
            raise ValueError(
                f"edge lengths and slack must be ints or Fractions, got {excerpt(exact)}")
        lo, hi = self.tree_size
        if not 1 <= lo <= hi:
            raise ValueError("tree size range is empty")
        plo, phi = self.piece_edges
        if not 1 <= plo <= phi:
            raise ValueError("piece size range is empty")
        llo, lhi = self.edge_length
        if not 0 < llo or lhi - llo < 1:
            raise ValueError("edge length range must be positive with width >= 1")
        if self.max_denominator < 1 or \
                self.max_denominator & (self.max_denominator - 1):
            raise ValueError("max denominator must be a power of two")
        if self.slack < 2:
            raise ValueError("slack factor below 2 loses the window margin below the twin ranges")
        if self.tree_shape not in ("random", "path"):
            raise ValueError(f"unknown tree shape {excerpt(self.tree_shape)}")


def _denominators(cap: int) -> list[int]:
    out = [1]
    while out[-1] < cap:
        out.append(out[-1] * 2)
    return out


def _rational_in(rng: random.Random, lo: Fraction, hi: Fraction,
                 dens: list[int]) -> Fraction:
    q = rng.choice(dens)
    lo_n = -(-lo.numerator * q // lo.denominator)   # ceil(lo * q)
    hi_n = hi.numerator * q // hi.denominator       # floor(hi * q)
    return Fraction(rng.randint(lo_n, hi_n), q)


def _random_metric_tree(rng: random.Random, params: GeneratorParams) -> MetricTree:
    dens = _denominators(params.max_denominator)
    m = rng.randint(*params.piece_edges)
    edges = []
    for v in range(1, m + 1):
        parent = rng.randrange(v)
        edges.append((parent, v,
                      _rational_in(rng, *params.edge_length, dens)))
    return MetricTree(edges)


def _diameter(tree: MetricTree) -> tuple[list[int], int, Fraction]:
    """Edge ids of a longest path, its start vertex and its length.

    Two farthest-vertex walks, ties to the lowest id; the path starts at
    its lower-id end.
    """
    def farthest(rt: RootedTree) -> int:
        return max(rt.depth, key=lambda v: (rt.depth[v], -v))

    a = farthest(tree.rooted_at(tree.vertices[0]))
    rt = tree.rooted_at(a)
    b = farthest(rt)
    return rt.path(min(a, b), max(a, b))[1], min(a, b), Fraction(rt.depth[b], tree.scale)


def generate_cluster(params: GeneratorParams) -> Cluster:
    rng = random.Random(params.seed)
    n = rng.randint(*params.tree_size)
    if params.tree_shape == "path":
        tedges = [(v - 1, v) for v in range(1, n)]
    else:
        tedges = [(rng.randrange(v), v) for v in range(1, n)]
    tree = SimplicialTree(range(n), tedges)
    ztrees = {v: _random_metric_tree(rng, params) for v in range(n)}
    dens = _denominators(params.max_denominator)
    diameters = {v: _diameter(ztrees[v]) for v in range(n)}
    marks: dict[tuple[int, int], Line] = {}
    for v in range(n):
        eids, start, _ = diameters[v]
        for eid, _ in tree.neighbors(v):
            base = _rational_in(rng, Fraction(-4), Fraction(4), dens)
            marks[(v, eid)] = Line(ztrees[v], eids, start, base)
    pieces = {}
    for v in range(n):
        spans = [marks[(w, eid)] for eid, w in tree.neighbors(v)]
        if spans:
            hull_lo = min(line.lo for line in spans)
            hull_hi = max(line.hi for line in spans)
        else:
            hull_lo, hull_hi = Fraction(0), diameters[v][2]
        mid = (hull_lo + hull_hi) / 2
        half = (hull_hi - hull_lo) / 2 * params.slack
        pieces[v] = Piece(ztrees[v], (mid - half, mid + half))
    return Cluster(tree, pieces, marks)


def generate(params: GeneratorParams) -> dict:
    """JSON wire form of a generated instance."""
    return to_spec(generate_cluster(params))


def sample_points(c: Cluster, rng: random.Random, count: int,
                  denominator: int = 8) -> list[ClusterPoint]:
    pts = []
    verts = list(c.tree.vertices)
    for _ in range(count):
        v = rng.choice(verts)
        tree = c.pieces[v].tree
        eid = rng.randrange(len(tree._ends))
        off = tree._lengths[eid] * Fraction(rng.randint(0, denominator), denominator)
        lo, hi = c.pieces[v].window
        h = lo + (hi - lo) * Fraction(rng.randint(0, denominator), denominator)
        pts.append(c.point(v, eid, off, h))
    return pts


# -- isometric and mutated pairs ---------------------------------------------------


def _relabeled(c: Cluster, rng: random.Random,
               shifts: dict[int, Fraction]) -> Cluster:
    """Isometric copy: permuted labels everywhere, heights translated."""
    tverts = list(c.tree.vertices)
    perm_v = dict(zip(tverts, rng.sample(tverts, len(tverts))))
    eorder = list(range(len(c.tree.edges)))
    rng.shuffle(eorder)
    emap = {old: new for new, old in enumerate(eorder)}
    tree2 = SimplicialTree(
        sorted(perm_v.values()),
        [tuple(perm_v[x] for x in c.tree.edges[old]) for old in eorder])

    zperm: dict[int, dict[int, int]] = {}
    zemap: dict[int, dict[int, int]] = {}
    ztrees2: dict[int, MetricTree] = {}
    for v in tverts:
        ztree = c.pieces[v].tree
        zverts = list(ztree.vertices)
        pv = dict(zip(zverts, rng.sample(zverts, len(zverts))))
        order = list(range(len(ztree._ends)))
        rng.shuffle(order)
        zperm[v] = pv
        zemap[v] = {old: new for new, old in enumerate(order)}
        ends, lengths = ztree._ends, ztree._lengths
        ztrees2[v] = MetricTree(
            [(pv[ends[old][0]], pv[ends[old][1]], lengths[old]) for old in order])

    pieces2 = {}
    for v in tverts:
        lo, hi = c.pieces[v].window
        pieces2[perm_v[v]] = Piece(
            ztrees2[v], (lo + shifts[v], hi + shifts[v]))
    marks2 = {}
    for (v, eid), line in c.marks.items():
        w = c.tree.other_end(eid, v)
        marks2[(perm_v[v], emap[eid])] = Line(
            ztrees2[v],
            [zemap[v][e] for e in line.edge_path],
            zperm[v][line.start_vertex],
            line.lo + shifts[w])
    return Cluster(tree2, pieces2, marks2)


def planted_pair(params: GeneratorParams) -> tuple[Cluster, Cluster]:
    """A cluster and an isometric copy under relabeling plus height shifts."""
    rng = random.Random(params.seed)
    ca = generate_cluster(params)
    dens = _denominators(params.max_denominator)
    shifts = {v: _rational_in(rng, Fraction(-3), Fraction(3), dens)
              for v in ca.tree.vertices}
    return ca, _relabeled(ca, rng, shifts)


def shrink_edge(c: Cluster, v: int, k: int) -> Cluster:
    """Copy with edge k of piece v shortened; ranges shrink with their
    carriers, so the result always validates."""
    ztree = c.pieces[v].tree
    edges = [(a, b, length) for (a, b), length in zip(ztree._ends, ztree._lengths)]
    a, b, length = edges[k]
    edges[k] = (a, b, length - min(Fraction(1), length / 2))
    ztree2 = MetricTree(edges)
    pieces = dict(c.pieces)
    pieces[v] = Piece(ztree2, c.pieces[v].window)
    marks = {}
    for (u, eid), line in c.marks.items():
        marks[(u, eid)] = Line(ztree2, line.edge_path, line.start_vertex,
                               line.lo) if u == v else line
    return Cluster(c.tree, pieces, marks)


def widen_window(c: Cluster, v: int) -> Cluster:
    pieces = dict(c.pieces)
    lo, hi = pieces[v].window
    pieces[v] = Piece(pieces[v].tree, (lo - 1, hi + 1))
    return Cluster(c.tree, pieces, dict(c.marks))


def slide_mark(c: Cluster, v: int, eid: int) -> Cluster:
    """Copy with one mark's parameter base moved down; the window that
    reads those parameters widens so the slid range stays inside."""
    marks = dict(c.marks)
    line = marks[(v, eid)]
    marks[(v, eid)] = Line(line.tree, line.edge_path, line.start_vertex,
                           line.lo - 1)
    w = c.tree.other_end(eid, v)
    pieces = dict(c.pieces)
    lo, hi = pieces[w].window
    pieces[w] = Piece(pieces[w].tree, (lo - 2, hi + 2))
    return Cluster(c.tree, pieces, marks)


def mutated_pair(params: GeneratorParams) -> tuple[Cluster, Cluster]:
    """A planted pair with one structural defect pushed into the copy.

    Every mutation keeps the validation constraints satisfied, so the
    result is a legal instance that is almost always no longer isometric
    to the original (the referee search decides, not this function).
    """
    ca, cb = planted_pair(params)
    rng = random.Random(params.seed ^ 0x5EED)
    kind = rng.choice(("shrink-edge", "widen-window", "slide-mark"))
    v = rng.choice(list(cb.tree.vertices))
    if kind == "slide-mark" and not any(key[0] == v for key in cb.marks):
        kind = "widen-window"   # a lone piece has no marks to slide
    if kind == "shrink-edge":
        k = rng.randrange(len(cb.pieces[v].tree._ends))
        return ca, shrink_edge(cb, v, k)
    if kind == "widen-window":
        return ca, widen_window(cb, v)
    keys = sorted(key for key in cb.marks if key[0] == v)
    u, eid = rng.choice(keys)
    return ca, slide_mark(cb, u, eid)


# -- graphs for the block decomposition suite --------------------------------------


def random_graph_spec(rng: random.Random, max_vertices: int) -> dict:
    """Connected weighted multigraph in the wire form of tree_graded,
    its edge lengths in [1, 4] over denominators up to 4."""
    dens = _denominators(4)
    n = rng.randint(2, max_vertices)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    for _ in range(rng.randint(0, n // 2)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    spec_edges = []
    for a, b in edges:
        length = _rational_in(rng, Fraction(1), Fraction(4), dens)
        spec_edges.append([a, b, format_rational(length)])
    return {"vertices": list(range(n)), "edges": spec_edges}
