"""Cut vertices, blocks, and piece-cover axioms for finite metric graphs.

Over weighted graphs (parallel edges allowed, loops not): cut_points by
direct removal, blocks by the edge-stack DFS, and a two-axiom check for
candidate piece covers.  Both connectivity checks, the constructor's
and cut_points', walk with metric_tree's connected.  The axioms are the
finite analogs of tree-graded pieces: distinct pieces meet in at most
one vertex, and every simple cycle stays inside a single piece.  Note the
second axiom really quantifies over cycles, not blocks: a theta graph
covered by its three cycles passes it while no piece contains the whole
block.

Clusters are deliberately not run through this module; their pieces glue
along walls, not points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .metric_tree import connected
from .rational import as_fraction, parse_rational


class GraphEdge(NamedTuple):
    a: int
    b: int
    length: Fraction


class FiniteGraph:
    """Connected weighted multigraph without self-loops."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices) or not self.vertices:
            raise ValueError("vertices must be distinct and nonempty")
        vset = set(self.vertices)
        parsed = []
        for a, b, length in edges:
            length = as_fraction(length)
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a}, {b}) uses unknown vertices")
            if length <= 0:
                raise ValueError(f"edge ({a}, {b}) has non-positive length")
            parsed.append(GraphEdge(a, b, length))
        self.edges = tuple(parsed)
        self._adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for eid, e in enumerate(self.edges):
            self._adj[e.a].append((eid, e.b))
            self._adj[e.b].append((eid, e.a))
        for v in self._adj:
            self._adj[v].sort()
        if not connected(self._adj):
            raise ValueError("graph is not connected")

    def adjacency(self, v: int) -> list[tuple[int, int]]:
        return self._adj[v]


def cut_points(g: FiniteGraph) -> tuple[int, ...]:
    """Vertices whose removal disconnects the graph, by trying each one."""
    out = []
    for v in g.vertices:
        rest = {w: [(eid, x) for eid, x in g.adjacency(w) if x != v]
                for w in g.vertices if w != v}
        if len(rest) > 1 and not connected(rest):
            out.append(v)
    return tuple(sorted(out))


class BlockDecomposition(NamedTuple):
    """Blocks as sorted vertex tuples; the block-cut tree links block
    indices to the cut vertices they contain."""

    cut_vertices: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    block_cut_tree: tuple[tuple[int, int], ...]


def blocks(g: FiniteGraph) -> BlockDecomposition:
    """Biconnected components via the iterative edge-stack DFS.

    Each bridge is its own block; parallel edges fuse into one.  The cut
    vertices found here are checked against cut_points in the tests, the
    two being independent computations.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    comps: list[list[int]] = []
    cuts: set[int] = set()
    root = min(g.vertices)
    timer = 0
    disc[root] = low[root] = timer
    timer += 1
    estack: list[int] = []
    frames: list[list] = [[root, -1, iter(g.adjacency(root))]]
    root_children = 0
    while frames:
        v, peid, it = frames[-1]
        descended = False
        for eid, w in it:
            if eid == peid:
                continue
            if w not in disc:
                estack.append(eid)
                disc[w] = low[w] = timer
                timer += 1
                frames.append([w, eid, iter(g.adjacency(w))])
                if v == root:
                    root_children += 1
                descended = True
                break
            if disc[w] < disc[v]:
                estack.append(eid)
                low[v] = min(low[v], disc[w])
        if descended:
            continue
        frames.pop()
        if not frames:
            break
        u = frames[-1][0]
        low[u] = min(low[u], low[v])
        if low[v] >= disc[u]:
            comp = []
            while estack:
                e = estack.pop()
                comp.append(e)
                if e == peid:
                    break
            comps.append(comp)
            if u != root:
                cuts.add(u)
    if root_children >= 2:
        cuts.add(root)

    vsets = []
    for comp in comps:
        vs = set()
        for eid in comp:
            vs.add(g.edges[eid].a)
            vs.add(g.edges[eid].b)
        vsets.append(tuple(sorted(vs)))
    vsets.sort()
    bct = []
    for i, vs in enumerate(vsets):
        for v in vs:
            if v in cuts:
                bct.append((i, v))
    return BlockDecomposition(tuple(sorted(cuts)), tuple(vsets), tuple(sorted(bct)))


def simple_cycles(g: FiniteGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All simple cycles as (sorted vertices, sorted edge ids).

    Pivots on each edge in turn and walks vertex-disjoint paths between
    its endpoints; an edge-id set identifies each cycle once.
    """
    seen: set[frozenset] = set()
    out = []
    for eid, e in enumerate(g.edges):
        work = [(e.b, (e.b,), frozenset([e.b]), ())]
        while work:
            node, vpath, vset, epath = work.pop()
            for eid2, w in reversed(g.adjacency(node)):
                if eid2 == eid or eid2 in epath:
                    continue
                if w == e.a:
                    key = frozenset((eid, eid2, *epath))
                    if key not in seen:
                        seen.add(key)
                        verts = tuple(sorted({e.a, *vpath}))
                        out.append((verts, tuple(sorted(key))))
                elif w not in vset:
                    work.append((w, vpath + (w,), vset | {w}, epath + (eid2,)))
    return out


def check_T1_T2(g: FiniteGraph, pieces: Sequence[Iterable[int]]) -> dict:
    """Piece-cover axioms: pairwise intersections of at most one vertex,
    and no simple cycle split across pieces.  Edge coverage (both
    endpoints in one piece) is reported separately, not as an axiom."""
    psets = [frozenset(p) for p in pieces]
    uncovered = []
    for eid, e in enumerate(g.edges):
        if not any(e.a in p and e.b in p for p in psets):
            uncovered.append(eid)
    t1_witness = None
    for i in range(len(psets)):
        for j in range(i + 1, len(psets)):
            shared = psets[i] & psets[j]
            if len(shared) > 1:
                t1_witness = {"pieces": [i, j], "shared": sorted(shared)}
                break
        if t1_witness:
            break
    t2_witness = None
    for verts, eids in simple_cycles(g):
        if not any(set(verts) <= p for p in psets):
            t2_witness = {"cycle_vertices": list(verts),
                          "cycle_edges": list(eids)}
            break
    return {
        "cover_ok": not uncovered,
        "uncovered_edges": uncovered,
        "t1_ok": t1_witness is None,
        "t1_witness": t1_witness,
        "t2_ok": t2_witness is None,
        "t2_witness": t2_witness,
    }


def graph_of_spec(spec: dict) -> FiniteGraph:
    if set(spec) != {"vertices", "edges"}:
        raise ValueError("graph spec must have exactly vertices and edges")
    edges = [(a, b, parse_rational(length)) for a, b, length in spec["edges"]]
    return FiniteGraph(spec["vertices"], edges)


def decomposition_to_spec(dec: BlockDecomposition) -> dict:
    return {
        "cut_vertices": list(dec.cut_vertices),
        "blocks": [list(b) for b in dec.blocks],
        "block_cut_tree": [list(pair) for pair in dec.block_cut_tree],
    }
