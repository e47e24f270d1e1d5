"""Block decomposition against exhaustive removal oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from flipcluster.tree_graded import (
    FiniteGraph,
    blocks,
    check_T1_T2,
    cut_points,
    decomposition_to_spec,
    graph_of_spec,
    simple_cycles,
)

F = Fraction


def _induced_connected(g: FiniteGraph, vs: frozenset) -> bool:
    if not vs:
        return True
    start = next(iter(vs))
    seen = {start}
    work = [start]
    while work:
        v = work.pop()
        for _, w in g.adjacency(v):
            if w in vs and w not in seen:
                seen.add(w)
                work.append(w)
    return seen == vs


def brute_blocks(g: FiniteGraph) -> set[frozenset]:
    """Maximal vertex sets that stay connected under any single removal.

    Exhaustive over all subsets; the independent route the fast
    decomposition is graded against.
    """
    robust = []
    verts = list(g.vertices)
    for r in range(2, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            vs = frozenset(combo)
            if not _induced_connected(g, vs):
                continue
            if all(_induced_connected(g, vs - {v}) for v in vs):
                robust.append(vs)
    return {vs for vs in robust
            if not any(vs < other for other in robust)}


def random_graph(rng: random.Random, max_vertices=8) -> FiniteGraph:
    n = rng.randrange(2, max_vertices + 1)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, F(rng.randrange(1, 9), rng.randrange(1, 5))))
    for _ in range(rng.randrange(0, 5)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            edges.append((a, b, F(rng.randrange(1, 9), rng.randrange(1, 5))))
    return FiniteGraph(range(n), edges)


def path5() -> FiniteGraph:
    return FiniteGraph(range(5), [(i, i + 1, 1) for i in range(4)])


def cycle5() -> FiniteGraph:
    return FiniteGraph(range(5), [(i, (i + 1) % 5, 1) for i in range(5)])


def two_triangles() -> FiniteGraph:
    return FiniteGraph(range(5), [(0, 1, 1), (1, 2, 1), (2, 0, 1),
                                  (2, 3, 1), (3, 4, 1), (4, 2, 1)])


def theta_pendant() -> FiniteGraph:
    # two vertices triple-joined, plus a pendant edge
    return FiniteGraph([0, 1, 2], [(0, 1, 1), (0, 1, 2), (0, 1, 3), (1, 2, 1)])


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            FiniteGraph([0, 1], [(0, 0, 1), (0, 1, 1)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            FiniteGraph([0, 1, 2], [(0, 1, 1)])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            FiniteGraph([0, 1], [(0, 1, 0)])

    def test_allows_parallel_edges(self):
        g = FiniteGraph([0, 1], [(0, 1, 1), (0, 1, 2)])
        assert len(g.edges) == 2

    def test_spec_roundtrip(self):
        g = theta_pendant()
        spec = {"vertices": [0, 1, 2],
                "edges": [[0, 1, "1"], [0, 1, "2"], [0, 1, "3"], [1, 2, "1"]]}
        again = graph_of_spec(spec)
        assert again.vertices == g.vertices
        assert again.edges == g.edges
        assert [type(e.length) for e in again.edges] == [Fraction] * 4

    def test_spec_strict_keys(self):
        with pytest.raises(ValueError):
            graph_of_spec({"vertices": [0], "edges": [], "extra": 1})


class TestCutPoints:
    def test_tree_internal_vertices(self):
        assert cut_points(path5()) == (1, 2, 3)

    def test_cycle_has_none(self):
        assert cut_points(cycle5()) == ()

    def test_shared_vertex(self):
        assert cut_points(two_triangles()) == (2,)

    def test_matches_block_multiplicity(self):
        rng = random.Random(101)
        for _ in range(60):
            g = random_graph(rng)
            dec = blocks(g)
            multi = tuple(sorted(
                v for v in g.vertices
                if sum(1 for b in dec.blocks if v in b) >= 2))
            assert cut_points(g) == multi == dec.cut_vertices


class TestBlocks:
    def test_tree_blocks_are_edges(self):
        dec = blocks(path5())
        assert dec.blocks == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert dec.cut_vertices == (1, 2, 3)

    def test_single_cycle_single_block(self):
        dec = blocks(cycle5())
        assert dec.blocks == ((0, 1, 2, 3, 4),)
        assert dec.block_cut_tree == ()

    def test_theta_pendant(self):
        dec = blocks(theta_pendant())
        assert dec.blocks == ((0, 1), (1, 2))
        assert dec.cut_vertices == (1,)
        assert dec.block_cut_tree == ((0, 1), (1, 1))

    def test_two_triangles_oracle(self):
        g = two_triangles()
        dec = blocks(g)
        assert set(map(frozenset, dec.blocks)) == brute_blocks(g)
        assert dec.blocks == ((0, 1, 2), (2, 3, 4))

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_graph(rng)
            dec = blocks(g)
            assert set(map(frozenset, dec.blocks)) == brute_blocks(g)

    def test_structure_invariants(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng)
            dec = blocks(g)
            covered = set()
            for e in g.edges:
                owners = [b for b in dec.blocks if e.a in b and e.b in b]
                assert len(owners) == 1
                covered.add((e.a, e.b))
            for b1, b2 in itertools.combinations(dec.blocks, 2):
                shared = set(b1) & set(b2)
                assert len(shared) <= 1
                assert shared <= set(dec.cut_vertices)
            # block-cut tree: connected and acyclic over its node set
            nodes = {("b", i) for i in range(len(dec.blocks))}
            nodes |= {("c", v) for v in dec.cut_vertices}
            if len(nodes) > 1:
                assert len(dec.block_cut_tree) == len(nodes) - 1
                adj = {n: [] for n in nodes}
                for i, v in dec.block_cut_tree:
                    adj[("b", i)].append(("c", v))
                    adj[("c", v)].append(("b", i))
                seen = set()
                work = [next(iter(nodes))]
                while work:
                    n = work.pop()
                    if n in seen:
                        continue
                    seen.add(n)
                    work.extend(adj[n])
                assert seen == nodes
            # leaf blocks contain at most one cut vertex
            for i, b in enumerate(dec.blocks):
                incident = sum(1 for bi, _ in dec.block_cut_tree if bi == i)
                if incident == 0:
                    assert len(dec.blocks) == 1


class TestSimpleCycles:
    def test_counts(self):
        assert len(simple_cycles(path5())) == 0
        assert len(simple_cycles(cycle5())) == 1
        assert len(simple_cycles(two_triangles())) == 2
        assert len(simple_cycles(theta_pendant())) == 3
        k4 = FiniteGraph(range(4), [(a, b, 1) for a, b in
                                    itertools.combinations(range(4), 2)])
        assert len(simple_cycles(k4)) == 7   # 4 triangles + 3 squares


class TestCheckT1T2:
    def test_blocks_always_pass(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(rng)
            report = check_T1_T2(g, blocks(g).blocks)
            assert report["cover_ok"]
            assert report["t1_ok"] and report["t2_ok"]

    def test_shared_edge_fails_t1(self):
        g = path5()
        report = check_T1_T2(g, [{0, 1, 2}, {1, 2, 3}, {3, 4}])
        assert not report["t1_ok"]
        assert report["t1_witness"] == {"pieces": [0, 1], "shared": [1, 2]}
        assert report["t2_ok"]

    def test_split_cycle_fails_t2(self):
        g = cycle5()
        report = check_T1_T2(g, [{0, 1, 2}, {2, 3, 4}, {4, 0}])
        assert report["cover_ok"]
        assert not report["t2_ok"]
        assert report["t2_witness"]["cycle_vertices"] == [0, 1, 2, 3, 4]
        assert report["t2_witness"]["cycle_edges"] == [0, 1, 2, 3, 4]

    def test_uncovered_edge_reported(self):
        g = path5()
        report = check_T1_T2(g, [{0, 1}, {2, 3}, {3, 4}])
        assert not report["cover_ok"]
        assert report["uncovered_edges"] == [1]

    def test_subdivided_theta_t2_without_t1(self):
        # three cycle pieces hold every simple cycle, yet they pairwise
        # share two vertices: the cycle axiom alone does not force blocks
        g = FiniteGraph(range(5), [(0, 2, 1), (2, 1, 1), (0, 3, 1),
                                   (3, 1, 1), (0, 4, 1), (4, 1, 1)])
        pieces = [{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 3, 4}]
        report = check_T1_T2(g, pieces)
        assert report["t2_ok"]
        assert not report["t1_ok"]


def holders(g: FiniteGraph, s: set) -> list[tuple]:
    """The blocks of g that contain the vertex set s, in block order."""
    return [b for b in blocks(g).blocks if s <= set(b)]


class TestBlockOf:
    """The block holding a vertex set, read off ``blocks(g)``."""

    def test_cycle_edge(self):
        g = two_triangles()
        assert holders(g, {3, 4}) == [(2, 3, 4)]

    def test_singleton_lowest(self):
        g = two_triangles()
        assert holders(g, {2})[0] == (0, 1, 2)
        assert holders(g, {4}) == [(2, 3, 4)]

    def test_split_witness(self):
        g = two_triangles()
        dec = blocks(g)
        assert holders(g, {1, 2, 3}) == []
        assert 2 in dec.cut_vertices
        assert holders(g, {1, 2}) == [(0, 1, 2)] and holders(g, {2, 3}) == [(2, 3, 4)]

    def test_rejects_disconnected_set(self):
        """Blocks are connected, so no block holds a set that is not."""
        g = path5()
        assert holders(g, {0, 4}) == []
        assert blocks(g).blocks == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_agrees_with_containment(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_graph(rng)
            dec = blocks(g)
            start = rng.choice(g.vertices)
            s = {start}
            for _ in range(rng.randrange(0, 4)):
                frontier = [w for v in s for _, w in g.adjacency(v)
                            if w not in s]
                if not frontier:
                    break
                s.add(rng.choice(frontier))
            held = holders(g, s)
            # blocks meet in at most one vertex, so a set of two or more
            # sits in at most one; otherwise its induced edges spread over
            # several blocks, two of which meet at a cut vertex of s
            edge_blocks = {b for e in g.edges if e.a in s and e.b in s
                           for b in dec.blocks if e.a in b and e.b in b}
            if len(s) == 1:
                assert held
            elif held:
                assert len(held) == 1 and edge_blocks == set(held)
            else:
                assert len(edge_blocks) >= 2
                assert any(sum(v in b for b in edge_blocks) >= 2
                           for v in s & set(dec.cut_vertices))


class TestSpecOutput:
    def test_decomposition_spec(self):
        spec = decomposition_to_spec(blocks(theta_pendant()))
        assert spec == {
            "cut_vertices": [1],
            "blocks": [[0, 1], [1, 2]],
            "block_cut_tree": [[0, 1], [1, 1]],
        }
