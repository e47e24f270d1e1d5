"""Isometry search cross-checked against exhaustive enumeration.

brute_force_iso shares no search code with the anchored extension route,
so agreement on planted and mutated pairs exercises both.  Planted pairs
are built by hand: height shifts move a window and the mark parameters
that read it, tree relabels permute piece ids, and subdivision inserts a
degree-2 vertex that only the normal form can see through.

reference_isomorphic below is the depth-first search over whole good
triples that the subtree-by-subtree search must agree with witness for
witness, on pairs too large for the brute-force referee.
ref_keeps_distances compares the distances of all feature pairs.
verify_good's in-piece check, which compares the lengths of the feature
edges a piece map pairs up (its fedge_map), is tested against it.
ref_contracted is the referee's chain contraction on Fractions, which its
int contraction must match at each piece pair's frame.
"""

import copy
import dataclasses
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from typing import Iterator

import pytest
from test_cluster import chain3, two_piece, two_piece_spec

from flipcluster import cluster_iso
from flipcluster.cluster import Cluster, Piece, SimplicialTree, lowest_point, validate
from flipcluster.cluster_iso import (
    GoodTriple,
    MarkedTreeIso,
    NormalForm,
    PieceMap,
    brute_force_iso,
    extend_choices,
    image_supports,
    incident_eids,
    isomorphic,
    marked_tree_extensions,
    piece_normal_form,
    verify_good,
    witness_to_spec,
)
from flipcluster.distance_oracle import exact_distance
from flipcluster.errors import FeatureMapError, FlipClusterError, SizeCapError, WitnessMismatch
from flipcluster.generator import GeneratorParams, mutated_pair, planted_pair
from flipcluster.jsonutil import dumps_canonical
from flipcluster.metric_tree import Line, MetricTree, TreePoint
from flipcluster.suites import ISO_CORPUS

F = Fraction


def shifted_chain3(c0=F(2), c1=F(-1), c2=F(1, 2)) -> Cluster:
    """chain3 with piece heights translated; mark parameters follow the
    window they read, so the result is isometric to chain3 by design."""
    t = SimplicialTree([0, 1, 2], [(0, 1), (1, 2)])
    z0 = MetricTree([(0, 1, 2), (1, 2, 3), (1, 3, 4)])
    z1 = MetricTree([(0, 1, 3), (0, 2, 5), (0, 3, 4)])
    z2 = MetricTree([(0, 1, 6)])
    pieces = {
        0: Piece(z0, (F(-1) + c0, F(9) + c0)),
        1: Piece(z1, (F(-3) + c1, F(6) + c1)),
        2: Piece(z2, (F(-4) + c2, F(5) + c2)),
    }
    marks = {
        (0, 0): Line(z0, [0, 1], 0, F(-2) + c1),
        (1, 0): Line(z1, [0, 1], 1, F(0) + c0),
        (1, 1): Line(z1, [0, 2], 1, F(-3) + c2),
        (2, 1): Line(z2, [0], 0, F(-1) + c1),
    }
    return Cluster(t, pieces, marks)


def reversed_chain3() -> Cluster:
    """chain3 with the piece tree relabeled 0<->2."""
    t = SimplicialTree([0, 1, 2], [(0, 1), (1, 2)])
    z0 = MetricTree([(0, 1, 6)])
    z1 = MetricTree([(0, 1, 3), (0, 2, 5), (0, 3, 4)])
    z2 = MetricTree([(0, 1, 2), (1, 2, 3), (1, 3, 4)])
    pieces = {
        0: Piece(z0, (F(-4), F(5))),
        1: Piece(z1, (F(-3), F(6))),
        2: Piece(z2, (F(-1), F(9))),
    }
    marks = {
        (0, 0): Line(z0, [0], 0, F(-1)),
        (1, 0): Line(z1, [0, 2], 1, F(-3)),
        (1, 1): Line(z1, [0, 1], 1, F(0)),
        (2, 1): Line(z2, [0, 1], 0, F(-2)),
    }
    return Cluster(t, pieces, marks)


def two_piece_subdivided(cut=F(10)) -> Cluster:
    """Piece 1 carries a degree-2 vertex at cut along its edge; metrically
    unchanged, but the piece tree's scale is cut's denominator."""
    t = SimplicialTree([0, 1], [(0, 1)])
    z0 = MetricTree([(0, 1, 20)])
    z1 = MetricTree([(0, 1, cut), (1, 2, 20 - cut)])
    pieces = {0: Piece(z0, (F(-12), F(12))), 1: Piece(z1, (F(-12), F(12)))}
    marks = {(0, 0): Line(z0, [0], 0, F(-10)),
             (1, 0): Line(z1, [0, 1], 0, F(-10))}
    return Cluster(t, pieces, marks)


def star3(long_leg=False, long_at=2) -> Cluster:
    """Two walls leaving piece 0 along the same carrier; with long_leg the
    outer piece long_at is longer, the outer pieces are distinguishable
    and a crossed mark pairing must die."""
    t = SimplicialTree([0, 1, 2], [(0, 1), (0, 2)])
    z0 = MetricTree([(0, 1, 20)])
    z = {v: MetricTree([(0, 1, 24 if long_leg and v == long_at else 20)]) for v in (1, 2)}
    pieces = {
        0: Piece(z0, (F(-13), F(13))),
        1: Piece(z[1], (F(-12), F(12))),
        2: Piece(z[2], (F(-12), F(12))),
    }
    marks = {
        (0, 0): Line(z0, [0], 0, F(-10)),
        (1, 0): Line(z[1], [0], 0, F(-12) if long_leg and long_at == 1 else F(-10)),
        (0, 1): Line(z0, [0], 0, F(-10)),
        (2, 1): Line(z[2], [0], 0, F(-12) if long_leg and long_at == 2 else F(-10)),
    }
    return Cluster(t, pieces, marks)


def chain_cluster(n: int) -> Cluster:
    """n identical segment pieces along a path."""
    t = SimplicialTree(list(range(n)), [(i, i + 1) for i in range(n - 1)])
    trees = {v: MetricTree([(0, 1, 20)]) for v in range(n)}
    pieces = {v: Piece(trees[v], (F(-12), F(12))) for v in range(n)}
    marks = {}
    for eid in range(n - 1):
        marks[(eid, eid)] = Line(trees[eid], [0], 0, F(-10))
        marks[(eid + 1, eid)] = Line(trees[eid + 1], [0], 0, F(-10))
    return Cluster(t, pieces, marks)


def mutated_leg() -> Cluster:
    spec = two_piece_spec()
    spec["pieces"]["1"]["tree_edges"] = [[0, 1, "21"]]
    spec["marks"]["1:0"] = dict(spec["marks"]["1:0"], range=["-10", "11"])
    return validate(spec)


def mutated_window() -> Cluster:
    spec = two_piece_spec()
    spec["pieces"]["1"]["height_window"] = ["-12", "13"]
    return validate(spec)


def reflected_windows() -> tuple[Cluster, Cluster]:
    """Pair isometric only through a height reflection of piece 1."""
    sa = two_piece_spec()
    sa["pieces"]["1"]["height_window"] = ["-12", "11"]
    sb = two_piece_spec()
    sb["pieces"]["1"]["height_window"] = ["-11", "12"]
    return validate(sa), validate(sb)


def caterpillar(spine: int) -> MetricTree:
    """A spine of unit edges with a length-2 leaf on every spine vertex;
    the two spine ends fuse with their leaves, leaving 2*spine - 1 feature
    edges."""
    edges = [(i, i + 1, 1) for i in range(spine)]
    edges += [(i, spine + 1 + i, 2) for i in range(spine + 1)]
    return MetricTree(edges)


# -- reference: depth-first growth of whole good triples --------------------------


def frame(ca: Cluster, cb: Cluster) -> int:
    """The pair's int frame, at which isomorphic builds both sides' forms."""
    return math.lcm(ca.unit, cb.unit)


def at_frame(q: Fraction, den: int) -> int:
    """q times den, which must be an int."""
    assert (q * den).denominator == 1
    return q.numerator * (den // q.denominator)


def ref_pairings(nf_a: NormalForm, nf_b: NormalForm, fm) -> Iterator[MarkedTreeIso]:
    """Every injective pairing of a feature map's mark candidates: each
    group of marks with the same candidates takes every arrangement of
    them, and the groups combine in every way.  Transform shifts come
    back from the forms' frame as Fractions."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, cands in enumerate(fm.candidates):
        groups.setdefault(tuple(j for j, _ in cands), []).append(i)
    per_group = [[list(zip(members, perm))
                  for perm in itertools.permutations(js, len(members))]
                 for js, members in groups.items()]
    for combo in itertools.product(*per_group):
        pairs = sorted(itertools.chain(*combo))
        mark_map = tuple(j for _, j in pairs)
        if len(set(mark_map)) == len(mark_map):
            transforms = (dict(fm.candidates[i])[j] for i, j in pairs)
            yield MarkedTreeIso(nf_a, nf_b, fm.vertex_map, mark_map,
                                tuple((sigma, F(t, nf_a.den)) for sigma, t in transforms))


def ref_seed_triples(ca: Cluster, cb: Cluster, root: int, root_b: int
                     ) -> Iterator[GoodTriple]:
    wlo, whi = ca.pieces[root].window
    wlo2, whi2 = cb.pieces[root_b].window
    shift = wlo2 - wlo
    if whi2 - whi != shift:
        return
    nf = piece_normal_form(ca, root, frame(ca, cb))
    nf_b = piece_normal_form(cb, root_b, frame(ca, cb))
    for fm in marked_tree_extensions(nf, nf_b, None):
        for iso in ref_pairings(nf, nf_b, fm):
            yield GoodTriple(ca, cb, (root,), {root: root_b}, {},
                             {root: PieceMap(iso, shift)})


def ref_wall_key(triple: GoodTriple, w: int, eid: int) -> tuple:
    """(eid, e_b, v_b, sigma, c_v, shift at w): what the triple's map at w
    fixes across its wall eid, the shifts times the pair's frame."""
    cb, pm_w, w_b = triple.cb, triple.phi[w], triple.psi[w]
    den = frame(triple.ca, cb)
    iw = incident_eids(triple.ca, w).index(eid)
    e_b = incident_eids(cb, w_b)[pm_w.iso.mark_map[iw]]
    sigma, c_v = pm_w.iso.transforms[iw]
    return (eid, e_b, cb.tree.other_end(e_b, w_b), sigma, at_frame(c_v, den),
            at_frame(pm_w.height_shift, den))


def ref_extend(triple: GoodTriple, eid: int) -> Iterator[GoodTriple]:
    """Every extension of the triple over one frontier edge, each a copy."""
    ca, cb = triple.ca, triple.cb
    a, b = ca.tree.edges[eid]
    w, v = (a, b) if a in triple.psi else (b, a)
    _, e_b, v_b, sigma, c_v, shift_w = ref_wall_key(triple, w, eid)
    den = frame(ca, cb)
    c_v = F(c_v, den)
    wlo, whi = ca.pieces[v].window
    if sigma != 1 or cb.pieces[v_b].window != (wlo + c_v, whi + c_v):
        return
    pin = (incident_eids(ca, v).index(eid), incident_eids(cb, v_b).index(e_b),
           1, shift_w)
    nf, nf_b = piece_normal_form(ca, v, den), piece_normal_form(cb, v_b, den)
    for fm in marked_tree_extensions(nf, nf_b, pin):
        for iso in ref_pairings(nf, nf_b, fm):
            yield GoodTriple(ca, cb, tuple(sorted((*triple.vertices, v))),
                             {**triple.psi, v: v_b}, {**triple.edge_map, eid: e_b},
                             {**triple.phi, v: PieceMap(iso, c_v)})


def reference_isomorphic(ca: Cluster, cb: Cluster) -> GoodTriple | None:
    """First complete triple of the depth-first search that extends over
    the lowest frontier edge and backtracks over all earlier choices,
    every pairing of marks included."""
    if len(ca.tree.vertices) != len(cb.tree.vertices):
        return None
    root = ca.tree.vertices[0]
    stack = [(t for root_b in cb.tree.vertices
              for t in ref_seed_triples(ca, cb, root, root_b))]
    while stack:
        triple = next(stack[-1], None)
        if triple is None:
            stack.pop()
            continue
        frontier = next((eid for eid, (x, y) in enumerate(ca.tree.edges)
                         if (x in triple.psi) != (y in triple.psi)), None)
        if frontier is None:
            return triple
        stack.append(ref_extend(triple, frontier))
    return None


def feature_distances(nf: NormalForm, f: int) -> dict[int, Fraction]:
    """Distances from feature f along the feature tree, by breadth-first search."""
    dist, queue = {f: F(0)}, [f]
    for u in queue:
        for fid, w in nf.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + F(nf.fedges[fid].length, nf.den)
                queue.append(w)
    return dist


def ref_keeps_distances(nf_a: NormalForm, nf_b: NormalForm,
                        vertex_map: dict[int, int]) -> bool:
    """Every pair of features keeps its distance along the feature trees."""
    da = {f: feature_distances(nf_a, f) for f in nf_a.features}
    db = {vertex_map[f]: feature_distances(nf_b, vertex_map[f]) for f in nf_a.features}
    return all(da[f][g] == db[vertex_map[f]][vertex_map[g]]
               for f, g in itertools.combinations(nf_a.features, 2))


def corrupted_maps(iso: MarkedTreeIso) -> Iterator[tuple[NormalForm, NormalForm, dict]]:
    """(nf_a, nf_b, vertex map): the piece map as it is, with its target's
    first feature edge one longer, and with the images of the first two
    source features of equal degree swapped."""
    nf_a, nf_b, vm = iso.nf_a, iso.nf_b, iso.vertex_map
    yield nf_a, nf_b, vm
    longer = copy.copy(nf_b)
    fe = nf_b.fedges[0]
    longer.fedges = (fe._replace(length=fe.length + 1), *nf_b.fedges[1:])
    yield nf_a, longer, vm
    f, g = next(((f, g) for f, g in itertools.combinations(nf_a.features, 2)
                 if len(nf_a.adj[f]) == len(nf_a.adj[g])), (None, None))
    if f is not None:
        yield nf_a, nf_b, {**vm, f: vm[g], g: vm[f]}


def random_cluster_points(c, rng, count):
    pts = []
    for _ in range(count):
        v = rng.choice(list(c.tree.vertices))
        tree = c.pieces[v].tree
        eid = rng.randrange(len(tree.edges))
        off = tree.edges[eid].length * F(rng.randrange(0, 9), 8)
        lo, hi = c.pieces[v].window
        h = lo + (hi - lo) * F(rng.randrange(0, 9), 8)
        pts.append(c.point(v, eid, off, h))
    return pts


def ref_chain_dirs(nf: NormalForm, fidx: int) -> dict[int, bool]:
    """Each raw edge of a feature edge's chain, with whether the walk from
    its u end traverses it a -> b, read off the tree's edge ends."""
    cur, out = nf.fedges[fidx].u, {}
    for eid in nf.fedges[fidx].chain:
        a, b = nf.tree._ends[eid]
        out[eid] = a == cur
        cur = b if a == cur else a
    return out


def ref_chain_sums(nf: NormalForm) -> list[tuple[Fraction, dict[int, Fraction]]]:
    """Each feature edge's length and the offset of each raw edge's start
    along it, as Fraction sums over its chain."""
    out = []
    for fe in nf.fedges:
        pos, starts = F(0), {}
        for eid in fe.chain:
            starts[eid] = pos
            pos += nf.tree.edges[eid].length
        out.append((pos, starts))
    return out


def ref_fedge_point(nf: NormalForm, fidx: int, x: Fraction) -> TreePoint:
    """The point at offset x from the u end, by Fraction subtraction along
    the chain, canonical at a vertex."""
    for eid, fwd in ref_chain_dirs(nf, fidx).items():
        e = nf.tree.edges[eid]
        if x <= e.length:
            off = x if fwd else e.length - x
            if off in (0, e.length):
                return nf.tree.vertex_point(e.a if off == 0 else e.b)
            return TreePoint(eid, off)
        x -= e.length
    raise AssertionError("offset beyond feature edge")


def ref_point_image(iso: MarkedTreeIso, p: TreePoint) -> TreePoint:
    sums_a, sums_b = ref_chain_sums(iso.nf_a), ref_chain_sums(iso.nf_b)
    fidx = next(i for i, (_, starts) in enumerate(sums_a) if p.edge in starts)
    e = iso.nf_a.tree.edges[p.edge]
    fwd = ref_chain_dirs(iso.nf_a, fidx)[p.edge]
    x = sums_a[fidx][1][p.edge] + (p.offset if fwd else e.length - p.offset)
    j, same = iso.fedge_map[fidx]
    return ref_fedge_point(iso.nf_b, j, x if same else sums_b[j][0] - x)


def off_scale_points(tree: MetricTree) -> list[TreePoint]:
    """Every vertex, and points on every edge at offsets with denominators
    7, 11 and 13, prime to the generator's scales."""
    pts = [tree.vertex_point(v) for v in tree.vertices]
    for eid, e in enumerate(tree.edges):
        pts += [tree.point(eid, e.length * F(k, q)) for q, k in ((7, 3), (11, 1), (13, 12))]
    return pts


def ref_contracted(tree: MetricTree, marks) -> tuple[list[int], dict]:
    """(feature vertices, distances as Fractions) by repeated
    single-vertex contraction, the degree table rebuilt after each one."""
    keep = {v for v in tree.vertices if tree.degree(v) != 2}
    for m in marks:
        keep.add(m.start_vertex)
        keep.add(m.end_vertex)
    edges = {eid: (a, b, length)
             for eid, ((a, b), length) in enumerate(zip(tree._ends, tree._lengths))}
    changed = True
    while changed:
        changed = False
        degree: dict[int, list] = {}
        for eid, (x, y, L) in edges.items():
            degree.setdefault(x, []).append(eid)
            degree.setdefault(y, []).append(eid)
        for v, incident in degree.items():
            if v in keep or len(incident) != 2:
                continue
            e1, e2 = incident
            x1, y1, l1 = edges.pop(e1)
            x2, y2, l2 = edges.pop(e2)
            far1 = x1 if y1 == v else y1
            far2 = x2 if y2 == v else y2
            edges[min(e1, e2)] = (far1, far2, l1 + l2)
            changed = True
            break
    verts = sorted(keep)
    dist = {(v, v): F(0) for v in verts}
    adj: dict[int, list] = {v: [] for v in verts}
    for x, y, L in edges.values():
        adj[x].append((y, L))
        adj[y].append((x, L))
    for s in verts:
        d = {s: F(0)}
        work = [s]
        while work:
            v = work.pop()
            for w, L in adj[v]:
                if w not in d:
                    d[w] = d[v] + L
                    work.append(w)
        for g, val in d.items():
            dist[(s, g)] = val
    return verts, dist


class TestNormalForm:
    @pytest.mark.parametrize("seed", range(4))
    def test_chain_sums_against_fraction_resum(self, seed):
        """Feature-edge lengths, at the tree's scale and at a finer frame,
        and each feature edge's line, against Fraction sums over each chain."""
        ca, _ = planted_pair(GeneratorParams(seed=seed, tree_size=(6, 6), piece_edges=(6, 10)))
        chains = 0
        for v in ca.tree.vertices:
            nf = piece_normal_form(ca, v)
            sums = ref_chain_sums(nf)
            for form in (nf, piece_normal_form(ca, v, 3 * ca.unit)):
                assert [F(fe.length, form.den) for fe in form.fedges] == \
                    [length for length, _ in sums]
            chains += any(len(fe.chain) > 1 for fe in nf.fedges)
            for p in off_scale_points(nf.tree):
                fidx = nf.raw_loc[p.edge]
                line = nf.lines[fidx]
                x = line.coord_of(p)
                length, starts = sums[fidx]
                e = nf.tree.edges[p.edge]
                fwd = ref_chain_dirs(nf, fidx)[p.edge]
                assert x == starts[p.edge] + (p.offset if fwd else e.length - p.offset)
                assert line.point_at(x) == ref_fedge_point(nf, fidx, x) == p
                assert (line.lo, line.hi) == (0, length)
        assert chains

    def test_degree_two_vertex_fuses(self):
        z = MetricTree([(0, 1, 2), (1, 2, 3)])
        nf = NormalForm(z, [])
        assert nf.features == (0, 2)
        assert len(nf.fedges) == 1
        assert nf.fedges[0].length == 5

    def test_mark_endpoint_stays(self):
        z = MetricTree([(0, 1, 2), (1, 2, 3)])
        nf = NormalForm(z, [Line(z, [0], 0, F(0))])
        assert nf.features == (0, 1, 2)
        assert sorted(fe.length for fe in nf.fedges) == [2, 3]

    def test_frame_must_clear_scale_and_origins(self):
        z = MetricTree([(0, 1, F(1, 2)), (1, 2, 3)])
        with pytest.raises(ValueError, match="not a multiple of the tree's scale 2"):
            NormalForm(z, [], 3)
        nf = NormalForm(z, [Line(z, [0, 1], 0, F(1, 3))])
        assert nf.den == 2
        with pytest.raises(ValueError, match="frame 2 does not clear the marks' origins"):
            nf.mark_ints()
        assert NormalForm(z, [Line(z, [0, 1], 0, F(1, 3))], 6).mark_ints() == [(2, 23, {2: 0, 23: 2})]

    def test_locate_roundtrip(self):
        z = MetricTree([(0, 1, 2), (1, 2, 3)])
        nf = NormalForm(z, [])
        p = z.point(1, F(3, 2))
        fidx = nf.raw_loc[p.edge]
        x = nf.lines[fidx].coord_of(p)
        assert (fidx, x) == (0, F(7, 2))
        assert nf.lines[fidx].point_at(x) == p


class TestMarkedTreeExtensions:
    def test_asymmetric_piece_has_unique_self_iso(self):
        c = chain3()
        nf = piece_normal_form(c, 1)
        maps = list(marked_tree_extensions(nf, nf))
        assert len(maps) == 1
        assert maps[0].vertex_map == {v: v for v in nf.features}
        # one candidate per mark: the marks lie on different carriers
        assert maps[0].candidates == (((0, (1, 0)),), ((1, (1, 0)),))

    def test_unmarked_symmetry_doubles_count(self):
        z = MetricTree([(0, 1, 2), (0, 2, 2)])
        nf = NormalForm(z, [])
        assert len(list(marked_tree_extensions(nf, nf))) == 2
        marked = NormalForm(z, [Line(z, [0], 0, F(0))])
        assert len(list(marked_tree_extensions(marked, marked))) == 1

    def test_pin_picks_reflection(self):
        c = two_piece()
        nf = piece_normal_form(c, 0)
        fm = next(marked_tree_extensions(nf, nf, (0, 0, -1, 0)), None)
        assert fm is not None
        assert fm.vertex_map == {0: 1, 1: 0}
        assert fm.candidates == (((0, (-1, 0)),),)
        iso = MarkedTreeIso(nf, nf, fm.vertex_map, (0,), ((-1, F(0)),))
        p = nf.tree.point(0, F(3))
        assert iso.point_image(p) == nf.tree.point(0, F(17))

    def test_pin_with_wrong_shift_fails(self):
        c = two_piece()
        nf = piece_normal_form(c, 0)
        assert next(marked_tree_extensions(nf, nf, (0, 0, 1, 1)), None) is None

    def test_forms_at_two_frames_refused(self):
        z = MetricTree([(0, 1, 2)])
        with pytest.raises(ValueError, match="normal forms at frames 1 and 2"):
            next(marked_tree_extensions(NormalForm(z, []), NormalForm(z, [], 2)))

    def test_length_mismatch_fails(self):
        a = NormalForm(MetricTree([(0, 1, 20)]), [])
        b = NormalForm(MetricTree([(0, 1, 21)]), [])
        assert list(marked_tree_extensions(a, b)) == []

    def test_unpinned_call_orders_growth_once(self, monkeypatch):
        """Every root seed maps the same one source feature, so one growth
        order serves all of them."""
        calls = []

        def counting(*args, _fn=cluster_iso._growth_order):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(cluster_iso, "_growth_order", counting)
        nf = NormalForm(caterpillar(6), [])
        assert len(list(marked_tree_extensions(nf, nf))) == 2
        assert len(nf.features) == 12 and len(calls) == 1

    def test_long_caterpillar_runs_on_its_own_stack(self):
        """One search level per feature edge, far past the recursion limit."""
        nf = NormalForm(caterpillar(600), [])
        assert len(nf.fedges) == 1199
        fm = next(marked_tree_extensions(nf, nf))
        assert fm.vertex_map == {f: f for f in nf.features}


class TestTryExtend:
    """The one-wall step: extend_choices across the wall key of a mapped piece."""

    def test_grows_identity_across_wall(self):
        c = two_piece()
        seed = next(ref_seed_triples(c, c, 0, 0))
        key = ref_wall_key(seed, 0, 0)
        v_b, shift, fm = next(extend_choices(c, c, {}, 0, key))
        assert (v_b, key[1]) == (1, 0)
        assert shift == 0
        nf = piece_normal_form(c, 1, frame(c, c))
        pm = PieceMap(next(ref_pairings(nf, nf, fm)), F(shift))
        full = GoodTriple(c, c, (0, 1), {0: 0, 1: 1}, {0: 0}, {0: seed.phi[0], 1: pm})
        assert verify_good(full)[0]

    def test_non_frontier_edge_rejected(self):
        # wall 1 joins pieces 1 and 2, so it does not leave piece 0
        c = chain3()
        key = ref_wall_key(next(ref_seed_triples(c, c, 0, 0)), 0, 0)
        with pytest.raises(ValueError):
            list(extend_choices(c, c, {}, 0, (1, *key[1:])))

    def test_reflected_seed_is_dead_end(self):
        # the second root map is the piece's tree reflection; the crossing
        # mark then carries sigma = -1 and no extension can satisfy the
        # flip equations
        c = two_piece()
        seeds = list(ref_seed_triples(c, c, 0, 0))
        assert len(seeds) == 2
        reflected = next(
            t for t in seeds if t.phi[0].iso.vertex_map == {0: 1, 1: 0})
        key = ref_wall_key(reflected, 0, 0)
        assert key[3] == -1
        assert list(extend_choices(c, c, {}, 0, key)) == []

    def test_window_mismatch_stops_extension(self):
        ca = two_piece()
        cb = mutated_window()
        key = ref_wall_key(next(ref_seed_triples(ca, cb, 0, 0)), 0, 0)
        assert list(extend_choices(ca, cb, {}, 0, key)) == []


@pytest.fixture(scope="module")
def path_pair_5000():
    return planted_pair(GeneratorParams(seed=5, tree_size=(5000, 5000),
                                        piece_edges=(2, 4), tree_shape="path"))


class TestIsomorphic:
    def test_self_isometry_is_identity(self):
        c = two_piece()
        triple = isomorphic(c, c)
        assert triple is not None
        assert triple.psi == {0: 0, 1: 1}
        assert all(pm.height_shift == 0 for pm in triple.phi.values())

    def test_planted_height_shifts_recovered(self):
        ca = chain3()
        cb = shifted_chain3()
        triple = isomorphic(ca, cb)
        assert triple is not None
        assert triple.psi == {0: 0, 1: 1, 2: 2}
        assert {v: pm.height_shift for v, pm in triple.phi.items()} == \
            {0: F(2), 1: F(-1), 2: F(1, 2)}

    def test_planted_relabel_recovered(self):
        triple = isomorphic(chain3(), reversed_chain3())
        assert triple is not None
        assert triple.psi == {0: 2, 1: 1, 2: 0}

    def test_coprime_units_meet_at_their_lcm(self):
        """Units 3 and 35 give the frame 105, which neither side's unit
        is; the shifts come back exactly, witness for witness with the
        reference search and with the referee's verdict."""
        ca, cb = shifted_chain3(F(1, 3), F(0), F(0)), shifted_chain3(F(1, 5), F(1, 7), F(0))
        assert (ca.unit, cb.unit, frame(ca, cb)) == (3, 35, 105)
        triple = isomorphic(ca, cb)
        assert {v: pm.height_shift for v, pm in triple.phi.items()} == \
            {0: F(-2, 15), 1: F(1, 7), 2: F(0)}
        assert dumps_canonical(witness_to_spec(triple)) == \
            dumps_canonical(witness_to_spec(reference_isomorphic(ca, cb)))
        assert brute_force_iso(ca, cb) is not None

    def test_subdivision_is_invisible(self):
        ca = two_piece()
        cb = two_piece_subdivided()
        triple = isomorphic(ca, cb)
        assert triple is not None
        x = ca.point(1, 0, F(14), F(3))
        assert lowest_point(image_supports(triple, ca.supports(x))) == cb.point(1, 1, F(4), F(3))

    def test_crossed_mark_pairing_backtracks(self):
        c = star3(long_leg=True)
        triple = isomorphic(c, c)
        assert triple is not None
        assert triple.psi == {0: 0, 1: 1, 2: 2}

    def test_symmetric_star_pairs_straight_first(self):
        c = star3(long_leg=False)
        triple = isomorphic(c, c)
        assert triple is not None
        assert triple.psi == {0: 0, 1: 1, 2: 2}

    def test_leg_length_mutation_detected(self):
        assert isomorphic(two_piece(), mutated_leg()) is None

    def test_window_mutation_detected(self):
        assert isomorphic(two_piece(), mutated_window()) is None

    def test_reflection_pair_rejected(self):
        # isometric through a height reflection, which the search does
        # not model; both routes must agree on the verdict
        ca, cb = reflected_windows()
        assert isomorphic(ca, cb) is None
        assert brute_force_iso(ca, cb) is None

    def test_point_image_against_fraction_resum(self):
        """point_image on planted witnesses and on a subdivided pair, at
        every vertex and at off-scale points, against Fraction chain sums;
        feature edges are met in both orientations."""
        pairs = [(two_piece(), two_piece_subdivided()), (chain3(), reversed_chain3())]
        pairs += [planted_pair(GeneratorParams(seed=s, tree_size=(5, 5), piece_edges=(4, 9)))
                  for s in range(4)]
        sides = set()
        for ca, cb in pairs:
            triple = isomorphic(ca, cb)
            for v, pm in triple.phi.items():
                sides.update(same for _, same in pm.iso.fedge_map.values())
                for p in off_scale_points(ca.pieces[v].tree):
                    assert pm.iso.point_image(p) == ref_point_image(pm.iso, p)
        assert sides == {True, False}

    def test_distances_preserved_on_samples(self):
        ca = chain3()
        cb = shifted_chain3()
        triple = isomorphic(ca, cb)
        rng = random.Random(7)
        pts = random_cluster_points(ca, rng, 8)
        for x, y in itertools.combinations(pts, 2):
            d1 = exact_distance(ca, x, y)[0]
            fx, fy = (lowest_point(image_supports(triple, ca.supports(p))) for p in (x, y))
            d2 = exact_distance(cb, fx, fy)[0]
            assert d1 == d2

    def test_witness_is_deterministic(self):
        blobs = set()
        for _ in range(2):
            triple = isomorphic(chain3(), shifted_chain3())
            blobs.add(dumps_canonical(witness_to_spec(triple)))
        assert len(blobs) == 1

    @pytest.mark.parametrize("seed", range(7))
    def test_witness_matches_reference_search(self, seed):
        """Same witness bytes, or the same None, as the whole-triple
        depth-first search, on planted and mutated pairs of 4-12 pieces."""
        for n in (4, 6, 8, 10, 12):
            m = 1 + (seed * 7 + n) % 12
            params = GeneratorParams(seed=seed, tree_size=(n, n), piece_edges=(m, m))
            for ca, cb in (planted_pair(params), mutated_pair(params)):
                fast, ref = isomorphic(ca, cb), reference_isomorphic(ca, cb)
                assert (fast is None) == (ref is None)
                if fast is not None:
                    assert dumps_canonical(witness_to_spec(fast)) == \
                        dumps_canonical(witness_to_spec(ref))

    def test_witness_matches_reference_on_fixtures(self):
        for ca, cb in ((chain3(), shifted_chain3()), (chain3(), reversed_chain3()),
                       (star3(True), star3(True)), (star3(), star3()),
                       (two_piece(), two_piece_subdivided())):
            assert dumps_canonical(witness_to_spec(isomorphic(ca, cb))) == \
                dumps_canonical(witness_to_spec(reference_isomorphic(ca, cb)))

    def test_worst_mutated_pair_builds_each_form_once(self, monkeypatch):
        """A 14-piece mutated pair the whole-triple search needs 36,852
        normal forms and 22,218 extension steps to reject."""
        counts = dict.fromkeys(("piece_normal_form", "marked_tree_extensions",
                                "extend_choices", "MarkedTreeIso"), 0)
        for name in counts:
            def counting(*args, _fn=getattr(cluster_iso, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cluster_iso, name, counting)
        ca, cb = mutated_pair(GeneratorParams(seed=1270543689, tree_size=(14, 14),
                                              piece_edges=(12, 12)))
        assert isomorphic(ca, cb) is None
        assert counts["piece_normal_form"] <= 2 * len(ca.tree.vertices)
        assert counts == {"piece_normal_form": 17, "marked_tree_extensions": 15,
                          "extend_choices": 22, "MarkedTreeIso": 6}

    def test_marks_on_one_carrier_pair_where_solved(self, monkeypatch):
        """The root piece carries 8 marks on one feature edge, so each root
        feature map has 8! pairings of them; marks pair where their walls
        are solved, and only returned piece maps are built."""
        builds = []

        def counting(*args, _cls=MarkedTreeIso):
            builds.append(args)
            return _cls(*args)

        monkeypatch.setattr(cluster_iso, "MarkedTreeIso", counting)
        ca, cb = planted_pair(GeneratorParams(seed=600203567, tree_size=(16, 16),
                                              piece_edges=(2, 2)))
        marks = piece_normal_form(ca, ca.tree.vertices[0]).marks
        assert len(marks) == 8
        assert len({frozenset((m.start_vertex, m.end_vertex)) for m in marks}) == 1
        assert isomorphic(ca, cb) is not None
        assert len(builds) <= len(ca.tree.vertices)

    def test_rejected_witness_raises(self, monkeypatch):
        """isomorphic checks its own witness, so callers need not."""
        monkeypatch.setattr(cluster_iso, "verify_good",
                            lambda triple: (False, 2, "rejected"))
        with pytest.raises(WitnessMismatch, match="condition 2, rejected"):
            isomorphic(chain3(), shifted_chain3())

    def test_long_path_pair_search_memory(self):
        """The search holds one piece map per piece, not a copy per step,
        and is deeper than the recursion limit: one level per piece."""
        ca, cb = planted_pair(GeneratorParams(seed=5, tree_size=(1200, 1200),
                                              piece_edges=(2, 4), tree_shape="path"))
        tracemalloc.start()
        try:
            assert isomorphic(ca, cb) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, f"search peaked at {peak / 2**20:.1f} MB"

    @pytest.mark.acceptance
    def test_5000_piece_path_pair_search_memory(self, path_pair_5000):
        """isomorphic runs verify_good on its witness and raises if it
        fails; a membership test quadratic in the pieces would stall here."""
        tracemalloc.start()
        try:
            assert isomorphic(*path_pair_5000) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20, f"search peaked at {peak / 2**20:.1f} MB"

    def test_witness_shape(self):
        triple = isomorphic(two_piece(), two_piece())
        w = witness_to_spec(triple)
        assert w["psi"] == {"0": 0, "1": 1}
        assert w["height_shifts"] == {"0": "0", "1": "0"}
        assert w["mark_maps"]["0"] == [[0, 0, 1, "0"]]


class TestVerifyGood:
    def test_partial_seed_passes(self):
        c = chain3()
        seed = next(ref_seed_triples(c, c, 1, 1))
        ok, cond, detail = verify_good(seed)
        assert (ok, cond, detail) == (True, None, None)

    def test_noninjective_psi_is_condition_1(self):
        c = two_piece()
        triple = isomorphic(c, c)
        bad = triple._replace(psi={0: 0, 1: 0})
        assert verify_good(bad)[:2] == (False, 1)

    def test_tampered_shift_is_condition_2(self):
        c = two_piece()
        triple = isomorphic(c, c)
        phi = dict(triple.phi)
        phi[1] = PieceMap(phi[1].iso, phi[1].height_shift + 1)
        ok, cond, detail = verify_good(triple._replace(phi=phi))
        assert (ok, cond) == (False, 2)
        assert "flip" in detail

    def test_missing_piece_map_is_condition_4(self):
        c = two_piece()
        triple = isomorphic(c, c)
        phi = dict(triple.phi)
        del phi[1]
        assert verify_good(triple._replace(phi=phi))[:2] == (False, 4)

    @pytest.mark.parametrize("short, want", [
        (("mark_map", "transforms"), (5, "marks of {} do not biject onto target marks")),
        (("transforms",), (4, "piece map missing or malformed at {}")),
    ], ids=["short-mark-map", "short-transforms"])
    def test_short_piece_map_is_a_verdict(self, short, want):
        """A piece map with fewer mark pairings than marks fails a
        condition, on the whole witness and on its one-vertex U at that
        piece, and raises nothing."""
        for c in (two_piece(), chain3()):
            triple = isomorphic(c, c)
            for v, pm in triple.phi.items():
                parts = {"mark_map": pm.iso.mark_map, "transforms": pm.iso.transforms}
                for name in short:
                    parts[name] = parts[name][:-1]
                iso = MarkedTreeIso(pm.iso.nf_a, pm.iso.nf_b, pm.iso.vertex_map,
                                    parts["mark_map"], parts["transforms"])
                phi = {**triple.phi, v: PieceMap(iso, pm.height_shift)}
                one = GoodTriple(c, c, (v,), {v: triple.psi[v]}, {}, {v: phi[v]})
                for bad in (triple._replace(phi=phi), one):
                    assert verify_good(bad) == (False, want[0], want[1].format(v))

    def test_swapped_marks_is_condition_5(self):
        c = chain3()
        seed = next(ref_seed_triples(c, c, 1, 1))
        pm = seed.phi[1]
        scrambled = MarkedTreeIso(pm.iso.nf_a, pm.iso.nf_b,
                                  pm.iso.vertex_map, (1, 0),
                                  pm.iso.transforms)
        phi = {1: PieceMap(scrambled, pm.height_shift)}
        assert verify_good(seed._replace(phi=phi))[:2] == (False, 5)

    def test_feature_edge_of_other_length_is_condition_2(self):
        """Leaves 2 and 3 of piece 1 both hang off feature 0, so swapping
        them keeps adjacency, but their feature edges are 5 and 4 long."""
        c = chain3()
        seed = next(ref_seed_triples(c, c, 1, 1))
        pm = seed.phi[1]
        swapped = MarkedTreeIso(pm.iso.nf_a, pm.iso.nf_b, {0: 0, 1: 1, 2: 3, 3: 2},
                                pm.iso.mark_map, pm.iso.transforms)
        phi = {1: PieceMap(swapped, pm.height_shift)}
        assert verify_good(seed._replace(phi=phi)) == \
            (False, 2, "distances disagree inside piece 1")

    def test_map_breaking_feature_adjacency_is_a_package_error(self):
        """Piece 1 of chain3 is a star on feature 0; swapping the center
        with leaf 1 sends the feature edge 0-2 onto the pair 1-2, which no
        feature edge joins."""
        nf = piece_normal_form(chain3(), 1)
        with pytest.raises(FeatureMapError,
                           match=r"^feature edge 0-2 maps to 1-2, not a feature edge$") as ex:
            MarkedTreeIso(nf, nf, {0: 1, 1: 0, 2: 2, 3: 3}, (0, 1), ((1, F(0)), (1, F(0))))
        assert isinstance(ex.value, FlipClusterError) and isinstance(ex.value, ValueError)

    @pytest.mark.parametrize("transform", [(-1, F(8)), (1, F(1)), (1, F(3))])
    def test_mark_end_off_its_image_is_condition_5(self, transform):
        """Mark 0 of piece 1 runs over [0, 8] through features 1, 0, 2 at
        0, 3, 8; under the identity map each transform sends its start
        somewhere other than the parameter of feature 1: onto feature 2,
        inside an edge, onto feature 0."""
        c = chain3()
        seed = next(ref_seed_triples(c, c, 1, 1))
        pm = seed.phi[1]
        assert pm.iso.vertex_map == {f: f for f in pm.iso.nf_a.features}
        moved = MarkedTreeIso(pm.iso.nf_a, pm.iso.nf_b, pm.iso.vertex_map,
                              pm.iso.mark_map, (transform, *pm.iso.transforms[1:]))
        phi = {1: PieceMap(moved, pm.height_shift)}
        assert verify_good(seed._replace(phi=phi)) == \
            (False, 5, "mark of edge 0 at 1 maps off its target")


class TestFeatureEdgeCheck:
    """verify_good's in-piece distance check against the all-pairs referee,
    on every piece map of a witness and on corruptions of it."""

    @staticmethod
    def keeps_distances(triple: GoodTriple, v: int, nf_a: NormalForm,
                        nf_b: NormalForm, vm: dict) -> bool:
        """Whether verify_good, run on the one-piece triple at v with the
        given map, passes the distances inside piece v.  A map that sends a
        feature edge off the feature edges is rejected as it is built."""
        pm = triple.phi[v]
        try:
            iso = MarkedTreeIso(nf_a, nf_b, vm, pm.iso.mark_map, pm.iso.transforms)
        except FeatureMapError:
            return False
        one = GoodTriple(triple.ca, triple.cb, (v,), {v: triple.psi[v]}, {},
                         {v: PieceMap(iso, pm.height_shift)})
        return verify_good(one) != (False, 2, f"distances disagree inside piece {v}")

    @classmethod
    def assert_agree(cls, triple: GoodTriple) -> int:
        """Agreement on every corrupted map; returns how many fail."""
        rejected = 0
        for v, pm in triple.phi.items():
            for nf_a, nf_b, vm in corrupted_maps(pm.iso):
                kept = cls.keeps_distances(triple, v, nf_a, nf_b, vm)
                assert kept == ref_keeps_distances(nf_a, nf_b, vm)
                rejected += not kept
        return rejected

    @pytest.mark.parametrize("seed", range(7))
    def test_agrees_on_search_witnesses(self, seed):
        witnesses = 0
        for n in (4, 6, 8, 10, 12):
            m = 1 + (seed * 7 + n) % 12
            params = GeneratorParams(seed=seed, tree_size=(n, n), piece_edges=(m, m))
            for ca, cb in (planted_pair(params), mutated_pair(params)):
                triple = isomorphic(ca, cb)
                if triple is not None:
                    witnesses += 1
                    # each piece's longer target edge must be caught
                    assert self.assert_agree(triple) >= len(triple.vertices)
        assert witnesses >= 5

    def test_agrees_on_brute_force_witnesses(self):
        pairs = [(two_piece(), two_piece()), (chain3(), shifted_chain3()),
                 (chain3(), reversed_chain3()), (two_piece(), two_piece_subdivided()),
                 (star3(True), star3(True)), (star3(), star3())]
        for seed in range(4):
            params = GeneratorParams(seed=seed, tree_size=(3, 5), piece_edges=(1, 5))
            pairs += [planted_pair(params), mutated_pair(params)]
        witnesses = [t for t in (brute_force_iso(ca, cb) for ca, cb in pairs)
                     if t is not None]
        assert len(witnesses) >= len(pairs) // 2
        for triple in witnesses:
            assert self.assert_agree(triple) >= len(triple.vertices)


class TestBruteForce:
    def test_agrees_on_fixture_pairs(self):
        pairs = [
            (two_piece(), two_piece(), True),
            (chain3(), shifted_chain3(), True),
            (chain3(), reversed_chain3(), True),
            (two_piece(), two_piece_subdivided(), True),
            (star3(True), star3(True), True),
            (star3(True), star3(True, long_at=1), True),
            (two_piece_subdivided(F(20, 3)), two_piece_subdivided(F(20, 7)), True),
            (two_piece(), mutated_leg(), False),
            (two_piece(), mutated_window(), False),
            (chain3(), two_piece(), False),
        ]
        for ca, cb, want in pairs:
            fast = isomorphic(ca, cb)
            brute = brute_force_iso(ca, cb)
            assert (fast is not None) == want
            assert (brute is not None) == want
            if want:
                assert verify_good(fast)[0]
                assert verify_good(brute)[0]

    def test_brute_witness_matches_fast_on_planted(self):
        ca, cb = chain3(), shifted_chain3()
        fast = isomorphic(ca, cb)
        brute = brute_force_iso(ca, cb)
        assert fast.psi == brute.psi
        assert {v: pm.height_shift for v, pm in fast.phi.items()} == \
            {v: pm.height_shift for v, pm in brute.phi.items()}

    def test_contraction_matches_fraction_reference(self, monkeypatch):
        """Every contraction the referee makes, on the fixtures and on
        ISO_CORPUS planted and mutated pairs, has the Fraction reference's
        features and its distances times the piece pair's frame
        lcm(scale_a, scale_b).  A pair's two sides are contracted back to
        back; the subdivided pair puts piece trees of scales 3 and 7 side
        by side, so its frame is neither scale."""
        made = []

        def recording(tree, marks, k, _fn=cluster_iso._contracted):
            made.append((tree, marks, _fn(tree, marks, k)))
            return made[-1][2]
        monkeypatch.setattr(cluster_iso, "_contracted", recording)
        pairs = [(two_piece(), two_piece()), (chain3(), shifted_chain3()),
                 (chain3(), reversed_chain3()), (two_piece(), two_piece_subdivided()),
                 (star3(True), star3(True)), (star3(), star3()),
                 (star3(True), star3(True, long_at=1)),
                 (two_piece(), mutated_leg()), (two_piece(), mutated_window()),
                 (shifted_chain3(F(1, 3), F(0), F(0)), shifted_chain3(F(1, 5), F(1, 7), F(0))),
                 (two_piece_subdivided(F(20, 3)), two_piece_subdivided(F(20, 7)))]
        for i in range(20):
            params = dataclasses.replace(ISO_CORPUS, seed=i)
            pairs += [planted_pair(params), mutated_pair(params)]
        for ca, cb in pairs:
            brute_force_iso(ca, cb)
        assert len(made) % 2 == 0
        frames = set()
        for (ta, ma, got_a), (tb, mb, got_b) in zip(made[::2], made[1::2]):
            den = math.lcm(ta.scale, tb.scale)
            frames.add((ta.scale, tb.scale, den))
            for tree, marks, (verts, dist) in ((ta, ma, got_a), (tb, mb, got_b)):
                ref_verts, ref_dist = ref_contracted(tree, marks)
                assert verts == ref_verts
                assert dist == {key: d * den for key, d in ref_dist.items()}
        assert (3, 7, 21) in frames

    def test_one_contraction_per_piece_pair(self, monkeypatch):
        """The long leg is piece 2 on one side and piece 1 on the other, so
        the straight T-map fails at piece 1 after the centre has matched
        and the crossed one meets the centre pair (0, 0) again: each side
        of each piece pair is contracted once in the call."""
        ca, cb = star3(True), star3(True, long_at=1)
        visits, calls, at = Counter(), Counter(), []

        def visiting(ca, cb, v, psi, *rest, _fn=cluster_iso._piece_brute):
            at[:] = [(v, psi[v])]
            visits[v, psi[v]] += 1
            return _fn(ca, cb, v, psi, *rest)

        def counting(tree, *args, _fn=cluster_iso._contracted):
            calls[at[0], 0 if tree is ca.pieces[at[0][0]].tree else 1] += 1
            return _fn(tree, *args)
        monkeypatch.setattr(cluster_iso, "_piece_brute", visiting)
        monkeypatch.setattr(cluster_iso, "_contracted", counting)
        assert brute_force_iso(ca, cb).psi == {0: 0, 1: 2, 2: 1}
        assert visits[0, 0] == 2
        assert calls == Counter({(key, side): 1 for key in visits for side in (0, 1)})

    def test_pieces_packaged_only_for_a_matched_t_map(self, monkeypatch):
        """The straight T-map of the star3 pair matches the centre and fails
        at piece 1; the pair with the long leg on one side only matches no
        T-map.  A MarkedTreeIso is built for each piece of a returned
        triple and for nothing else."""
        built, solved = [], []

        class Counting(MarkedTreeIso):
            def __init__(self, *args):
                built.append(args[2])
                super().__init__(*args)

        def solving(*args, _fn=cluster_iso._piece_brute):
            found = _fn(*args)
            solved.append(found is not None)
            return found
        monkeypatch.setattr(cluster_iso, "MarkedTreeIso", Counting)
        monkeypatch.setattr(cluster_iso, "_piece_brute", solving)
        triple = brute_force_iso(star3(True), star3(True, long_at=1))
        assert solved[0] and not all(solved)
        assert built == [triple.phi[v].iso.vertex_map for v in triple.vertices]
        built.clear(), solved.clear()
        assert brute_force_iso(star3(True), star3()) is None
        assert any(solved) and built == []

    def test_size_cap(self):
        big = chain_cluster(7)
        with pytest.raises(SizeCapError):
            brute_force_iso(big, big)
        assert isomorphic(big, big) is not None
