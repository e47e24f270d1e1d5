"""Exact distances against an independent profile grid and a sampled graph.

Two cross-checking routes: `grid_profile_min` brute-forces the crossing
profile on a rational grid (valid here because every coupling in the
fixtures has sigma = +1 and integer anchors, so some minimizer is
integral), and `DiscretizedOracle` runs Dijkstra on a sampled graph that
can only overshoot, by at most 4 * eps per piece traversed.

The oracle's integer graph is itself checked against `ReferenceGraph`:
the same grid sampled on its own with Fractions, edges keyed by (vertex,
TreePoint, height) tuples, Fraction weights and a plain Fraction Dijkstra.
The re-measure, crossing_objective on ints at its own frame, is checked
against `fraction_remeasure`, the same walk of the legs on Fractions.
"""

import dataclasses
import heapq
import itertools
import random
import time
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest
from test_cluster import (chain3, lowest_point, on_carrier, remarked_cluster, two_piece,
                          wide_path)
from test_metric_tree import vertex_params
from test_rescaling import LAMBDAS, scaled_point, scaled_spec
from test_special_path import relation_kinds

import flipcluster.distance_oracle as oracle_module
from flipcluster.cluster import (Cluster, ClusterPoint, Piece, SimplicialTree, piece_distance,
                                 route_between, support_route, to_spec, validate)
from flipcluster.distance_oracle import (
    CrossingProfile,
    DiscretizedOracle,
    crossing_objective,
    default_eps,
    exact_distance,
    route_distance,
)
from flipcluster.errors import (FlipClusterError, InvalidPointError, RemeasureMismatch,
                                SegmentOverflow, SizeCapError)
from flipcluster.generator import GeneratorParams, generate_cluster, sample_points
from flipcluster.metric_tree import Line, MetricTree
from flipcluster.rational import format_rational
from flipcluster.special_path import special_path
from flipcluster.suites import CORPUS, ORACLE_CORPUS

F = Fraction


def tree_hops(c, a):
    """Hop distances in T from vertex a, by breadth-first search."""
    hops, queue = {a: 0}, [a]
    for u in queue:
        for _, w in c.tree.neighbors(u):
            if w not in hops:
                hops[w] = hops[u] + 1
                queue.append(w)
    return hops


def grid_profile_min(c, x0, xn, denom=1):
    """Minimum of the crossing objective over a rational profile grid.

    Independent of the term construction inside exact_distance; only
    sound when a minimizer lies on the grid, which holds for the integer
    fixtures below (couplings with sigma = +1 and integer constants make
    the active-constraint systems totally unimodular).
    """
    sx = c.supports(x0)
    sy = c.supports(xn)
    common = sorted(set(sx) & set(sy))
    if common:
        v = common[0]
        return piece_distance(c, ClusterPoint(v, *sx[v]), ClusterPoint(v, *sy[v]))
    best_d = None
    pick = None
    for a in sorted(sx):
        hops = tree_hops(c, a)
        for b in sorted(sy):
            d = hops[b]
            if best_d is None or d < best_d:
                best_d, pick = d, (a, b)
    verts, eids = c.tree.path(*pick)
    x0, xn = ClusterPoint(pick[0], *sx[pick[0]]), ClusterPoint(pick[1], *sy[pick[1]])
    axes = []
    for i, e in enumerate(eids):
        for line in (c.marks[(verts[i], e)], c.marks[(verts[i + 1], e)]):
            n = int((line.hi - line.lo) * denom)
            axes.append([line.lo + F(k, denom) for k in range(n + 1)])
    best = None
    for combo in itertools.product(*axes):
        prof = CrossingProfile(tuple(verts), tuple(eids), combo[0::2], combo[1::2])
        val = crossing_objective(c, prof, x0, xn)
        if best is None or val < best:
            best = val
    return best


def random_points(c, rng, count):
    pts = []
    verts = list(c.tree.vertices)
    for _ in range(count):
        v = rng.choice(verts)
        tree = c.pieces[v].tree
        eid = rng.randrange(len(tree.edges))
        off = tree.edges[eid].length * F(rng.randrange(0, 9), 8)
        lo, hi = c.pieces[v].window
        h = lo + (hi - lo) * F(rng.randrange(0, 9), 8)
        pts.append(c.point(v, eid, off, h))
    return pts


class TestCrossingObjective:
    def test_two_piece_pinned_values(self):
        c = two_piece()
        x0 = c.point(0, 0, F(13), F(11))   # mark parameter 3, height 11
        xn = c.point(1, 0, F(15), F(11))   # mark parameter 5, height 11
        path = ((0, 1), (0,))
        vals = {
            (F(3), F(5)): F(14),
            (F(3), F(6)): F(14),   # still inside the flat minimizer face
            (F(2), F(5)): F(16),
        }
        for (s, h), want in vals.items():
            prof = CrossingProfile(*path, (s,), (h,))
            assert crossing_objective(c, prof, x0, xn) == want

    def test_illegal_parameter_raises(self):
        c = two_piece()
        x0 = c.point(0, 0, F(13), F(11))
        xn = c.point(1, 0, F(15), F(11))
        bad_s = CrossingProfile((0, 1), (0,), (F(11),), (F(5),))
        with pytest.raises(SegmentOverflow):
            crossing_objective(c, bad_s, x0, xn)
        bad_h = CrossingProfile((0, 1), (0,), (F(3),), (F(-11),))
        with pytest.raises(SegmentOverflow):
            crossing_objective(c, bad_h, x0, xn)

    def test_trivial_profile_is_piece_distance(self):
        c = two_piece()
        a = c.point(0, 0, F(3), F(2))
        b = c.point(0, 0, F(7), F(5))
        prof = CrossingProfile((0,), (), (), ())
        assert crossing_objective(c, prof, a, b) == piece_distance(c, a, b)

    def test_ends_must_sit_at_the_profile_ends(self):
        c = two_piece()
        wall = c.point(1, 0, F(15), F(3))   # canonical at its lower support, 0
        far = c.point(1, 0, F(3), F(11))
        near = c.point(0, 0, F(3), F(1))
        assert wall.vertex == 0
        there = ClusterPoint(1, *c.supports(wall)[1])
        stay = CrossingProfile((1,), (), (), ())
        cross = CrossingProfile((1, 0), (0,), (F(5),), (F(3),))
        for prof, x0, xn in ((stay, wall, far), (stay, far, wall), (cross, wall, near)):
            with pytest.raises(InvalidPointError):
                crossing_objective(c, prof, x0, xn)
        assert crossing_objective(c, stay, there, far) == 20
        assert crossing_objective(c, cross, there, near) == 0 + 10 + 4


def fraction_remeasure(c, profile, x0, xn):
    """crossing_objective's referee, on Fractions: each foot from
    Line.point_at, each in-piece leg from MetricTree.distance."""
    verts = profile.vertices
    n = len(verts) - 1
    assert (x0.vertex, xn.vertex) == (verts[0], verts[n])
    if n == 0:
        return piece_distance(c, x0, xn)
    cur_h, cur_t = x0.horizontal, x0.height
    total = F(0)
    for i in range(n):
        v, e = verts[i], profile.edges[i]
        exit_pt = c.marks[(v, e)].point_at(profile.s[i])
        cross_h = c.marks[(verts[i + 1], e)].point_at(profile.h[i])
        total += c.pieces[v].tree.distance(cur_h, exit_pt) + abs(cur_t - profile.h[i])
        cur_h, cur_t = cross_h, profile.s[i]
    total += c.pieces[verts[n]].tree.distance(cur_h, xn.horizontal)
    return total + abs(cur_t - xn.height)


def legal_param(line, rng):
    """A parameter of the line: a carrier vertex's, or a rational in its
    range with a denominator up to 12 over its length."""
    if rng.random() < 0.3:
        return rng.choice(list(vertex_params(line).values()))
    d = rng.randint(1, 12)
    return line.lo + (line.hi - line.lo) * F(rng.randint(0, d), d)


def random_profile(c, verts, eids, rng):
    """A legal crossing profile along the T-path verts."""
    s = tuple(legal_param(c.marks[(v, e)], rng) for v, e in zip(verts, eids))
    h = tuple(legal_param(c.marks[(w, e)], rng) for w, e in zip(verts[1:], eids))
    return CrossingProfile(tuple(verts), tuple(eids), s, h)


def coprime_pair():
    """Two pieces whose tree scales are 3 and 5, glued along marks whose
    ranges start at 1/2 and 1/7: every frame factor comes from one place."""
    z0 = MetricTree([(0, 1, F(4, 3)), (1, 2, F(5, 3)), (1, 3, 1)])
    z1 = MetricTree([(0, 1, F(2, 5)), (1, 2, F(13, 5)), (2, 3, F(6, 5))])
    pieces = {0: Piece(z0, (F(-10), F(10))), 1: Piece(z1, (F(-10), F(10)))}
    marks = {(0, 0): Line(z0, [0, 1], 0, F(1, 2)), (1, 0): Line(z1, [0, 1, 2], 0, F(1, 7))}
    return Cluster(SimplicialTree([0, 1], [(0, 1)]), pieces, marks)


class TestRemeasureReferee:
    """crossing_objective on ints at its own frame against its Fraction
    referee, on the argmin profile of each pair and on random legal
    profiles of the same route, with parameters at carrier vertices and
    at rationals in range."""

    @staticmethod
    def agree(c, x, y, rng, seen, tries=4):
        route = support_route(c, x, y)
        _, prof = route_distance(c, route)
        cands = [prof] + [random_profile(c, route.vertices, route.edges, rng)
                          for _ in range(tries if route.edges else 0)]
        for cand in cands:
            got = crossing_objective(c, cand, route.start, route.end)
            assert got == fraction_remeasure(c, cand, route.start, route.end)
            seen["walls"] += len(cand.edges)
        seen["pairs"] += 1
        seen["crossing"] += len(route.edges) > 0

    def test_corpus_pairs(self):
        seen = Counter()
        for seed in range(40):
            c = generate_cluster(dataclasses.replace(CORPUS, seed=seed))
            rng = random.Random(seed)
            pts = sample_points(c, rng, 8)
            for x, y in zip(pts[0::2], pts[1::2]):
                self.agree(c, x, y, rng, seen)
        assert seen["pairs"] == 160 and seen["crossing"] >= 60 and seen["walls"] >= 500

    def test_remarked_corpus(self):
        """Bridged pieces and reversed overlaps, which generated marks never make."""
        seen = Counter()
        for seed in range(60):
            c = remarked_cluster(seed, piece_edges=(6, 14))
            rng = random.Random(seed)
            pts = sample_points(c, rng, 8)
            for x, y in zip(pts[0::2], pts[1::2]):
                self.agree(c, x, y, rng, seen)
                route = support_route(c, x, y)
                verts, eids = route.vertices, route.edges
                seen.update("route-" + kind for i in range(1, len(eids)) for kind in
                            relation_kinds(c.mark_relation(verts[i], eids[i - 1], eids[i])))
        assert seen["pairs"] == 240
        assert min(seen[k] for k in ("route-bridge", "route-reversed")) > 0

    @pytest.mark.parametrize("lam", LAMBDAS, ids=format_rational)
    def test_rescaled_corpus(self, lam):
        """Coprime factors: the frame meets denominators the generator never draws."""
        seen = Counter()
        for i in range(12):
            c = generate_cluster(dataclasses.replace(CORPUS, seed=i))
            cs = validate(scaled_spec(to_spec(c), lam))
            rng = random.Random(i)
            pts = sample_points(c, rng, 8)
            for x, y in zip(pts[0::2], pts[1::2]):
                self.agree(cs, scaled_point(cs, x, lam), scaled_point(cs, y, lam), rng, seen)
        assert seen["pairs"] == 48 and seen["crossing"] >= 20

    def test_coprime_pieces(self):
        """Each piece's scale and each mark's lo denominator enters the
        frame: pieces at scales 3 and 5, mark origins over 2 and 7, and
        ends at tree vertices and integer heights."""
        c = coprime_pair()
        exit_line, twin = c.marks[(0, 0)], c.marks[(1, 0)]
        rng = random.Random(3)

        def end(v):
            return ClusterPoint(v, c.pieces[v].tree.vertex_point(rng.randrange(4)),
                                F(rng.randint(-9, 9)))

        for _ in range(200):
            x0, xn = end(0), end(1)
            prof = CrossingProfile((0, 1), (0,), (legal_param(exit_line, rng),),
                                   (legal_param(twin, rng),))
            assert crossing_objective(c, prof, x0, xn) == fraction_remeasure(c, prof, x0, xn)
            back = CrossingProfile((1, 0), (0,), prof.h, prof.s)
            assert crossing_objective(c, back, xn, x0) == fraction_remeasure(c, back, xn, x0)

    def test_wide_path(self):
        """The one-wall replay pair, and profiles across every wall of T."""
        n = 400
        c, x, y = wide_path(n)
        rng = random.Random(n)
        seen = Counter()
        self.agree(c, x, y, rng, seen)
        verts, eids = c.tree.path(0, n - 1)
        ends = ClusterPoint(0, *c.supports(x)[0]), ClusterPoint(n - 1, *c.supports(y)[n - 1])
        for _ in range(3):
            prof = random_profile(c, verts, eids, rng)
            assert crossing_objective(c, prof, *ends) == fraction_remeasure(c, prof, *ends)
        assert seen["walls"] == 5

    def test_ends_on_carrier_vertices(self):
        """Ends and crossings on carrier vertices, where a foot is the
        vertex's canonical point, on every wall of small corpus instances."""
        checked = 0
        for seed in range(20):
            c = remarked_cluster(seed)
            rng = random.Random(seed)
            for (v, e), line in sorted(c.marks.items()):
                w = c.tree.other_end(e, v)
                twin = c.marks[(w, e)]
                for a, b in zip(vertex_params(line), vertex_params(twin)):
                    x0 = ClusterPoint(v, c.pieces[v].tree.vertex_point(a), twin.lo)
                    xn = ClusterPoint(w, c.pieces[w].tree.vertex_point(b), line.hi)
                    h = rng.choice(list(vertex_params(twin).values()))
                    prof = CrossingProfile((v, w), (e,), (line.vertex_param(a),), (h,))
                    got = crossing_objective(c, prof, x0, xn)
                    assert got == fraction_remeasure(c, prof, x0, xn)
                    checked += 1
        assert checked >= 200

    @staticmethod
    def truncated_outcomes(monkeypatch, measure) -> Counter:
        """What measure(c, x, y) gives on 4 sampled pairs of each CORPUS
        seed 0-11 scaled by each of LAMBDAS, when Cluster.unit drops the
        scale's denominator: "right" or "wrong" against the value at the
        true unit, or the name of the package error it raises."""
        real = Cluster.unit.func
        seen = Counter()
        for lam in LAMBDAS:
            for i in range(12):
                c = generate_cluster(dataclasses.replace(CORPUS, seed=i))
                cs = validate(scaled_spec(to_spec(c), lam))
                pts = sample_points(cs, random.Random(i), 8)
                pairs = list(zip(pts[0::2], pts[1::2]))
                want = [measure(cs, x, y) for x, y in pairs]
                with monkeypatch.context() as m:
                    m.setattr(Cluster, "unit", property(lambda self: real(self) // lam.denominator))
                    cs = validate(to_spec(cs))   # no unit or relation memo kept
                    for (x, y), d in zip(pairs, want):
                        try:
                            seen["right" if measure(cs, x, y) == d else "wrong"] += 1
                        except FlipClusterError as ex:
                            seen[type(ex).__name__] += 1
        return seen

    def test_truncating_unit_is_caught(self, monkeypatch):
        """A Cluster.unit that drops a factor truncates route_distance's
        lifts; the re-measure works at its own frame, so no pair returns a
        wrong distance and some end in RemeasureMismatch."""
        seen = self.truncated_outcomes(monkeypatch, lambda c, x, y: exact_distance(c, x, y)[0])
        assert seen["wrong"] == 0
        assert seen["RemeasureMismatch"] >= 10

    def test_truncating_unit_is_refused_by_special_path(self, monkeypatch):
        """route_path checks the unit against the denominators it lifts
        before it lifts any, so no pair gets a path of the wrong length and
        none runs on into SegmentOverflow or GlueMismatch (without the
        check: 2 wrong, 11 and 8 of them)."""
        seen = self.truncated_outcomes(monkeypatch, lambda c, x, y: special_path(c, x, y).length)
        assert seen.keys() == {"right", "FrameMismatch"}
        assert seen["FrameMismatch"] >= 10


class TestExactDistance:
    def test_two_piece_frozen(self):
        c = two_piece()
        x0 = c.point(0, 0, F(13), F(11))
        xn = c.point(1, 0, F(15), F(11))
        value, prof = exact_distance(c, x0, xn)
        assert value == 14
        assert prof == CrossingProfile((0, 1), (0,), (F(3),), (F(5),))
        assert grid_profile_min(c, x0, xn) == 14
        back, bprof = exact_distance(c, xn, x0)
        assert back == 14
        assert bprof == CrossingProfile((1, 0), (0,), (F(5),), (F(3),))

    def test_chain3_single_crossing_frozen(self):
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        y = c.point(1, 1, F(1), F(6))
        value, prof = exact_distance(c, a, y)
        assert value == 13
        assert prof == CrossingProfile((0, 1), (0,), (F(0),), (F(4),))
        assert grid_profile_min(c, a, y) == 13

    def test_chain3_double_crossing_frozen(self):
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        b = c.point(2, 0, F(2), F(5))
        value, prof = exact_distance(c, a, b)
        assert value == 14
        assert prof.vertices == (0, 1, 2)
        assert prof.edges == (0, 1)
        assert crossing_objective(c, prof, a, b) == 14
        assert grid_profile_min(c, a, b) == 14
        assert grid_profile_min(c, a, b, denom=2) == 14

    def test_wrong_minimum_raises_remeasure_mismatch(self, monkeypatch):
        # the re-measure on Fractions catches a minimizer whose value is off
        real = oracle_module.minimize_convex_pl

        def off_by_one(*objective):
            arg, val = real(*objective)
            return arg, val + 1

        monkeypatch.setattr(oracle_module, "minimize_convex_pl", off_by_one)
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        b = c.point(2, 0, F(2), F(5))
        with pytest.raises(RemeasureMismatch,
                           match="crossing objective 14 disagrees with minimized value"):
            exact_distance(c, a, b)

    def test_triple_support_short_circuits(self):
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        b = c.point(2, 0, F(2), F(-2))
        # b transfers across both walls of the middle piece
        assert sorted(c.supports(b)) == [0, 1, 2]
        value, prof = exact_distance(c, a, b)
        assert value == 11
        assert prof == CrossingProfile((0,), (), (), ())

    def test_same_piece_equals_piece_distance(self):
        c = chain3()
        rng = random.Random(5)

        def draw(v):
            tree = c.pieces[v].tree
            eid = rng.randrange(len(tree.edges))
            off = tree.edges[eid].length * F(rng.randrange(0, 9), 8)
            lo, hi = c.pieces[v].window
            return c.point(v, eid, off, lo + (hi - lo) * F(rng.randrange(0, 9), 8))

        for _ in range(25):
            v = rng.choice([0, 1, 2])
            a, b = draw(v), draw(v)
            value, prof = exact_distance(c, a, b)
            ra, rb = (ClusterPoint(v, *c.supports(p)[v]) for p in (a, b))
            assert value == piece_distance(c, ra, rb)
            assert len(prof.vertices) == 1

    def test_identity_and_coincidence(self):
        c = two_piece()
        p = c.point(0, 0, F(13), F(5))     # wall point
        q = ClusterPoint(1, *c.supports(p)[1])
        assert exact_distance(c, p, p)[0] == 0
        assert exact_distance(c, p, q)[0] == 0

    def test_representation_invariance(self):
        c = two_piece()
        wall = c.point(0, 0, F(13), F(5))
        other = ClusterPoint(1, *c.supports(wall)[1])
        far = c.point(1, 0, F(3), F(11))
        assert exact_distance(c, wall, far) == exact_distance(c, other, far)

    @pytest.mark.parametrize("seed", range(3))
    def test_route_distance_from_support_maps(self, seed):
        """Measuring from already-resolved support maps gives exact_distance,
        whichever support the two points are represented at."""
        c = generate_cluster(GeneratorParams(seed=seed, tree_size=(3, 8),
                                             piece_edges=(1, 10)))
        rng = random.Random(seed)
        pts = sample_points(c, rng, 8) + [wall_point(c, rng) for _ in range(4)]
        pts += [ClusterPoint(max(s), *s[max(s)]) for s in map(c.supports, pts)]
        assert any(p.vertex != min(c.supports(p)) for p in pts)
        for x, y in itertools.combinations(pts, 2):
            route = route_between(c, c.supports(x), c.supports(y))
            assert route_distance(c, route) == exact_distance(c, x, y)

    def test_metric_axioms_sampled(self):
        c = chain3()
        rng = random.Random(17)
        pts = random_points(c, rng, 8)
        d = {}
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                d[i, j] = exact_distance(c, x, y)[0]
        for i in range(len(pts)):
            assert d[i, i] == 0
            for j in range(len(pts)):
                assert d[i, j] == d[j, i]
                assert d[i, j] >= 0
                for k in range(len(pts)):
                    assert d[i, k] <= d[i, j] + d[j, k]

    def test_never_beaten_by_random_legal_profiles(self):
        c = chain3()
        rng = random.Random(23)
        pts = random_points(c, rng, 10)
        for x in pts:
            for y in pts:
                route = support_route(c, x, y)
                value, prof = route_distance(c, route)
                if len(prof.vertices) < 2:
                    continue
                verts, eids = prof.vertices, prof.edges
                for _ in range(20):
                    s, h = [], []
                    for i, e in enumerate(eids):
                        line = c.marks[(verts[i], e)]
                        twin = c.marks[(verts[i + 1], e)]
                        s.append(line.lo + (line.hi - line.lo) * F(rng.randrange(0, 9), 8))
                        h.append(twin.lo + (twin.hi - twin.lo) * F(rng.randrange(0, 9), 8))
                    cand = CrossingProfile(verts, eids, tuple(s), tuple(h))
                    assert crossing_objective(c, cand, route.start, route.end) >= value


class TestDiscretized:
    def test_in_piece_pairs_are_exact(self):
        # one attach node always lies on an l1 geodesic, so no wall means
        # no discretization error at all, even for off-grid queries
        c = two_piece()
        a = c.point(0, 0, F(13, 3), F(1, 3))
        b = c.point(0, 0, F(37, 5), F(-7, 2))
        want = piece_distance(c, a, b)
        assert DiscretizedOracle(c, F(5, 2)).distance(a, b) == want

    def test_crossing_within_bound_and_monotone(self):
        c = two_piece()
        x0 = c.point(0, 0, F(13), F(11))
        xn = c.point(1, 0, F(15), F(11))
        exact = F(14)
        coarse = DiscretizedOracle(c, F(1, 2)).distance(x0, xn)
        fine = DiscretizedOracle(c, F(1, 4)).distance(x0, xn)
        for val, eps in ((coarse, F(1, 2)), (fine, F(1, 4))):
            assert exact <= val <= exact + 4 * eps * 2
        assert fine <= coarse

    def test_aligned_crossing_is_exact(self):
        c = two_piece()
        x0 = c.point(0, 0, F(13), F(11))
        xn = c.point(1, 0, F(15), F(11))
        # integer minimizer and integer grid: the optimal crossing is a node
        assert DiscretizedOracle(c, F(1)).distance(x0, xn) == 14

    def test_chain3_agreement(self):
        c = chain3()
        oracle = DiscretizedOracle(c, F(1, 4))
        rng = random.Random(31)
        pts = random_points(c, rng, 6)
        for x, y in zip(pts, pts[1:]):
            value, prof = exact_distance(c, x, y)
            disc = oracle.distance(x, y)
            n = len(prof.vertices) - 1
            assert value <= disc <= value + 4 * F(1, 4) * (n + 1)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            DiscretizedOracle(two_piece(), F(1, 64), cap=100)

    def test_cap_refuses_before_sampling(self):
        # 2**45 parts per edge: the refusal comes from the part counts, so
        # its time and memory do not grow with 1 / eps
        c = two_piece()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(SizeCapError, match="nodes, over the cap of 100$"):
                DiscretizedOracle(c, F(1, 2**40), cap=100)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1
        assert peak < 2**20

    def test_default_eps(self):
        assert default_eps(two_piece()) == F(5, 2)
        assert default_eps(chain3()) == F(1, 4)


# -- the integer graph against a tuple-keyed Fraction graph -----------------------


class ReferenceGraph:
    """The discretization graph with tuple node keys and Fraction weights.

    Samples each piece on its own, with Fractions: every edge and every
    height gap between breakpoints (window ends and twin-range ends) in
    the fewest power-of-two parts of length <= eps.  Rails join
    consecutive heights, rungs consecutive tree samples, wall snaps join
    every sample on a mark (at every height in the twin range) to the
    samples around its transfer, and per query the ends are joined to the
    samples around them.  Dijkstra runs on Fractions directly.
    """

    def __init__(self, c, eps):
        self.c = c
        self.rows = {}      # (v, edge id) -> (step, tree samples at step * k)
        self.heights = {}   # v -> sample heights, increasing
        for v in c.tree.vertices:
            piece = c.pieces[v]
            for eid, e in enumerate(piece.tree.edges):
                step, parts = self._split(e.length, eps)
                self.rows[(v, eid)] = (step, [piece.tree.point(eid, step * k)
                                              for k in range(parts + 1)])
            ends = {t for eid, w in c.tree.neighbors(v)
                    for t in (c.marks[(w, eid)].lo, c.marks[(w, eid)].hi)}
            bs = sorted(ends | set(piece.window))
            hs = [bs[0]]
            for a, b in zip(bs, bs[1:]):
                step, parts = self._split(b - a, eps)
                hs.extend(a + step * k for k in range(1, parts + 1))
            self.heights[v] = hs
        self.adj = {}
        for v in c.tree.vertices:
            hs = self.heights[v]
            n_edges = len(c.pieces[v].tree.edges)
            pts = list(dict.fromkeys(
                p for eid in range(n_edges) for p in self.rows[(v, eid)][1]))
            for p in pts:
                for h1, h2 in zip(hs, hs[1:]):
                    self._edge((v, p, h1), (v, p, h2), h2 - h1)
            for eid in range(n_edges):
                step, row = self.rows[(v, eid)]
                for a, b in zip(row, row[1:]):
                    for h in hs:
                        self._edge((v, a, h), (v, b, h), step)
            for eid, w in c.tree.neighbors(v):
                line, twin = c.marks[(v, eid)], c.marks[(w, eid)]
                for p in pts:
                    if not on_carrier(line, p):
                        continue
                    t = line.coord_of(p)
                    for h in hs:
                        if twin.lo <= h <= twin.hi:
                            self._snap((v, p, h), w, twin.point_at(h), t)

    @staticmethod
    def _split(length, eps):
        parts = 1
        while length / parts > eps:
            parts *= 2
        return length / parts, parts

    def _edge(self, a, b, w):
        self.adj.setdefault(a, []).append((b, w))
        self.adj.setdefault(b, []).append((a, w))

    def _snap(self, node, v, hor, hei):
        """Join node to the samples of piece v around (hor, hei)."""
        step, row = self.rows[(v, hor.edge)]
        lo = int(hor.offset / step)
        near = [(row[k], abs(step * k - hor.offset))
                for k in (lo, lo + 1) if k < len(row)]
        hs = self.heights[v]
        if hei <= hs[0]:
            ups = [(hs[0], hs[0] - hei)]
        elif hei >= hs[-1]:
            ups = [(hs[-1], hei - hs[-1])]
        elif hei in hs:
            ups = [(hei, Fraction(0))]
        else:
            i = bisect_left(hs, hei)
            ups = [(hs[i - 1], hei - hs[i - 1]), (hs[i], hs[i] - hei)]
        for q, dq in near:
            for h, dh in ups:
                self._edge(node, (v, q, h), dq + dh)

    def distance(self, x, y):
        sx, sy = self.c.supports(x), self.c.supports(y)
        if lowest_point(sx) == lowest_point(sy):
            return Fraction(0)
        for label, reps in (("src",), sx), (("dst",), sy):
            for v, (hor, hei) in reps.items():
                self._snap(label, v, hor, hei)
        try:
            dist = {("src",): Fraction(0)}
            heap = [(Fraction(0), 0, ("src",))]
            tick = itertools.count(1)
            while heap:
                d, _, node = heapq.heappop(heap)
                if node == ("dst",):
                    return d
                if d > dist[node]:
                    continue
                for nxt, w in self.adj[node]:
                    if nxt not in dist or d + w < dist[nxt]:
                        dist[nxt] = d + w
                        heapq.heappush(heap, (d + w, next(tick), nxt))
            raise AssertionError("dst unreachable")
        finally:
            for label in (("src",), ("dst",)):
                for node, _ in self.adj.pop(label):
                    self.adj[node] = [e for e in self.adj[node] if e[0] != label]


def wall_point(c, rng, denominator=24):
    """A point on a random wall, off the power-of-two grid: it lies in both
    pieces of the wall's T-edge, and in more where walls meet."""
    eid = rng.randrange(len(c.tree.edges))
    v, w = c.tree.edges[eid]
    line, twin = c.marks[(v, eid)], c.marks[(w, eid)]
    t = line.lo + (line.hi - line.lo) * F(rng.randint(0, denominator), denominator)
    h = twin.lo + (twin.hi - twin.lo) * F(rng.randint(0, denominator), denominator)
    return c.point(v, *line.point_at(t), h)


def keyed_edges(oracle):
    """The oracle's adjacency with ids read back as (v, TreePoint, height)
    keys and weights as Fractions, each node's edges as a multiset.

    A sample's point is read off its edge row and offset over ``den``; a
    vertex sample reached from two edges must read back as one point.  A
    neighbour is its node's id plus the stored id step."""
    keys = []
    for v, grid in oracle.grids.items():
        points = {}
        for eid, (row, step) in enumerate(zip(grid.rows, grid.steps)):
            for k, i in enumerate(row):
                p = grid.tree.point(eid, F(k * step, oracle.den))
                assert points.setdefault(i, p) == p
        assert sorted(points) == list(range(len(points)))
        keys += [(v, points[i], F(h, oracle.den))
                 for i in range(len(points)) for h in grid.heights]
    assert len(keys) == len(oracle.adj)
    out = {}
    for a, nbrs in enumerate(oracle.adj):
        assert type(nbrs) is tuple
        assert all(type(step) is int and step and type(w) is int for step, w in nbrs)
        out[keys[a]] = Counter((keys[a + step], Fraction(w, oracle.den)) for step, w in nbrs)
    return out


REFEREE_INSTANCES = 30


@pytest.fixture(scope="module")
def oracle_corpus():
    """Seeded ORACLE_CORPUS instances: one, two or three pieces."""
    return [generate_cluster(dataclasses.replace(ORACLE_CORPUS, seed=7_000 + i))
            for i in range(REFEREE_INSTANCES)]


def test_path_bound_exceeds_every_path(oracle_corpus):
    """Dijkstra's unreached mark: every weight is at most the heaviest, so a
    simple path through all the nodes stays below the oracle's bound.
    Every id step lands on a grid node."""
    for c in oracle_corpus:
        oracle = DiscretizedOracle(c, 2 * default_eps(c))
        total = len(oracle.adj)
        assert all(0 <= a + step < total
                   for a, nbrs in enumerate(oracle.adj) for step, _ in nbrs)
        heaviest = max(weight for nbrs in oracle.adj for _, weight in nbrs)
        assert heaviest * (total - 1) < oracle.path_bound


def test_integer_graph_equals_reference(oracle_corpus):
    walls = 0
    for i, c in enumerate(oracle_corpus):
        eps = 2 * default_eps(c)   # coarser than the suite's: a quick reference
        oracle, ref = DiscretizedOracle(c, eps), ReferenceGraph(c, eps)
        assert keyed_edges(oracle) == {a: Counter(nbrs) for a, nbrs in ref.adj.items()}
        rng = random.Random(i)
        on_grid = sample_points(c, rng, 2)
        off_grid = sample_points(c, rng, 2, denominator=24)
        pairs = [on_grid, off_grid]
        if c.tree.edges:
            wall = wall_point(c, rng)
            assert len(c.supports(wall)) >= 2
            walls += 1
            sup = c.supports(wall)
            twin = ClusterPoint(max(sup), *sup[max(sup)])
            assert oracle.distance(twin, wall) == 0
            pairs += [(wall, off_grid[0]), (on_grid[1], wall)]
        # denominators prime to den: the ends lift to ints over den * m, m > 1
        coprime = [*sample_points(c, rng, 1, denominator=7),
                   *sample_points(c, rng, 1, denominator=11)]
        pairs.append(coprime)
        if c.tree.edges:
            pairs += [(wall_point(c, rng, 7), coprime[1]), (coprime[0], wall_point(c, rng, 11))]
        for x, y in pairs:
            assert oracle.distance(x, y) == ref.distance(x, y)
    assert walls >= REFEREE_INSTANCES // 2


class TestTwoEndedSearch:
    """The search from both ends against ReferenceGraph's one-ended
    Fraction Dijkstra, at the ends that test its meeting rule hardest."""

    @staticmethod
    def cell(oracle, v, rng):
        """A random grid cell of piece v: its edge, the offset and height
        of its low corner and its two sides, as Fractions."""
        grid, den = oracle.grids[v], oracle.den
        eid = rng.randrange(len(grid.rows))
        k = rng.randrange(len(grid.rows[eid]) - 1)
        j = rng.randrange(len(grid.heights) - 1)
        lo, hi = grid.heights[j:j + 2]
        step = F(grid.steps[eid], den)
        return eid, step * k, F(lo, den), step, F(hi - lo, den)

    def test_edge_cases_match_reference(self, oracle_corpus):
        pieces = {1: 0, 2: 0, 3: 0}
        for i, c in enumerate(oracle_corpus):
            pieces[len(c.tree.vertices)] += 1
            eps = 2 * default_eps(c)
            oracle, ref = DiscretizedOracle(c, eps), ReferenceGraph(c, eps)
            rng = random.Random(500 + i)
            v = rng.choice(c.tree.vertices)
            eid, off, h, dq, dh = self.cell(oracle, v, rng)
            # both ends inside one cell, so they attach to the same nodes
            x, y = (c.point(v, eid, off + dq * a, h + dh * b)
                    for a, b in ((F(1, 3), F(2, 3)), (F(3, 4), F(1, 4))))
            assert set(oracle._ends(c.supports(x), 12)) & set(oracle._ends(c.supports(y), 12))
            # the same cell at denominators 7 and 11, prime to den: m > 1
            x7, y11 = (c.point(v, eid, off + dq * F(a, q), h + dh * F(b, q))
                       for a, b, q in ((3, 5, 7), (9, 2, 11)))
            assert oracle.den % 7 and oracle.den % 11
            # an end exactly on a sample, and two samples in different pieces
            on_node = c.point(v, eid, off, h)
            w = rng.choice(c.tree.vertices)
            eid_w, off_w, h_w, _, _ = self.cell(oracle, w, rng)
            other_node = c.point(w, eid_w, off_w, h_w)
            (far,) = sample_points(c, rng, 1, denominator=24)
            for p, q in ((x, y), (x7, y11), (x7, far), (on_node, far),
                         (far, on_node), (on_node, other_node), (on_node, x)):
                assert oracle.distance(p, q) == ref.distance(p, q)
        assert min(pieces.values()) > 0

    def test_each_side_stops_at_half_the_distance(self, monkeypatch):
        """The search stops once the two heap tops sum past ``best``, so
        it pops no key above half the distance (stopping on the larger top
        alone pops keys up to the whole distance).  Integer ends: m = 1."""
        c = two_piece()
        oracle = DiscretizedOracle(c, F(1, 2))
        keys = []

        def recording(heap, _real=heapq.heappop):
            keys.append(heap[0][0])
            return _real(heap)
        monkeypatch.setattr(oracle_module, "heappop", recording)
        for (v, a, s), (w, b, t) in (((0, 13, 11), (1, 15, 11)), ((0, 1, -11), (1, 19, 11)),
                                     ((0, 3, 2), (0, 17, -5))):
            keys.clear()
            d = oracle.distance(c.point(v, 0, F(a), F(s)), c.point(w, 0, F(b), F(t)))
            assert keys and 2 * max(keys) <= d * oracle.den

    def test_common_attachment_and_no_meeting(self):
        """``best`` starts at the nodes both ends attach to: with every
        edge but 0-1 gone, a shared node still gives the distance, and
        ends with none in common and no path between them raise (a node
        not reached from the other side is no meeting)."""
        oracle = DiscretizedOracle(two_piece(), F(5, 2))
        oracle.adj = [((1, 5),), ((-1, 5),)] + [()] * (len(oracle.adj) - 2)
        assert oracle._dijkstra({0: 3, 2: 1}, {0: 4, 3: 0}, 1) == 7
        assert oracle._dijkstra({0: 3}, {1: 4}, 2) == 17
        with pytest.raises(AssertionError, match="unreachable"):
            oracle._dijkstra({0: 0}, {2: 0}, 1)


class TestOracleBound:
    """exact <= approx <= exact + 4 * eps * (n + 1), with both halves used."""

    def test_off_grid_pairs_overshoot_within_bound(self, oracle_corpus):
        over = 0
        for i, c in enumerate(oracle_corpus):
            eps = default_eps(c)
            oracle = DiscretizedOracle(c, eps)
            pts = sample_points(c, random.Random(100 + i), 20, denominator=24)
            for x, y in zip(pts[0::2], pts[1::2]):
                exact, prof = exact_distance(c, x, y)
                approx = oracle.distance(x, y)
                assert exact <= approx <= exact + 4 * eps * (len(prof.edges) + 1)
                over += approx > exact
        assert over > 0
