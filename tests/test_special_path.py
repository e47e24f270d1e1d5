"""Special path construction, gluing, sub-paths, and audit reports."""

import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from test_cluster import (chain3, grid_point, remarked_cluster, transfer_across_wall, two_piece,
                          wide_path)

import flipcluster.special_path as special_path_module
from flipcluster import distance_oracle, suites
from flipcluster.cluster import (
    Cluster,
    ClusterPoint,
    Piece,
    SimplicialTree,
    piece_distance,
    point_to_spec,
    route_between,
    support_route,
)
from flipcluster.distance_oracle import (CrossingProfile, DiscretizedOracle, default_eps,
                                         exact_distance)
from flipcluster.errors import ClusterValidationError, GlueMismatch, SegmentOverflow, SizeCapError
from flipcluster.generator import generate_cluster, sample_points
from flipcluster.metric_tree import Bridge, Line, MetricTree, Overlap, line_gate
from flipcluster.special_path import (
    PathSegment,
    length_ratio,
    route_path,
    special_path,
    star_audit,
    star_terms,
    subpath,
    subrange_ratios,
)

F = Fraction


def chain6() -> Cluster:
    """Six pieces along a path; middle bridges have gap 2 with interior feet.

    Middle pieces are H-shaped: two 5-long mark carriers joined by a
    2-long connector between their interior branch vertices, so the
    positive-gap bridge feet sit strictly inside the marks.
    """
    t = SimplicialTree([0, 1, 2, 3, 4, 5],
                       [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    pieces = {}
    marks = {}
    for v in (0, 5):
        z = MetricTree([(0, 1, 10)])
        pieces[v] = Piece(z, (F(-8), F(8)))
        eid = 0 if v == 0 else 4
        marks[(v, eid)] = Line(z, [0], 0, F(-5))        # range [-5, 5]
    for v in (1, 2, 3, 4):
        z = MetricTree([(0, 1, 2), (1, 2, 3), (1, 3, 2), (4, 3, 3), (3, 5, 2)])
        pieces[v] = Piece(z, (F(-8), F(8)))
        marks[(v, v - 1)] = Line(z, [0, 1], 0, F(-2))   # carrier 0-1-2, [-2, 3]
        marks[(v, v)] = Line(z, [3, 4], 4, F(-3))       # carrier 4-3-5, [-3, 2]
    return Cluster(t, pieces, marks)


def truncated_mark() -> tuple[SimplicialTree, dict, dict]:
    """Cluster arguments where piece 0's mark covers only half its tree:
    the carrier stops at the inner vertex 1, and validation refuses it."""
    t = SimplicialTree([0, 1], [(0, 1)])
    z0 = MetricTree([(0, 1, 10), (1, 2, 10)])
    z1 = MetricTree([(0, 1, 10)])
    pieces = {0: Piece(z0, (F(-6), F(6))), 1: Piece(z1, (F(-11), F(1)))}
    marks = {
        (0, 0): Line(z0, [0], 0, F(-10)),   # range [-10, 0], stops at vertex 1
        (1, 0): Line(z1, [0], 0, F(-5)),    # range [-5, 5]
    }
    return t, pieces, marks


def truncated_bridge() -> tuple[SimplicialTree, dict, dict]:
    """Cluster arguments for three pieces; the middle one is chain6's H
    tree, but its second mark stops at the branch vertex 3, which the tree
    continues past, so validation refuses it."""
    t = SimplicialTree([0, 1, 2], [(0, 1), (1, 2)])
    pieces = {}
    marks = {}
    for v, eid in ((0, 0), (2, 1)):
        z = MetricTree([(0, 1, 10)])
        pieces[v] = Piece(z, (F(-8), F(8)))
        marks[(v, eid)] = Line(z, [0], 0, F(-5))        # range [-5, 5]
    z = MetricTree([(0, 1, 2), (1, 2, 3), (1, 3, 2), (4, 3, 3), (3, 5, 2)])
    pieces[1] = Piece(z, (F(-8), F(8)))
    marks[(1, 0)] = Line(z, [0, 1], 0, F(-2))           # carrier 0-1-2, [-2, 3]
    marks[(1, 1)] = Line(z, [3], 4, F(-3))              # carrier 4-3, [-3, 0]
    return t, pieces, marks


def star_terms_referee(sp, prof) -> list[tuple[Fraction, Fraction]]:
    """star_terms on Fractions, term by term, as the library computed it
    before it ran on ints."""
    n = len(sp.segments) - 1
    out = []
    for i in range(n + 1):
        t_i = sp.segments[i].entry.height
        u_i = sp.segments[i].exit.height
        s_prev = prof.s[i - 1] if i >= 1 else t_i
        h_i = prof.h[i] if i <= n - 1 else u_i
        out.append((abs(t_i - u_i),
                    abs(s_prev - h_i) + abs(t_i - s_prev) + abs(h_i - u_i)))
    return out


def ref_route_path(c: Cluster, route) -> tuple:
    """route_path on Fractions, as the library built it before its path
    layer ran on ints: (vertices, edges, segments, length).  End gates come
    from line_gate and feet from point_at, the crossing parameters from the
    relation's own Fraction fields, and the glue check transfers every exit
    across its wall with the Fraction transfer."""
    verts, eids, x0, xn = route
    n = len(eids)
    if n == 0:
        seg = PathSegment(x0, xn, piece_distance(c, x0, xn))
        return verts, (), (seg,), seg.length
    first, last = c.marks[(verts[0], eids[0])], c.marks[(verts[n], eids[n - 1])]
    g0, d0 = line_gate(c.pieces[verts[0]].tree, x0.horizontal, first)
    gn, dn = line_gate(c.pieces[verts[n]].tree, xn.horizontal, last)
    # per piece: entry and exit feet, entry and exit parameters, horizontal leg
    hops = [(x0.horizontal, first.point_at(g0), None, g0, d0)]
    for i in range(1, n):
        rel = c._relation(verts[i], eids[i - 1], eids[i])[0]
        if isinstance(rel, Overlap):
            mid = (rel.lo1 + rel.hi1) / 2
            foot = c.marks[(verts[i], eids[i - 1])].point_at(mid)
            hops.append((foot, foot, mid, rel.sigma * mid + rel.shift, F(0)))
        else:
            hops.append((rel.p, rel.q, rel.param_p, rel.param_q, rel.gap))
    hops.append((last.point_at(gn), xn.horizontal, gn, None, dn))
    t = [x0.height, *(hop[3] for hop in hops[:-1])]
    u = [*(hop[2] for hop in hops[1:]), xn.height]
    segments = tuple(PathSegment(ClusterPoint(v, hop[0], a), ClusterPoint(v, hop[1], b),
                                 hop[4] + abs(a - b))
                     for v, hop, a, b in zip(verts, hops, t, u))
    for i in range(n):
        if transfer_across_wall(c, eids[i], segments[i].exit) != segments[i + 1].entry:
            raise GlueMismatch(f"segments {i} and {i + 1} fail to glue across edge {eids[i]}")
    return verts, eids, segments, sum(seg.length for seg in segments)


def assert_matches_ref(c: Cluster, route, sp=None) -> None:
    """route_path (or sp, built on the same route) reads as its Fraction
    referee: the same vertices, edges, segments and length."""
    sp = route_path(c, route) if sp is None else sp
    assert (sp.vertices, sp.edges, sp.segments, sp.length) == ref_route_path(c, route)


def referee_segments(c: Cluster, sp) -> None:
    """Checks of a special path that share no code with route_path: each
    segment's length is the in-piece distance between its entry and exit;
    across each wall the flip rule holds, read with coord_of on the two
    crossed marks (the next entry's height is the exit's parameter on the
    exit mark, and the exit's height the next entry's parameter on the
    twin); and the path's length is the sum of its segments' lengths."""
    for seg in sp.segments:
        assert seg.length == piece_distance(c, seg.entry, seg.exit)
    for i, eid in enumerate(sp.edges):
        out, into = sp.segments[i].exit, sp.segments[i + 1].entry
        assert into.height == c.marks[(out.vertex, eid)].coord_of(out.horizontal)
        assert out.height == c.marks[(into.vertex, eid)].coord_of(into.horizontal)
    assert sp.length == sum(seg.length for seg in sp.segments)


class TestConstruction:
    def test_same_piece_is_geodesic(self):
        c = chain3()
        a = c.point(1, 1, F(1), F(6))
        b = c.point(1, 2, F(1), F(6))
        sp = special_path(c, a, b)
        assert sp.vertices == (1,)
        assert sp.edges == ()
        assert len(sp.segments) == 1
        assert sp.length == piece_distance(c, a, b)
        assert sum(s.length for s in sp.segments) == sp.length

    def test_wall_endpoint_collapses_to_geodesic(self):
        # endpoint on the wall: the supporting vertex nearest the other
        # endpoint wins, so no crossing is spent reaching it
        c = two_piece()
        x0 = c.point(0, 0, F(10), F(0))     # mark parameter 0, height 0
        xn = c.point(1, 0, F(15), F(3))     # wall point: parameter 5, height 3
        sp = special_path(c, x0, xn)
        assert sp.vertices == (0,)
        assert sp.length == 8
        assert exact_distance(c, x0, xn)[0] == 8
        exit_rep = sp.segments[0].exit
        assert exit_rep.horizontal == c.pieces[0].tree.point(0, F(13))
        assert exit_rep.height == F(5)

    def test_single_crossing_attains_distance(self):
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        y = c.point(1, 1, F(1), F(6))
        sp = special_path(c, a, y)
        assert sp.vertices == (0, 1)
        assert [s.length for s in sp.segments] == [F(7), F(6)]
        assert sp.length == 13 == exact_distance(c, a, y)[0]
        heights = [(s.entry.height, s.exit.height) for s in sp.segments]
        assert heights == [(F(9), F(4)), (F(0), F(6))]

    def test_double_crossing_strictly_longer(self):
        # the middle piece forces the path through its mark overlap
        # midpoint, which the optimal crossing has no reason to visit
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        b = c.point(2, 0, F(2), F(5))
        sp = special_path(c, a, b)
        assert sp.vertices == (0, 1, 2)
        assert [s.length for s in sp.segments] == [F(19, 2), F(1), F(13, 2)]
        assert sp.length == 17
        assert exact_distance(c, a, b)[0] == 14
        mid = sp.segments[1]
        assert mid.entry.horizontal == mid.exit.horizontal

    def test_gluing_continuity(self):
        c = chain3()
        rng = random.Random(41)
        for _ in range(20):
            pts = []
            for _ in range(2):
                v = rng.choice([0, 1, 2])
                tree = c.pieces[v].tree
                eid = rng.randrange(len(tree.edges))
                off = tree.edges[eid].length * F(rng.randrange(0, 9), 8)
                lo, hi = c.pieces[v].window
                h = lo + (hi - lo) * F(rng.randrange(0, 9), 8)
                pts.append(c.point(v, eid, off, h))
            sp = special_path(c, *pts)
            a, b = sp.vertices[0], sp.vertices[-1]
            assert sp.segments[0].entry == ClusterPoint(a, *c.supports(pts[0])[a])
            assert sp.segments[-1].exit == ClusterPoint(b, *c.supports(pts[1])[b])
            for i, eid in enumerate(sp.edges):
                crossed = transfer_across_wall(c, eid, sp.segments[i].exit)
                assert crossed == sp.segments[i + 1].entry
            assert sp.length >= exact_distance(c, *pts)[0]

    def test_reversal_mirror(self):
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        b = c.point(2, 0, F(2), F(5))
        fwd = special_path(c, a, b)
        rev = special_path(c, b, a)
        assert rev.length == fwd.length
        assert rev.vertices == fwd.vertices[::-1]
        for sf, sr in zip(fwd.segments, rev.segments[::-1]):
            assert sf.entry == sr.exit and sf.exit == sr.entry


class TestSubpaths:
    def test_closure_structural_on_chain6(self):
        c = chain6()
        x = c.point(0, 0, F(2), F(7))
        y = c.point(5, 0, F(1), F(6))
        sp = special_path(c, x, y)
        assert sp.vertices == (0, 1, 2, 3, 4, 5)
        n = len(sp.segments) - 1
        for i in range(n + 1):
            for j in range(i, n + 1):
                sub = subpath(sp, i, j)
                again = special_path(c, sub.segments[0].entry,
                                     sub.segments[-1].exit)
                assert again == sub

    def test_closure_or_shortcut_on_chain3(self):
        # multi-wall points can hand a sub-path endpoint a closer support,
        # and the canonical path then skips pieces without getting longer
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        b = c.point(2, 0, F(2), F(5))
        sp = special_path(c, a, b)
        shortcuts = 0
        n = len(sp.segments) - 1
        for i in range(n + 1):
            for j in range(i, n + 1):
                sub = subpath(sp, i, j)
                again = special_path(c, sub.segments[0].entry,
                                     sub.segments[-1].exit)
                if again.vertices == sub.vertices:
                    assert again == sub
                else:
                    assert again.length <= sub.length
                    shortcuts += 1
        # the overlap midpoint transfers across both walls, so the three
        # ranges with an endpoint there re-root in a different piece
        assert shortcuts == 3

    def test_subpath_bounds(self):
        c = chain3()
        sp = special_path(c, c.point(0, 2, F(2), F(9)), c.point(2, 0, F(2), F(5)))
        with pytest.raises(IndexError):
            subpath(sp, 1, 3)
        with pytest.raises(IndexError):
            subpath(sp, -1, 1)


class TestSubrangeRatios:
    def test_length_checks(self):
        assert length_ratio(F(3), F(2)) == (F(3, 2), None)
        assert length_ratio(F(0), F(0)) == (None, None)
        ratio, problem = length_ratio(F(1), F(2))
        assert ratio is None and "beats the distance" in problem
        ratio, problem = length_ratio(F(1), F(0))
        assert ratio is None and "coincident" in problem

    def test_walk_covers_every_range_in_order(self):
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        b = c.point(2, 0, F(2), F(5))
        sp = special_path(c, a, b)
        d = exact_distance(c, a, b)[0]
        n = len(sp.segments) - 1
        walked = list(subrange_ratios(c, sp, d))
        assert [sub for sub, _, _ in walked] == [
            subpath(sp, i, j)
            for i, j in itertools.combinations_with_replacement(range(n + 1), 2)]
        assert all(problem is None for _, _, problem in walked)
        assert walked[n][1] == sp.length / d   # the whole range reuses d
        for sub, ratio, _ in walked:
            if len(sub.segments) == 1:
                assert ratio in (None, 1)   # pieces embed isometrically

    def test_suite_measures_each_range_once(self, monkeypatch):
        """One distance per pair, plus one per sub-range other than a walked
        path's whole range, whose ends are the pair's own points; the walk
        resolves the two ends and each crossing once, and outside the walk
        the suite resolves each point of a pair once."""
        calls = []

        def counting(*args, _fn=distance_oracle.exact_distance):
            calls.append(args)
            return _fn(*args)

        def counting_route(*args, _fn=distance_oracle.route_distance):
            calls.append(args)
            return _fn(*args)

        closures = []
        supports = Cluster.supports

        def counting_supports(self, pt):
            closures.append(pt)
            return supports(self, pt)

        walks = []

        def walking(c, sp, d, _fn=special_path_module.subrange_ratios):
            before = len(closures)
            yield from _fn(c, sp, d)
            walks.append((len(sp.segments) - 1, len(closures) - before))

        sampled = []

        def sampling(*args, _fn=suites.sample_points):
            before = len(closures)
            pts = _fn(*args)
            sampled.append(len(closures) - before)
            return pts

        monkeypatch.setattr(suites, "exact_distance", counting)
        for module in (suites, special_path_module):
            monkeypatch.setattr(module, "route_distance", counting_route)
        monkeypatch.setattr(Cluster, "supports", counting_supports)
        monkeypatch.setattr(suites, "subrange_ratios", walking)
        monkeypatch.setattr(suites, "sample_points", sampling)
        sizes = {"instances": 3, "pairs": 3, "subpath_pairs": 2}
        counters = suites.suite_bilipschitz(2, sizes, None)["counters"]
        walked = sizes["instances"] * sizes["subpath_pairs"]
        assert counters["subpaths"] > walked   # some walked path crosses a wall
        assert len(calls) == counters["pairs"] + counters["subpaths"] - walked
        assert len(walks) == walked
        assert {n > 0 for n, _ in walks} == {False, True}
        for n, made in walks:
            assert made == (n + 2 if n else 0)   # the two ends and each crossing
        outside = len(closures) - sum(sampled) - sum(made for _, made in walks)
        assert outside == 2 * counters["pairs"]


class TestMiddleSegments:
    """Segments 2..n-2 of a path with segments 0..n, which depend only on
    the vertex geodesic."""

    def test_short_paths_have_none(self):
        c = chain3()
        sp = special_path(c, c.point(0, 2, F(2), F(9)), c.point(2, 0, F(2), F(5)))
        assert sp.segments[2:-2] == ()

    def test_endpoint_independence(self):
        c = chain6()
        a1 = special_path(c, c.point(0, 0, F(2), F(7)), c.point(5, 0, F(1), F(6)))
        a2 = special_path(c, c.point(0, 0, F(9), F(6)), c.point(5, 0, F(8), F(-7)))
        assert len(a1.segments) == 6
        assert a1.segments[2:-2] == a2.segments[2:-2]
        assert len(a1.segments[2:-2]) == 2
        # and the first and last legs do depend on the endpoints
        assert a1.segments[0] != a2.segments[0]

    def test_deep_vertex_strong_form(self):
        # both geodesics pass vertex 3 at distance >= 2 from their
        # endpoints, so the paths agree on that whole piece
        c = chain6()
        a1 = special_path(c, c.point(0, 0, F(2), F(7)), c.point(5, 0, F(1), F(6)))
        a3 = special_path(c, c.point(1, 2, F(1), F(7)), c.point(5, 0, F(1), F(6)))
        assert a3.vertices == (1, 2, 3, 4, 5)
        assert a1.segments[3] == a3.segments[2]
        assert a1.segments[3].vertex == 3

    def test_middle_segment_shape(self):
        c = chain6()
        sp = special_path(c, c.point(0, 0, F(2), F(7)), c.point(5, 0, F(1), F(6)))
        assert len(sp.segments[2:-2]) == 2
        for seg in sp.segments[2:-2]:
            z = c.pieces[seg.vertex].tree
            assert seg.entry.horizontal == z.vertex_point(1)
            assert seg.exit.horizontal == z.vertex_point(3)
            assert seg.entry.height == seg.exit.height == 0
            assert seg.length == 2


class TestTruncatedCarriers:
    @pytest.mark.parametrize("build, mark", [(truncated_mark, "mark 0:0"),
                                             (truncated_bridge, "mark 1:1")])
    def test_rejected(self, build, mark):
        """A carrier that stops at an inner vertex is not a mark: no special
        path is ever built on one."""
        with pytest.raises(ClusterValidationError) as exc:
            Cluster(*build())
        assert [p[:2] for p in exc.value.problems] == [("non-maximal-mark", mark)]


class TestReports:
    def test_subrange_ratios_frozen(self):
        """The largest path/distance ratio over three pairs and every
        sub-range of their paths, and the first pair that attains it."""
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        b = c.point(2, 0, F(2), F(5))
        y = c.point(1, 1, F(1), F(6))
        walked = [(x, z, ratio, problem)
                  for x, z in ((a, b), (a, y), (a, a))
                  for _, ratio, problem in subrange_ratios(
                      c, special_path(c, x, z), exact_distance(c, x, z)[0])]
        assert all(problem is None for *_, problem in walked)
        top = max(ratio for _, _, ratio, _ in walked if ratio is not None)
        assert top == F(17, 14)
        x, z = next((x, z) for x, z, ratio, _ in walked if ratio == top)
        assert [point_to_spec(x), point_to_spec(z)] == [
            {"vertex": 0, "edge": 2, "offset": "2", "height": "9"},
            {"vertex": 2, "edge": 0, "offset": "2", "height": "5"},
        ]

    def test_star_audit_frozen(self):
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        y = c.point(1, 1, F(1), F(6))
        b = c.point(2, 0, F(2), F(5))
        assert star_audit(c, a, y) == [(F(5), F(5)), (F(6), F(6))]
        rows = star_audit(c, a, b)
        assert rows == [(F(15, 2), F(15, 2)), (F(1), F(1)), (F(13, 2), F(13, 2))]
        assert star_audit(c, a, a) == [(F(0), F(0))]

    def test_star_audit_holds_on_samples(self):
        c = chain6()
        rng = random.Random(59)
        for _ in range(15):
            for lhs, rhs in star_audit(c, grid_point(c, rng), grid_point(c, rng)):
                assert lhs <= rhs

    def test_star_terms_reuse_the_callers_path_and_profile(self):
        c = chain3()
        a = c.point(0, 2, F(2), F(9))
        b = c.point(2, 0, F(2), F(5))
        y = c.point(1, 1, F(1), F(6))
        sp = special_path(c, a, b)
        assert star_terms(sp, exact_distance(c, a, b)[1]) == star_audit(c, a, b)
        # a profile in thirds, finer than the path's frame of halves
        thirds = CrossingProfile(sp.vertices, sp.edges, (F(1, 3), F(2, 3)), (F(4, 3), F(-1, 3)))
        assert star_terms(sp, thirds) == star_terms_referee(sp, thirds)
        with pytest.raises(AssertionError, match="vertex geodesic"):
            star_terms(sp, exact_distance(c, a, y)[1])


class TestSupportCalls:
    """Each endpoint's support set is resolved once per call: the star
    audit takes its path and its profile along one support route."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        supports = Cluster.supports

        def counting(self, pt):
            calls.append(pt)
            return supports(self, pt)

        monkeypatch.setattr(Cluster, "supports", counting)
        return calls

    @pytest.mark.parametrize("fn, expected", [
        (exact_distance, 2),
        (special_path, 2),
        (star_audit, 2),
    ])
    def test_calls_per_pair(self, counted, fn, expected):
        cases = set()
        for c, seed in ((chain3(), 3), (chain6(), 59)):
            rng = random.Random(seed)
            for _ in range(40):
                x, y = grid_point(c, rng), grid_point(c, rng)
                cases.add(len(support_route(c, x, y).edges) > 0)
                counted.clear()
                fn(c, x, y)
                assert len(counted) == expected
        assert cases == {False, True}   # common-support and crossing pairs both ran


def relation_kinds(rel) -> set[str]:
    """The census names of one mark relation."""
    if isinstance(rel, Bridge):
        return {"bridge"}
    return {kind for kind, hit in (("reversed", rel.sigma == -1),
                                   ("one-point", rel.lo1 == rel.hi1)) if hit}


def cross_check(c: Cluster, seed: int, seen: Counter, oracle=None) -> None:
    """Special path, star audit and route_path on a route built from
    support maps, for 4 sampled pairs, each path against the segment
    referee and its star terms against their Fraction referee, and the
    grid oracle's bound when an oracle is given.  Counts every mark
    relation of the instance under its kind, and every checked pair under
    the kinds its route passes through, prefixed "route-"."""
    for v in c.tree.vertices:
        eids = [eid for eid, _ in c.tree.neighbors(v)]
        for e1, e2 in itertools.combinations(eids, 2):
            seen.update(relation_kinds(c.mark_relation(v, e1, e2)))
    pts = sample_points(c, random.Random(seed), 8)
    for x, y in zip(pts[::2], pts[1::2]):
        seen["pair"] += 1
        d, profile = exact_distance(c, x, y)
        if oracle is not None:
            seen["oracle"] += 1
            approx = oracle.distance(x, y)
            assert d <= approx <= d + 4 * oracle.eps * (len(profile.edges) + 1)
        route = route_between(c, c.supports(x), c.supports(y))
        sp = special_path(c, x, y)
        seen["special"] += 1
        assert route_path(c, route) == sp
        assert_matches_ref(c, route, sp)
        assert sp.length >= d
        referee_segments(c, sp)
        star = star_audit(c, x, y)
        assert star == star_terms(sp, profile) == star_terms_referee(sp, profile)
        assert all(lhs <= rhs for lhs, rhs in star)
        verts, eids = route.vertices, route.edges
        seen.update("route-" + kind for kind in set().union(*(
            relation_kinds(c.mark_relation(verts[i], eids[i - 1], eids[i]))
            for i in range(1, len(eids)))))


class TestRemarkedCorpus:
    """The grid oracle's bound, special path lengths, the star audit, and
    route_path on a route built from support maps against special_path,
    on mark pairs the generator never draws.  Every carrier runs leaf to
    leaf, so every sampled pair gets its path and its audit."""

    def test_cross_checks(self):
        """Small pieces, so enough grids fit the oracle's cap."""
        seen = Counter()
        for seed in range(400):
            c = remarked_cluster(seed)
            try:
                oracle = DiscretizedOracle(c, default_eps(c), cap=20_000)
            except SizeCapError:
                oracle = None
            cross_check(c, seed, seen, oracle)
        assert min(seen[k] for k in ("bridge", "reversed", "one-point")) > 0
        assert seen["special"] == seen["pair"] == 1600
        assert seen["oracle"] >= 200

    def test_cross_checks_large_pieces(self):
        """Larger pieces, where disjoint leaf-to-leaf carriers are common
        enough that sampled routes pass through bridged pieces."""
        seen = Counter()
        for seed in range(200):
            cross_check(remarked_cluster(seed, piece_edges=(6, 14)), seed, seen)
        assert seen["special"] == seen["pair"] == 800
        assert min(seen[k] for k in ("route-bridge", "route-reversed", "route-one-point")) > 0


class TestSegmentReferee:
    def test_corpus_pairs(self):
        """The segment and star-terms referees on generated instances."""
        walls = Counter()
        for seed in range(40):
            c = generate_cluster(dataclasses.replace(suites.CORPUS, seed=seed))
            pts = sample_points(c, random.Random(seed), 8)
            for x, y in zip(pts[::2], pts[1::2]):
                sp = special_path(c, x, y)
                profile = exact_distance(c, x, y)[1]
                assert_matches_ref(c, support_route(c, x, y), sp)
                referee_segments(c, sp)
                assert star_terms(sp, profile) == star_terms_referee(sp, profile)
                walls[min(len(sp.edges), 2)] += 1
        assert walls[1] > 0 and walls[2] >= 20   # inner pieces are checked too

    def test_wide_path(self):
        """The route_path referee on points whose supports span most of T:
        the replay pair, one wall apart, and sampled pairs, most of them
        hundreds of walls apart."""
        c, x, y = wide_path(400)
        pts = [x, y, *sample_points(c, random.Random(400), 20)]
        walls = Counter()
        for a, b in zip(pts[::2], pts[1::2]):
            route = support_route(c, a, b)
            assert_matches_ref(c, route)
            walls[min(len(route.edges), 2)] += 1
        assert walls[1] > 0 and walls[2] >= 5

    def test_fixture_paths(self):
        """Bridged pieces (chain6) and an overlap whose midpoint is a half
        (chain3), on grid points that often sit on walls and vertices."""
        for c, seed in ((chain3(), 3), (chain6(), 59)):
            rng = random.Random(seed)
            for _ in range(40):
                x, y = grid_point(c, rng), grid_point(c, rng)
                sp = special_path(c, x, y)
                referee_segments(c, sp)
                profile = exact_distance(c, x, y)[1]
                assert star_terms(sp, profile) == star_terms_referee(sp, profile)


class TestGlueCheck:
    """route_path reads its crossing heights from the relation memo's ints
    and checks every crossing on ints: the exit foot must be the exit
    mark's Line._foot at the exit parameter, and the twin's foot at the exit
    height the next entry foot.  A wrong int no longer matches the feet
    the relation places, and the check refuses the path with a typed
    error; a height outside the twin's range is a SegmentOverflow."""

    @pytest.mark.parametrize("build, x, y, key, kind, corrupt, edge", [
        # chain6's piece 2: the bridge's param_q one unit off (its exit foot)
        (chain6, (0, 0, 2, 7), (5, 0, 1, 6), (2, 1, 2), Bridge,
         lambda ints: [ints[0], ints[1] + 1, ints[2]], 2),
        # chain3's piece 1: the overlap's shift one unit off
        (chain3, (0, 2, 2, 9), (2, 0, 2, 5), (1, 0, 1), Overlap,
         lambda ints: [ints[0], ints[1], ints[2] + 1], 1),
        # chain6's piece 2: the bridge's param_p one unit off (its entry foot)
        (chain6, (0, 0, 2, 7), (5, 0, 1, 6), (2, 1, 2), Bridge,
         lambda ints: [ints[0] + 1, ints[1], ints[2]], 1),
    ])
    def test_corrupt_relation_int(self, build, x, y, key, kind, corrupt, edge):
        c = build()
        route = support_route(c, c.point(*x), c.point(*y))
        good = route_path(c, route)
        rel, ints = c._relations[key]
        assert isinstance(rel, kind)
        c._relations[key] = (rel, corrupt(ints))
        with pytest.raises(GlueMismatch, match=f"fail to glue across edge {edge}"):
            route_path(c, route)
        c._relations[key] = (rel, ints)
        assert route_path(c, route) == good

    def test_height_outside_twin_range(self):
        """chain6's piece 2 entered at a bridge parameter far past the end
        of its entry mark: the height carried across edge 1 does not lift
        onto that mark, the twin of the crossing."""
        c = chain6()
        route = support_route(c, c.point(0, 0, 2, 7), c.point(5, 0, 1, 6))
        route_path(c, route)   # fills the relation memo
        rel, ints = c._relations[(2, 1, 2)]
        c._relations[(2, 1, 2)] = (rel, [ints[0] + 100 * c.unit, *ints[1:]])
        with pytest.raises(SegmentOverflow):
            route_path(c, route)


class TestRoutePathWork:
    """route_path measures no tree distance on a route that crosses a
    wall: its legs are gate distances and bridge gaps.  A one-piece route
    is the piece geodesic, one distance.  Distances are counted at
    MetricTree._span, the tree climb under MetricTree.distance, which
    route_path calls on ints."""

    def test_no_tree_distance_on_crossing_routes(self, monkeypatch):
        calls = []
        span = MetricTree._span

        def counting(self, p, q, den):
            calls.append((p, q))
            return span(self, p, q, den)

        monkeypatch.setattr(MetricTree, "_span", counting)
        crossing = 0
        clusters = [(chain3(), 3), (chain6(), 59)]
        clusters += [(remarked_cluster(seed, piece_edges=(6, 14)), seed) for seed in range(20)]
        for c, seed in clusters:
            rng = random.Random(seed)
            for _ in range(20):
                route = support_route(c, grid_point(c, rng), grid_point(c, rng))
                calls.clear()
                route_path(c, route)
                assert len(calls) == (1 if not route.edges else 0)
                crossing += len(route.edges) > 0
        assert crossing >= 100


class TestFractionCount:
    """The bilipschitz suite's per-pair unit (support_route, route_distance,
    route_path, the path's length and star_terms) on a fixed CORPUS slice
    builds at most half the Fractions it built while the route layer made
    its gates, feet, heights and lengths as Fractions: 4,321 then, 1,762
    since (CPython 3.11; 200 pairs, 77 of them crossing a wall; each
    instance's relation memos and gate tables included, as in the suite).
    From Python 3.12 arithmetic results come from
    Fraction._from_coprime_ints, which bypasses __new__, so both count."""

    PARENT = 4321

    def test_at_most_half(self, monkeypatch):
        cases = []
        for seed in range(20):
            c = generate_cluster(dataclasses.replace(suites.CORPUS, seed=seed))
            pts = sample_points(c, random.Random(seed + 2), 20)
            cases += [(c, x, y) for x, y in zip(pts[::2], pts[1::2])]
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        if "_from_coprime_ints" in vars(Fraction):
            coprime = vars(Fraction)["_from_coprime_ints"].__func__

            def counting_coprime(cls, numerator, denominator):
                built.append(cls)
                return coprime(cls, numerator, denominator)
            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        lengths = []
        for c, x, y in cases:
            route = support_route(c, x, y)
            d, prof = distance_oracle.route_distance(c, route)
            sp = route_path(c, route)
            star_terms(sp, prof)
            lengths.append((sp.length, d))
        monkeypatch.undo()
        assert all(length >= d for length, d in lengths)
        assert 0 < len(built) <= self.PARENT // 2
