"""Rescaling as a metamorphic check: (X, d) against (X, lambda * d).

An asymptotic cone is a limit of rescaled spaces (X, d / lambda_n), so
every exact quantity the kernel computes must commute with a uniform
rescaling.  ``scaled_spec`` multiplies every length of an instance's wire
form by lambda: tree edge lengths, height windows, mark ranges and
origins.  Points scale the same way (offsets and heights), and then the
distance, the optimal crossing profile, the special path's length, the
star-audit terms and the grid oracle's value at lambda * eps all scale
by exactly lambda, and the isometry search finds the same maps with
every shift times lambda.  The factors are not dyadic, so the int units
inside the kernel meet denominators the generator never draws.

The route layer and the grid oracle build their ints on ``Cluster.unit``;
``test_unit_clears_every_parameter`` checks, on the same corpora at the
same factors, that the unit clears every denominator they lift.
"""

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from test_metric_tree import vertex_params

from flipcluster.cluster import to_spec, validate
from flipcluster.cluster_iso import isomorphic
from flipcluster.distance_oracle import DiscretizedOracle, default_eps, exact_distance
from flipcluster.generator import generate_cluster, mutated_pair, planted_pair, sample_points
from flipcluster.rational import format_rational, parse_rational
from flipcluster.special_path import special_path, star_terms
from flipcluster.suites import CORPUS, ISO_CORPUS, ORACLE_CORPUS

F = Fraction
LAMBDAS = (F(7, 3), F(1, 5), F(13, 17))


def scaled_spec(spec: dict, lam: Fraction) -> dict:
    """The wire form of the instance with every length times lam."""

    def sc(text: str) -> str:
        return format_rational(parse_rational(text) * lam)

    pieces = {
        v: {"tree_edges": [[a, b, sc(length)] for a, b, length in p["tree_edges"]],
            "height_window": [sc(x) for x in p["height_window"]]}
        for v, p in spec["pieces"].items()}
    marks = {key: {**m, "range": [sc(x) for x in m["range"]], "origin": sc(m["origin"])}
             for key, m in spec["marks"].items()}
    return {"tree": spec["tree"], "pieces": pieces, "marks": marks}


def scaled_point(c, pt, lam):
    return c.point(pt.vertex, pt.horizontal.edge, pt.horizontal.offset * lam, pt.height * lam)


def corpus_instances(params, count):
    for i in range(count):
        yield generate_cluster(dataclasses.replace(params, seed=i))


def test_scaled_spec_scales_every_length():
    c = generate_cluster(dataclasses.replace(CORPUS, seed=3))
    cs = validate(scaled_spec(to_spec(c), F(7, 3)))
    assert cs.tree.edges == c.tree.edges
    for v, piece in c.pieces.items():
        assert cs.pieces[v].tree._lengths == [x * F(7, 3) for x in piece.tree._lengths]
        assert cs.pieces[v].window == tuple(x * F(7, 3) for x in piece.window)
    for key, line in c.marks.items():
        assert (cs.marks[key].lo, cs.marks[key].hi) == (line.lo * F(7, 3), line.hi * F(7, 3))
    # back again: the round trip is the identity on the wire form
    assert scaled_spec(to_spec(cs), F(3, 7)) == to_spec(c)


@pytest.mark.parametrize("lam", LAMBDAS, ids=format_rational)
def test_route_layer_commutes_with_rescaling(lam):
    pairs = crossing = 0
    for i, c in enumerate(corpus_instances(CORPUS, 12)):
        cs = validate(scaled_spec(to_spec(c), lam))
        pts = sample_points(c, random.Random(i), 8)
        for x, y in zip(pts[0::2], pts[1::2]):
            xs, ys = scaled_point(cs, x, lam), scaled_point(cs, y, lam)
            d, prof = exact_distance(c, x, y)
            ds, profs = exact_distance(cs, xs, ys)
            assert ds == lam * d
            assert (profs.vertices, profs.edges) == (prof.vertices, prof.edges)
            assert profs.s == tuple(lam * s for s in prof.s)
            assert profs.h == tuple(lam * h for h in prof.h)
            sp, sps = special_path(c, x, y), special_path(cs, xs, ys)
            assert sps.length == lam * sp.length
            assert star_terms(sps, profs) == [(lam * a, lam * b) for a, b in star_terms(sp, prof)]
            pairs += 1
            crossing += len(prof.edges) > 0
    assert (pairs, crossing) == (48, 22)


@pytest.mark.parametrize("lam", LAMBDAS, ids=format_rational)
def test_grid_oracle_commutes_with_rescaling(lam):
    pairs = crossing = 0
    for i, c in enumerate(corpus_instances(ORACLE_CORPUS, 6)):
        cs = validate(scaled_spec(to_spec(c), lam))
        eps = default_eps(c)
        oracle, scaled = DiscretizedOracle(c, eps), DiscretizedOracle(cs, lam * eps)
        pts = sample_points(c, random.Random(i), 6)
        for x, y in zip(pts[0::2], pts[1::2]):
            got = scaled.distance(scaled_point(cs, x, lam), scaled_point(cs, y, lam))
            assert got == lam * oracle.distance(x, y)
            pairs += 1
            crossing += x.vertex != y.vertex
    assert pairs == 18 and crossing > 0


@pytest.mark.parametrize("lam", LAMBDAS, ids=format_rational)
def test_isometry_search_commutes_with_rescaling(lam):
    """isomorphic(lam A, lam B) has the verdict of isomorphic(A, B), the
    same vertex and mark maps, and every height and transform shift times
    lam; A and lam A are never isometric.  The scaled pairs' int frame
    lcm(unit, unit) is not a power of two."""
    found = pairs = 0
    for i in range(20):
        params = dataclasses.replace(ISO_CORPUS, seed=i)
        for ca, cb in (planted_pair(params), mutated_pair(params)):
            sa, sb = (validate(scaled_spec(to_spec(c), lam)) for c in (ca, cb))
            den = lcm(sa.unit, sb.unit)
            assert den & (den - 1)
            triple, scaled = isomorphic(ca, cb), isomorphic(sa, sb)
            assert (scaled is None) == (triple is None)
            assert isomorphic(ca, sa) is None
            pairs += 1
            if triple is None:
                continue
            found += 1
            assert (scaled.psi, scaled.edge_map) == (triple.psi, triple.edge_map)
            for v, pm in triple.phi.items():
                spm = scaled.phi[v]
                assert (spm.iso.vertex_map, spm.iso.mark_map) == \
                    (pm.iso.vertex_map, pm.iso.mark_map)
                assert spm.height_shift == lam * pm.height_shift
                assert spm.iso.transforms == tuple((s, lam * t) for s, t in pm.iso.transforms)
    assert (pairs, found) == (40, 20)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([CORPUS, ORACLE_CORPUS]), st.integers(0, 10_000),
       st.sampled_from((F(1),) + LAMBDAS))
def test_unit_clears_every_parameter(params, seed, lam):
    c = generate_cluster(dataclasses.replace(params, seed=seed))
    if lam != 1:
        c = validate(scaled_spec(to_spec(c), lam))
    qs = [q for piece in c.pieces.values() for q in (*piece.window, *piece.tree._lengths)]
    for line in c.marks.values():
        qs += [line.lo, line.hi, *vertex_params(line).values()]
        qs += [q for g, dist in line.vertex_gates.values()
               for q in (line._param(g), F(dist, line.tree.scale))]
    assert [q for q in qs if (c.unit * q).denominator != 1] == []
    if params is ORACLE_CORPUS:   # the grid oracle's denominator refines the unit
        assert DiscretizedOracle(c, default_eps(c)).den % c.unit == 0
