"""Instance validation, wall transfers, supports, and the JSON wire format."""

import copy
import dataclasses
import json
import pickle
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from flipcluster.cluster import (
    Cluster,
    ClusterPoint,
    Piece,
    SimplicialTree,
    dumps,
    lowest_point,
    piece_distance,
    point_of_spec,
    point_to_spec,
    support_route,
    to_spec,
    validate,
)
from flipcluster.errors import (
    ClusterValidationError,
    InvalidPointError,
    NotOnLineError,
    SegmentOverflow,
    excerpt,
)
from flipcluster.cluster_iso import image_supports, isomorphic, verify_good
from flipcluster.distance_oracle import DiscretizedOracle, exact_distance
from flipcluster.generator import (
    GeneratorParams,
    generate_cluster,
    sample_points,
    slide_mark,
    widen_window,
)
from flipcluster.metric_tree import Line, MetricTree, RootedTree
from flipcluster.special_path import special_path, star_audit, star_terms
from flipcluster.suites import CORPUS

F = Fraction


def transfer_across_wall(c: Cluster, eid: int, pt: ClusterPoint) -> ClusterPoint:
    """Re-express a wall point of edge eid on the other side, on Fractions.

    The result is the representation at the neighbor vertex, not the
    canonical form; transferring back returns the input exactly.  The
    library crosses walls on ints (the support walk, route_path's glue
    check); this is the Fraction form they are checked against.
    """
    w = c.tree.other_end(eid, pt.vertex)
    t = c.marks[(pt.vertex, eid)].coord_of(pt.horizontal)  # NotOnLineError if off the wall
    twin = c.marks[(w, eid)]
    if not twin.lo <= pt.height <= twin.hi:
        raise SegmentOverflow(
            f"height {excerpt(pt.height)} outside the twin mark range "
            f"[{excerpt(twin.lo)}, {excerpt(twin.hi)}] on edge {eid}",
            edge=eid,
            param=pt.height,
        )
    return ClusterPoint(w, twin.point_at(pt.height), t)


def grid_point(c: Cluster, rng: random.Random) -> ClusterPoint:
    """A point on the k/8 grid of a random piece: often a vertex or a wall
    point, so points with several supports are common."""
    v = rng.choice(list(c.tree.vertices))
    tree = c.pieces[v].tree
    eid = rng.randrange(len(tree.edges))
    off = tree.edges[eid].length * F(rng.randrange(0, 9), 8)
    lo, hi = c.pieces[v].window
    h = lo + (hi - lo) * F(rng.randrange(0, 9), 8)
    return c.point(v, eid, off, h)


def tree_hops(c: Cluster, a: int) -> dict[int, int]:
    """Hop distances in T from vertex a, by breadth-first search."""
    hops, queue = {a: 0}, [a]
    for u in queue:
        for _, w in c.tree.neighbors(u):
            if w not in hops:
                hops[w] = hops[u] + 1
                queue.append(w)
    return hops


def remarked_cluster(seed: int, piece_edges: tuple[int, int] = (2, 6)) -> Cluster:
    """A generated cluster re-marked with random leaf-to-leaf carriers,
    each between two distinct leaves in a random orientation, its windows
    recomputed as the generator does (the hull of the incoming mark
    ranges, slack 2).  Generated marks are all diameter paths in one
    direction, so only re-marked instances reach disjoint marks, reversed
    overlaps and one-point overlaps."""
    rng = random.Random(seed)
    c = generate_cluster(GeneratorParams(seed=seed, tree_size=(2, 5), piece_edges=piece_edges))
    marks = {}
    for v, eid in sorted(c.marks):
        tree = c.pieces[v].tree
        a, b = rng.sample([u for u in tree.vertices if tree.degree(u) == 1], 2)
        path = tree.rooted_at(a).path(a, b)[1]
        marks[(v, eid)] = Line(tree, path, a, F(rng.randint(-32, 32), 8))
    pieces = {}
    for v, piece in c.pieces.items():
        spans = [marks[(w, eid)] for eid, w in c.tree.neighbors(v)]
        lo, hi = min(line.lo for line in spans), max(line.hi for line in spans)
        mid, half = (lo + hi) / 2, hi - lo   # half the hull's width, times 2
        pieces[v] = Piece(piece.tree, (mid - half, mid + half))
    return Cluster(c.tree, pieces, marks)


def two_piece_spec(range_hi="10", window=("-12", "12")):
    """Two segment pieces [-10, 10] glued along their full marks.  Each
    entry is built fresh, so editing one in place leaves the others."""

    def seg():
        return {"tree_edges": [[0, 1, "20"]], "height_window": list(window)}

    def mark():
        return {"path": [0], "range": ["-10", range_hi], "origin": "-10", "orient": 1}

    return {
        "tree": {"vertices": [0, 1], "edges": [[0, 1]]},
        "pieces": {"0": seg(), "1": seg()},
        "marks": {"0:0": mark(), "1:0": mark()},
    }


def two_piece() -> Cluster:
    return validate(two_piece_spec())


def unchecked_spec(tree: SimplicialTree, pieces: dict, marks: dict) -> dict:
    """The wire form of Cluster arguments, built without validating them,
    for instances that validation must refuse."""
    return to_spec(SimpleNamespace(tree=tree, pieces=pieces, marks=marks))


def h_piece_pair(line_args) -> tuple[SimplicialTree, dict, dict]:
    """Cluster arguments for two pieces: piece 0 is an H tree (leaves 0,
    2, 4, 5, inner vertices 1 and 3) marked by Line(tree, *line_args),
    piece 1 a single edge marked end to end."""
    h = MetricTree([(0, 1, 2), (1, 2, 3), (1, 3, 2), (4, 3, 3), (3, 5, 2)])
    seg = MetricTree([(0, 1, 10)])
    pieces = {0: Piece(h, (F(-20), F(20))), 1: Piece(seg, (F(-20), F(20)))}
    marks = {(0, 0): Line(h, *line_args), (1, 0): Line(seg, [0], 0, F(0))}
    return SimplicialTree([0, 1], [(0, 1)]), pieces, marks


def chain3() -> Cluster:
    """Three pieces along a path; the middle piece's marks share an edge."""
    t = SimplicialTree([0, 1, 2], [(0, 1), (1, 2)])
    z0 = MetricTree([(0, 1, 2), (1, 2, 3), (1, 3, 4)])
    z1 = MetricTree([(0, 1, 3), (0, 2, 5), (0, 3, 4)])
    z2 = MetricTree([(0, 1, 6)])
    pieces = {
        0: Piece(z0, (F(-1), F(9))),
        1: Piece(z1, (F(-3), F(6))),
        2: Piece(z2, (F(-4), F(5))),
    }
    marks = {
        (0, 0): Line(z0, [0, 1], 0, F(-2)),   # range [-2, 3]
        (1, 0): Line(z1, [0, 1], 1, F(0)),    # range [0, 8]
        (1, 1): Line(z1, [0, 2], 1, F(-3)),   # range [-3, 4]
        (2, 1): Line(z2, [0], 0, F(-1)),      # range [-1, 5]
    }
    return Cluster(t, pieces, marks)


class TestValidation:
    def test_single_vertex_no_edges(self):
        spec = {
            "tree": {"vertices": [0], "edges": []},
            "pieces": {"0": {"tree_edges": [[0, 1, "1"]], "height_window": ["0", "1"]}},
            "marks": {},
        }
        c = validate(spec)
        assert c.tree.vertices == (0,)
        assert c.marks == {}

    def test_two_piece_valid(self):
        c = two_piece()
        assert c.tree.edges == ((0, 1),)
        line = c.marks[(0, 0)]
        assert line.hi - line.lo == 20

    def test_two_piece_spec_entries_are_fresh(self):
        spec = two_piece_spec()
        spec["marks"]["0:0"]["range"][0] = "-9"
        spec["pieces"]["0"]["tree_edges"][0][2] = "19"
        assert spec["marks"]["1:0"]["range"] == ["-10", "10"]
        assert spec["pieces"]["1"]["tree_edges"] == [[0, 1, "20"]]

    def test_window_range_mismatch(self):
        spec = two_piece_spec()
        spec["pieces"]["1"]["height_window"] = ["0", "5"]
        with pytest.raises(ClusterValidationError) as exc:
            validate(spec)
        codes = {p[0] for p in exc.value.problems}
        assert "window-range-mismatch" in codes
        assert any("edge 0" in p[1] for p in exc.value.problems)

    @pytest.mark.parametrize("defect, problem", [
        ("drop-piece", ("missing-piece", "vertex 2", "no piece assigned")),
        ("orphan-piece", ("orphan-piece", "vertex 7", "piece for a missing vertex")),
        ("drop-mark", ("missing-mark", "edge 1 at vertex 2", "no mark line")),
        ("off-edge-mark", ("dangling-mark", "mark 2:0", "edge not incident to vertex")),
        ("missing-edge-mark", ("dangling-mark", "mark 5:9", "edge not incident to vertex")),
        ("foreign-line", ("foreign-line", "mark 2:1", "line lives in another piece's tree")),
        ("empty-window", ("empty-window", "vertex 2", "height window [5, 5] is empty")),
        # edges[-1] would read the last T-edge, (1, 2)
        ("negative-edge-mark", ("dangling-mark", "mark 2:-1", "edge not incident to vertex")),
    ])
    def test_cluster_check_problem(self, defect, problem):
        """Each structural defect of chain3 yields exactly its one problem."""
        c = chain3()
        pieces, marks = dict(c.pieces), dict(c.marks)
        z2 = pieces[2].tree
        if defect == "drop-piece":
            del pieces[2]
        elif defect == "orphan-piece":
            pieces[7] = Piece(MetricTree([(0, 1, 1)]), (F(0), F(1)))
        elif defect == "drop-mark":
            del marks[(2, 1)]
        elif defect == "off-edge-mark":
            marks[(2, 0)] = Line(z2, [0], 0, F(-1))
        elif defect == "missing-edge-mark":
            marks[(5, 9)] = Line(z2, [0], 0, F(-1))
        elif defect == "negative-edge-mark":
            marks[(2, -1)] = Line(z2, [0], 0, F(-1))
        elif defect == "foreign-line":
            marks[(2, 1)] = Line(MetricTree(z2.edges), [0], 0, F(-1))
        else:
            pieces[2] = Piece(z2, (F(5), F(5)))
        with pytest.raises(ClusterValidationError) as exc:
            Cluster(c.tree, pieces, marks)
        assert exc.value.problems == [problem]

    @pytest.mark.parametrize("eid, problems", [
        ("0", [("missing-mark", "edge 0 at vertex 1", "no mark line"),
               ("dangling-mark", "mark 1:0", "edge not incident to vertex")]),
        # (1, 0.0) hashes and compares as (1, 0), so the incidence is not missing
        (0.0, [("dangling-mark", "mark 1:0.0", "edge not incident to vertex")]),
    ])
    def test_mark_keyed_by_non_int_edge_is_dangling(self, eid, problems):
        """A mark keyed by an edge id that is not an int is a dangling-mark
        record, not a TypeError from the range test or the edge lookup."""
        c = two_piece()
        marks = dict(c.marks)
        marks[(1, eid)] = marks.pop((1, 0))
        with pytest.raises(ClusterValidationError) as exc:
            Cluster(c.tree, c.pieces, marks)
        assert exc.value.problems == problems

    @pytest.mark.parametrize("path, start, end", [
        ([1], 1, 2),   # the start is inner
        ([0], 0, 1),   # the end is inner
        ([2], 1, 3),   # both are
    ])
    def test_rejects_non_maximal_mark(self, path, start, end):
        """A carrier with an inner end yields one non-maximal-mark record,
        from Cluster and from validate alike."""
        args = h_piece_pair((path, start, F(0)))
        want = [("non-maximal-mark", "mark 0:0",
                 f"carrier from vertex {start} to vertex {end} does not run leaf to leaf")]
        with pytest.raises(ClusterValidationError) as exc:
            Cluster(*args)
        assert exc.value.problems == want
        with pytest.raises(ClusterValidationError) as exc:
            validate(unchecked_spec(*args))
        assert exc.value.problems == want

    def test_accepts_leaf_to_leaf_marks(self):
        """A carrier across the H tree's rung, and a one-edge piece's only
        edge, both run leaf to leaf."""
        c = Cluster(*h_piece_pair(([0, 2, 3], 0, F(0))))
        assert validate(to_spec(c)).marks.keys() == {(0, 0), (1, 0)}
        assert c.marks[(1, 0)].edge_path == (0,)

    def test_rejects_disconnected_tree(self):
        """A triangle beside an isolated vertex has the edge count of a tree."""
        spec = two_piece_spec()
        spec["tree"] = {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 0]]}
        with pytest.raises(ClusterValidationError) as exc:
            validate(spec)
        assert exc.value.problems == [("bad-tree", "tree", "tree is not connected")]

    def test_empty_windows_through_validate(self):
        with pytest.raises(ClusterValidationError) as exc:
            validate(two_piece_spec(window=("12", "-12")))
        assert exc.value.problems == [
            ("empty-window", f"vertex {v}", "height window [12, -12] is empty") for v in (0, 1)]

    def test_rejects_noncanonical_rationals(self):
        for bad in ("5/10", "5/1", "5/0", "+3", "3.5"):
            spec = two_piece_spec()
            spec["pieces"]["0"]["height_window"] = [bad, "12"]
            with pytest.raises(ClusterValidationError):
                validate(spec)

    def test_rejects_origin_not_range_start(self):
        spec = two_piece_spec()
        spec["marks"]["0:0"]["origin"] = "0"
        with pytest.raises(ClusterValidationError) as exc:
            validate(spec)
        assert any(p[0] == "origin-mismatch" for p in exc.value.problems)

    def test_rejects_wrong_range_end(self):
        spec = two_piece_spec(range_hi="9")
        with pytest.raises(ClusterValidationError) as exc:
            validate(spec)
        assert any(p[0] == "range-length-mismatch" for p in exc.value.problems)

    def test_rejects_inconsistent_orient(self):
        c = chain3()
        spec = to_spec(c)
        assert spec["marks"]["0:0"]["orient"] == 1
        spec["marks"]["0:0"]["orient"] = -1
        with pytest.raises(ClusterValidationError) as exc:
            validate(spec)
        assert any(p[0] == "bad-orient" for p in exc.value.problems)

    def test_rejects_non_integer_ids(self):
        """Ids that int() would read as another id (a float, a bool, a
        numeric string) are rejected, not coerced."""
        def chain3_spec():
            return to_spec(chain3())

        cases = [
            (two_piece_spec, ("tree", "vertices"), [0.25, 1]),
            (two_piece_spec, ("tree", "vertices"), ["0", 1]),
            (two_piece_spec, ("tree", "vertices"), [0, True]),
            (two_piece_spec, ("tree", "edges"), [[0, True]]),
            (two_piece_spec, ("pieces", "0", "tree_edges"), [[0.5, 1, "20"]]),
            (two_piece_spec, ("pieces", "0", "tree_edges"), [[0, True, "20"]]),
            (chain3_spec, ("marks", "0:0", "path"), [0, True]),
            (chain3_spec, ("marks", "0:0", "orient"), True),
        ]
        for make, keys, value in cases:
            spec = make()
            node = spec
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
            with pytest.raises(ClusterValidationError):
                validate(spec)

    def test_parse_memo_keeps_no_failure(self):
        # validate parses each distinct string once; a string that fails
        # must fail again, with its own problem, in every piece that uses it
        spec = two_piece_spec()
        for v in ("0", "1"):
            spec["pieces"][v]["tree_edges"] = [[0, 1, "2/4"]]
        with pytest.raises(ClusterValidationError) as exc:
            validate(spec)
        assert [p[:2] for p in exc.value.problems] == [
            ("bad-piece-tree", "piece 0"), ("bad-piece-tree", "piece 1")]
        assert all("not in lowest terms" in p[2] for p in exc.value.problems)
        # unhashable and non-string values fail the same way, uncached
        for bad in ([20], 20):
            spec = two_piece_spec()
            for v in ("0", "1"):
                spec["pieces"][v]["tree_edges"] = [[0, 1, bad]]
            with pytest.raises(ClusterValidationError) as exc:
                validate(spec)
            assert [p[0] for p in exc.value.problems] == ["bad-piece-tree"] * 2

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1]], "not enough values to unpack (expected 3, got 2)"),
        ([[0, 1, "20", "1"]], "too many values to unpack (expected 3)"),
        ([[0, 1, "40/2"]], "non-canonical rational '40/2': not in lowest terms"),
        ([[0, 0, "20"]], "edge 0 is a self-loop at vertex 0"),
        ([[0, 1, "10"], [1, 2]], "not enough values to unpack (expected 3, got 2)"),
        ([[0, 1, "10"], [1, 1, "10"]], "edge 1 is a self-loop at vertex 1"),
        ([[0, 1, "10"], [1, 2, "2/4"]], "non-canonical rational '2/4': not in lowest terms"),
        (20, "'int' object is not iterable"),
        # the edges are parsed as the tree reads them, so of two faulty
        # edges the first is reported
        ([[0, 0, "20"], [1, 2, "2/4"]], "edge 0 is a self-loop at vertex 0"),
    ])
    def test_malformed_piece_edge_record(self, edges, message):
        """A malformed edge entry yields one bad-piece-tree record, word for word."""
        spec = two_piece_spec()
        spec["pieces"]["0"]["tree_edges"] = edges
        with pytest.raises(ClusterValidationError) as exc:
            validate(spec)
        assert exc.value.problems == [("bad-piece-tree", "piece 0", message)]

    def test_parse_memo_shares_canonical_lengths(self):
        c = two_piece()
        lengths = [c.pieces[v].tree.edges[0].length for v in (0, 1)]
        assert lengths == [F(20), F(20)]
        assert c.marks[(0, 0)].lo == c.marks[(1, 0)].lo == F(-10)

    def test_rejects_missing_mark_key(self):
        spec = two_piece_spec()
        del spec["marks"]["1:0"]
        with pytest.raises(ClusterValidationError):
            validate(spec)

    LONG = "k" * 100_000
    LONG_SHOWN = f"{'k' * 60!r}... (100000 characters)"

    @pytest.mark.parametrize("keys, value, problem", [
        (("tree", "vertices", 0), LONG, ("bad-tree", "tree", f"ids must be integers, got {LONG_SHOWN}")),
        (("pieces", "0", "tree_edges"), [[0, LONG, "20"]],
         ("bad-piece-tree", "piece 0", f"ids must be integers, got {LONG_SHOWN}")),
        (("marks", "0:0", "orient"), LONG,
         ("bad-orient", "mark 0:0", f"orient must be 1 or -1, got {LONG_SHOWN}")),
        (("pieces", LONG), {}, ("schema", "pieces",
                                f"keys do not match tree vertices (unexpected {LONG_SHOWN})")),
        (("marks",), {"0:0": {}, "7:0": {}}, ("schema", "marks",
         "keys do not match tree incidences (missing '1:0', unexpected '7:0')")),
        (("marks", "0:0", "origin"), "1" * 100,
         ("origin-mismatch", "mark 0:0",
          f"origin {'1' * 60}... (100 characters) must equal range start -10")),
    ], ids=["tree-id", "piece-tree-id", "orient", "piece-key", "mark-keys", "origin"])
    def test_rejected_values_are_excerpted(self, keys, value, problem):
        """A rejected value, key or number is echoed as an excerpt; a key
        mismatch names one missing and one unexpected key."""
        spec = two_piece_spec()
        node = spec
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        with pytest.raises(ClusterValidationError) as exc:
            validate(spec)
        assert exc.value.problems == [problem]

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no int digit limit in this interpreter")
    def test_value_past_digit_limit_is_described_by_size(self):
        """A range start with as many digits as the interpreter writes
        makes a range end with more: its problem line gives its size."""
        spec = two_piece_spec()
        start = "1/" + "9" * sys.get_int_max_str_digits()
        spec["marks"]["0:0"] = {**spec["marks"]["0:0"], "range": [start, "10"], "origin": start}
        with pytest.raises(ClusterValidationError) as exc:
            validate(spec)
        lines = str(exc.value).splitlines()[1:]
        assert [line[:40] for line in lines] == ["[range-length-mismatch] mark 0:0: range "]
        assert "(expected <Fraction of " in lines[0]
        assert max(map(len, lines)) <= 200

    def test_chain3_roundtrip(self):
        c = chain3()
        spec = to_spec(c)
        c2 = validate(spec)
        assert to_spec(c2) == spec
        assert dumps(c2) == dumps(c)

    def test_two_piece_roundtrip_bytes(self):
        c = two_piece()
        again = validate(to_spec(c))
        assert dumps(again) == dumps(c)


def spec_nodes(node, path=()):
    """Every (key path, value) below a wire spec, the spec itself first."""
    yield path, node
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from spec_nodes(value, (*path, key))


# values a hostile instance file may put anywhere: long text, non-int ids,
# numbers JSON cannot carry exactly, containers, and rationals that are
# non-canonical or canonical but long
HOSTILE = ["x" * 5000, True, 2.5, None, 10 ** 400, [7] * 3000, {"k" * 3000: 1},
           "2/4", "-0", "1/1", "9" * 300, "1/" + "7" * 300]


def mutated_spec(spec: dict, rng: random.Random) -> dict:
    """A copy of a wire spec with one mutation: a value anywhere replaced
    by a hostile one, a key deleted, or a key added."""
    spec = json.loads(json.dumps(spec))
    kind = rng.choice(["replace", "delete", "add"])
    if kind == "replace":
        path = rng.choice([p for p, _ in spec_nodes(spec) if p])
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = rng.choice(HOSTILE)
        return spec
    node = rng.choice([n for _, n in spec_nodes(spec) if isinstance(n, dict)])
    if kind == "delete" and node:
        del node[rng.choice(sorted(node))]
    else:
        node[rng.choice(["z", "k" * 5000, "0", "99:0"])] = rng.choice(HOSTILE)
    return spec


class TestWireFuzz:
    def test_mutated_specs_fail_typed_with_short_lines(self):
        """3,000 seeded mutations of small generated instances: each
        validates or raises ClusterValidationError, and no problem line
        echoes a rejected value, a key list or a long number whole."""
        rng = random.Random(0)
        specs = [to_spec(generate_cluster(GeneratorParams(seed=s, tree_size=(1, 4),
                                                          piece_edges=(1, 5))))
                 for s in range(20)]
        valid = codes = 0
        seen = set()
        for _ in range(3000):
            spec = mutated_spec(rng.choice(specs), rng)
            try:
                validate(spec)
                valid += 1
            except ClusterValidationError as ex:
                codes += 1
                seen.update(p[0] for p in ex.problems)
                assert max(map(len, str(ex).splitlines())) <= 200
        assert valid >= 5 and codes >= 2500
        assert {"schema", "bad-tree", "bad-piece-tree", "bad-orient", "bad-line",
                "origin-mismatch", "range-length-mismatch", "empty-window"} <= seen


class TestPointsAndSupports:
    def test_interior_point_single_support(self):
        c = two_piece()
        # height 11 exceeds the twin mark range [-10, 10]: not a wall point
        p = c.point(1, 0, F(3), F(11))
        assert sorted(c.supports(p)) == [1]
        assert p.vertex == 1

    def test_wall_point_two_supports_canonical_at_lower(self):
        c = two_piece()
        p = c.point(1, 0, F(13), F(5))  # mark parameter 3, height 5
        assert sorted(c.supports(p)) == [0, 1]
        assert p.vertex == 0  # canonicalized across the wall
        assert p.height == F(3)
        assert c.marks[(0, 0)].coord_of(p.horizontal) == F(5)

    def test_point_rejects_bad_height(self):
        c = two_piece()
        with pytest.raises(InvalidPointError):
            c.point(0, 0, F(1), F(13))
        with pytest.raises(InvalidPointError):
            c.resolve(0, 0, F(1), F(13))

    def test_resolve_boundaries_against_fraction_reference(self):
        """Offsets at 0 and the edge length and 1/(13 * scale) either side,
        heights at each window end and each twin range end and just either
        side of them: resolve gives the Fraction reference's support map or
        its message."""
        c = generate_cluster(GeneratorParams(seed=3, tree_size=(4, 6), piece_edges=(2, 6)))
        assert any(p.tree.scale > 1 for p in c.pieces.values())
        assert any(lo.denominator > 1 for lo, _ in (p.window for p in c.pieces.values()))
        multi = 0
        for v in c.tree.vertices:
            tree = c.pieces[v].tree
            lo, hi = c.pieces[v].window
            tiny = F(1, 13 * tree.scale)
            ends = {lo, hi} | {t for eid, w in c.tree.neighbors(v)
                               for t in (c.marks[(w, eid)].lo, c.marks[(w, eid)].hi)}
            heights = sorted({h + k * F(1, 13 * h.denominator) for h in ends for k in (-1, 0, 1)})
            for eid, e in enumerate(tree.edges):
                for off in (F(0), e.length, -tiny, tiny, e.length - tiny, e.length + tiny):
                    for h in heights:
                        if not 0 <= off <= e.length:
                            want = f"offset {off} outside [0, {e.length}] on edge {eid}"
                        elif not lo <= h <= hi:
                            want = f"height {h} outside window [{lo}, {hi}] at vertex {v}"
                        else:
                            want = reference_supports(
                                c, ClusterPoint(v, tree.point(eid, off), h))
                            got = c.resolve(v, eid, off, h)
                            assert list(got.items()) == list(want.items())
                            multi += len(got) > 1
                            continue
                        with pytest.raises(InvalidPointError) as exc:
                            c.resolve(v, eid, off, h)
                        assert str(exc.value) == want
        assert multi

    def test_resolve_is_the_support_map_of_point(self):
        c = two_piece()
        reps = c.resolve(1, 0, F(13), F(5))
        assert sorted(reps) == [0, 1]
        assert lowest_point(reps) == c.point(1, 0, F(13), F(5))
        assert reps == c.supports(c.point(1, 0, F(13), F(5)))


def on_carrier(line: Line, p) -> bool:
    """Wall membership on Fractions: p's edge is on the line's carrier, or
    p sits on a carrier vertex."""
    e = line.tree.edges[p.edge]
    ends = [v for v, off in ((e.a, F(0)), (e.b, e.length)) if p.offset == off]
    return p.edge in line.edge_path or any(line.vertex_param(v) is not None for v in ends)


def reference_supports(c: Cluster, pt: ClusterPoint) -> dict:
    """The support closure as first written: every wall of a reached piece
    is tested (with on_carrier and the twin's Fraction range), reached
    neighbors included, and a transfer is thrown away when its neighbor
    turns out to be reached already."""

    def wall_steps(v, horizontal, height):
        for eid, w in c.tree.neighbors(v):
            line = c.marks[(v, eid)]
            if not on_carrier(line, horizontal):
                continue
            twin = c.marks[(w, eid)]
            if not twin.lo <= height <= twin.hi:
                continue
            yield eid, w, twin.point_at(height), line.coord_of(horizontal)

    reps = {pt.vertex: (pt.horizontal, pt.height)}
    stack = [pt.vertex]
    while stack:
        v = stack.pop()
        h, u = reps[v]
        for _eid, w, h2, u2 in wall_steps(v, h, u):
            if w not in reps:
                reps[w] = (h2, u2)
                stack.append(w)
    return reps


class TestSupportsReferee:
    """Cluster.supports skips reached pieces before testing their wall;
    the closure it returns must not change."""

    @staticmethod
    def probes(c: Cluster, rng: random.Random, den: int):
        """Wall corners, then k/den points on the marks and in the pieces."""
        for (v, eid), line in sorted(c.marks.items()):
            twin = c.marks[(c.tree.other_end(eid, v), eid)]
            for t in (line.lo, line.hi):
                for u in (twin.lo, twin.hi):
                    yield ClusterPoint(v, line.point_at(t), u)
            t = line.lo + (line.hi - line.lo) * F(rng.randrange(den + 1), den)
            u = twin.lo + (twin.hi - twin.lo) * F(rng.randrange(den + 1), den)
            yield ClusterPoint(v, line.point_at(t), u)
        for v in c.tree.vertices:
            tree = c.pieces[v].tree
            lo, hi = c.pieces[v].window
            for _ in range(4):
                eid = rng.randrange(len(tree.edges))
                off = tree.edges[eid].length * F(rng.randrange(den + 1), den)
                yield ClusterPoint(v, tree.point(eid, off),
                                   lo + (hi - lo) * F(rng.randrange(den + 1), den))

    @pytest.mark.parametrize("seed", range(6))
    def test_same_map_as_reference(self, seed):
        c = generate_cluster(GeneratorParams(seed=seed, tree_size=(3, 10),
                                             piece_edges=(1, 8)))
        rng = random.Random(seed)
        multi = non_lowest = 0
        # 7, 11 and 13 are prime to every piece scale and window denominator
        for den in (8, 24, 7, 11, 13):
            for pt in self.probes(c, rng, den):
                want = reference_supports(c, pt)
                got = c.supports(pt)
                assert list(got.items()) == list(want.items())
                multi += len(want) > 1
                for v in want:   # the same closure from every representation
                    rep = ClusterPoint(v, *want[v])
                    non_lowest += v != min(want)
                    assert c.supports(rep) == reference_supports(c, rep) == want
        assert multi and non_lowest


class TestResolvedPoints:
    """A wall point from Cluster.point keeps the support map its walk
    found, and only the cluster that walked it reads that map back."""

    @staticmethod
    def corpus() -> list[tuple[Cluster, list[ClusterPoint]]]:
        """Sampled points on CORPUS instances and on re-marked ones, whose
        bridges and reversed overlaps the generator never draws."""
        out = []
        for seed in range(20):
            c = generate_cluster(dataclasses.replace(CORPUS, seed=seed))
            out.append((c, sample_points(c, random.Random(seed), 40)))
            c = remarked_cluster(seed)
            out.append((c, sample_points(c, random.Random(seed), 40)))
        return out

    @pytest.fixture
    def walks(self, monkeypatch):
        made = []

        def counting(self, pt, _real=Cluster._walk):
            made.append(pt)
            return _real(self, pt)
        monkeypatch.setattr(Cluster, "_walk", counting)
        return made

    def test_kept_map_is_the_walk_from_every_representation(self):
        walls = non_lowest = 0
        for c, pts in self.corpus():
            for pt in pts:
                kept = c.supports(pt)
                walls += len(kept) > 1
                for v, rep in kept.items():
                    non_lowest += v != pt.vertex
                    assert c._walk(ClusterPoint(v, *rep)) == kept
        assert walls >= 100 and non_lowest >= 100

    @pytest.mark.parametrize("fn", [exact_distance, special_path, star_audit])
    def test_measures_walk_only_one_support_points(self, walks, fn):
        """Two supports calls per pair, and a walk only for an end with one
        support: a wall end is never walked again."""
        both_walls = 0
        for c, pts in self.corpus()[:8]:
            for x, y in zip(pts[::2], pts[1::2]):
                plain = [p for p in (x, y) if type(p) is ClusterPoint]
                both_walls += not plain
                walks.clear()
                fn(c, x, y)
                assert walks == plain
        assert both_walls > 0

    def test_only_wall_points_keep_a_map(self):
        for c, pts in self.corpus()[:4]:
            for pt in pts:
                assert (type(pt) is ClusterPoint) == (len(c.supports(pt)) == 1)

    def test_another_cluster_walks_the_point(self, walks):
        """A copy of the cluster walks a wall point again and gets its own
        map; a slid mark moves some wall point's representations."""
        moved = 0
        for c, pts in self.corpus()[:8]:
            copies = [widen_window(c, c.tree.vertices[-1])]
            copies += [slide_mark(c, *min(c.marks))] if c.marks else []
            for other in copies:
                for pt in pts:
                    if type(pt) is ClusterPoint:
                        continue
                    walks.clear()
                    got = other.supports(pt)
                    assert walks == [pt]
                    assert got == other._walk(ClusterPoint(*pt))
                    moved += got != c.supports(pt)
        assert moved > 0

    def test_copies_drop_the_map(self, walks):
        c = two_piece()
        pt = c.point(1, 0, F(13), F(5))   # on the wall, canonical at 0
        plain = ClusterPoint(*pt)
        assert type(pt) is not ClusterPoint and len(walks) == 1
        assert pt == plain and hash(pt) == hash(plain) and tuple(pt) == tuple(plain)
        v, horizontal, height = pt
        assert (v, horizontal, height) == (pt.vertex, pt.horizontal, pt.height)
        assert repr(pt) == repr(plain) and repr(pt).startswith("ClusterPoint(vertex=0,")
        copies = [copy.copy(pt), copy.deepcopy(pt), pickle.loads(pickle.dumps(pt)),
                  pt._replace(), pt._replace(height=F(4))]
        assert [type(q) for q in copies] == [ClusterPoint] * 5
        assert copies[:4] == [plain] * 4 and copies[4] == plain._replace(height=F(4))
        walks.clear()
        assert c.supports(copies[0]) == c.supports(pt) and walks == [copies[0]]

    def test_returned_map_is_a_copy(self, walks):
        c = two_piece()
        pt = c.point(1, 0, F(13), F(5))
        first = c.supports(pt)
        want = dict(first)
        first.clear()
        assert c.supports(pt) == want and sorted(want) == [0, 1]
        assert len(walks) == 1   # the one in Cluster.point


class TestTransfer:
    def test_flip_swaps_coordinates(self):
        c = two_piece()
        # mark parameter 3, height 5 on the 0 side
        pt = ClusterPoint(0, c.pieces[0].tree.point(0, F(13)), F(5))
        out = transfer_across_wall(c, 0, pt)
        assert out.vertex == 1
        assert c.marks[(1, 0)].coord_of(out.horizontal) == F(5)
        assert out.height == F(3)

    def test_origin_fixed(self):
        c = two_piece()
        pt = ClusterPoint(0, c.pieces[0].tree.point(0, F(10)), F(0))  # (t, u) = (0, 0)
        out = transfer_across_wall(c, 0, pt)
        assert c.marks[(1, 0)].coord_of(out.horizontal) == F(0)
        assert out.height == F(0)

    def test_involution_on_random_wall_points(self):
        c = chain3()
        rng = random.Random(7)
        for _ in range(100):
            eid = rng.choice([0, 1])
            v, w = c.tree.edges[eid]
            line = c.marks[(v, eid)]
            twin = c.marks[(w, eid)]
            t = line.lo + (line.hi - line.lo) * F(rng.randrange(0, 17), 16)
            u = twin.lo + (twin.hi - twin.lo) * F(rng.randrange(0, 17), 16)
            pt = ClusterPoint(v, line.point_at(t), u)
            there = transfer_across_wall(c, eid, pt)
            back = transfer_across_wall(c, eid, there)
            assert back == pt

    def test_transfer_requires_wall_membership(self):
        c = chain3()
        off_wall = ClusterPoint(0, c.pieces[0].tree.point(2, F(1)), F(0))
        with pytest.raises(NotOnLineError):
            transfer_across_wall(c, 0, off_wall)

    def test_transfer_overflow_outside_twin_range(self):
        c = two_piece()
        pt = ClusterPoint(0, c.pieces[0].tree.point(0, F(13)), F(11))
        with pytest.raises(SegmentOverflow) as exc:
            transfer_across_wall(c, 0, pt)
        assert exc.value.edge == 0


class TestPieceDistance:
    def test_zero(self):
        c = two_piece()
        p = c.point(0, 0, F(3), F(1))
        assert piece_distance(c, p, p) == 0

    def test_pure_vertical(self):
        c = two_piece()
        a = c.point(0, 0, F(3), F(2))
        b = c.point(0, 0, F(3), F(9))
        assert piece_distance(c, a, b) == 7

    def test_l1_sum(self):
        c = two_piece()
        a = c.point(0, 0, F(3), F(2))
        b = c.point(0, 0, F(7), F(5))
        assert piece_distance(c, a, b) == 7
        assert c.pieces[0].tree.distance(a.horizontal, b.horizontal) == 4

    def test_wall_pair_parts_swap_across_transfer(self):
        c = chain3()
        rng = random.Random(11)
        line = c.marks[(1, 0)]
        twin = c.marks[(0, 0)]
        for _ in range(40):
            t1 = line.lo + (line.hi - line.lo) * F(rng.randrange(0, 9), 8)
            t2 = line.lo + (line.hi - line.lo) * F(rng.randrange(0, 9), 8)
            u1 = twin.lo + (twin.hi - twin.lo) * F(rng.randrange(0, 9), 8)
            u2 = twin.lo + (twin.hi - twin.lo) * F(rng.randrange(0, 9), 8)
            a = ClusterPoint(1, line.point_at(t1), u1)
            b = ClusterPoint(1, line.point_at(t2), u2)
            assert piece_distance(c, a, b) == abs(t1 - t2) + abs(u1 - u2)
            a0, b0 = transfer_across_wall(c, 0, a), transfer_across_wall(c, 0, b)
            assert c.pieces[0].tree.distance(a0.horizontal, b0.horizontal) == abs(u1 - u2)
            assert abs(a0.height - b0.height) == abs(t1 - t2)
            assert piece_distance(c, a0, b0) == piece_distance(c, a, b)

    def test_requires_membership(self):
        c = two_piece()
        far = c.point(1, 0, F(3), F(11))
        near = c.point(0, 0, F(3), F(1))
        with pytest.raises(InvalidPointError):
            piece_distance(c, far, near)
        # a wall point lies in both pieces, but is measured only where it
        # is represented: canonical at 0, its piece-1 form comes from supports
        wall = c.point(1, 0, F(15), F(3))
        assert wall.vertex == 0
        with pytest.raises(InvalidPointError):
            piece_distance(c, wall, far)
        there = ClusterPoint(1, *c.supports(wall)[1])
        assert piece_distance(c, there, far) == 12 + 8


class TestBassSerre:
    """The Bass-Serre distance of two points: the walls on their support route."""

    def test_same_piece(self):
        c = chain3()
        a = c.point(1, 1, F(1), F(6))
        b = c.point(1, 2, F(1), F(6))
        assert support_route(c, a, b).edges == ()

    def test_adjacent_interiors(self):
        c = chain3()
        a = c.point(0, 2, F(2), F(9))    # off both marks of piece 0
        b = c.point(1, 2, F(1), F(6))    # height 6 not transferable anywhere
        assert len(support_route(c, a, b).edges) == 1

    def test_wall_point_counts_for_both(self):
        c = two_piece()
        wall = c.point(0, 0, F(13), F(5))
        interior = c.point(1, 0, F(3), F(11))
        assert support_route(c, wall, interior).edges == ()

    def test_pseudo_metric_samples(self):
        c = chain3()
        rng = random.Random(3)
        pts = [grid_point(c, rng) for _ in range(12)]
        for x in pts:
            for y in pts:
                for z in pts:
                    dxz = len(support_route(c, x, z).edges)
                    dyz = len(support_route(c, y, z).edges)
                    dxy = len(support_route(c, x, y).edges)
                    assert abs(dxz - dyz) <= dxy + 1

    @staticmethod
    def assert_joins_closest_pair(c: Cluster, x: ClusterPoint, y: ClusterPoint) -> bool:
        """The route joins the closest support pair, found over every pair
        with T-distances by breadth-first search (the lowest common vertex
        when the supports meet), and hands back both ends represented
        there.  Returns whether the supports are disjoint."""
        sx, sy = c.supports(x), c.supports(y)
        pairs = []
        for a in sx:
            hops = tree_hops(c, a)
            pairs += [(hops[b], a, b) for b in sy]
        a, b = min(pairs)[1:]
        route = support_route(c, x, y)
        assert (route.vertices[0], route.vertices[-1]) == (a, b)
        assert (list(route.vertices), list(route.edges)) == c.tree.path(a, b)
        assert route.start == ClusterPoint(a, *sx[a])
        assert route.end == ClusterPoint(b, *sy[b])
        return a != b

    def test_support_route_against_brute_force(self):
        c = chain3()
        rng = random.Random(5)
        pts = [grid_point(c, rng) for _ in range(16)]
        for x in pts:
            for y in pts:
                self.assert_joins_closest_pair(c, x, y)

    def test_support_route_against_brute_force_on_corpus(self):
        disjoint = 0
        for seed in range(200):
            c = generate_cluster(dataclasses.replace(CORPUS, seed=seed))
            pts = sample_points(c, random.Random(seed), 40)
            for x, y in zip(pts[0::2], pts[1::2]):
                disjoint += self.assert_joins_closest_pair(c, x, y)
        assert disjoint >= 1500


def wide_path(n: int) -> tuple[Cluster, ClusterPoint, ClusterPoint]:
    """A path T of n pieces, each one edge of length 1 with window
    [-1, 12], whose edge e's marks start at 0 for e < n/2, at 5 for
    e = n/2 and at 10 beyond; and two points whose supports span most of
    T: (0, 0, 1/2, 1/2) lies in pieces 0..n/2 and (n-1, 0, 1/2, 21/2) in
    pieces n/2+1..n-1, so they are one wall apart."""
    pieces = {v: Piece(MetricTree([(0, 1, 1)]), (F(-1), F(12))) for v in range(n)}
    marks = {}
    for e in range(n - 1):
        lo = 0 if e < n // 2 else 5 if e == n // 2 else 10
        for v in (e, e + 1):
            marks[(v, e)] = Line(pieces[v].tree, [0], 0, F(lo))
    c = Cluster(SimplicialTree(range(n), [(v, v + 1) for v in range(n - 1)]), pieces, marks)
    return c, c.point(0, 0, F(1, 2), F(1, 2)), c.point(n - 1, 0, F(1, 2), F(21, 2))


class TestWideSupports:
    """Points whose supports span most of T: every measure between them
    stays near-linear in the number of pieces."""

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_replay_pair_is_one_wall_apart(self, n):
        c, x, y = wide_path(n)
        assert (len(c.supports(x)), len(c.supports(y))) == (n // 2 + 1, n // 2 - 1)
        assert support_route(c, x, y).vertices == (n // 2, n // 2 + 1)
        d, prof = exact_distance(c, x, y)
        assert d == 10
        sp = special_path(c, x, y)
        assert sp.length >= d
        assert all(lhs <= rhs for lhs, rhs in star_terms(sp, prof))
        pts = sample_points(c, random.Random(n), 40)
        assert max(len(c.supports(p)) for p in pts) > n // 4

    def test_one_meet_per_route(self, monkeypatch):
        """A route between disjoint supports climbs T once, whatever
        their sizes (the pair product made 40,000 climbs at 400 pieces)."""
        c, x, y = wide_path(400)
        calls = []

        def counting(self, u, v, _real=RootedTree.meet):
            calls.append((u, v))
            return _real(self, u, v)
        monkeypatch.setattr(RootedTree, "meet", counting)
        assert len(support_route(c, x, y).edges) == 1
        assert len(calls) == 1

    @staticmethod
    def traced(fn):
        """fn's result and the tracemalloc peak of calling it."""
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def traced_peak(self, n: int) -> int:
        """The tracemalloc peak of the replay pair's points, measures and
        40 sampled points, on a cluster built before tracing starts."""
        c = wide_path(n)[0]

        def measures():
            x, y = c.point(0, 0, F(1, 2), F(1, 2)), c.point(n - 1, 0, F(1, 2), F(21, 2))
            d, prof = exact_distance(c, x, y)
            star_terms(special_path(c, x, y), prof)
            sample_points(c, random.Random(n), 40)
        return self.traced(measures)[1]

    def test_memory_grows_linearly(self):
        assert self.traced_peak(5000) < 6 * self.traced_peak(1200)

    def test_grid_oracle(self, monkeypatch):
        """The grid grows by one far piece's nodes per piece, and its
        traced peak by under 5x at 4x the pieces and under 300 bytes a
        node (shared neighbour tuples: about 180; a list of fresh pairs
        per node took about 453); the replay pair reads its exact
        distance (it crosses one wall on grid nodes).  Its query joins
        each end to at most 4 nodes per support (2 today: one tree
        sample, one height), and the query's traced peak also grows by
        under 5x (about 3.7x)."""
        attached = []

        def ends(self, reps, m, _real=DiscretizedOracle._ends):
            out = _real(self, reps, m)
            attached.append((len(out), len(reps)))
            return out
        monkeypatch.setattr(DiscretizedOracle, "_ends", ends)
        nodes, peaks, query_peaks = {}, {}, {}
        for n in (150, 600):
            c, x, y = wide_path(n)
            oracle, peaks[n] = self.traced(lambda: DiscretizedOracle(c, F(1, 2)))
            attached.clear()
            d, query_peaks[n] = self.traced(lambda: oracle.distance(x, y))
            assert d == 10
            assert len(attached) == 2 and all(k <= 4 * reps for k, reps in attached)
            nodes[n] = len(oracle.adj)
            per_piece = oracle.grids[0].node_count()
        assert nodes[600] - nodes[150] == 450 * per_piece
        assert peaks[600] < 5 * peaks[150]
        assert all(peaks[n] < 300 * nodes[n] for n in nodes)
        assert query_peaks[600] < 5 * query_peaks[150]

    @pytest.mark.parametrize("n", [150, 600])
    def test_isometry_and_image_supports(self, n):
        c, x, _ = wide_path(n)
        triple = isomorphic(c, wide_path(n)[0])
        assert triple is not None
        image = image_supports(triple, c.supports(x))
        assert len(image) == n // 2 + 1

    def test_verify_good_on_the_witness(self):
        """verify_good on the isometry witness at 150 and 600 pieces: its
        traced peak grows by under 6x at 4x the pieces (about 4.3x), and its
        time, best of 3, by under 8x (about 2.4x, 7 and 17 ms)."""
        times, peaks = {}, {}
        for n in (150, 600):
            triple = isomorphic(wide_path(n)[0], wide_path(n)[0])
            best = None
            for _ in range(3):
                start = time.perf_counter()
                assert verify_good(triple) == (True, None, None)
                took = time.perf_counter() - start
                best = took if best is None else min(best, took)
            times[n] = best
            peaks[n] = self.traced(lambda: verify_good(triple))[1]
        assert peaks[600] < 6 * peaks[150]
        assert times[600] < 8 * times[150] and times[600] < 1

    def test_replay_distance_at_5000_pieces_is_fast(self):
        c, x, y = wide_path(5000)
        start = time.perf_counter()
        assert exact_distance(c, x, y)[0] == 10
        assert time.perf_counter() - start < 0.1


class TestPointOfSpec:
    GOOD = {"vertex": 0, "edge": 0, "offset": "13", "height": "11"}

    def test_round_trip(self):
        c = two_piece()
        pt = point_of_spec(c, self.GOOD)
        assert pt == c.point(0, 0, F(13), F(11))
        assert point_of_spec(c, point_to_spec(pt)) == pt

    @pytest.mark.parametrize("spec", [
        [0, 0, "13", "11"],
        "0",
        {"vertex": 0, "edge": 0, "offset": "13"},
        {**GOOD, "offset": 13},
        {**GOOD, "height": 11.0},
        {**GOOD, "height": " 11"},
        {**GOOD, "vertex": "0"},
        {**GOOD, "edge": True},
    ])
    def test_malformed_spec_raises_invalid_point(self, spec):
        with pytest.raises(InvalidPointError):
            point_of_spec(two_piece(), spec)
