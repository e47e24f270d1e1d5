"""Glued products of metric trees along flipped walls.

An instance is a finite simplicial tree T whose vertices carry pieces
Q_v = Z_v x W_v: a finite metric tree Z_v times a rational height window
W_v, metrized by the l1 sum.  Every T-edge e = (v, w) carries one
geodesic mark line in each endpoint piece; the wall of e is the set
mark(v,e) x W glued to mark(w,e) x W by swapping the two coordinates:

    (mark(v,e)(t), u)  ~  (mark(w,e)(u), t)

Validation enforces two rules.  A mark's carrier runs from a leaf of
Z_v to a leaf: it is the finite form of a line in the tree, a geodesic
that never ends, so no foot of a projection or a bridge onto it sits on
a truncated end; any other carrier is a non-maximal mark.  And the
parameter range of mark(v,e) must fit inside the height window of w,
and vice versa, which makes every wall identification total: every wall
point transfers, transfer is an involution, and each piece embeds
isometrically in the glued space.

Points are canonicalized at their lowest supporting vertex so that
structural equality is geometric equality.  A point is measured in the
piece it is represented in: piece_distance and the distance code take
points already represented where they measure and never re-resolve
them.  Only the support walk moves a point from one piece to
another.  The walk runs once per point that Cluster.point builds: the
point is marked with the cluster that walked it, and a wall point (more
than one support) also keeps the support map the walk found.
Cluster.supports answers a marked point on that cluster with no walk, a
one-support point by its own representation.  A point the cluster did
not build (a copy, a pickle, a _replace, another cluster's point, a
special path's segment point) is walked.  The kept map is exact whichever
representation is asked about, since the walk reaches the same closure
from each of them.

Coordinates enter and leave as Fractions.  ``Cluster.unit`` is the one
integer unit of an instance: the lcm of every piece tree's scale, every
window end's denominator and every mark origin's denominator, so every
piece length, window end and mark parameter (carrier vertices and gates
included) is an int multiple of 1 / unit.  The route layer and the grid
oracle build their ints on it.  Inside, the point checks run on ints:
resolve compares a height with its window by cross-multiplying, and the
support walk tests wall membership on the carrier's int positions and
lifts the height onto the twin mark at that mark's scale, building
Fractions only for the representations it returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple

from .errors import ClusterValidationError, InvalidPointError, excerpt
from .jsonutil import dumps_canonical
from .metric_tree import (Bridge, Line, MetricTree, Overlap, RootedTree, TreePoint, bridge,
                          connected, int_id, line_intersection)
from .rational import as_fraction, format_rational, parse_rational


class SimplicialTree:
    """The finite tree indexing the pieces; edges are unit, ids positional."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        self.vertices: tuple[int, ...] = tuple(int_id(v) for v in vertices)
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (int_id(a), int_id(b)) for a, b in edges)
        vs = set(self.vertices)
        if not vs:
            raise ValueError("tree needs at least one vertex")
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        seen_pairs = set()
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for i, (a, b) in enumerate(self.edges):
            if a == b:
                raise ValueError(f"edge {i} is a self-loop")
            if a not in vs or b not in vs:
                raise ValueError(f"edge {i} references a missing vertex")
            key = (min(a, b), max(a, b))
            if key in seen_pairs:
                raise ValueError(f"edge {i} duplicates {key}")
            seen_pairs.add(key)
            adj[a].append((i, b))
            adj[b].append((i, a))
        self._adj = {v: tuple(sorted(n)) for v, n in adj.items()}
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("vertex/edge counts do not form a tree")
        if not connected(self._adj):
            raise ValueError("tree is not connected")

    @cached_property
    def _rooted(self) -> RootedTree:
        return RootedTree(self._adj, self.vertices[0])

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        return self._adj[v]

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.edges[eid]
        if v == a:
            return b
        if v == b:
            return a
        raise ValueError(f"vertex {v} not on edge {eid}")

    def path(self, u: int, v: int) -> tuple[list[int], list[int]]:
        """(vertex sequence u..v, edge ids between them)."""
        return self._rooted.path(u, v)


class Piece(NamedTuple):
    tree: MetricTree
    window: tuple[Fraction, Fraction]


class ClusterPoint(NamedTuple):
    vertex: int
    horizontal: TreePoint
    height: Fraction


class _ResolvedPoint(ClusterPoint):
    """A ClusterPoint that Cluster.point built, marked with the cluster
    that walked it (``_owner``) and keeping the support map the walk found
    when it has more than one support (``_reps``, else None).  It reads as
    a ClusterPoint; a copy, a pickle or _replace is a plain ClusterPoint,
    so no copy carries the mark or the map along."""

    def __repr__(self) -> str:
        return repr(ClusterPoint(*self))

    def __reduce__(self):
        return ClusterPoint, tuple(self)

    def _replace(self, **fields) -> ClusterPoint:
        return ClusterPoint(*self)._replace(**fields)


# a point's support map: each vertex whose piece holds it, with its representation there
Supports = dict[int, tuple[TreePoint, Fraction]]


class Cluster:
    """Immutable glued space; construct via :func:`validate` for full checks."""

    def __init__(self, tree: SimplicialTree, pieces: dict[int, Piece],
                 marks: dict[tuple[int, int], Line]):
        self.tree = tree
        self.pieces = dict(pieces)
        self.marks = dict(marks)
        self._relations: dict[tuple[int, int, int], tuple[Overlap | Bridge, list[int]]] = {}
        problems = self._check()
        if problems:
            raise ClusterValidationError(problems)

    def _check(self) -> list[tuple[str, str, str]]:
        problems = []
        for v in self.tree.vertices:
            if v not in self.pieces:
                problems.append(("missing-piece", f"vertex {v}", "no piece assigned"))
                continue
            lo, hi = self.pieces[v].window
            if lo >= hi:
                problems.append(("empty-window", f"vertex {v}",
                                 f"height window [{excerpt(lo)}, {excerpt(hi)}] is empty"))
        vertices = set(self.tree.vertices)
        for v in self.pieces:
            if v not in vertices:
                problems.append(("orphan-piece", f"vertex {v}", "piece for a missing vertex"))
        for eid, (a, b) in enumerate(self.tree.edges):
            for v in (a, b):
                if (v, eid) not in self.marks:
                    problems.append(
                        ("missing-mark", f"edge {eid} at vertex {v}", "no mark line")
                    )
        for (v, eid), line in self.marks.items():
            if type(eid) is not int or not 0 <= eid < len(self.tree.edges) \
                    or v not in self.tree.edges[eid]:
                problems.append(
                    ("dangling-mark", f"mark {v}:{eid}", "edge not incident to vertex")
                )
                continue
            if v in self.pieces and line.tree is not self.pieces[v].tree:
                problems.append(
                    ("foreign-line", f"mark {v}:{eid}", "line lives in another piece's tree")
                )
            elif line.tree.degree(line.start_vertex) != 1 \
                    or line.tree.degree(line.end_vertex) != 1:
                problems.append(
                    ("non-maximal-mark", f"mark {v}:{eid}",
                     f"carrier from vertex {line.start_vertex} to vertex {line.end_vertex}"
                     " does not run leaf to leaf")
                )
        if problems:
            return problems
        # flip totality: each side's parameter range must fit in the
        # other side's height window, else some wall points cannot transfer
        for eid, (a, b) in enumerate(self.tree.edges):
            for v, w in ((a, b), (b, a)):
                line = self.marks[(v, eid)]
                wlo, whi = self.pieces[w].window
                if line.lo < wlo or line.hi > whi:
                    problems.append(
                        (
                            "window-range-mismatch",
                            f"edge {eid}",
                            f"mark {v}:{eid} range [{excerpt(line.lo)}, {excerpt(line.hi)}] "
                            f"exceeds window [{excerpt(wlo)}, {excerpt(whi)}] of vertex {w}",
                        )
                    )
        return problems

    @cached_property
    def unit(self) -> int:
        """The lcm of every piece tree's scale, window end denominator and
        mark lo denominator (module docstring)."""
        return lcm(*(p.tree.scale for p in self.pieces.values()),
                   *(q.denominator for p in self.pieces.values() for q in p.window),
                   *(line.lo.denominator for line in self.marks.values()))

    # -- points --------------------------------------------------------------

    def resolve(self, v: int, edge: int, offset, height) -> Supports:
        """Check raw coordinates and return the point's support map."""
        if int_id(v) not in self.pieces:
            raise InvalidPointError(f"no piece at vertex {excerpt(v)}")
        piece = self.pieces[v]
        horizontal = piece.tree.point(edge, offset)
        height = as_fraction(height)
        lo, hi = piece.window
        n, d = height.numerator, height.denominator
        if n * lo.denominator < lo.numerator * d or n * hi.denominator > hi.numerator * d:
            raise InvalidPointError(f"height {excerpt(height)} outside window "
                                    f"[{excerpt(lo)}, {excerpt(hi)}] at vertex {excerpt(v)}")
        return self.supports(ClusterPoint(v, horizontal, height))

    def point(self, v: int, edge: int, offset, height) -> ClusterPoint:
        """Build and canonicalize a point from raw coordinates.

        The point is marked as resolved on this cluster, for supports to
        answer without a walk; a point with more than one support also
        keeps the support map that resolve found."""
        reps = self.resolve(v, edge, offset, height)
        low = min(reps)
        pt = _ResolvedPoint(low, *reps[low])
        pt._owner, pt._reps = self, reps if len(reps) > 1 else None
        return pt

    def supports(self, pt: ClusterPoint) -> Supports:
        """Every vertex whose piece contains the point, with its representation.

        A point that this cluster's point built is answered with no walk:
        a wall point with a fresh copy of its map, any other with its own
        representation.  Every other point is walked.
        """
        if type(pt) is _ResolvedPoint and pt._owner is self:
            return dict(pt._reps) if pt._reps else {pt.vertex: (pt.horizontal, pt.height)}
        return self._walk(pt)

    def _walk(self, pt: ClusterPoint) -> Supports:
        """The support walk.

        Wall membership propagates: a point on several walls of one piece
        belongs to every neighbor across those walls, so the support set is
        found by walking transfers until closure.  It is always a subtree
        of T, so a piece already reached is skipped before its wall is tested.
        The wall test runs on ints: the point lies on the mark's carrier
        when its edge does or its vertex is a carrier vertex, and its height
        must lift onto the twin mark.
        """
        reps = {pt.vertex: (pt.horizontal, pt.height)}
        stack = [pt.vertex]
        while stack:
            v = stack.pop()
            h, u = reps[v]
            on = self.pieces[v].tree.point_vertex(h)
            for eid, w in self.tree.neighbors(v):
                if w in reps:
                    continue
                line, twin = self.marks[(v, eid)], self.marks[(w, eid)]
                if (h.edge in line._edge_at or on in line._vertex_at) \
                        and twin._lift(u) is not None:
                    reps[w] = (twin.point_at(u), line.coord_of(h))
                    stack.append(w)
        return reps

    # -- relations between marks (used by path and distance code) -------------

    def mark_relation(self, v: int, e1: int, e2: int) -> Overlap | Bridge:
        """How two mark lines of one piece sit relative to each other: their
        Overlap when the carriers intersect, else the Bridge between them."""
        return self._relation(v, e1, e2)[0]

    def _relation(self, v: int, e1: int, e2: int) -> tuple[Overlap | Bridge, list[int]]:
        """mark_relation, memoized beside its numbers as ints at ``unit``: an
        Overlap's (lo1, hi1, shift), a Bridge's (param_p, param_q, gap)."""
        key = (v, e1, e2)
        memo = self._relations.get(key)
        if memo is None:
            l1, l2 = self.marks[(v, e1)], self.marks[(v, e2)]
            rel = line_intersection(l1, l2) or bridge(self.pieces[v].tree, l1, l2)
            unit = self.unit
            qs = (rel.lo1, rel.hi1, rel.shift) if isinstance(rel, Overlap) else rel[2:]
            memo = self._relations[key] = (rel, [q.numerator * (unit // q.denominator) for q in qs])
        return memo


# -- module-level operations ---------------------------------------------------


def piece_distance(c: Cluster, x: ClusterPoint, y: ClusterPoint) -> Fraction:
    """The l1 distance inside the one piece both points are represented in,
    on ints over the lcm of the tree's scale and the points' denominators."""
    if x.vertex != y.vertex:
        raise InvalidPointError(f"points represented at {x.vertex} and {y.vertex}, not one piece")
    tree = c.pieces[x.vertex].tree
    (a, p), (b, q), (g, r), (h, s) = (f.as_integer_ratio() for f in (
        x.horizontal.offset, y.horizontal.offset, x.height, y.height))
    den = lcm(tree.scale, p, q, r, s)
    span = tree._span((x.horizontal.edge, a * (den // p)), (y.horizontal.edge, b * (den // q)), den)
    return Fraction(span + abs(g * (den // r) - h * (den // s)), den)


class SupportRoute(NamedTuple):
    """The T-path between two points' supports, with both ends resolved:
    ``start`` is the first point represented at ``vertices[0]``, ``end``
    the second at ``vertices[-1]``."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    start: ClusterPoint
    end: ClusterPoint


def route_between(c: Cluster, sx: Supports, sy: Supports) -> SupportRoute:
    """The route every distance and path between two points follows,
    from their support maps sx and sy.

    Points with a common support get the lowest common vertex and no
    edges.  Otherwise the supports are disjoint subtrees of T, joined by
    one bridge, so no tie is broken: the T-path between any vertex of each
    is cut from its last vertex in sx to its first in sy.  Every
    connecting path crosses the bridge's walls in order.
    """
    common = sx.keys() & sy.keys()
    if common:
        verts, eids = [min(common)], []
    else:   # sx holds a prefix of the T-path and sy a suffix: cut between them
        verts, eids = c.tree.path(next(iter(sx)), next(iter(sy)))
        i, j = sum(v in sx for v in verts) - 1, len(verts) - sum(v in sy for v in verts)
        verts, eids = verts[i:j + 1], eids[i:j]
    a, b = verts[0], verts[-1]
    return SupportRoute(tuple(verts), tuple(eids),
                        ClusterPoint(a, *sx[a]), ClusterPoint(b, *sy[b]))


def support_route(c: Cluster, x0: ClusterPoint, xn: ClusterPoint) -> SupportRoute:
    """route_between the support maps of x0 and xn."""
    return route_between(c, c.supports(x0), c.supports(xn))


# -- serialization ---------------------------------------------------------------


def _mark_key(v: int, eid: int) -> str:
    return f"{v}:{eid}"


def _check_keys(spec: dict, expected: list[str], section: str, against: str) -> None:
    """Raise a schema problem unless spec's keys are the expected ones.  It
    names the first missing and the first unexpected key, excerpted, never
    a whole key list."""
    want = set(expected)
    if spec.keys() != want:
        missing = next((f"missing {excerpt(k)}" for k in expected if k not in spec), None)
        extra = next((f"unexpected {excerpt(k)}" for k in spec if k not in want), None)
        found = ", ".join(filter(None, (missing, extra)))
        raise ClusterValidationError([("schema", section,
                                       f"keys do not match {against} ({found})")])


def validate(spec: dict) -> Cluster:
    """Parse and fully check an instance dict (the JSON wire format)."""
    problems: list[tuple[str, str, str]] = []
    parsed: dict[str, Fraction] = {}

    def parse(text) -> Fraction:
        """parse_rational, once per distinct string; a failure raises and is not kept."""
        if type(text) is str and text in parsed:   # the type test keeps unhashables out
            return parsed[text]
        value = parsed[text] = parse_rational(text)
        return value

    if not isinstance(spec, dict) or set(spec) != {"tree", "pieces", "marks"}:
        raise ClusterValidationError([("schema", "top level",
                                       'expected exactly the keys "tree", "pieces", "marks"')])
    tree_spec = spec["tree"]
    if not isinstance(tree_spec, dict) or set(tree_spec) != {"vertices", "edges"}:
        raise ClusterValidationError([("schema", "tree", 'expected keys "vertices", "edges"')])
    try:
        tree = SimplicialTree(tree_spec["vertices"], tree_spec["edges"])
    except (ValueError, TypeError) as ex:
        raise ClusterValidationError([("bad-tree", "tree", str(ex))])

    pieces: dict[int, Piece] = {}
    piece_spec = spec["pieces"]
    if not isinstance(piece_spec, dict):
        raise ClusterValidationError([("schema", "pieces", "expected an object")])
    _check_keys(piece_spec, [str(v) for v in tree.vertices], "pieces", "tree vertices")
    for v in tree.vertices:
        entry = piece_spec[str(v)]
        ctx = f"piece {v}"
        if not isinstance(entry, dict) or set(entry) != {"tree_edges", "height_window"}:
            problems.append(("schema", ctx, 'expected keys "tree_edges", "height_window"'))
            continue
        try:
            # the memo is read inline, as parse reads it, and parse runs on a miss
            ztree = MetricTree(
                (a, b, parsed[ln] if type(ln) is str and ln in parsed else parse(ln))
                for a, b, ln in entry["tree_edges"])
        except (ValueError, TypeError) as ex:
            problems.append(("bad-piece-tree", ctx, str(ex)))
            continue
        try:
            lo, hi = (parse(s) for s in entry["height_window"])
        except (ValueError, TypeError) as ex:
            problems.append(("bad-window", ctx, str(ex)))
            continue
        pieces[v] = Piece(ztree, (lo, hi))
    if problems:
        raise ClusterValidationError(problems)

    marks: dict[tuple[int, int], Line] = {}
    mark_spec = spec["marks"]
    if not isinstance(mark_spec, dict):
        raise ClusterValidationError([("schema", "marks", "expected an object")])
    _check_keys(mark_spec, [_mark_key(v, eid) for eid, e in enumerate(tree.edges) for v in e],
                "marks", "tree incidences")
    for key in sorted(mark_spec):
        entry = mark_spec[key]
        ctx = f"mark {key}"
        v_str, e_str = key.split(":")
        v, eid = int(v_str), int(e_str)
        if not isinstance(entry, dict) or set(entry) != {"path", "range", "origin", "orient"}:
            problems.append(
                ("schema", ctx, 'expected keys "path", "range", "origin", "orient"')
            )
            continue
        ztree = pieces[v].tree
        try:
            lo, hi = (parse(s) for s in entry["range"])
            origin = parse(entry["origin"])
        except (ValueError, TypeError) as ex:
            problems.append(("bad-rational", ctx, str(ex)))
            continue
        if origin != lo:
            problems.append(("origin-mismatch", ctx,
                             f"origin {excerpt(origin)} must equal range start {excerpt(lo)}"))
            continue
        path = entry["path"]
        orient = entry["orient"]
        if type(orient) is not int or orient not in (1, -1):
            problems.append(("bad-orient", ctx, f"orient must be 1 or -1, got {excerpt(orient)}"))
            continue
        try:
            start = _walk_start(ztree, path, orient, ctx, problems)
            if start is None:
                continue
            line = Line(ztree, path, start, lo)
        except (ValueError, TypeError) as ex:
            problems.append(("bad-line", ctx, str(ex)))
            continue
        if line.hi != hi:
            problems.append(("range-length-mismatch", ctx, f"range end {excerpt(hi)} does not "
                             f"match carrier length (expected {excerpt(line.hi)})"))
            continue
        marks[(v, eid)] = line
    if problems:
        raise ClusterValidationError(problems)

    return Cluster(tree, pieces, marks)


def _walk_start(ztree: MetricTree, path, orient: int, ctx: str, problems) -> int | None:
    if not isinstance(path, list) or not path or any(type(e) is not int for e in path):
        problems.append(("bad-line", ctx, "path must be a non-empty list of integer edge ids"))
        return None
    ends = ztree._ends
    first = ends[path[0]] if 0 <= path[0] < len(ends) else None
    if first is None:
        problems.append(("bad-line", ctx, f"path references missing edge {excerpt(path[0])}"))
        return None
    if len(path) == 1:
        return first[0] if orient == 1 else first[1]
    second = ends[path[1]] if 0 <= path[1] < len(ends) else None
    if second is None:
        problems.append(("bad-line", ctx, f"path references missing edge {excerpt(path[1])}"))
        return None
    shared = set(first) & set(second)
    if len(shared) != 1:
        problems.append(("bad-line", ctx, "first two path edges do not chain"))
        return None
    start = first[0] if first[1] in shared else first[1]
    derived = 1 if start == first[0] else -1
    if derived != orient:
        problems.append(
            ("bad-orient", ctx, f"orient {orient} contradicts the edge walk ({derived})")
        )
        return None
    return start


def to_spec(c: Cluster) -> dict:
    """The JSON wire form; key order is deterministic for byte-exact dumps."""
    tree = {
        "vertices": list(c.tree.vertices),
        "edges": [list(e) for e in c.tree.edges],
    }
    pieces = {}
    for v in sorted(c.pieces):
        ztree, (lo, hi) = c.pieces[v]
        pieces[str(v)] = {
            "tree_edges": [[a, b, format_rational(length)]
                           for (a, b), length in zip(ztree._ends, ztree._lengths)],
            "height_window": [format_rational(lo), format_rational(hi)],
        }
    marks = {}
    for v, eid in sorted(c.marks):
        line = c.marks[(v, eid)]
        a, _ = line.tree._ends[line.edge_path[0]]
        marks[_mark_key(v, eid)] = {
            "path": list(line.edge_path),
            "range": [format_rational(line.lo), format_rational(line.hi)],
            "origin": format_rational(line.lo),
            "orient": 1 if line.start_vertex == a else -1,
        }
    return {"tree": tree, "pieces": pieces, "marks": marks}


def dumps(c: Cluster) -> str:
    return dumps_canonical(to_spec(c))


def point_to_spec(pt: ClusterPoint) -> dict:
    """JSON shape of a point: piece vertex, edge id, offset, height."""
    return {
        "vertex": pt.vertex,
        "edge": pt.horizontal.edge,
        "offset": format_rational(pt.horizontal.offset),
        "height": format_rational(pt.height),
    }


def point_of_spec(c: Cluster, spec: dict) -> ClusterPoint:
    """The point of a JSON shape from point_to_spec: int ids and canonical
    rational strings.  Any other shape raises InvalidPointError."""
    if not isinstance(spec, dict) or not spec.keys() >= {"vertex", "edge", "offset", "height"}:
        raise InvalidPointError(
            f'a point needs "vertex", "edge", "offset" and "height": {excerpt(spec)}')
    v, eid, offset, height = spec["vertex"], spec["edge"], spec["offset"], spec["height"]
    if type(v) is not int or type(eid) is not int:
        raise InvalidPointError(f"point ids must be integers, got {excerpt(v)} and {excerpt(eid)}")
    try:
        offset, height = parse_rational(offset), parse_rational(height)
    except ValueError as ex:
        raise InvalidPointError(f"bad point coordinate: {ex}") from None
    return c.point(v, eid, offset, height)
