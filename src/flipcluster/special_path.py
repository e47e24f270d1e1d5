"""Canonical piecewise paths through bridge feet, with quality audits.

A special path follows a support route in T (``route_path``, as
``route_distance`` measures one; ``special_path`` first resolves two
points with ``cluster.support_route``), starting and ending at the
endpoints as the route represents them.  Inside each intermediate piece
it runs between the two mark lines of the traversed walls, entering and
leaving at the feet of the bridge between those lines (the midpoint of
their overlap when they intersect).  End pieces project the endpoint
onto the single mark line instead.  Crossing heights are then forced by
the flip rule: the height carried into a piece is the mark parameter
left behind in the previous one.

The construction is canonical given the vertex geodesic, which is what
makes the inner segments of long paths independent of the endpoints.
Paths are never shorter than the exact distance, and the interest is in
how much longer they can get.  Every contiguous sub-range of segments,
single segments included, is again a special path between its own
endpoints; subrange_ratios walks them all with one length check
(length_ratio), and the bilipschitz suite takes its ratios from that
walk.
star_terms compares a path piece by piece with an optimal crossing
profile between the same points; a caller that already holds both
passes them in, and star_audit builds both along one support route.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .cluster import (
    Cluster,
    ClusterPoint,
    SupportRoute,
    piece_distance,
    route_between,
    support_route,
    transfer_across_wall,
)
from .distance_oracle import CrossingProfile, route_distance
from .metric_tree import Overlap, project_to_line


class PathSegment(NamedTuple):
    """One in-piece leg; entry and exit share the segment's vertex."""

    entry: ClusterPoint
    exit: ClusterPoint
    length: Fraction

    @property
    def vertex(self) -> int:
        return self.entry.vertex


class SpecialPath(NamedTuple):
    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    segments: tuple[PathSegment, ...]
    length: Fraction


def special_path(c: Cluster, x0: ClusterPoint, xn: ClusterPoint) -> SpecialPath:
    """Build the special path from x0 to xn."""
    return route_path(c, support_route(c, x0, xn))


def route_path(c: Cluster, route: SupportRoute) -> SpecialPath:
    """Build the special path between the ends of a support route, which
    are already resolved on it.

    Wall endpoints have several supporting vertices; the path follows
    their support route, so it never starts with an avoidable crossing.

    Raises no SegmentOverflow on a validated cluster.  Every parameter
    it hands to a mark is that mark's coord_of, a gate parameter or an
    overlap midpoint, all inside the mark's range; and every mark runs
    leaf to leaf, so no projection or bridge foot sits on a truncated end.
    """
    verts, eids, x0, xn = route
    n = len(eids)
    if n == 0:
        seg = PathSegment(x0, xn, piece_distance(c, x0, xn))
        return SpecialPath(verts, (), (seg,), seg.length)

    p: list = [None] * (n + 1)
    q: list = [None] * (n + 1)

    p[0], q[n] = x0.horizontal, xn.horizontal
    # each end piece projects its endpoint onto the one mark it crosses
    for i, eid, end, feet in ((0, eids[0], p[0], q), (n, eids[n - 1], q[n], p)):
        feet[i] = project_to_line(c.pieces[verts[i]].tree, end, c.marks[(verts[i], eid)])

    for i in range(1, n):
        enter = c.marks[(verts[i], eids[i - 1])]
        rel = c.mark_relation(verts[i], eids[i - 1], eids[i])
        if isinstance(rel, Overlap):
            # both marks meet the overlap midpoint at one tree point
            p[i] = q[i] = enter.point_at((rel.lo1 + rel.hi1) / 2)
        else:
            p[i], q[i] = rel.p, rel.q

    t: list = [None] * (n + 1)
    u: list = [None] * (n + 1)
    t[0] = x0.height
    u[n] = xn.height
    for i in range(n):
        u[i] = c.marks[(verts[i + 1], eids[i])].coord_of(p[i + 1])
        t[i + 1] = c.marks[(verts[i], eids[i])].coord_of(q[i])

    segments = []
    for i in range(n + 1):
        y = ClusterPoint(verts[i], p[i], t[i])
        z = ClusterPoint(verts[i], q[i], u[i])
        segments.append(PathSegment(y, z, piece_distance(c, y, z)))
    for i in range(n):
        crossed = transfer_across_wall(c, eids[i], segments[i].exit)
        if crossed != segments[i + 1].entry:
            raise AssertionError(
                f"segments {i} and {i + 1} fail to glue across edge {eids[i]}"
            )
    total = sum(s.length for s in segments)
    return SpecialPath(verts, eids, tuple(segments), total)


def subpath(sp: SpecialPath, i: int, j: int) -> SpecialPath:
    """Contiguous sub-range of segments i..j as a path in its own right."""
    if not 0 <= i <= j < len(sp.segments):
        raise IndexError(f"segment range {i}..{j} out of bounds")
    segs = sp.segments[i:j + 1]
    return SpecialPath(sp.vertices[i:j + 1], sp.edges[i:j],
                       segs, sum(s.length for s in segs))


def length_ratio(length: Fraction, d: Fraction
                 ) -> tuple[Fraction | None, str | None]:
    """(ratio, problem) of a path of this length between two points at
    distance d.  A path never beats the distance, and has zero length
    between coincident points; the problem says which check failed.  The
    ratio is length/d when both hold and d is positive, else None."""
    if length < d:
        return None, f"path of length {length} beats the distance {d}"
    if d == 0:
        return None, (None if length == 0 else
                      f"positive length {length} between coincident points")
    return length / d, None


def subrange_ratios(c: Cluster, sp: SpecialPath, d: Fraction
                    ) -> Iterator[tuple[SpecialPath, Fraction | None, str | None]]:
    """(sub-range, ratio, problem) for every contiguous sub-range of sp,
    single segments included, in order (0, 0), (0, 1), ..., (n, n).

    d is the distance between the ends of sp.  The whole range (0, n)
    runs between those same points, as the support route represents
    them, so it reuses d; every other range measures the route between
    its ends, each segment's entry and exit resolved once per walk.
    """
    n = len(sp.segments) - 1
    ends = [(c.supports(s.entry), c.supports(s.exit)) for s in sp.segments] if n else []
    for lo in range(n + 1):
        for hi in range(lo, n + 1):
            sub = subpath(sp, lo, hi)
            d_sub = d if (lo, hi) == (0, n) else route_distance(
                c, route_between(c, ends[lo][0], ends[hi][1]))[0]
            yield (sub, *length_ratio(sub.length, d_sub))


def star_terms(sp: SpecialPath, prof: CrossingProfile) -> list[tuple[Fraction, Fraction]]:
    """Per-piece vertical comparison of a special path against an optimal
    profile between the same two points.

    For each traversed piece, the path's vertical travel |t_i - u_i| is
    bounded by the optimal crossing's vertical leg plus the two height
    mismatches at the walls (entry heights t_0 and s_{i-1} coincide at
    i = 0, exit heights u_n and h_n at i = n).  Returns (lhs, rhs) pairs.
    """
    if prof.vertices != sp.vertices:
        raise AssertionError("path and oracle disagree on the vertex geodesic")
    n = len(sp.segments) - 1
    out = []
    for i in range(n + 1):
        t_i = sp.segments[i].entry.height
        u_i = sp.segments[i].exit.height
        s_prev = prof.s[i - 1] if i >= 1 else t_i
        h_i = prof.h[i] if i <= n - 1 else u_i
        lhs = abs(t_i - u_i)
        rhs = abs(s_prev - h_i) + abs(t_i - s_prev) + abs(h_i - u_i)
        out.append((lhs, rhs))
    return out


def star_audit(c: Cluster, x0: ClusterPoint, xn: ClusterPoint
               ) -> list[tuple[Fraction, Fraction]]:
    """star_terms of the special path and an optimal profile, on one route."""
    route = support_route(c, x0, xn)
    return star_terms(route_path(c, route), route_distance(c, route)[1])
