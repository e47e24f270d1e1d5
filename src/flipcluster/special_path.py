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

Every leg is known from what the route holds, the data route_distance
builds its objective from: an end piece's horizontal leg is its
endpoint's line_gate distance, an inner piece's its bridge's gap (0 on
an overlap), and every crossing height is a gate or bridge parameter,
an overlap midpoint or its image on the other mark.  So a path's length
is route_distance's constant (both gate distances and every gap) plus
sum |t_i - u_i| over its segments' entry and exit heights.  route_path
keeps every leg, height and foot as an int, checks the glue on ints, and
measures a tree distance only on one piece; a SpecialPath builds its
segments' Fractions on their first read, and star_terms reads its ints.

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
from functools import cached_property
from math import lcm
from typing import Iterator, NamedTuple

from .cluster import (Cluster, ClusterPoint, SupportRoute, piece_distance, route_between,
                      support_route)
from .distance_oracle import CrossingProfile, _at, _lift, route_distance
from .errors import FrameMismatch, GlueMismatch, excerpt
from .metric_tree import Overlap, TreePoint


class PathSegment(NamedTuple):
    """One in-piece leg; entry and exit share the segment's vertex."""

    entry: ClusterPoint
    exit: ClusterPoint
    length: Fraction

    @property
    def vertex(self) -> int:
        return self.entry.vertex


class SpecialPath:
    """A special path: the T-path it follows (``vertices``, ``edges``), its
    ``segments`` and its ``length``, built on their first read from the
    ints route_path keeps over one frame: each segment's entry and exit
    heights and length, and each crossing's exit and entry feet as (edge
    id, offset times the frame).  Two paths are equal when they read equal.
    """

    def __init__(self, vertices, edges, ends, frame, feet, heights, legs):
        self.vertices, self.edges, self._ends, self._frame = vertices, edges, ends, frame
        self._feet, self._heights, self._legs = feet, heights, legs

    @cached_property
    def segments(self) -> tuple[PathSegment, ...]:
        d = self._frame

        def point(v: int, foot: tuple[int, int], height: int) -> ClusterPoint:
            return ClusterPoint(v, TreePoint(foot[0], Fraction(foot[1], d)), Fraction(height, d))
        (t, u), feet = self._heights, self._feet
        entries = [self._ends[0], *map(point, self.vertices[1:], (f[1] for f in feet), t[1:])]
        exits = [*map(point, self.vertices, (f[0] for f in feet), u), self._ends[1]]
        return tuple(map(PathSegment, entries, exits, (Fraction(x, d) for x in self._legs)))

    @cached_property
    def length(self) -> Fraction:
        return Fraction(sum(self._legs), self._frame)

    def _key(self) -> tuple:
        return self.vertices, self.edges, self.segments, self.length

    def __eq__(self, other) -> bool:
        return isinstance(other, SpecialPath) and self._key() == other._key()

    def __repr__(self) -> str:
        return "SpecialPath(vertices={}, edges={}, segments={}, length={!r})".format(*self._key())


def special_path(c: Cluster, x0: ClusterPoint, xn: ClusterPoint) -> SpecialPath:
    """Build the special path from x0 to xn."""
    return route_path(c, support_route(c, x0, xn))


def route_path(c: Cluster, route: SupportRoute) -> SpecialPath:
    """Build the special path between the ends of a support route, which
    are already resolved on it.

    Wall endpoints have several supporting vertices; the path follows
    their support route, so it never starts with an avoidable crossing.

    Its legs, heights and feet (module docstring) are ints over D = 2 *
    unit * m, m the lcm of the ends' offset and height denominators: the
    frame of route_distance, times 2 for an overlap midpoint (lo1 + hi1)
    / 2.  End gates come from ``Line._gate`` and feet from ``Line._foot``.
    The glue check runs on every crossing, on ints: the exit foot must be
    the exit mark's foot at the exit parameter, and the twin's foot at the
    exit height the next entry foot, else GlueMismatch.  Relations are
    read as ints at the unit, so a unit that is no multiple of a crossed
    piece tree's scale or a used mark's origin denominator, which would
    floor them, raises FrameMismatch first.

    Raises no SegmentOverflow on a validated cluster: every parameter it
    hands to a mark is a gate or bridge parameter or an overlap midpoint,
    inside the mark's range, and every mark runs leaf to leaf, so no
    projection or bridge foot sits on a truncated end.
    """
    verts, eids, x0, xn = route
    n = len(eids)
    if n == 0:   # the piece geodesic, at the frame of its length and heights
        length = piece_distance(c, x0, xn)
        d = lcm(length.denominator, x0.height.denominator, xn.height.denominator)
        heights = [_lift(x0.height, d)], [_lift(xn.height, d)]
        return SpecialPath(verts, (), (x0, xn), d, [], heights, [_lift(length, d)])
    m = lcm(*(f.denominator for p in (x0, xn) for f in (p.horizontal.offset, p.height)))
    unit = c.unit
    for i, e in enumerate(eids):   # every mark the route reads, so every crossed piece's tree
        for line in (c.marks[(verts[i], e)], c.marks[(verts[i + 1], e)]):
            if unit % line._lo[1] or unit % line.tree.scale:
                raise FrameMismatch(f"unit {excerpt(unit)} does not clear the route's denominators")
    d, k = 2 * unit * m, 2 * m   # the frame, and the step from an int at unit to it
    g0, d0 = c.marks[(verts[0], eids[0])]._gate(_at(x0.horizontal, d), d)
    gn, dn = c.marks[(verts[n], eids[n - 1])]._gate(_at(xn.horizontal, d), d)
    # per piece: the entry and exit feet its relation places (an end gate
    # places its foot in the glue check), the entry's parameter on the mark
    # it enters by, the exit's on the mark it leaves by, and the horizontal leg
    hops = [(None, None, None, g0, d0)]
    for i in range(1, n):
        rel, ints = c._relation(verts[i], eids[i - 1], eids[i])
        if isinstance(rel, Overlap):
            lo1, hi1, shift = ints
            mid = (lo1 + hi1) * m   # (lo1 + hi1) / 2 at unit, over d
            foot = c.marks[(verts[i], eids[i - 1])]._foot(mid, d)
            hops.append((foot, foot, mid, rel.sigma * mid + shift * k, 0))
        else:
            hops.append((_at(rel.p, d), _at(rel.q, d), *(x * k for x in ints)))
    hops.append((None, None, gn, None, dn))
    # the flip rule: each crossing height is the parameter left behind across the wall
    t = [_lift(x0.height, d), *(hop[3] for hop in hops[:-1])]
    u = [*(hop[2] for hop in hops[1:]), _lift(xn.height, d)]
    legs = [hop[4] + abs(a - b) for hop, a, b in zip(hops, t, u)]
    feet = []
    for i in range(n):
        out = c.marks[(verts[i], eids[i])]._foot(t[i + 1], d)
        into = c.marks[(verts[i + 1], eids[i])]._foot(u[i], d)
        if hops[i][1] not in (None, out) or hops[i + 1][0] not in (None, into):
            raise GlueMismatch(f"segments {i} and {i + 1} fail to glue across edge {eids[i]}")
        feet.append((out, into))
    return SpecialPath(verts, eids, (x0, xn), d, feet, (t, u), legs)


def subpath(sp: SpecialPath, i: int, j: int) -> SpecialPath:
    """Contiguous sub-range of segments i..j as a path in its own right."""
    if not 0 <= i <= j < len(sp._legs):
        raise IndexError(f"segment range {i}..{j} out of bounds")
    (t, u), ends = sp._heights, (sp.segments[i].entry, sp.segments[j].exit)
    return SpecialPath(sp.vertices[i:j + 1], sp.edges[i:j], ends, sp._frame,
                       sp._feet[i:j], (t[i:j + 1], u[i:j + 1]), sp._legs[i:j + 1])


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
    its ends.  A segment's exit and the next segment's entry are one
    glued point (route_path's glue check), so the walk resolves the two
    ends and each crossing once: point k is segment k's entry and
    segment k - 1's exit.
    """
    n = len(sp.segments) - 1
    points = [sp.segments[0].entry, *(s.exit for s in sp.segments)] if n else []
    ends = [c.supports(p) for p in points]
    for lo in range(n + 1):
        for hi in range(lo, n + 1):
            sub = subpath(sp, lo, hi)
            d_sub = d if (lo, hi) == (0, n) else route_distance(
                c, route_between(c, ends[lo], ends[hi + 1]))[0]
            yield (sub, *length_ratio(sub.length, d_sub))


def star_terms(sp: SpecialPath, prof: CrossingProfile) -> list[tuple[Fraction, Fraction]]:
    """Per-piece vertical comparison of a special path against an optimal
    profile between the same two points.

    For each traversed piece, the path's vertical travel |t_i - u_i| is
    bounded by the optimal crossing's vertical leg plus the two height
    mismatches at the walls (entry heights t_0 and s_{i-1} coincide at
    i = 0, exit heights u_n and h_n at i = n).  Returns (lhs, rhs) pairs,
    computed on the path's int heights, at its frame refined by the
    profile's denominators."""
    if prof.vertices != sp.vertices:
        raise AssertionError("path and oracle disagree on the vertex geodesic")
    d = lcm(sp._frame, *(f.denominator for f in (*prof.s, *prof.h)))
    k = d // sp._frame
    s, h = [_lift(f, d) for f in prof.s], [_lift(f, d) for f in prof.h]
    out = []
    for i, (t_i, u_i) in enumerate(zip(*sp._heights)):
        t_i, u_i = t_i * k, u_i * k
        s_prev = s[i - 1] if i >= 1 else t_i
        h_i = h[i] if i < len(h) else u_i
        rhs = abs(s_prev - h_i) + abs(t_i - s_prev) + abs(h_i - u_i)
        out.append((Fraction(abs(t_i - u_i), d), Fraction(rhs, d)))
    return out


def star_audit(c: Cluster, x0: ClusterPoint, xn: ClusterPoint
               ) -> list[tuple[Fraction, Fraction]]:
    """star_terms of the special path and an optimal profile, on one route."""
    route = support_route(c, x0, xn)
    return star_terms(route_path(c, route), route_distance(c, route)[1])
