"""Exact minimization of chain-structured convex piecewise-linear objectives.

An objective is a sum of terms over finitely many variables, each
confined to a box interval, all given as ints on the caller's lattice.
Unary terms are anchors: |x_v - a| for each a in ``anchors[v]``.  Pair
terms couple two variables; a pair is a tuple (a, b, sigma, shift,
overlap) with sigma 1 or -1 and r = sigma * x_b + shift.  With overlap
None its value is |x_a - r|, an abs pair; with overlap (lo, hi) = I it
is |x_a - clamp_I(r)| + dist(r, I), the tree distance between two points
moving on two tree geodesics whose common segment is I, with r the
second point's position in the first line's parameters, affinely
extended past I.  The couplings that arise from distances in glued tree
products form disjoint chains, and the caller numbers each chain in
order: every pair has a < b, and each variable is the a of at most one
pair and the b of at most one.  Exact dynamic programming over
one-dimensional piecewise-linear value functions then computes the
global minimum without search: one pass from the last variable down to
the first sends each pair's message from b into a, and one pass up
recovers the lowest argmin by backtracking, each chain rooted at its
lowest variable.  Plain coordinate descent is not sound for these
objectives - a diagonal kink such as |x - y| can make every axis
direction flat at a non-optimal point - which is why the elimination
route is used.

Slope form
----------
Every value function and message is convex, so one type holds them all:
``ConvexPL`` keeps the sorted knots of a convex PL function on a closed
interval, its value at each knot and its slope between consecutive
knots, with a knot only where the slope changes.  The elimination needs
four operations, each read off the slopes:

* ``add``: the sum on a common interval, a two-pointer merge of knots;
* ``inf_conv_abs``: g(y) = min_x f(x) + |x - y| on an output range, the
  l1 distance transform (Felzenszwalb and Huttenlocher, "Distance
  Transforms of Sampled Functions", Theory of Computing 8, 2012).  For
  convex f it keeps the pieces with slope strictly inside (-1, 1),
  continues with slope -1 to their left and +1 to their right, and is
  restricted to the output range;
* ``pullback``: x -> f(sigma * x + shift), which moves the knots and, for
  sigma = -1, reverses them and negates the slopes;
* ``argmin``: the lowest minimizer is the first knot whose right slope is
  >= 0.

Convex-only is sound: unary terms are convex, the sum, inf-convolution
and affine pullback of convex functions are convex, and every pair is
jointly convex except one whose overlap is inside out (lo > hi), which
is rejected before elimination.  The convexity certificate
(nondecreasing slopes) is still checked on every message and value
function, and a violation raises NonConvexObjective instead of returning
a wrong minimum.

The overlap identity
--------------------
With r = sigma * x_b + shift and I = [lo, hi], a pair with overlap I has
the value |x_a - clamp_I(r)| + dist(r, I), which equals

    dist(x_a, I) + |clamp_I(x_a) - clamp_I(r)| + dist(r, I),

symmetric in x_a and r, as |x_a - r| is for an abs pair.  So with the
child value function f of x_b pulled back to r, the message into x_a is

    inf_conv_abs(inf_conv_abs(f, I), parent range).

Minimizing f + dist(., I) + |clamp_I(.) - s| over r gives
inf_conv_abs(f)(s) for s in I, and a function whose slopes lie in
[-1, 1] is its own inf-convolution, which supplies the unit-slope
continuation outside I.  With x_a fixed at u the term is a constant plus
|r - clamp_I(u)|, so backtracking only needs the lowest argmin of
f + |x - c| in x_b: c clamped between the first knots of f whose right
slopes reach -1 and 1.

The lattice
-----------
``minimize_convex_pl`` takes every box end, anchor, shift and overlap
end as an int, and returns the argmin and the minimum as ints on the
same lattice.  The caller picks the lattice: it scales its rationals by
one unit D that clears every denominator (``route_distance`` takes the
cluster's unit times the lcm of its two ends' denominators) and reads a
result n as n / D.  |x - a| keeps its slopes -1 and 1 under that
scaling, and a uniform scaling keeps the lowest argmin, so the answer is
the one the rationals give.  No operation divides: ``add`` merges knots
and sums slope-times-run steps, ``inf_conv_abs`` keeps knots of f or the
ends of its output range and continues with slopes -1 and 1, ``pullback``
shifts or reflects knots by an int, and both argmins pick a knot or clamp
between knots.  So every knot, value and slope stays an int and the
arithmetic is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from .errors import NonConvexObjective, ObjectiveStructureError


def _clamp(x: int, lo: int, hi: int) -> int:
    return lo if x < lo else hi if x > hi else x


# -- convex piecewise-linear functions in slope form --------------------------


class ConvexPL:
    """A convex piecewise-linear function on [knots[0], knots[-1]].

    ``knots`` strictly increase, ``values[i]`` is the value at
    ``knots[i]`` and ``slopes[i]`` the slope between ``knots[i]`` and
    ``knots[i + 1]``.  A single knot encodes a function on a one-point
    domain.  The operations assume convexity, which ``is_convex``
    certifies.  The minimizer builds them on ints (see the lattice
    above); no operation divides, so any exact numbers work.
    """

    __slots__ = ("knots", "values", "slopes")

    def __init__(self, knots: tuple[int, ...], values: tuple[int, ...],
                 slopes: tuple[int, ...]):
        self.knots = knots
        self.values = values
        self.slopes = slopes

    def __call__(self, x: int) -> int:
        ks = self.knots
        if x < ks[0] or x > ks[-1]:
            raise ValueError(f"{x} outside domain [{ks[0]}, {ks[-1]}]")
        i = bisect_right(ks, x) - 1
        if i == len(self.slopes):
            return self.values[-1]
        return self.values[i] + self.slopes[i] * (x - ks[i])

    def is_convex(self) -> bool:
        s = self.slopes
        return all(a <= b for a, b in zip(s, s[1:]))

    def argmin(self) -> tuple[int, int]:
        """(lowest argmin, minimum value): the first knot with right slope >= 0."""
        i = bisect_left(self.slopes, 0)
        return self.knots[i], self.values[i]

    def argmin_plus_abs(self, c: int) -> int:
        """Lowest argmin of f(x) + |x - c|.

        Left of c the sum has slope f' - 1 and right of it f' + 1, so the
        answer is c clamped between the first knots whose right slopes
        reach -1 and 1.
        """
        ks, s = self.knots, self.slopes
        return _clamp(c, ks[bisect_left(s, -1)], ks[bisect_left(s, 1)])

    def add(self, other: "ConvexPL") -> "ConvexPL":
        """Pointwise sum on the common domain, by a two-pointer merge of the knots."""
        fk, fs, gk, gs = self.knots, self.slopes, other.knots, other.slopes
        if fk[0] != gk[0] or fk[-1] != gk[-1]:
            raise ValueError("domain mismatch in add")
        x, v = fk[0], self.values[0] + other.values[0]
        ks, vs, ss = [x], [v], []
        i = j = 1
        while i < len(fk):
            a, b = fk[i], gk[j]
            y = a if a <= b else b
            s = fs[i - 1] + gs[j - 1]
            v += s * (y - x)
            ks.append(y)
            vs.append(v)
            ss.append(s)
            x = y
            i += a == y
            j += b == y
        return ConvexPL(tuple(ks), tuple(vs), tuple(ss))

    def inf_conv_abs(self, lo: int, hi: int) -> "ConvexPL":
        """g(y) = min over x in dom(f) of f(x) + |x - y|, on [lo, hi] (lo <= hi).

        Pieces before p have slope <= -1 and pieces from q on slope >= 1;
        g agrees with f on [knots[p], knots[q]] and continues with slope
        -1 to the left and 1 to the right.
        """
        k, v, s = self.knots, self.values, self.slopes
        p = bisect_right(s, -1)
        q = bisect_left(s, 1, p)
        a = bisect_right(k, lo, p, q + 1)   # kept knots lie strictly inside (lo, hi)
        b = bisect_left(k, hi, a, q + 1)

        def at(y: int, i: int) -> tuple[int, int]:
            """(g(y), slope of g right of y) for the last kept knot i <= y."""
            if i < p:
                return v[p] + k[p] - y, -1
            if i == q:
                return v[q] + y - k[q], 1
            return v[i] + s[i] * (y - k[i]), s[i]

        v_lo, s_lo = at(lo, a - 1)
        if lo == hi:
            return ConvexPL((lo,), (v_lo,), ())
        tail = (1,) if a <= q < b else ()   # knot q kept: its slope-1 piece runs to hi
        return ConvexPL((lo, *k[a:b], hi), (v_lo, *v[a:b], at(hi, b - 1)[0]),
                        (s_lo, *s[a:min(b, q)], *tail))

    def pullback(self, sigma: int, shift: int) -> "ConvexPL":
        """g(x) = f(sigma * x + shift) on the pulled-back domain."""
        if sigma == 1:
            if not shift:
                return self
            return ConvexPL(tuple(x - shift for x in self.knots), self.values, self.slopes)
        return ConvexPL(tuple(shift - x for x in reversed(self.knots)), self.values[::-1],
                        tuple(-t for t in reversed(self.slopes)))


# -- chain elimination --------------------------------------------------------


# a pair term: (var_a, var_b, sigma, shift, the overlap (lo, hi) or None for
# an abs pair), with var_a < var_b; each variable is the var_a of at most
# one pair and the var_b of at most one, so the pairs form chains
Pair = tuple[int, int, int, int, tuple[int, int] | None]


def _unary_pl(lo: int, hi: int, anchors: list[int]) -> ConvexPL:
    """The sum of |x - a| over anchors on [lo, hi], built from slope changes.

    Each |x - a| starts at slope -1 if a is right of lo and 1 otherwise,
    and gains 2 at a when a lies inside (lo, hi).
    """
    value = slope = 0
    jumps: dict[int, int] = {}
    for a in anchors:
        value += abs(a - lo)
        slope += -1 if lo < a else 1
        if lo < a < hi:
            jumps[a] = jumps.get(a, 0) + 2
    ks, vs, ss = [lo], [value], []
    for k in sorted(jumps) + ([hi] if lo < hi else []):
        value += slope * (k - ks[-1])
        ks.append(k)
        vs.append(value)
        ss.append(slope)
        slope += jumps.get(k, 0)
    return ConvexPL(tuple(ks), tuple(vs), tuple(ss))


def _pair_message(pair: Pair, child: ConvexPL, parent_lo: int, parent_hi: int) -> ConvexPL:
    """min over x_b of child(x_b) + pair(x_a, x_b), a function of x_a on its box.

    Both pair types are symmetric in x_a and r = sigma * x_b + shift, so
    the child is moved into r, convolved there, and read as x_a.
    """
    _, _, sig, sh, overlap = pair
    child = child.pullback(sig, -sig * sh)   # b = sig * (r - shift)
    if overlap is not None:
        child = child.inf_conv_abs(*overlap)
    return child.inf_conv_abs(parent_lo, parent_hi)


def _pair_anchor(pair: Pair, x_a: int) -> int:
    """c such that the pair term, x_a fixed, is a constant plus |x_b - c|."""
    _, _, sig, sh, overlap = pair
    return sig * ((x_a if overlap is None else _clamp(x_a, *overlap)) - sh)


def minimize_convex_pl(anchors: Sequence[Sequence[int]], box: Sequence[tuple[int, int]],
                       pairs: Sequence[Pair]) -> tuple[tuple[int, ...], int]:
    """Exact global minimum of a chain-coupled convex PL objective over a box.

    ``anchors[v]`` and ``box[v]`` are variable v's anchors and (lo, hi);
    every number is an int on the caller's lattice (module docstring),
    and so are the returned (argmin, value).  The pairs must follow the
    chain rule: a < b in each, and each variable the a of at most one
    pair and the b of at most one.  The argmin is the lexicographically
    lowest minimizer.  Raises ObjectiveStructureError when the anchors
    and the box disagree on the number of variables, a pair names a
    variable outside the box, has a >= b or sigma other than 1 or -1, or
    a variable is the a or the b of two pairs; NonConvexObjective when
    an overlap is inside out or an intermediate value function fails the
    convexity certificate.
    """
    n = len(box)
    if len(anchors) != n:
        raise ObjectiveStructureError(f"anchors for {len(anchors)} variables, a box for {n}")
    for i, (lo, hi) in enumerate(box):
        if lo > hi:
            raise ValueError(f"empty box for variable {i}")
    into: list[Pair | None] = [None] * n   # into[b]: the pair whose var_b is b
    is_a = [False] * n
    for k, pair in enumerate(pairs):
        a, b, sigma, _, overlap = pair
        if not (0 <= a < b < n and sigma in (1, -1)):
            raise ObjectiveStructureError(
                f"pair {pair!r} needs two distinct variables a < b in [0, {n}) and sigma 1 or -1")
        if is_a[a] or into[b] is not None:
            raise ObjectiveStructureError(
                f"pair {k} is a second pair with variable {a if is_a[a] else b} on the same "
                "side; the pairs must form chains, with no branch or cycle")
        if overlap is not None and overlap[0] > overlap[1]:
            raise NonConvexObjective(
                f"overlap {list(overlap)} of pair {k} is inside out; the coupling is not convex")
        is_a[a] = True
        into[b] = pair

    # every b exceeds its a, so a variable's messages are all in when it is reached
    fn = [_unary_pl(*box[v], anchors[v]) for v in range(n)]
    for v in reversed(range(n)):
        if not fn[v].is_convex():
            raise NonConvexObjective(
                f"value function of variable {v} violates the convexity certificate")
        pair = into[v]
        if pair is not None:
            a = pair[0]
            m = _pair_message(pair, fn[v], *box[a])
            if not m.is_convex():
                raise NonConvexObjective(
                    f"message into variable {a} violates the convexity certificate")
            fn[a] = fn[a].add(m)

    arg = [0] * n
    total = 0
    for v in range(n):   # backtrack upward, each chain from its root
        pair = into[v]
        if pair is None:
            arg[v], val = fn[v].argmin()
            total += val
        else:
            arg[v] = fn[v].argmin_plus_abs(_pair_anchor(pair, arg[pair[0]]))
    return tuple(arg), total
