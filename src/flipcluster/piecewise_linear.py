"""Exact minimization of chain-structured convex piecewise-linear objectives.

Objectives are sums of small term types over finitely many rational
variables, each confined to a box interval.  Unary terms touch one
variable; pair terms couple two.  The couplings that arise from distances
in glued tree products form disjoint chains (every variable sits in at
most two pair terms, acyclically), so exact dynamic programming over
one-dimensional piecewise-linear value functions computes the global
minimum without search: messages are eliminated variable by variable and
an argmin is recovered by backtracking.  Plain coordinate descent is not
sound for these objectives - a diagonal kink such as |x - y| can make
every axis direction flat at a non-optimal point - which is why the
elimination route is used.

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
and affine pullback of convex functions are convex, and every pair term
is jointly convex except a TreePair whose interval is inside out
(lo > hi), which is rejected before elimination.  The convexity
certificate (nondecreasing slopes) is still checked on every message and
value function, and a violation raises NonConvexObjective instead of
returning a wrong minimum.

The TreePair identity
---------------------
With r = sigma * x_b + shift and I = [lo, hi], a TreePair's value
|x_a - clamp_I(r)| + dist(r, I) equals

    dist(x_a, I) + |clamp_I(x_a) - clamp_I(r)| + dist(r, I),

which is symmetric in x_a and r, as |x_a - r| is for a PairAbs.  So one
formula serves both directions: with the child value function f in its
own coordinate (x_a, or r for a child on the b side), the message is

    inf_conv_abs(inf_conv_abs(f, I), parent range)

in the other coordinate.  Minimizing f + dist(., I) + |clamp_I(.) - s|
over the child gives inf_conv_abs(f)(s) for s in I, and a function whose
slopes lie in [-1, 1] is its own inf-convolution, which supplies the
unit-slope continuation outside I.  With one side fixed at u the term is
a constant plus |v - clamp_I(u)| in the other coordinate v, so
backtracking only needs the lowest argmin of f + |x - c|: c clamped
between the first knots of f whose right slopes reach -1 and 1.

Everything is exact over Fraction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NonConvexObjective, ObjectiveStructureError


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# -- term types -------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Affine:
    """slope * x_var + intercept"""

    var: int
    slope: Fraction
    intercept: Fraction = Fraction(0)


@dataclass(frozen=True)
class AbsAnchor:
    """|x_var - anchor|"""

    var: int
    anchor: Fraction


@dataclass(frozen=True)
class IntervalDist:
    """distance from x_var to the interval [lo, hi]"""

    var: int
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class PairAbs:
    """|x_a - sigma * x_b - shift| with sigma in {1, -1}"""

    var_a: int
    var_b: int
    sigma: int
    shift: Fraction


@dataclass(frozen=True)
class TreePair:
    """Distance between points moving on two overlapping tree geodesics.

    With r = sigma * x_b + shift (the position of the second point in the
    first line's parameters, affinely extended past the overlap) and
    I = [lo, hi] the overlap in the first line's parameters, the value is

        |x_a - clamp_I(r)| + dist(r, I)

    which is exactly the tree distance between the two moving points and
    is jointly convex.
    """

    var_a: int
    var_b: int
    sigma: int
    shift: Fraction
    lo: Fraction
    hi: Fraction


Term = Const | Affine | AbsAnchor | IntervalDist | PairAbs | TreePair


def _clamp(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    return lo if x < lo else hi if x > hi else x


def _ivl_dist(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return Fraction(0)


def evaluate_terms(terms: Sequence[Term], x: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for t in terms:
        if isinstance(t, Const):
            total += t.value
        elif isinstance(t, Affine):
            total += t.slope * x[t.var] + t.intercept
        elif isinstance(t, AbsAnchor):
            total += abs(x[t.var] - t.anchor)
        elif isinstance(t, IntervalDist):
            total += _ivl_dist(x[t.var], t.lo, t.hi)
        elif isinstance(t, PairAbs):
            total += abs(x[t.var_a] - t.sigma * x[t.var_b] - t.shift)
        elif isinstance(t, TreePair):
            r = t.sigma * x[t.var_b] + t.shift
            total += abs(x[t.var_a] - _clamp(r, t.lo, t.hi)) + _ivl_dist(r, t.lo, t.hi)
        else:
            raise TypeError(f"unknown term {t!r}")
    return total


# -- convex piecewise-linear functions in slope form --------------------------


class ConvexPL:
    """A convex piecewise-linear function on [knots[0], knots[-1]].

    ``knots`` strictly increase, ``values[i]`` is the value at
    ``knots[i]`` and ``slopes[i]`` the slope between ``knots[i]`` and
    ``knots[i + 1]``.  A single knot encodes a function on a one-point
    domain.  The operations assume convexity, which ``is_convex``
    certifies.
    """

    __slots__ = ("knots", "values", "slopes")

    def __init__(self, knots: tuple[Fraction, ...], values: tuple[Fraction, ...],
                 slopes: tuple[Fraction, ...]):
        self.knots = knots
        self.values = values
        self.slopes = slopes

    @property
    def lo(self) -> Fraction:
        return self.knots[0]

    @property
    def hi(self) -> Fraction:
        return self.knots[-1]

    def __call__(self, x: Fraction) -> Fraction:
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

    def argmin(self) -> tuple[Fraction, Fraction]:
        """(lowest argmin, minimum value): the first knot with right slope >= 0."""
        i = bisect_left(self.slopes, 0)
        return self.knots[i], self.values[i]

    def argmin_plus_abs(self, c: Fraction) -> Fraction:
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

    def inf_conv_abs(self, lo: Fraction, hi: Fraction) -> "ConvexPL":
        """g(y) = min over x in dom(f) of f(x) + |x - y|, on [lo, hi] (lo <= hi).

        Pieces before p have slope <= -1 and pieces from q on slope >= 1;
        g agrees with f on [knots[p], knots[q]] and continues with slope -1
        to the left and +1 to the right.
        """
        k, v, s = self.knots, self.values, self.slopes
        p = bisect_right(s, -1)
        q = bisect_left(s, 1, p)
        a = bisect_right(k, lo, p, q + 1)   # kept knots lie strictly inside (lo, hi)
        b = bisect_left(k, hi, a, q + 1)

        def at(y: Fraction, i: int) -> tuple[Fraction, int | Fraction]:
            """(g(y), slope of g right of y) for the last kept knot i <= y."""
            if i < p:
                return v[p] + (k[p] - y), -1
            if i == q:
                return v[q] + (y - k[q]), 1
            return v[i] + s[i] * (y - k[i]), s[i]

        v_lo, s_lo = at(lo, a - 1)
        if lo == hi:
            return ConvexPL((lo,), (v_lo,), ())
        tail = (1,) if b > q else ()
        return ConvexPL((lo, *k[a:b], hi), (v_lo, *v[a:b], at(hi, b - 1)[0]),
                        (s_lo, *s[a:min(b, q)], *tail))

    def pullback(self, sigma: int, shift: Fraction) -> "ConvexPL":
        """g(x) = f(sigma * x + shift) on the pulled-back domain."""
        if sigma == 1:
            if not shift:
                return self
            return ConvexPL(tuple(x - shift for x in self.knots), self.values, self.slopes)
        return ConvexPL(tuple(shift - x for x in reversed(self.knots)), self.values[::-1],
                        tuple(-t for t in reversed(self.slopes)))


# -- chain elimination --------------------------------------------------------


def _unary_pl(terms: list[Term], lo: Fraction, hi: Fraction) -> ConvexPL:
    """Sum of one variable's unary terms on [lo, hi], built from slope changes.

    |x - a| is the distance to [a, a]; the distance to [a, b] has slope
    -1, 0, +1 and gains 1 at each of a and b.
    """
    value, slope = Fraction(0), Fraction(0)
    jumps: dict[Fraction, int] = {}
    for t in terms:
        if isinstance(t, Affine):
            value += _frac(t.slope) * lo + _frac(t.intercept)
            slope += _frac(t.slope)
            continue
        a, b = (t.anchor, t.anchor) if isinstance(t, AbsAnchor) else (t.lo, t.hi)
        a, b = _frac(a), _frac(b)
        value += _ivl_dist(lo, a, b)
        slope += -1 if lo < a else 0 if lo < b else 1
        for k in (a, b):
            if lo < k < hi:
                jumps[k] = jumps.get(k, 0) + 1
    ks, vs, ss = [lo], [value], []
    for k in sorted(jumps) + ([hi] if lo < hi else []):
        value += slope * (k - ks[-1])
        ks.append(k)
        vs.append(value)
        ss.append(slope)
        slope += jumps.get(k, 0)
    return ConvexPL(tuple(ks), tuple(vs), tuple(ss))


def _pair_message(pair: PairAbs | TreePair, child: ConvexPL, child_var: int,
                  parent_lo: Fraction, parent_hi: Fraction) -> ConvexPL:
    """min over the child variable of child + pair(child, parent).

    Both pair types are symmetric in x_a and r = sigma * x_b + shift, so
    the child is moved into its own side's coordinate, convolved there,
    and the result read in the parent's coordinate.
    """
    sig, sh = pair.sigma, _frac(pair.shift)
    to_a = pair.var_b == child_var
    if to_a:
        child = child.pullback(sig, -sig * sh)   # b = sig * (r - shift)
        lo, hi = parent_lo, parent_hi
    else:
        lo, hi = sorted((sig * parent_lo + sh, sig * parent_hi + sh))
    if isinstance(pair, TreePair):
        child = child.inf_conv_abs(_frac(pair.lo), _frac(pair.hi))
    msg = child.inf_conv_abs(lo, hi)
    return msg if to_a else msg.pullback(sig, sh)


def _pair_anchor(pair: PairAbs | TreePair, fixed_var: int, fixed_value: Fraction) -> Fraction:
    """c such that the pair term, its other variable fixed, is a constant plus |x - c|."""
    sig, sh = pair.sigma, _frac(pair.shift)
    target = fixed_value if pair.var_a == fixed_var else sig * fixed_value + sh
    if isinstance(pair, TreePair):
        target = _clamp(target, _frac(pair.lo), _frac(pair.hi))
    return sig * (target - sh) if pair.var_a == fixed_var else target


def minimize_convex_pl(terms: Sequence[Term], box: Sequence[tuple[Fraction, Fraction]],
                       ) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact global minimum of a chain-coupled convex PL objective over a box.

    Returns (argmin, value); the argmin is canonical (lowest coordinates
    among minimizers under the elimination order).  Raises
    ObjectiveStructureError when pair couplings do not form a forest and
    NonConvexObjective when a TreePair interval is inside out or an
    intermediate value function fails the convexity certificate.
    """
    n = len(box)
    box_f = [(_frac(lo), _frac(hi)) for lo, hi in box]
    for i, (lo, hi) in enumerate(box_f):
        if lo > hi:
            raise ValueError(f"empty box for variable {i}")
    terms = list(terms)
    const_total = sum((t.value for t in terms if isinstance(t, Const)), Fraction(0))
    unary_terms: dict[int, list[Term]] = {i: [] for i in range(n)}
    adj: dict[int, list[tuple[int, Term]]] = {i: [] for i in range(n)}
    for t in terms:
        if isinstance(t, (PairAbs, TreePair)):
            if t.var_a == t.var_b:
                raise ObjectiveStructureError("pair term couples a variable with itself")
            if isinstance(t, TreePair) and _frac(t.lo) > _frac(t.hi):
                raise NonConvexObjective(
                    f"TreePair interval [{t.lo}, {t.hi}] is inside out; the coupling is not convex"
                )
            adj[t.var_a].append((t.var_b, t))
            adj[t.var_b].append((t.var_a, t))
        elif not isinstance(t, Const):
            unary_terms[t.var].append(t)

    assign: dict[int, Fraction] = {}
    total = const_total
    seen: set[int] = set()
    for root in range(n):
        if root in seen:
            continue
        # collect the component and verify it is a tree of couplings
        comp: list[int] = []
        parent: dict[int, tuple[int, Term] | None] = {root: None}
        order = [root]
        seen.add(root)
        while order:
            v = order.pop()
            comp.append(v)
            for w, t in adj[v]:
                if w not in parent:
                    parent[w] = (v, t)
                    seen.add(w)
                    order.append(w)
                elif parent[v] is None or parent[v][0] != w or parent[v][1] is not t:
                    raise ObjectiveStructureError(
                        "pair couplings contain a cycle; chain elimination needs a forest"
                    )
        # comp lists every variable after its parent: reversed, leaves come first
        fn = {v: _unary_pl(unary_terms[v], *box_f[v]) for v in comp}
        for v in reversed(comp):
            if not fn[v].is_convex():
                raise NonConvexObjective(
                    f"value function of variable {v} violates the convexity certificate"
                )
            if parent[v] is not None:
                pv, t = parent[v]
                m = _pair_message(t, fn[v], v, *box_f[pv])
                if not m.is_convex():
                    raise NonConvexObjective(
                        f"message into variable {pv} violates the convexity certificate"
                    )
                fn[pv] = fn[pv].add(m)

        arg_root, val = fn[root].argmin()
        total += val
        assign[root] = arg_root
        for w in comp[1:]:   # backtrack downward, parents first
            v, t = parent[w]
            assign[w] = fn[w].argmin_plus_abs(_pair_anchor(t, v, assign[v]))

    return tuple(assign[i] for i in range(n)), total
