"""Chain-structured convex PL minimization against a breakpoint-grid oracle.

The referee lives here, on Fractions: term types, ``evaluate_terms`` and
``grid_minimize``.  Every objective built from these term types is
piecewise linear, so its minimum over a box is attained at an
arrangement vertex whose coordinates come from unary kinks propagated
through the pair couplings; ``grid_minimize`` enumerates that grid and
takes the exact minimum.  ``to_lattice`` scales a Fraction objective onto
ints at the lcm of its denominators, the int objective that
``minimize_convex_pl`` takes, and ``solve`` reads the result back as
Fractions, so the minimizer is checked against the referee on rationals.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import flipcluster.piecewise_linear as pl
from flipcluster.errors import NonConvexObjective, ObjectiveStructureError
from flipcluster.piecewise_linear import ConvexPL, minimize_convex_pl

F = Fraction


# -- the referee: Fraction term types and their pointwise value ---------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class AbsAnchor:
    """|x_var - anchor|"""

    var: int
    anchor: Fraction


@dataclass(frozen=True)
class PairAbs:
    """|x_a - sigma * x_b - shift| with sigma in {1, -1}"""

    var_a: int
    var_b: int
    sigma: int
    shift: Fraction


@dataclass(frozen=True)
class TreePair:
    """Distance between points moving on two overlapping tree geodesics:
    with r = sigma * x_b + shift and I = [lo, hi], the value is
    |x_a - clamp_I(r)| + dist(r, I)."""

    var_a: int
    var_b: int
    sigma: int
    shift: Fraction
    lo: Fraction
    hi: Fraction


def _clamp(x, lo, hi):
    return lo if x < lo else hi if x > hi else x


def _ivl_dist(x, lo, hi):
    return lo - x if x < lo else x - hi if x > hi else 0


def evaluate_terms(terms, x):
    total = Fraction(0)
    for t in terms:
        if isinstance(t, Const):
            total += t.value
        elif isinstance(t, AbsAnchor):
            total += abs(x[t.var] - t.anchor)
        elif isinstance(t, PairAbs):
            total += abs(x[t.var_a] - t.sigma * x[t.var_b] - t.shift)
        elif isinstance(t, TreePair):
            r = t.sigma * x[t.var_b] + t.shift
            total += abs(x[t.var_a] - _clamp(r, t.lo, t.hi)) + _ivl_dist(r, t.lo, t.hi)
        else:
            raise TypeError(f"unknown term {t!r}")
    return total


def grid_minimize(terms, box):
    """Exact (minimum, first minimizer) by enumerating propagated
    breakpoints per variable.  The grids are sorted, so the first
    minimizer in product order is the lexicographically lowest on the grid."""
    n = len(box)
    cands = [{F(lo), F(hi)} for lo, hi in box]
    for t in terms:
        if isinstance(t, AbsAnchor):
            cands[t.var].add(F(t.anchor))
        elif isinstance(t, TreePair):
            cands[t.var_a] |= {F(t.lo), F(t.hi)}
            cands[t.var_b] |= {
                t.sigma * (F(t.lo) - F(t.shift)),
                t.sigma * (F(t.hi) - F(t.shift)),
            }
    pairs = [t for t in terms if isinstance(t, (PairAbs, TreePair))]
    for _ in range(n):
        for t in pairs:
            if isinstance(t, PairAbs):
                for v in list(cands[t.var_b]):
                    cands[t.var_a].add(t.sigma * v + F(t.shift))
                for v in list(cands[t.var_a]):
                    cands[t.var_b].add(t.sigma * (v - F(t.shift)))
            else:
                lo, hi = F(t.lo), F(t.hi)
                for v in list(cands[t.var_b]):
                    cands[t.var_a].add(_clamp(t.sigma * v + F(t.shift), lo, hi))
                for v in list(cands[t.var_a]):
                    cands[t.var_b].add(t.sigma * (_clamp(v, lo, hi) - F(t.shift)))
    grids = [
        sorted(c for c in cs if box[i][0] <= c <= box[i][1])
        for i, cs in enumerate(cands)
    ]
    best = arg = None
    for combo in itertools.product(*grids):
        val = evaluate_terms(terms, combo)
        if best is None or val < best:
            best, arg = val, combo
    return best, arg


class Lattice(NamedTuple):
    """A Fraction objective scaled onto ints: coordinates and values times ``scale``."""

    scale: int
    const: int
    anchors: list[list[int]]
    box: list[tuple[int, int]]
    pairs: list[tuple]


def to_lattice(terms, box) -> Lattice:
    """The int objective of minimize_convex_pl, at D the lcm of every
    denominator in the terms and the box."""
    qs = [q for ends in box for q in ends]
    for t in terms:
        qs += [getattr(t, f) for f in ("value", "anchor", "shift", "lo", "hi") if hasattr(t, f)]
    d = lcm(*(q.denominator for q in qs))

    def sc(q):
        return q.numerator * (d // q.denominator)

    anchors = [[] for _ in box]
    pairs = []
    for t in terms:
        if isinstance(t, AbsAnchor):
            anchors[t.var].append(sc(t.anchor))
        elif isinstance(t, PairAbs):
            pairs.append((t.var_a, t.var_b, t.sigma, sc(t.shift), None))
        elif isinstance(t, TreePair):
            pairs.append((t.var_a, t.var_b, t.sigma, sc(t.shift), (sc(t.lo), sc(t.hi))))
    const = sum(sc(t.value) for t in terms if isinstance(t, Const))
    return Lattice(d, const, anchors, [(sc(lo), sc(hi)) for lo, hi in box], pairs)


def solve(terms, box):
    """minimize_convex_pl on the lattice of a Fraction objective, read back
    as (argmin, value) in Fractions."""
    lat = to_lattice(terms, box)
    arg, val = minimize_convex_pl(lat.anchors, lat.box, lat.pairs)
    return tuple(F(x, lat.scale) for x in arg), F(val + lat.const, lat.scale)


def from_points(knots, values):
    """The PL function through the points, with the slopes between them."""
    ks, vs = tuple(knots), tuple(values)
    slopes = tuple((v1 - v0) / (k1 - k0) for k0, k1, v0, v1 in zip(ks, ks[1:], vs, vs[1:]))
    return ConvexPL(ks, vs, slopes)


def abs_pl(lo, hi, anchor):
    """|x - anchor| on [lo, hi] with lo < anchor < hi."""
    return from_points((lo, anchor, hi), (anchor - lo, F(0), hi - anchor))


class TestPLFunction:
    def test_eval_and_minimum(self):
        f = from_points((F(0), F(2), F(5)), (F(4), F(0), F(6)))
        assert f(F(1)) == 2
        assert f(F(4)) == 4
        assert f.argmin() == (F(2), F(0))
        assert f.is_convex()
        assert f.slopes == (F(-2), F(2))

    def test_nonconvex_detected(self):
        w = from_points((F(0), F(1), F(2)), (F(0), F(1), F(0)))
        assert not w.is_convex()

    def test_min_prefers_lowest_knot_on_flat(self):
        f = from_points((F(0), F(1), F(3)), (F(2), F(0), F(0)))
        assert f.argmin() == (F(1), F(0))

    def test_single_knot(self):
        f = from_points((F(3),), (F(7),))
        assert f(F(3)) == 7
        assert f.argmin() == (F(3), F(7))
        assert f.slopes == ()

    def test_add_refines_knots(self):
        f = abs_pl(F(0), F(4), F(1))
        g = abs_pl(F(0), F(4), F(3))
        h = f.add(g)
        assert h.knots == (F(0), F(1), F(3), F(4))
        assert h.slopes == (F(-2), F(0), F(2))
        assert h(F(2)) == 2
        assert h(F(1)) == 2
        assert h(F(0)) == 4
        assert h.argmin() == (F(1), F(2))

    def test_compose_affine_reflection(self):
        f = abs_pl(F(0), F(3), F(1))
        g = f.pullback(-1, F(3))  # g(x) = f(3 - x)
        assert (g.knots[0], g.knots[-1]) == (F(0), F(3))
        assert g(F(2)) == 0
        assert g(F(0)) == 2
        assert g.slopes == (F(-1), F(1))

    def test_inf_conv_keeps_shallow_v(self):
        f = abs_pl(F(0), F(10), F(3))
        g = f.inf_conv_abs(F(0), F(10))
        for x in range(0, 11):
            assert g(F(x)) == abs(x - 3)

    def test_inf_conv_clips_steep_slopes(self):
        f = from_points((F(0), F(3), F(6)), (F(6), F(0), F(6)))  # 2|x - 3|
        g = f.inf_conv_abs(F(0), F(6))
        assert g.knots == (F(0), F(3), F(6))
        for x in range(0, 7):
            assert g(F(x)) == abs(x - 3)

    def test_inf_conv_extends_past_domain(self):
        f = from_points((F(0), F(2)), (F(0), F(6)))  # 3x
        g = f.inf_conv_abs(F(-2), F(4))
        assert g(F(-2)) == 2
        assert g(F(0)) == 0
        assert g(F(4)) == 4
        assert g.knots == (F(-2), F(0), F(4))


class TestMinimizeFrozen:
    def test_single_abs(self):
        arg, val = solve([AbsAnchor(0, F(3))], [(F(0), F(10))])
        assert (arg, val) == ((F(3),), F(0))

    def test_separable(self):
        arg, val = solve(
            [AbsAnchor(0, F(3)), AbsAnchor(1, F(5)), Const(F(2))],
            [(F(0), F(10)), (F(0), F(10))],
        )
        assert (arg, val) == ((F(3), F(5)), F(2))

    def test_diagonal_kink_not_a_stall(self):
        # coordinate descent from (0, 0) cannot improve either axis alone here
        terms = [PairAbs(0, 1, 1, F(0)), AbsAnchor(0, F(3)), AbsAnchor(1, F(3))]
        arg, val = solve(terms, [(F(0), F(10))] * 2)
        assert (arg, val) == ((F(3), F(3)), F(0))

    def test_pair_abs_with_reflection(self):
        # |x + y - 4| with x pulled to 1: minimizers have y = 4 - x
        terms = [PairAbs(0, 1, -1, F(4)), AbsAnchor(0, F(1))]
        arg, val = solve(terms, [(F(0), F(10))] * 2)
        assert val == 0
        assert arg[0] == F(1) and arg[1] == F(3)

    def test_tree_pair_flat_plateau(self):
        terms = [
            AbsAnchor(0, F(0)),
            AbsAnchor(1, F(0)),
            TreePair(0, 1, -1, F(2), F(1), F(2)),
        ]
        arg, val = solve(terms, [(F(0), F(2))] * 2)
        assert val == 2
        assert evaluate_terms(terms, arg) == 2
        assert arg == (F(0), F(0))  # lowest point of the flat minimizer set

    def test_three_var_chain(self):
        # values pulled toward 0, 6, 0 with unit couplings along the chain
        terms = [
            AbsAnchor(0, F(0)),
            AbsAnchor(1, F(6)),
            AbsAnchor(2, F(0)),
            PairAbs(0, 1, 1, F(0)),
            PairAbs(1, 2, 1, F(0)),
        ]
        box = [(F(0), F(6))] * 3
        arg, val = solve(terms, box)
        # staying at 0 everywhere beats dragging the chain toward 6
        assert (val, arg) == grid_minimize(terms, box) == (6, (F(0), F(0), F(0)))
        assert evaluate_terms(terms, arg) == val

    def test_no_terms(self):
        assert minimize_convex_pl([[], []], [(2, 5), (-1, 3)], []) == ((2, -1), 0)


class TestStructureGuards:
    # int objectives on the minimizer's own entry: (anchors, box, pairs)
    def test_cycle_rejected(self):
        pairs = [(0, 1, 1, 0, None), (1, 2, 1, 0, None), (0, 2, 1, 0, None)]
        with pytest.raises(ObjectiveStructureError, match="cycle"):
            minimize_convex_pl([[]] * 3, [(0, 1)] * 3, pairs)

    def test_parallel_coupling_rejected(self):
        pairs = [(0, 1, 1, 0, None), (0, 1, 1, 1, None)]
        with pytest.raises(ObjectiveStructureError, match="cycle"):
            minimize_convex_pl([[], []], [(0, 1)] * 2, pairs)

    def test_self_coupling_rejected(self):
        with pytest.raises(ObjectiveStructureError, match="two distinct variables"):
            minimize_convex_pl([[]], [(0, 1)], [(0, 0, 1, 0, None)])

    @pytest.mark.parametrize("box, i", [
        ([(1, 0)], 0),
        ([(0, 1), (3, 2)], 1),
    ])
    def test_empty_box_rejected(self, box, i):
        with pytest.raises(ValueError, match=f"^empty box for variable {i}$"):
            minimize_convex_pl([[] for _ in box], box, [])

    @pytest.mark.parametrize("terms", [
        ([[3], []], [(0, 1, 2, 0, None)]),   # pullback would read sigma 2 as -1
        ([[], []], [(-1, 0, 1, 0, None)]),   # a list index would take the last variable
        ([[], [], [3]], []),                 # anchors for a variable outside the box
        ([[], []], [(0, 2, 1, 0, None)]),
        ([[3]], []),                         # the second variable has no anchor list
        ([[], []], [(1, 0, 1, 0, None)]),    # a reversed pair: the chain rule needs a < b
        # an optional third entry sizes the box: variable 0 is the a of two pairs
        ([[], [], []], [(0, 1, 1, 0, None), (0, 2, 1, 0, None)], 3),
        ([[], [], []], [(0, 2, 1, 0, None), (1, 2, 1, 0, None)], 3),   # 2 is the b of two
    ])
    def test_term_outside_the_structure_rejected(self, terms):
        anchors, pairs, n = terms if len(terms) == 3 else (*terms, 2)
        with pytest.raises(ObjectiveStructureError):
            minimize_convex_pl(anchors, [(0, 10)] * n, pairs)

    def test_inverted_interval_trips_certificate(self):
        # an inside-out overlap makes the coupling non-convex
        with pytest.raises(NonConvexObjective, match=r"overlap \[2, 1\] of pair 0 is inside out"):
            minimize_convex_pl([[], []], [(0, 4)] * 2, [(0, 1, 1, 0, (2, 1))])


def rationals(lo=-6, hi=6):
    return st.builds(F, st.integers(lo * 2, hi * 2), st.just(2))


# denominators that are not powers of two, so the lattice's lcm is not the
# largest denominator drawn
OFF_GRID = (3, 5, 6, 7, 12, 24)


def off_grid(lo=-6, hi=6):
    return st.sampled_from(OFF_GRID).flatmap(
        lambda q: st.builds(F, st.integers(lo * q, hi * q), st.just(q)))


@st.composite
def term_system(draw, num=rationals):
    n = draw(st.integers(1, 4))
    box = []
    for _ in range(n):
        a = draw(num())
        w = draw(st.builds(F, st.integers(1, 8), st.just(2)))
        box.append((a, a + w))
    terms = []
    for v in range(n):
        for _ in range(draw(st.integers(0, 2))):
            terms.append(AbsAnchor(v, draw(num())))
    # couple consecutive variables along a random sub-chain, each pair (v, v + 1)
    for v in range(n - 1):
        if not draw(st.booleans()):
            continue
        sig = draw(st.sampled_from([1, -1]))
        sh = draw(num())
        if draw(st.booleans()):
            terms.append(PairAbs(v, v + 1, sig, sh))
        else:
            lo = draw(num())
            hi = lo + draw(st.builds(F, st.integers(0, 5), st.just(1)))
            terms.append(TreePair(v, v + 1, sig, sh, lo, hi))
    return terms, box


# off-grid box ends, anchors, shifts and overlaps
off_grid_system = term_system(num=off_grid)


def agrees_with_oracle(terms, box):
    arg, val = solve(terms, box)
    assert evaluate_terms(terms, arg) == val
    for x, (lo, hi) in zip(arg, box):
        assert lo <= x <= hi
    # the minimum, and the tie-break: the lexicographically lowest minimizer
    assert (val, arg) == grid_minimize(terms, box)


class TestMinimizeAgainstOracle:
    @settings(max_examples=250, deadline=None)
    @given(term_system())
    def test_exact_agreement(self, tb):
        agrees_with_oracle(*tb)

    @settings(max_examples=150, deadline=None)
    @given(off_grid_system)
    def test_off_grid_lattice(self, tb):
        # mixed denominators: D, their lcm, can exceed each one drawn
        agrees_with_oracle(*tb)


# -- the slope-form primitives against their pointwise definitions ------------


@st.composite
def convex_pl(draw, domain=None):
    """A convex PL function: knots at sixteenths of the domain, sorted slopes."""
    if domain is None:
        lo = draw(rationals())
        domain = (lo, lo + draw(st.builds(F, st.integers(0, 12), st.just(2))))
    lo, hi = domain
    ks = [lo]
    if lo < hi:
        inner = sorted(draw(st.sets(st.integers(1, 15), max_size=5)))
        ks += [lo + (hi - lo) * F(u, 16) for u in inner] + [hi]
    slopes = sorted(draw(st.lists(st.builds(F, st.integers(-12, 12), st.just(4)),
                                  min_size=len(ks) - 1, max_size=len(ks) - 1)))
    vs = [draw(rationals())]
    for (x0, x1), s in zip(zip(ks, ks[1:]), slopes):
        vs.append(vs[-1] + s * (x1 - x0))
    return from_points(ks, vs)


def probes(*knot_sets):
    """The union of the knots and the midpoints between neighbours: two PL
    functions whose knots all lie in the union agree everywhere iff they
    agree here."""
    ks = sorted(set().union(*knot_sets))
    return ks + [(a + b) / 2 for a, b in zip(ks, ks[1:])]


def brute_inf_conv(f, y):
    """min over x of f(x) + |x - y|: attained at a knot of f or at the
    point of dom(f) nearest to y."""
    xs = list(f.knots) + [_clamp(y, f.knots[0], f.knots[-1])]
    return min(f(x) + abs(x - y) for x in xs)


class TestPrimitivesPointwise:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_add(self, data):
        f = data.draw(convex_pl())
        g = data.draw(convex_pl(domain=(f.knots[0], f.knots[-1])))
        h = f.add(g)
        assert h.is_convex()
        assert set(h.knots) <= set(f.knots) | set(g.knots)
        for x in probes(f.knots, g.knots):
            assert h(x) == f(x) + g(x)

    @settings(max_examples=300, deadline=None)
    @given(convex_pl(), rationals(-9, 9), st.builds(F, st.integers(0, 16), st.just(2)))
    def test_inf_conv_abs(self, f, lo, width):
        hi = lo + width
        g = f.inf_conv_abs(lo, hi)
        assert (g.knots[0], g.knots[-1]) == (lo, hi)
        assert g.is_convex()
        assert all(-1 <= s <= 1 for s in g.slopes)
        inside = [x for x in f.knots if lo <= x <= hi]
        assert set(g.knots) <= set(inside) | {lo, hi}
        for y in probes(g.knots, inside):
            assert g(y) == brute_inf_conv(f, y)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(term_system(), off_grid_system))
    def test_unary_sum(self, tb):
        # one variable's unary terms, scaled onto the lattice and summed there
        terms, box = tb
        for v, (lo, hi) in enumerate(box):
            mine = [t for t in terms if getattr(t, "var", None) == v]
            lat = to_lattice([AbsAnchor(0, t.anchor) for t in mine], [(lo, hi)])
            d = lat.scale
            f = pl._unary_pl(*lat.box[0], lat.anchors[0])
            assert (f.knots[0], f.knots[-1]) == (lo * d, hi * d)
            assert f.is_convex()
            kinks = {t.anchor for t in mine if lo <= t.anchor <= hi}
            for x in probes([F(k, d) for k in f.knots], kinks):
                assert f(x * d) == evaluate_terms(mine, {v: x}) * d

    @settings(max_examples=200, deadline=None)
    @given(convex_pl(), st.sampled_from([1, -1]), rationals())
    def test_pullback(self, f, sigma, shift):
        g = f.pullback(sigma, shift)
        ends = {sigma * g.knots[0] + shift, sigma * g.knots[-1] + shift}
        assert sorted(ends) == sorted({f.knots[0], f.knots[-1]})
        assert g.is_convex()
        for x in probes(g.knots):
            assert g(x) == f(sigma * x + shift)

    @settings(max_examples=200, deadline=None)
    @given(convex_pl(), rationals())
    def test_argmin_plus_abs(self, f, c):
        x = f.argmin_plus_abs(c)
        cands = sorted(set(f.knots) | {_clamp(c, f.knots[0], f.knots[-1])})
        best = min(f(k) + abs(k - c) for k in cands)
        assert f(x) + abs(x - c) == best
        assert all(f(k) + abs(k - c) > best for k in cands if k < x)


class TestTreePairIdentity:
    @settings(max_examples=300, deadline=None)
    @given(rationals(), rationals(), st.sampled_from([1, -1]), rationals(),
           rationals(), st.builds(F, st.integers(0, 8), st.just(2)))
    def test_symmetric_form(self, a, b, sigma, shift, lo, width):
        hi = lo + width
        r = sigma * b + shift
        value = evaluate_terms([TreePair(0, 1, sigma, shift, lo, hi)], [a, b])

        def dist(x):
            return lo - x if x < lo else x - hi if x > hi else 0

        assert value == dist(a) + abs(_clamp(a, lo, hi) - _clamp(r, lo, hi)) + dist(r)
        # the same coupling with the roles of x_a and r exchanged
        assert value == evaluate_terms([TreePair(0, 1, 1, F(0), lo, hi)], [r, a])


def random_chain(rng, n):
    """Anchors on each of n variables and couplings (i, i + 1), so the
    elimination runs up the chain from n - 1 into its root 0."""
    terms, box = [], []
    for i in range(n):
        lo = F(rng.randint(-8, 0))
        box.append((lo, lo + rng.randint(4, 16)))
        for _ in range(rng.randint(0, 2)):
            terms.append(AbsAnchor(i, F(rng.randint(-16, 16), 2)))
    for i in range(n - 1):
        a, b = i, i + 1
        sig, sh = rng.choice([1, -1]), F(rng.randint(-6, 6), 3)
        if rng.random() < 0.5:
            terms.append(PairAbs(a, b, sig, sh))
        else:
            lo = F(rng.randint(-8, 4))
            terms.append(TreePair(a, b, sig, sh, lo, lo + rng.randint(0, 8)))
    return terms, box


class TestMessageSize:
    def test_chain_messages_stay_small(self, monkeypatch):
        # A message keeps only kinks: the anchors it summarizes, one
        # per side for each variable's box or overlap ends, and its own
        # two ends.  Extra knots (sampled points, crossings) break this.
        sizes = []
        real = pl._pair_message

        def counted(pair, child, *rest):
            m = real(pair, child, *rest)
            sizes.append((pair[1], len(m.knots)))
            return m

        monkeypatch.setattr(pl, "_pair_message", counted)
        n = 16
        for seed in range(60):
            terms, box = random_chain(random.Random(seed), n)
            sizes.clear()
            arg, val = solve(terms, box)
            assert evaluate_terms(terms, arg) == val
            assert len(sizes) == n - 1
            for w, knots in sizes:
                kinks = sum(1 for t in terms if isinstance(t, AbsAnchor) and t.var >= w)
                assert knots <= kinks + 2 * (n - w) + 2, (seed, w)


def route_chain(rng, n):
    """The shape of objective route_distance builds for n crossings:
    variables s_i, h_i per crossing, anchored at both ends; in each inner
    piece h_{i-1} meets s_i through a TreePair (overlapping marks) or two
    anchors and a gap (disjoint marks), and a PairAbs joins s_{i-1} to h_i."""

    def q():
        return F(rng.randint(-48, 48), rng.choice((1, 2, 3, 4, 8)))

    box = []
    for _ in range(2 * n):
        lo = q()
        box.append((lo, lo + abs(q()) + 1))
    terms = [AbsAnchor(0, q()), Const(abs(q())), AbsAnchor(1, q())]
    for i in range(1, n):
        if rng.random() < 0.5:
            lo = q()
            terms.append(TreePair(2 * i - 1, 2 * i, rng.choice((1, -1)), q(), lo, lo + abs(q())))
        else:
            terms += [AbsAnchor(2 * i - 1, q()), AbsAnchor(2 * i, q()), Const(abs(q()))]
        terms.append(PairAbs(2 * (i - 1), 2 * i + 1, 1, F(0)))
    terms += [AbsAnchor(2 * n - 1, q()), Const(abs(q())), AbsAnchor(2 * (n - 1), q())]
    return terms, box


class TestIntegerKernel:
    def test_route_systems_build_only_ints(self, monkeypatch):
        # The minimizer takes and returns ints, and every function the
        # elimination builds lives on the same lattice: int knots, values
        # and slopes.
        built = []
        real = ConvexPL.__init__

        def recording(self, knots, values, slopes):
            real(self, knots, values, slopes)
            built.append(self)

        monkeypatch.setattr(ConvexPL, "__init__", recording)
        for seed in range(40):
            terms, box = route_chain(random.Random(seed), 1 + seed % 8)
            lat = to_lattice(terms, box)
            built.clear()
            arg, val = minimize_convex_pl(lat.anchors, lat.box, lat.pairs)
            assert type(val) is int and all(type(x) is int for x in arg)
            d = lat.scale
            assert evaluate_terms(terms, [F(x, d) for x in arg]) == F(val + lat.const, d)
            assert built
            for f in built:
                for x in f.knots + f.values + f.slopes:
                    assert type(x) is int, (seed, f.knots, f.values, f.slopes)
