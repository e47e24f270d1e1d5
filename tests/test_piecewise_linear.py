"""Chain-structured convex PL minimization against a breakpoint-grid oracle.

Every objective built from the supported term types is piecewise linear,
so its minimum over a box is attained at an arrangement vertex whose
coordinates come from unary kinks propagated through the pair couplings.
The oracle enumerates that grid and takes the exact minimum.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import flipcluster.piecewise_linear as pl
from flipcluster.errors import NonConvexObjective, ObjectiveStructureError
from flipcluster.piecewise_linear import (
    AbsAnchor,
    Affine,
    Const,
    IntervalDist,
    ConvexPL,
    PairAbs,
    TreePair,
    evaluate_terms,
    minimize_convex_pl,
)

F = Fraction


def _clamp(x, lo, hi):
    return lo if x < lo else hi if x > hi else x


def grid_minimize(terms, box):
    """Exact minimum by enumerating propagated breakpoints per variable."""
    n = len(box)
    cands = [{F(lo), F(hi)} for lo, hi in box]
    for t in terms:
        if isinstance(t, AbsAnchor):
            cands[t.var].add(F(t.anchor))
        elif isinstance(t, IntervalDist):
            cands[t.var] |= {F(t.lo), F(t.hi)}
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
    best = None
    for combo in itertools.product(*grids):
        val = evaluate_terms(terms, combo)
        if best is None or val < best:
            best = val
    return best


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
        assert (g.lo, g.hi) == (F(0), F(3))
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
        arg, val = minimize_convex_pl([AbsAnchor(0, F(3))], [(F(0), F(10))])
        assert (arg, val) == ((F(3),), F(0))

    def test_affine_picks_corner(self):
        arg, val = minimize_convex_pl([Affine(0, F(2), F(1))], [(F(1), F(5))])
        assert (arg, val) == ((F(1),), F(3))
        arg, val = minimize_convex_pl([Affine(0, F(-2), F(0))], [(F(1), F(5))])
        assert (arg, val) == ((F(5),), F(-10))

    def test_separable(self):
        arg, val = minimize_convex_pl(
            [AbsAnchor(0, F(3)), AbsAnchor(1, F(5)), Const(F(2))],
            [(F(0), F(10)), (F(0), F(10))],
        )
        assert (arg, val) == ((F(3), F(5)), F(2))

    def test_diagonal_kink_not_a_stall(self):
        # coordinate descent from (0, 0) cannot improve either axis alone here
        terms = [PairAbs(0, 1, 1, F(0)), AbsAnchor(0, F(3)), AbsAnchor(1, F(3))]
        arg, val = minimize_convex_pl(terms, [(F(0), F(10))] * 2)
        assert (arg, val) == ((F(3), F(3)), F(0))

    def test_pair_abs_with_reflection(self):
        # |x + y - 4| with x pulled to 1: minimizers have y = 4 - x
        terms = [PairAbs(0, 1, -1, F(4)), AbsAnchor(0, F(1))]
        arg, val = minimize_convex_pl(terms, [(F(0), F(10))] * 2)
        assert val == 0
        assert arg[0] == F(1) and arg[1] == F(3)

    def test_tree_pair_flat_plateau(self):
        terms = [
            AbsAnchor(0, F(0)),
            AbsAnchor(1, F(0)),
            TreePair(0, 1, -1, F(2), F(1), F(2)),
        ]
        arg, val = minimize_convex_pl(terms, [(F(0), F(2))] * 2)
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
        arg, val = minimize_convex_pl(terms, box)
        # staying at 0 everywhere beats dragging the chain toward 6
        assert val == grid_minimize(terms, box) == 6
        assert arg == (F(0), F(0), F(0))
        assert evaluate_terms(terms, arg) == val

    def test_no_terms(self):
        arg, val = minimize_convex_pl([], [(F(2), F(5)), (F(-1), F(3))])
        assert (arg, val) == ((F(2), F(-1)), F(0))


class TestStructureGuards:
    def test_cycle_rejected(self):
        terms = [PairAbs(0, 1, 1, F(0)), PairAbs(1, 2, 1, F(0)), PairAbs(0, 2, 1, F(0))]
        with pytest.raises(ObjectiveStructureError):
            minimize_convex_pl(terms, [(F(0), F(1))] * 3)

    def test_parallel_coupling_rejected(self):
        terms = [PairAbs(0, 1, 1, F(0)), PairAbs(0, 1, 1, F(1))]
        with pytest.raises(ObjectiveStructureError):
            minimize_convex_pl(terms, [(F(0), F(1))] * 2)

    def test_self_coupling_rejected(self):
        with pytest.raises(ObjectiveStructureError):
            minimize_convex_pl([PairAbs(0, 0, 1, F(0))], [(F(0), F(1))])

    def test_inverted_interval_trips_certificate(self):
        # an inside-out overlap interval makes the coupling non-convex
        terms = [TreePair(0, 1, 1, F(0), F(2), F(1))]
        with pytest.raises(NonConvexObjective):
            minimize_convex_pl(terms, [(F(0), F(4))] * 2)


def rationals(lo=-6, hi=6):
    return st.builds(F, st.integers(lo * 2, hi * 2), st.just(2))


@st.composite
def term_system(draw):
    n = draw(st.integers(1, 4))
    box = []
    for _ in range(n):
        a = draw(rationals())
        w = draw(st.builds(F, st.integers(1, 8), st.just(2)))
        box.append((a, a + w))
    terms = []
    for v in range(n):
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.integers(0, 2))
            if kind == 0:
                terms.append(AbsAnchor(v, draw(rationals())))
            elif kind == 1:
                terms.append(Affine(v, draw(st.sampled_from([F(-1), F(1), F(2)])), F(0)))
            else:
                a = draw(rationals())
                b = a + draw(st.builds(F, st.integers(0, 4), st.just(1)))
                terms.append(IntervalDist(v, a, b))
    # couple consecutive variables along a random sub-chain: always a forest
    for v in range(n - 1):
        if not draw(st.booleans()):
            continue
        sig = draw(st.sampled_from([1, -1]))
        sh = draw(rationals())
        if draw(st.booleans()):
            terms.append(PairAbs(v, v + 1, sig, sh))
        else:
            lo = draw(rationals())
            hi = lo + draw(st.builds(F, st.integers(0, 5), st.just(1)))
            terms.append(TreePair(v, v + 1, sig, sh, lo, hi))
    return terms, box


class TestMinimizeAgainstOracle:
    @settings(max_examples=250, deadline=None)
    @given(term_system())
    def test_exact_agreement(self, tb):
        terms, box = tb
        arg, val = minimize_convex_pl(terms, box)
        assert evaluate_terms(terms, arg) == val
        for x, (lo, hi) in zip(arg, box):
            assert lo <= x <= hi
        assert val == grid_minimize(terms, box)


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
    xs = list(f.knots) + [_clamp(y, f.lo, f.hi)]
    return min(f(x) + abs(x - y) for x in xs)


class TestPrimitivesPointwise:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_add(self, data):
        f = data.draw(convex_pl())
        g = data.draw(convex_pl(domain=(f.lo, f.hi)))
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
        assert (g.lo, g.hi) == (lo, hi)
        assert g.is_convex()
        assert all(-1 <= s <= 1 for s in g.slopes)
        inside = [x for x in f.knots if lo <= x <= hi]
        assert set(g.knots) <= set(inside) | {lo, hi}
        for y in probes(g.knots, inside):
            assert g(y) == brute_inf_conv(f, y)

    @settings(max_examples=200, deadline=None)
    @given(term_system())
    def test_unary_sum(self, tb):
        terms, box = tb
        for v, (lo, hi) in enumerate(box):
            mine = [t for t in terms if getattr(t, "var", None) == v]
            f = pl._unary_pl(mine, lo, hi)
            assert (f.lo, f.hi) == (lo, hi)
            assert f.is_convex()
            kinks = {k for t in mine for k in (getattr(t, "anchor", None),
                                               getattr(t, "lo", None), getattr(t, "hi", None))
                     if k is not None and lo <= k <= hi}
            for x in probes(f.knots, kinks):
                assert f(x) == evaluate_terms(mine, {v: x})

    @settings(max_examples=200, deadline=None)
    @given(convex_pl(), st.sampled_from([1, -1]), rationals())
    def test_pullback(self, f, sigma, shift):
        g = f.pullback(sigma, shift)
        assert sorted({sigma * g.lo + shift, sigma * g.hi + shift}) == sorted({f.lo, f.hi})
        assert g.is_convex()
        for x in probes(g.knots):
            assert g(x) == f(sigma * x + shift)

    @settings(max_examples=200, deadline=None)
    @given(convex_pl(), rationals())
    def test_argmin_plus_abs(self, f, c):
        x = f.argmin_plus_abs(c)
        cands = sorted(set(f.knots) | {_clamp(c, f.lo, f.hi)})
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
    """Unary terms on each of n variables, couplings i -- i + 1 in random
    orientation, so the elimination rooted at 0 runs down the chain."""
    terms, box = [], []
    for i in range(n):
        lo = F(rng.randint(-8, 0))
        box.append((lo, lo + rng.randint(4, 16)))
        for _ in range(rng.randint(0, 2)):
            kind = rng.randrange(3)
            if kind == 0:
                terms.append(AbsAnchor(i, F(rng.randint(-16, 16), 2)))
            elif kind == 1:
                terms.append(Affine(i, F(rng.randint(-3, 3), 4)))
            else:
                a = F(rng.randint(-16, 16), 2)
                terms.append(IntervalDist(i, a, a + F(rng.randint(0, 6), 2)))
    for i in range(n - 1):
        a, b = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
        sig, sh = rng.choice([1, -1]), F(rng.randint(-6, 6), 3)
        if rng.random() < 0.5:
            terms.append(PairAbs(a, b, sig, sh))
        else:
            lo = F(rng.randint(-8, 4))
            terms.append(TreePair(a, b, sig, sh, lo, lo + rng.randint(0, 8)))
    return terms, box


class TestMessageSize:
    def test_chain_messages_stay_small(self, monkeypatch):
        # A message keeps only kinks: the unary kinks it summarizes, one
        # per side for each variable's box or overlap ends, and its own
        # two ends.  Extra knots (sampled points, crossings) break this.
        sizes = []
        real = pl._pair_message

        def counted(pair, child, child_var, lo, hi):
            m = real(pair, child, child_var, lo, hi)
            sizes.append((child_var, len(m.knots)))
            return m

        monkeypatch.setattr(pl, "_pair_message", counted)
        n = 16
        for seed in range(60):
            terms, box = random_chain(random.Random(seed), n)
            sizes.clear()
            arg, val = minimize_convex_pl(terms, box)
            assert evaluate_terms(terms, arg) == val
            assert len(sizes) == n - 1
            for w, knots in sizes:
                kinks = sum(1 if isinstance(t, AbsAnchor) else 2 for t in terms
                            if isinstance(t, (AbsAnchor, IntervalDist)) and t.var >= w)
                assert knots <= kinks + 2 * (n - w) + 2, (seed, w)
