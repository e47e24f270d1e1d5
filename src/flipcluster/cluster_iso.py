"""Structure-preserving isometries between clusters.

A candidate isometry is a triple: a subtree U of the source T, a
simplicial embedding psi of U into the target T', and per-vertex piece
maps, each a marked-tree isomorphism theta_v with a height translation
c_v.  Compatibility across a wall e = (v, w) pins everything: writing
theta_v on the mark of e as t -> sigma*t + a, the flip identification
forces sigma = +1 and a = c_w, and symmetrically on the other side.  So
crossing-mark transforms are translations whose shifts are the height
translations of the opposite pieces, and extending over a new edge
leaves no freedom in the new height shift.  Height maps are translations
only; pairs that are isometric only through a height reflection are
reported as non-isomorphic (a documented v1 restriction).

Marked trees are compared in normal form: the feature vertices (leaves,
branch vertices, mark endpoints) with degree-2 chains fused into single
weighted edges.  A bijection of feature vertices preserving pairwise
distances, which verify_good reads as sending feature edges onto feature
edges of the same length, extends uniquely to an isometry of the trees,
so searches run over feature bijections.  The search anchored on a
mapped mark fixes the images of the carrier's features, then backtracks
over the images of the other feature edges in canonical order.  It
yields feature maps with each mark's candidates, the target marks on the
image of its carrier; marks are paired where their walls are solved.
The search runs on one int frame per pair, D = lcm(ca.unit, cb.unit), at
which every length, mark parameter, window end and shift of either
cluster is an int: both sides' normal forms are built at D, and the
search compares and hashes ints only, wall keys included.  _solve builds
Fractions for the piece maps it returns, which verify_good,
image_supports and witness_to_spec read.

isomorphic roots T at its first vertex and decides it subtree by
subtree.  Pairing a mark at w with a target mark fixes the wall key: the
target wall, the child's image, the pinned mark and the child's height
shift.  Distinct children go to distinct targets, so their subtrees are
independent problems, each solved once per wall key.  A piece takes its
first feature map whose marks pair so that every child wall solves, and
pairs them greedily, each mark with its first free candidate that
solves.  Isometries compose, so that is exact (see _solve), and the
witness is the one a depth-first search over whole triples and every
pairing finds first.  Normal forms and the memo live for one call.

brute_force_iso is the independent referee: it enumerates simplicial
T-bijections directly and, per vertex, searches raw distance-matrix
bijections built by its own chain contraction, checking the same wall
equations at the end.  It shares no search code with the anchored route,
nor its frame: each piece pair's distances are ints at that pair's own
frame, lcm of the two piece trees' scales, and each pair is contracted
once per call.  Its window and mark-range checks and the piece maps it
returns stay on Fractions.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator, NamedTuple, Sequence

from .cluster import Cluster, Supports
from .errors import FeatureMapError, SizeCapError, WitnessMismatch
from .metric_tree import Line, MetricTree, TreePoint
from .rational import format_rational


class FeatureEdge(NamedTuple):
    u: int
    v: int
    length: int              # times the form's frame
    chain: tuple[int, ...]   # raw edge ids, in order from u


class NormalForm:
    """Feature-vertex view of a marked tree, on ints times the frame den,
    a multiple of the tree's scale and by default the scale itself.

    Features are the vertices a metric isometry cannot move freely:
    leaves, branch vertices, and mark endpoints.  Everything else sits on
    a fused chain.
    """

    def __init__(self, tree: MetricTree, marks: Sequence[Line], den: int | None = None):
        self.tree = tree
        self.marks = tuple(marks)
        self.den = den = den or tree.scale
        if den % tree.scale:
            raise ValueError(f"frame {den} is not a multiple of the tree's scale {tree.scale}")
        feats = {v for v in tree.vertices if tree.degree(v) != 2}
        for m in marks:
            feats.add(m.start_vertex)
            feats.add(m.end_vertex)
        self.features = tuple(sorted(feats))
        self.by_carrier: dict[frozenset, list[int]] = {}   # same ends, same line
        for i, m in enumerate(self.marks):
            self.by_carrier.setdefault(frozenset((m.start_vertex, m.end_vertex)), []).append(i)
        fedges: list[FeatureEdge] = []
        raw_loc: dict[int, int] = {}   # raw edge -> the feature edge it lies on
        units, neighbors = tree._units, tree.neighbors
        for f in self.features:
            for eid, w in neighbors(f):
                if eid in raw_loc:
                    continue
                chain = []
                pos = 0
                cur_eid, nxt = eid, w
                while True:
                    chain.append(cur_eid)
                    raw_loc[cur_eid] = len(fedges)
                    pos += units[cur_eid]
                    if nxt in feats:
                        break
                    (e1, w1), (e2, w2) = neighbors(nxt)
                    cur_eid, nxt = (e2, w2) if e1 == cur_eid else (e1, w1)
                fedges.append(FeatureEdge(f, nxt, pos * (den // tree.scale), tuple(chain)))
        self.raw_loc = raw_loc
        self.fedges = tuple(fedges)
        self.spans = sorted(fe.length for fe in fedges)
        self.pair_to_fedge = {
            frozenset((fe.u, fe.v)): i for i, fe in enumerate(self.fedges)}
        # (feature edge, far end) lists, sorted by edge as they are filled
        self.adj: dict[int, list[tuple[int, int]]] = {f: [] for f in self.features}
        for i, fe in enumerate(self.fedges):
            self.adj[fe.u].append((i, fe.v))
            self.adj[fe.v].append((i, fe.u))
        self._mark_ints: list[tuple[int, int, dict[int, int]]] | None = None

    def mark_ints(self) -> list[tuple[int, int, dict[int, int]]]:
        """Per mark, (lo, hi, its feature vertices by parameter), times the
        frame, which must clear the mark's origin; built on first use."""
        if self._mark_ints is None:
            if any(self.den % m._lo[1] for m in self.marks):
                raise ValueError(f"frame {self.den} does not clear the marks' origins")
            k, self._mark_ints = self.den // self.tree.scale, []
            for m in self.marks:
                lo, hi = m._range(self.den)
                at = {lo + c * k: v for v, c in zip(m._verts, m._cuts) if v in self.adj}
                self._mark_ints.append((lo, hi, at))
        return self._mark_ints

    @cached_property
    def lines(self) -> tuple[Line, ...]:
        """Per feature edge, its chain as a line from u at parameter 0."""
        return tuple(Line(self.tree, fe.chain, fe.u, 0) for fe in self.fedges)


class MarkedTreeIso:
    """Isometry of marked trees, stored as a feature-vertex bijection
    plus the induced mark pairing with per-mark transforms t -> sigma*t + shift."""

    def __init__(self, nf_a: NormalForm, nf_b: NormalForm,
                 vertex_map: dict[int, int],
                 mark_map: tuple[int, ...],
                 transforms: tuple[tuple[int, Fraction], ...]):
        self.nf_a = nf_a
        self.nf_b = nf_b
        self.vertex_map = dict(vertex_map)
        self.mark_map = mark_map
        self.transforms = transforms
        self.fedge_map: dict[int, tuple[int, bool]] = {}
        for i, fe in enumerate(nf_a.fedges):
            x, y = vertex_map[fe.u], vertex_map[fe.v]
            j = nf_b.pair_to_fedge.get(frozenset((x, y)))
            if j is None:
                raise FeatureMapError(
                    f"feature edge {fe.u}-{fe.v} maps to {x}-{y}, not a feature edge")
            self.fedge_map[i] = (j, vertex_map[fe.u] == nf_b.fedges[j].u)

    def point_image(self, p: TreePoint) -> TreePoint:
        fidx = self.nf_a.raw_loc[p.edge]
        x = self.nf_a.lines[fidx].coord_of(p)
        j, same = self.fedge_map[fidx]
        line = self.nf_b.lines[j]
        return line.point_at(x if same else line.hi - x)


Transform = tuple[int, int]   # t -> sigma*t + shift, as (sigma, shift times the frame)


class FeatureMap(NamedTuple):
    """A feature-vertex bijection of marked trees, before marks are paired:
    candidates[i] lists (j, transform) for each target mark j on the
    image of mark i's carrier."""
    vertex_map: dict[int, int]
    candidates: tuple[tuple[tuple[int, Transform], ...], ...]


def _transform_for(nf_a: NormalForm, nf_b: NormalForm, vertex_map: dict,
                   i: int, j: int) -> Transform:
    (alo, _, _), (blo, bhi, _) = nf_a.mark_ints()[i], nf_b.mark_ints()[j]
    if vertex_map[nf_a.marks[i].start_vertex] == nf_b.marks[j].start_vertex:
        return (1, blo - alo)
    return (-1, bhi + alo)


def marked_tree_extensions(nf_a: NormalForm, nf_b: NormalForm,
                           pin: tuple[int, int, int, int] | None = None
                           ) -> Iterator[FeatureMap]:
    """Every feature-vertex map of the marked trees with its mark
    candidates, in canonical search order; pairing the marks is left to
    the caller.  Both forms must be at one frame.

    pin = (mark_i, mark_j, sigma, shift) forces mark_i onto mark_j with
    the given parameter transform, shift times the frame; its carrier
    features are then placed up front and only the hanging branches are
    searched.
    """
    if nf_a.den != nf_b.den:
        raise ValueError(f"normal forms at frames {nf_a.den} and {nf_b.den}")
    if len(nf_a.features) != len(nf_b.features) or len(nf_a.marks) != len(nf_b.marks) \
            or nf_a.spans != nf_b.spans:
        return

    if pin is None:
        seeds = [{nf_a.features[0]: cand} for cand in nf_b.features]
    else:
        # the pinned carrier's features go where the transform sends them
        i, j, sigma, shift = pin
        (alo, ahi, at_a), (blo, bhi, at_b) = nf_a.mark_ints()[i], nf_b.mark_ints()[j]
        if sorted((sigma * alo + shift, sigma * ahi + shift)) != [blo, bhi]:
            return
        seeds = [{v: at_b.get(sigma * t + shift) for t, v in at_a.items()}]
        if None in seeds[0].values():
            return
    # every seed maps the same source features: one set of implied edges, one order
    implied = [k for k, fe in enumerate(nf_a.fedges) if fe.u in seeds[0] and fe.v in seeds[0]]
    order = _growth_order(nf_a, set(seeds[0]), set(implied))
    for seed in seeds:
        if len(set(seed.values())) == len(seed):
            yield from _grow(nf_a, nf_b, seed, implied, order, pin)


def _growth_order(nf: NormalForm, mapped: set[int], done: set[int]
                  ) -> list[tuple[int, int, int]]:
    """The feature edges still to map, as (mapped end v, edge, far end w).

    Each step takes the lowest mapped vertex with an unmapped edge and
    its first such edge.  Which source vertices are mapped never depends
    on the images chosen, so the order is fixed before the search.
    """
    mapped, done, heap, order = set(mapped), set(done), sorted(mapped), []
    while heap:
        v = heap[0]
        i, w = next(((i, w) for i, w in nf.adj[v] if i not in done), (None, None))
        if i is None:
            heapq.heappop(heap)
            continue
        done.add(i)
        order.append((v, i, w))
        if w not in mapped:
            mapped.add(w)
            heapq.heappush(heap, w)
    return order


def _grow(nf_a: NormalForm, nf_b: NormalForm, seed: dict[int, int], implied: list[int],
          order: list[tuple[int, int, int]], pin) -> Iterator[FeatureMap]:
    vm = dict(seed)
    used_b = set(vm.values())
    fedge_used_b: set[int] = set()
    # the feature edges the seed implies must land on feature edges of their length
    for i in implied:
        fe = nf_a.fedges[i]
        j = nf_b.pair_to_fedge.get(frozenset((vm[fe.u], vm[fe.v])))
        if j is None or nf_b.fedges[j].length != fe.length:
            return
        fedge_used_b.add(j)

    def images(depth: int) -> Iterator[None]:
        """Map the depth-th edge onto each fitting image in turn: the map
        holds the image while suspended and drops it when resumed."""
        v, i, w = order[depth]
        length = nf_a.fedges[i].length
        for jb, wb in nf_b.adj[vm[v]]:
            if jb in fedge_used_b or nf_b.fedges[jb].length != length:
                continue
            if (w in vm or wb in used_b) and vm.get(w) != wb:
                continue
            new = w not in vm
            fedge_used_b.add(jb)
            if new:
                vm[w] = wb
                used_b.add(wb)
            yield
            fedge_used_b.discard(jb)
            if new:
                del vm[w]
                used_b.discard(wb)

    def complete() -> Iterator[FeatureMap]:
        # nothing when the carriers do not biject or the pin is no candidate;
        # the pinned mark keeps only its target, which the rest of its group loses
        carriers = [frozenset((vm[m.start_vertex], vm[m.end_vertex]))
                    for m in nf_a.marks]
        if any(len(nf_b.by_carrier.get(k, ())) != n
               for k, n in Counter(carriers).items()):
            return
        cands = [tuple((j, _transform_for(nf_a, nf_b, vm, i, j))
                       for j in nf_b.by_carrier[k]) for i, k in enumerate(carriers)]
        if pin is not None:
            i, j = pin[:2]
            if (j, pin[2:]) not in cands[i]:
                return
            cands = [((j, pin[2:]),) if k == i else tuple(c for c in cs if c[0] != j)
                     for k, cs in enumerate(cands)]
        yield FeatureMap(dict(vm), tuple(cands))

    if not order:
        yield from complete()
        return
    # depth first over the edges in order, on an explicit stack of images()
    levels = [images(0)]
    while levels:
        if next(levels[-1], False) is False:
            levels.pop()
        elif len(levels) == len(order):
            yield from complete()
        else:
            levels.append(images(len(levels)))


# -- good triples over clusters ---------------------------------------------------


class PieceMap(NamedTuple):
    iso: MarkedTreeIso
    height_shift: Fraction


class GoodTriple(NamedTuple):
    ca: Cluster
    cb: Cluster
    vertices: tuple[int, ...]
    psi: dict[int, int]
    edge_map: dict[int, int]
    phi: dict[int, PieceMap]


def incident_eids(c: Cluster, v: int) -> list[int]:
    return [eid for eid, _ in c.tree.neighbors(v)]


def piece_normal_form(c: Cluster, v: int, den: int | None = None) -> NormalForm:
    return NormalForm(c.pieces[v].tree,
                      [c.marks[(v, eid)] for eid in incident_eids(c, v)], den)


def image_supports(triple: GoodTriple, reps: Supports) -> Supports:
    """The cb support map of the image of the point with ca support map reps."""
    # wall points may canonicalize outside the mapped region; the lowest
    # support inside it serves as the working representative
    v = min((v for v in reps if v in triple.phi), default=None)
    if v is None:
        raise ValueError("point has no support in the mapped subtree")
    horizontal, height = reps[v]
    pm = triple.phi[v]
    hor = pm.iso.point_image(horizontal)
    return triple.cb.resolve(triple.psi[v], hor.edge, hor.offset,
                             height + pm.height_shift)


def verify_good(triple: GoodTriple) -> tuple[bool, int | None, str | None]:
    """Check the five triple conditions; (ok, first failed, detail).

    1 U is a subtree and psi embeds it simplicially; 2 the map is
    isometric, which across U-edges is the mark pairing along psi and the
    flip equations; 3 each piece maps onto its target piece (window
    translation, feature bijection); 4 the map is a product per piece
    (well-formed data); 5 marks biject to marks.

    Pieces are checked in time linear in their features.  A feature
    bijection keeps all feature distances iff it keeps feature edges (the
    piece map's fedge_map) and their lengths, compared across the two
    forms' frames: a feature lies strictly between two others iff their
    distances add up.  Mark ends are features, so a transform must send
    each end's parameter to its image vertex's.

    Condition 2 across walls needs no distance measured.  Conditions 3-5
    make each theta_v x (h -> h + c_v) an isometry of its piece: feature
    edges go onto feature edges of the same length, the window
    translates, and each mark's end parameters go to its image's.  The
    flip equations (sigma = +1, shift = c_w) make the images of glued
    points glued.  So legal crossing profiles map onto legal crossing
    profiles with the same objective, and by the correctness lemma in
    distance_oracle the distances between points of U-pieces are kept:
    U is a subtree, and step (b) of the lemma straightens any excursion.
    """
    ca, cb = triple.ca, triple.cb
    uset = set(triple.vertices)
    if not uset or not uset.issubset(ca.tree.vertices):
        return (False, 1, "vertex set outside T")
    inner = [eid for eid, (a, b) in enumerate(ca.tree.edges)
             if a in uset and b in uset]
    if len(inner) != len(uset) - 1:   # a forest in T: connected iff |U| - 1 edges
        return (False, 1, "vertex set is not connected in T")
    if len(set(triple.psi.get(v) for v in uset)) != len(uset):
        return (False, 1, "psi is not injective")
    for eid in inner:
        a, b = ca.tree.edges[eid]
        eb = triple.edge_map.get(eid)
        if eb is None or set(cb.tree.edges[eb]) != {triple.psi[a], triple.psi[b]}:
            return (False, 1, f"edge {eid} not mapped simplicially")

    for v in triple.vertices:
        pm = triple.phi.get(v)
        if pm is None or not isinstance(pm.height_shift, Fraction) or \
                len(pm.iso.transforms) != len(pm.iso.mark_map):
            return (False, 4, f"piece map missing or malformed at {v}")
        if pm.iso.nf_a.tree is not ca.pieces[v].tree or \
                pm.iso.nf_b.tree is not cb.pieces[triple.psi[v]].tree:
            return (False, 4, f"piece map at {v} built over foreign trees")

    failures: list[tuple[int, str]] = []
    unpaired: set[int] = set()   # pieces whose marks do not biject

    for v in triple.vertices:
        pm = triple.phi[v]
        nfa, nfb = pm.iso.nf_a, pm.iso.nf_b
        wlo, whi = ca.pieces[v].window
        wlo2, whi2 = cb.pieces[triple.psi[v]].window
        if (wlo2, whi2) != (wlo + pm.height_shift, whi + pm.height_shift):
            failures.append((3, f"window of {v} does not translate onto target"))
        vm = pm.iso.vertex_map
        if sorted(vm) != list(nfa.features) or sorted(vm.values()) != list(nfb.features):
            failures.append((3, f"feature bijection invalid at {v}"))
        elif any(nfb.fedges[j].length * nfa.den != nfa.fedges[i].length * nfb.den
                 for i, (j, _) in pm.iso.fedge_map.items()):
            failures.append((2, f"distances disagree inside piece {v}"))

        eids = incident_eids(ca, v)
        eids_b = incident_eids(cb, triple.psi[v])
        if sorted(pm.iso.mark_map) != list(range(len(eids_b))) or \
                len(pm.iso.mark_map) != len(eids):
            failures.append((5, f"marks of {v} do not biject onto target marks"))
            unpaired.add(v)
            continue
        for i, eid in enumerate(eids):
            line = ca.marks[(v, eid)]
            target = cb.marks[(triple.psi[v], eids_b[pm.iso.mark_map[i]])]
            sigma, shift = pm.iso.transforms[i]
            if not all(target._at_vertex(sigma * t + shift, vm.get(end))
                       for end, t in ((line.start_vertex, line.lo),
                                      (line.end_vertex, line.hi))):
                failures.append((5, f"mark of edge {eid} at {v} maps off its target"))

    for eid in inner:
        a, b = ca.tree.edges[eid]
        for v, w in ((a, b), (b, a)):
            if v in unpaired:
                continue
            pm = triple.phi[v]
            i = incident_eids(ca, v).index(eid)
            if incident_eids(cb, triple.psi[v])[pm.iso.mark_map[i]] != triple.edge_map[eid]:
                failures.append(
                    (2, f"mark pairing at {v} contradicts psi on edge {eid}"))
                continue
            sigma, shift = pm.iso.transforms[i]
            if sigma != 1 or shift != triple.phi[w].height_shift:
                failures.append(
                    (2, f"flip equation fails across edge {eid} at {v}"))

    if failures:
        cond, detail = min(failures, key=lambda f: f[0])
        return (False, cond, detail)
    return (True, None, None)


def _form(forms: dict, c: Cluster, side: int, v: int, den: int) -> NormalForm:
    """Normal form of piece v on side 0 (source) or 1 (target) at den, built once."""
    nf = forms.get((side, v))
    if nf is None:
        nf = forms[(side, v)] = piece_normal_form(c, v, den)
    return nf


def _window(c: Cluster, v: int, den: int) -> tuple[int, int]:
    """Piece v's height window, times the frame den."""
    return tuple(q.numerator * (den // q.denominator) for q in c.pieces[v].window)


def _wall_key(cb: Cluster, w_b: int, eid: int, j: int, transform: Transform,
              shift_w: int) -> tuple:
    """Everything pairing the mark of wall eid at w with mark j at w_b,
    under transform, fixes across the wall: (eid, target wall e_b, image
    v_b of the far end, sigma, the far piece's height shift, the height
    shift shift_w at w), shifts times the frame."""
    e_b = incident_eids(cb, w_b)[j]
    return (eid, e_b, cb.tree.other_end(e_b, w_b), *transform, shift_w)


def extend_choices(ca: Cluster, cb: Cluster, forms: dict, w: int, key: tuple
                   ) -> Iterator[tuple[int, int, FeatureMap]]:
    """(v_b, height shift at the pair's frame, feature map at v) across the
    wall of key, which leaves the mapped piece w for v, in search order.
    The crossing mark must come across as a translation and v's window
    must translate onto v_b's; the rest is v's search pinned on the mark."""
    eid, e_b, v_b, sigma, c_v, shift_w = key
    den = lcm(ca.unit, cb.unit)
    v = ca.tree.other_end(eid, w)
    wlo, whi = _window(ca, v, den)
    if sigma != 1 or _window(cb, v_b, den) != (wlo + c_v, whi + c_v):
        return
    pin = (incident_eids(ca, v).index(eid), incident_eids(cb, v_b).index(e_b),
           1, shift_w)
    for fm in marked_tree_extensions(_form(forms, ca, 0, v, den),
                                     _form(forms, cb, 1, v_b, den), pin):
        yield v_b, c_v, fm


def _root_choices(ca: Cluster, cb: Cluster, forms: dict, den: int, root: int
                  ) -> Iterator[tuple[int, int, FeatureMap]]:
    """(root_b, height shift, feature map) at the root, by image in T' order."""
    wlo, whi = _window(ca, root, den)
    for root_b in cb.tree.vertices:
        wlo2, whi2 = _window(cb, root_b, den)
        shift = wlo2 - wlo
        if whi2 - whi != shift:
            continue
        for fm in marked_tree_extensions(_form(forms, ca, 0, root, den),
                                         _form(forms, cb, 1, root_b, den)):
            yield root_b, shift, fm


def _solve(ca: Cluster, cb: Cluster, forms: dict, solved: dict, den: int, v: int,
           up: int | None, choices: Iterator) -> Iterator:
    """Coroutine for the subtree below v: yields (wall key, its coroutine)
    for each child wall key not yet solved, and returns the first (image,
    piece map, its transforms and height shift times den) of choices
    under which every child wall solves, or None.

    A choice's marks are paired in order, each with its first free
    candidate whose wall key solves; the up wall's mark keeps its pin.
    The greedy is exact.  A wall that solves is an isometry of the
    branches beyond it, and isometries compose (translations of heights
    compose to translations): if i-j, i-j' and i'-j solve, so does i'-j'.
    So inside one carrier the walls that solve join source marks to
    target marks in complete bipartite blocks, greedy stalls only where
    no pairing exists, and otherwise returns the lexicographically first
    pairing under which every wall solves.
    """
    walls = incident_eids(ca, v)
    for image, shift, fm in choices:
        pairs: dict[int, Transform] = {}   # target mark -> transform, by mark
        for eid, cands in zip(walls, fm.candidates):
            for j, transform in cands:
                if j in pairs:
                    continue
                if eid != up:
                    key = _wall_key(cb, image, eid, j, transform, shift)
                    if key not in solved:
                        yield key, _solve(ca, cb, forms, solved, den,
                                          ca.tree.other_end(eid, v), eid,
                                          extend_choices(ca, cb, forms, v, key))
                    if solved[key] is None:
                        continue
                pairs[j] = transform
                break
            else:
                break   # mark eid has no candidate left: next feature map
        else:
            ints = tuple(pairs.values()), shift
            iso = MarkedTreeIso(_form(forms, ca, 0, v, den), _form(forms, cb, 1, image, den),
                                fm.vertex_map, tuple(pairs),
                                tuple((sigma, Fraction(t, den)) for sigma, t in ints[0]))
            return image, PieceMap(iso, Fraction(shift, den)), ints


def isomorphic(ca: Cluster, cb: Cluster) -> GoodTriple | None:
    """The first isometry in search order as a triple covering all of T,
    or None.  Each wall key is solved once, by a coroutine on an explicit
    stack, so depth is not bound by the interpreter's recursion limit."""
    if len(ca.tree.vertices) != len(cb.tree.vertices):
        return None
    # normal forms by (side, vertex); wall key -> (map at its far end, its ints) or None
    forms, solved, den = {}, {}, lcm(ca.unit, cb.unit)
    root = ca.tree.vertices[0]
    stack = [(None, _solve(ca, cb, forms, solved, den, root, None,
                           _root_choices(ca, cb, forms, den, root)))]
    while True:
        key, task = stack[-1]
        try:
            stack.append(next(task))
        except StopIteration as done:
            stack.pop()
            if key is None:
                return done.value and _assemble(ca, cb, root, *done.value, solved)
            solved[key] = done.value and done.value[1:]


def _assemble(ca: Cluster, cb: Cluster, root: int, root_b: int, pm: PieceMap,
              ints: tuple, solved: dict) -> GoodTriple:
    """The full triple, read off the solved walls from the root down; each
    wall key is rebuilt from the ints kept beside its piece map."""
    psi, edge_map, phi, kept = {root: root_b}, {}, {root: pm}, {root: ints}
    work = [root]
    while work:
        w = work.pop()
        transforms, shift = kept[w]
        for i, (eid, v) in enumerate(ca.tree.neighbors(w)):
            if v not in psi:
                key = _wall_key(cb, psi[w], eid, phi[w].iso.mark_map[i], transforms[i], shift)
                edge_map[eid], psi[v], (phi[v], kept[v]) = key[1], key[2], solved[key]
                work.append(v)
    triple = GoodTriple(ca, cb, tuple(sorted(psi)), psi, edge_map, phi)
    ok, cond, detail = verify_good(triple)
    if not ok:
        raise WitnessMismatch(
            f"search returned a bad triple: condition {cond}, {detail}")
    return triple


def witness_to_spec(triple: GoodTriple) -> dict:
    """Replayable JSON form of an isometry witness."""
    out = {"psi": {}, "height_shifts": {}, "vertex_maps": {}, "mark_maps": {}}
    for v in triple.vertices:
        pm = triple.phi[v]
        out["psi"][str(v)] = triple.psi[v]
        out["height_shifts"][str(v)] = format_rational(pm.height_shift)
        out["vertex_maps"][str(v)] = {
            str(f): pm.iso.vertex_map[f] for f in sorted(pm.iso.vertex_map)}
        out["mark_maps"][str(v)] = [
            [i, j, pm.iso.transforms[i][0], format_rational(pm.iso.transforms[i][1])]
            for i, j in enumerate(pm.iso.mark_map)]
    return out


# -- independent brute-force referee ----------------------------------------------


def _contracted(tree: MetricTree, marks: Sequence[Line], k: int):
    """(feature vertices, distance dict) with the distances as ints at k
    times the tree's scale, built by single-vertex contraction, not by
    chain walking: each non-feature vertex is visited once, in vertex
    order, and its two edges merge into one under the lower edge id."""
    keep = {v for v in tree.vertices if tree.degree(v) != 2}
    for m in marks:
        keep.add(m.start_vertex)
        keep.add(m.end_vertex)
    edges = {eid: (a, b, units * k)
             for eid, ((a, b), units) in enumerate(zip(tree._ends, tree._units))}
    incident = {v: {eid for eid, _ in tree.neighbors(v)} for v in tree.vertices}
    for v in tree.vertices:
        if v in keep:
            continue
        e1, e2 = incident[v]
        x1, y1, l1 = edges.pop(e1)
        x2, y2, l2 = edges.pop(e2)
        far1 = x1 if y1 == v else y1
        far2 = x2 if y2 == v else y2
        e = min(e1, e2)
        edges[e] = (far1, far2, l1 + l2)
        incident[far1].discard(e1)
        incident[far1].add(e)
        incident[far2].discard(e2)
        incident[far2].add(e)
    verts = sorted(keep)
    dist = {(v, v): 0 for v in verts}
    adj: dict[int, list] = {v: [] for v in verts}
    for x, y, L in edges.values():
        adj[x].append((y, L))
        adj[y].append((x, L))
    for s in verts:
        d = {s: 0}
        work = [s]
        while work:
            v = work.pop()
            for w, L in adj[v]:
                if w not in d:
                    d[w] = d[v] + L
                    work.append(w)
        for g, val in d.items():
            dist[(s, g)] = val
    return verts, dist


def brute_force_iso(ca: Cluster, cb: Cluster,
                    max_tree_vertices: int = 6,
                    max_features: int = 12) -> GoodTriple | None:
    """Exhaustive referee for isomorphic, with size caps.

    Tries every vertex bijection of T preserving edges; per T-iso the
    height shifts are forced by the windows, so each piece can be checked
    independently by a pruned exhaustive search over raw feature
    bijections graded by pairwise distances and the forced mark images.
    Each piece pair (v, psi[v]) is contracted once per call, and the
    pieces are packaged as MarkedTreeIsos only once every piece of a
    T-map has matched.
    """
    if len(ca.tree.vertices) > max_tree_vertices or \
            len(cb.tree.vertices) > max_tree_vertices:
        raise SizeCapError("tree too large for brute force")
    va, vb = ca.tree.vertices, cb.tree.vertices
    if len(va) != len(vb):
        return None
    edges_b = {frozenset(e): i for i, e in enumerate(cb.tree.edges)}
    contracted: dict[tuple[int, int], tuple] = {}   # (v, psi[v]) -> both sides' contractions
    for perm in itertools.permutations(vb):
        psi = dict(zip(va, perm))
        edge_map = {}
        ok = True
        for eid, (x, y) in enumerate(ca.tree.edges):
            j = edges_b.get(frozenset((psi[x], psi[y])))
            if j is None:
                ok = False
                break
            edge_map[eid] = j
        if not ok or len(set(edge_map.values())) != len(ca.tree.edges):
            continue
        shifts = {}
        for v in va:
            wlo, whi = ca.pieces[v].window
            wlo2, whi2 = cb.pieces[psi[v]].window
            if whi2 - whi != wlo2 - wlo:
                ok = False
                break
            shifts[v] = wlo2 - wlo
        if not ok:
            continue
        found = {}
        for v in va:
            found[v] = _piece_brute(ca, cb, v, psi, edge_map, shifts, max_features, contracted)
            if found[v] is None:
                break
        else:
            phi = {}
            for v in va:
                eids, eids_b = incident_eids(ca, v), incident_eids(cb, psi[v])
                mark_map = tuple(eids_b.index(edge_map[e]) for e in eids)
                transforms = tuple((1, shifts[ca.tree.other_end(e, v)]) for e in eids)
                iso = MarkedTreeIso(piece_normal_form(ca, v), piece_normal_form(cb, psi[v]),
                                    found[v], mark_map, transforms)
                phi[v] = PieceMap(iso, shifts[v])
            return GoodTriple(ca, cb, tuple(va), psi, edge_map, phi)
    return None


def _piece_brute(ca: Cluster, cb: Cluster, v: int, psi: dict,
                 edge_map: dict, shifts: dict, max_features: int,
                 contracted: dict) -> dict[int, int] | None:
    """The raw feature-vertex map of the first piece map at v under psi,
    or None; distances are compared as ints at the pair's frame
    lcm(tree_a.scale, tree_b.scale), and the contractions are kept in
    contracted for the rest of the call."""
    tree_a = ca.pieces[v].tree
    tree_b = cb.pieces[psi[v]].tree
    eids = incident_eids(ca, v)
    eids_b = incident_eids(cb, psi[v])
    marks_a = [ca.marks[(v, e)] for e in eids]
    marks_b = [cb.marks[(psi[v], e)] for e in eids_b]
    pair = contracted.get((v, psi[v]))
    if pair is None:
        den = lcm(tree_a.scale, tree_b.scale)
        pair = contracted[(v, psi[v])] = (_contracted(tree_a, marks_a, den // tree_a.scale),
                                          _contracted(tree_b, marks_b, den // tree_b.scale))
    (fa, da), (fb, db) = pair
    if len(fa) != len(fb):
        return None
    if len(fa) > max_features:
        raise SizeCapError("piece tree too large for brute force")
    # forced mark correspondence and transforms
    want = []
    for i, e in enumerate(eids):
        j = eids_b.index(edge_map[e])
        w = ca.tree.other_end(e, v)
        shift = shifts[w]
        la, lb = marks_a[i], marks_b[j]
        if (lb.lo, lb.hi) != (la.lo + shift, la.hi + shift):
            return None
        want.append((i, j, shift))

    assign: dict[int, int] = {}
    used: set[int] = set()

    def place(k: int) -> dict | None:
        if k == len(fa):
            return dict(assign)
        f = fa[k]
        for g in fb:
            if g in used:
                continue
            if any(da[(f, fa[m])] != db[(g, assign[fa[m]])] for m in range(k)):
                continue
            assign[f] = g
            used.add(g)
            found = place(k + 1)
            if found is not None:
                # mark endpoints must land exactly where the forced
                # transform sends them
                good = True
                for i, j, shift in want:
                    la, lb = marks_a[i], marks_b[j]
                    if found[la.start_vertex] != lb.start_vertex or \
                            found[la.end_vertex] != lb.end_vertex:
                        good = False
                        break
                if good:
                    return found
            used.discard(g)
            del assign[f]
        return None

    return place(0)
