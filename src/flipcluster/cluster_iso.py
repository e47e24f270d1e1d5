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
distances extends uniquely to an isometry of the trees, so searches run
over feature bijections.  The search anchored on a mapped mark follows
the good-triple growth: fix the images of the carrier's features, then
backtrack over branch matchings in canonical order.

brute_force_iso is the independent referee: it enumerates simplicial
T-bijections directly and, per vertex, searches raw distance-matrix
bijections built by its own chain contraction, checking the same wall
equations at the end.  It shares no search code with the anchored route.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .cluster import Cluster, ClusterPoint
from .errors import SizeCapError
from .metric_tree import Line, MetricTree, RootedTree, TreePoint
from .rational import format_rational


class FeatureEdge(NamedTuple):
    u: int
    v: int
    length: Fraction
    chain: tuple[tuple[int, bool], ...]   # raw (eid, traversed a->b) from u


class MarkNF(NamedTuple):
    start: int
    end: int
    lo: Fraction
    hi: Fraction


class NormalForm:
    """Feature-vertex view of a marked tree.

    Features are the vertices a metric isometry cannot move freely:
    leaves, branch vertices, and mark endpoints.  Everything else sits on
    a fused chain.
    """

    def __init__(self, tree: MetricTree, marks: Sequence[Line]):
        self.tree = tree
        self.marks = tuple(marks)
        feats = {v for v in tree.vertices if tree.degree(v) != 2}
        for m in marks:
            feats.add(m.start_vertex)
            feats.add(m.end_vertex)
        self.features = tuple(sorted(feats))
        fedges: list[FeatureEdge] = []
        self.raw_loc: dict[int, tuple[int, Fraction, bool]] = {}
        used: set[int] = set()
        for f in self.features:
            for eid, w in tree.neighbors(f):
                if eid in used:
                    continue
                chain = []
                pos = Fraction(0)
                cur, cur_eid = f, eid
                nxt = w
                while True:
                    fwd = tree.edges[cur_eid].a == cur
                    chain.append((cur_eid, fwd))
                    self.raw_loc[cur_eid] = (len(fedges), pos, fwd)
                    used.add(cur_eid)
                    pos += tree.edges[cur_eid].length
                    if nxt in feats:
                        break
                    (e1, w1), (e2, w2) = tree.neighbors(nxt)
                    cur = nxt
                    cur_eid, nxt = (e2, w2) if e1 == chain[-1][0] else (e1, w1)
                fedges.append(FeatureEdge(f, nxt, pos, tuple(chain)))
        self.fedges = tuple(fedges)
        self.pair_to_fedge = {}
        for i, fe in enumerate(self.fedges):
            self.pair_to_fedge[frozenset((fe.u, fe.v))] = i
        self.adj: dict[int, list[tuple[int, int]]] = {f: [] for f in self.features}
        for i, fe in enumerate(self.fedges):
            self.adj[fe.u].append((i, fe.v))
            self.adj[fe.v].append((i, fe.u))
        for f in self.adj:
            self.adj[f].sort()
        self.marks_nf = tuple(
            MarkNF(m.start_vertex, m.end_vertex, m.lo, m.hi) for m in marks)

    def locate(self, p: TreePoint) -> tuple[int, Fraction]:
        """(feature edge index, offset from its u end)."""
        fidx, base, fwd = self.raw_loc[p.edge]
        length = self.tree.edges[p.edge].length
        return fidx, base + (p.offset if fwd else length - p.offset)

    def fedge_point(self, fidx: int, x: Fraction) -> TreePoint:
        fe = self.fedges[fidx]
        for eid, fwd in fe.chain:
            length = self.tree.edges[eid].length
            if x <= length:
                return self.tree.point(eid, x if fwd else length - x)
            x -= length
        raise ValueError("offset beyond feature edge")

    def feature_point(self, f: int) -> TreePoint:
        return self.tree.vertex_point(f)

    def mark_param_vertices(self, i: int) -> list[tuple[int, Fraction]]:
        """Feature vertices along mark i with their parameters."""
        line = self.marks[i]
        out = []
        for v, t in sorted(line.vertex_params.items(), key=lambda kv: kv[1]):
            if v in self.adj:
                out.append((v, t))
        return out


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
            pair = frozenset((vertex_map[fe.u], vertex_map[fe.v]))
            j = nf_b.pair_to_fedge[pair]
            self.fedge_map[i] = (j, vertex_map[fe.u] == nf_b.fedges[j].u)

    def point_image(self, p: TreePoint) -> TreePoint:
        fidx, x = self.nf_a.locate(p)
        j, same = self.fedge_map[fidx]
        if not same:
            x = self.nf_b.fedges[j].length - x
        return self.nf_b.fedge_point(j, x)


def _rooted(nf: NormalForm) -> RootedTree:
    """The feature tree of a normal form, for distances between features."""
    return RootedTree(nf.adj, nf.features[0], [fe.length for fe in nf.fedges])


def _mark_assignments(nf_a: NormalForm, nf_b: NormalForm,
                      vertex_map: dict[int, int],
                      pin: tuple[int, int] | None) -> Iterator[tuple[int, ...]]:
    """Injective pairings of marks whose carriers correspond under the map.

    Carriers with coinciding endpoints are interchangeable as lines, so
    each group of duplicates is permuted; usually every group is a
    singleton and exactly one pairing comes out.
    """
    want = []
    for m in nf_a.marks_nf:
        want.append(frozenset((vertex_map[m.start], vertex_map[m.end])))
    have: dict[frozenset, list[int]] = {}
    for j, m in enumerate(nf_b.marks_nf):
        have.setdefault(frozenset((m.start, m.end)), []).append(j)
    groups: dict[frozenset, list[int]] = {}
    for i, key in enumerate(want):
        groups.setdefault(key, []).append(i)
    if any(len(have.get(k, ())) != len(members) for k, members in groups.items()):
        return
    if sum(len(members) for members in groups.values()) != len(nf_b.marks_nf):
        return
    keys = sorted(groups, key=lambda k: sorted(k))
    choices = []
    for key in keys:
        perms = []
        for perm in itertools.permutations(have[key]):
            pairing = list(zip(groups[key], perm))
            if pin and pin[0] in groups[key]:
                if dict(pairing)[pin[0]] != pin[1]:
                    continue
            perms.append(pairing)
        if not perms:
            return
        choices.append(perms)
    for combo in itertools.product(*choices):
        assignment = [-1] * len(nf_a.marks_nf)
        for pairing in combo:
            for i, j in pairing:
                assignment[i] = j
        yield tuple(assignment)


def _transform_for(nf_a: NormalForm, nf_b: NormalForm, vertex_map: dict,
                   i: int, j: int) -> tuple[int, Fraction]:
    ma, mb = nf_a.marks_nf[i], nf_b.marks_nf[j]
    if vertex_map[ma.start] == mb.start:
        return (1, mb.lo - ma.lo)
    return (-1, mb.hi + ma.lo)


def marked_tree_extensions(nf_a: NormalForm, nf_b: NormalForm,
                           pin: tuple[int, int, int, Fraction] | None = None
                           ) -> Iterator[MarkedTreeIso]:
    """All marked-tree isomorphisms, in canonical search order.

    pin = (mark_i, mark_j, sigma, shift) forces mark_i onto mark_j with
    the given parameter transform; its carrier features are then placed
    up front and only the hanging branches are searched.
    """
    if len(nf_a.features) != len(nf_b.features):
        return
    if len(nf_a.marks_nf) != len(nf_b.marks_nf):
        return
    if sorted(fe.length for fe in nf_a.fedges) != \
            sorted(fe.length for fe in nf_b.fedges):
        return

    seeds: list[dict[int, int]] = []
    if pin is not None:
        i, j, sigma, shift = pin
        mb = nf_b.marks_nf[j]
        line_b = nf_b.marks[j]
        ma = nf_a.marks_nf[i]
        ends = sorted((sigma * ma.lo + shift, sigma * ma.hi + shift))
        if ends != [mb.lo, mb.hi]:
            return
        seed: dict[int, int] = {}
        ok = True
        for v, t in nf_a.mark_param_vertices(i):
            t2 = sigma * t + shift
            if not mb.lo <= t2 <= mb.hi:
                ok = False
                break
            q = line_b.point_at(t2)
            qv = nf_b.tree.point_vertex(q)
            if qv is None or qv not in nf_b.adj:
                ok = False
                break
            seed[v] = qv
        if ok and len(set(seed.values())) == len(seed):
            seeds.append(seed)
    else:
        root = nf_a.features[0]
        for cand in nf_b.features:
            seeds.append({root: cand})

    for seed in seeds:
        if len(set(seed.values())) != len(seed):
            continue
        yield from _grow(nf_a, nf_b, seed, pin)


def _grow(nf_a: NormalForm, nf_b: NormalForm, seed: dict[int, int],
          pin) -> Iterator[MarkedTreeIso]:
    vm = dict(seed)
    used_b = set(vm.values())
    fedge_used_a: set[int] = set()
    fedge_used_b: set[int] = set()
    # mark feature edges already implied by the seed as used
    for i, fe in enumerate(nf_a.fedges):
        if fe.u in vm and fe.v in vm:
            pair = frozenset((vm[fe.u], vm[fe.v]))
            j = nf_b.pair_to_fedge.get(pair)
            if j is None or nf_b.fedges[j].length != fe.length:
                return
            fedge_used_a.add(i)
            fedge_used_b.add(j)

    def frontier():
        for v in sorted(vm):
            for i, w in nf_a.adj[v]:
                if i not in fedge_used_a:
                    return v, i, w
        return None

    def search() -> Iterator[MarkedTreeIso]:
        spot = frontier()
        if spot is None:
            if len(vm) != len(nf_a.features):
                return   # disconnected remainder cannot happen in a tree
            for assignment in _mark_assignments(nf_a, nf_b, vm,
                                                None if pin is None
                                                else (pin[0], pin[1])):
                transforms = tuple(
                    _transform_for(nf_a, nf_b, vm, i, j)
                    for i, j in enumerate(assignment))
                if pin is not None:
                    i, j, sigma, shift = pin
                    if transforms[i] != (sigma, shift):
                        continue
                yield MarkedTreeIso(nf_a, nf_b, vm, assignment, transforms)
            return
        v, i, w = spot
        fe = nf_a.fedges[i]
        for jb, wb in nf_b.adj[vm[v]]:
            if jb in fedge_used_b or nf_b.fedges[jb].length != fe.length:
                continue
            if w in vm or wb in used_b:
                if vm.get(w) != wb:
                    continue
                vm_had = True
            else:
                vm_had = False
                vm[w] = wb
                used_b.add(wb)
            fedge_used_a.add(i)
            fedge_used_b.add(jb)
            yield from search()
            fedge_used_a.discard(i)
            fedge_used_b.discard(jb)
            if not vm_had:
                del vm[w]
                used_b.discard(wb)

    yield from search()


def marked_tree_extend(nf_a: NormalForm, nf_b: NormalForm,
                       pin: tuple[int, int, int, Fraction]
                       ) -> MarkedTreeIso | None:
    """First extension of the pinned mark map to a full isomorphism."""
    for iso in marked_tree_extensions(nf_a, nf_b, pin):
        return iso
    return None


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


def piece_normal_form(c: Cluster, v: int) -> NormalForm:
    return NormalForm(c.pieces[v].tree,
                      [c.marks[(v, eid)] for eid in incident_eids(c, v)])


def point_image(triple: GoodTriple, x: ClusterPoint) -> ClusterPoint:
    # wall points may canonicalize outside the mapped region; the lowest
    # support inside it serves as the working representative
    reps = triple.ca.supports(x)
    v = min((v for v in reps if v in triple.phi), default=None)
    if v is None:
        raise ValueError("point has no support in the mapped subtree")
    horizontal, height = reps[v]
    pm = triple.phi[v]
    hor = pm.iso.point_image(horizontal)
    return triple.cb.point(triple.psi[v], hor.edge, hor.offset,
                           height + pm.height_shift)


def verify_good(triple: GoodTriple, sample_pairs: int = 3
                ) -> tuple[bool, int | None, str | None]:
    """Check the five triple conditions; (ok, first failed, detail).

    1 U is a subtree and psi embeds it simplicially; 2 the map is
    isometric, including the flip equations on every U-edge, spot-checked
    with exact distances on wall corner pairs; 3 each piece maps onto its
    target piece (window translation, feature bijection); 4 the map is a
    product per piece (well-formed data); 5 marks biject to marks.
    """
    from .distance_oracle import exact_distance

    ca, cb = triple.ca, triple.cb
    uset = set(triple.vertices)
    if not uset or any(v not in ca.tree.vertices for v in uset):
        return (False, 1, "vertex set outside T")
    inner = [eid for eid, (a, b) in enumerate(ca.tree.edges)
             if a in uset and b in uset]
    seen = {triple.vertices[0]}
    work = [triple.vertices[0]]
    while work:
        v = work.pop()
        for eid, w in ca.tree.neighbors(v):
            if eid in inner and w in uset and w not in seen:
                seen.add(w)
                work.append(w)
    if seen != uset:
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
        if pm is None or not isinstance(pm.height_shift, Fraction):
            return (False, 4, f"piece map missing or malformed at {v}")
        if pm.iso.nf_a.tree is not ca.pieces[v].tree or \
                pm.iso.nf_b.tree is not cb.pieces[triple.psi[v]].tree:
            return (False, 4, f"piece map at {v} built over foreign trees")

    failures: list[tuple[int, str]] = []

    for v in triple.vertices:
        pm = triple.phi[v]
        nfa, nfb = pm.iso.nf_a, pm.iso.nf_b
        wlo, whi = ca.pieces[v].window
        wlo2, whi2 = cb.pieces[triple.psi[v]].window
        if (wlo2, whi2) != (wlo + pm.height_shift, whi + pm.height_shift):
            failures.append((3, f"window of {v} does not translate onto target"))
        if len(nfa.features) != len(nfb.features) or \
                sorted(pm.iso.vertex_map) != list(nfa.features) or \
                sorted(pm.iso.vertex_map.values()) != list(nfb.features):
            failures.append((3, f"feature bijection invalid at {v}"))
        else:
            ra, rb = _rooted(nfa), _rooted(nfb)
            vm = pm.iso.vertex_map
            if any(ra.distance(f, g) != rb.distance(vm[f], vm[g])
                   for f, g in itertools.combinations(nfa.features, 2)):
                failures.append((2, f"distances disagree inside piece {v}"))

        eids = incident_eids(ca, v)
        eids_b = incident_eids(cb, triple.psi[v])
        if sorted(pm.iso.mark_map) != list(range(len(eids_b))) or \
                len(pm.iso.mark_map) != len(eids):
            failures.append((5, f"marks of {v} do not biject onto target marks"))
            continue
        for i, eid in enumerate(eids):
            line = ca.marks[(v, eid)]
            target = cb.marks[(triple.psi[v], eids_b[pm.iso.mark_map[i]])]
            sigma, shift = pm.iso.transforms[i]
            for t in (line.lo, line.hi):
                want = target.point_at(sigma * t + shift) \
                    if target.lo <= sigma * t + shift <= target.hi else None
                if want is None or pm.iso.point_image(line.point_at(t)) != want:
                    failures.append(
                        (5, f"mark of edge {eid} at {v} maps off its target"))
                    break

    for eid in inner:
        a, b = ca.tree.edges[eid]
        structural = True
        for v, w in ((a, b), (b, a)):
            pm = triple.phi[v]
            i = incident_eids(ca, v).index(eid)
            eids_b = incident_eids(cb, triple.psi[v])
            if pm.iso.mark_map[i] >= len(eids_b) or \
                    eids_b[pm.iso.mark_map[i]] != triple.edge_map[eid]:
                failures.append(
                    (2, f"mark pairing at {v} contradicts psi on edge {eid}"))
                structural = False
                continue
            sigma, shift = pm.iso.transforms[i]
            if sigma != 1 or shift != triple.phi[w].height_shift:
                failures.append(
                    (2, f"flip equation fails across edge {eid} at {v}"))
                structural = False
        if not structural or failures:
            # distance spot checks need a map that is at least structurally
            # coherent, otherwise point images are not defined
            continue
        line_a = ca.marks[(a, eid)]
        twin_a = ca.marks[(b, eid)]
        corners = [
            ca.point(a, line_a.point_at(line_a.lo).edge,
                     line_a.point_at(line_a.lo).offset, twin_a.lo),
            ca.point(a, line_a.point_at(line_a.hi).edge,
                     line_a.point_at(line_a.hi).offset, twin_a.hi),
            ca.point(b, twin_a.point_at(twin_a.lo).edge,
                     twin_a.point_at(twin_a.lo).offset, line_a.hi),
        ]
        pairs = list(itertools.combinations(corners, 2))[:sample_pairs]
        for x, y in pairs:
            d1 = exact_distance(ca, x, y)[0]
            d2 = exact_distance(triple.cb, point_image(triple, x),
                                point_image(triple, y))[0]
            if d1 != d2:
                failures.append(
                    (2, f"distance {d1} became {d2} across edge {eid}"))
                break

    if failures:
        cond, detail = min(failures, key=lambda f: f[0])
        return (False, cond, detail)
    return (True, None, None)


def try_extend(triple: GoodTriple, eid: int) -> GoodTriple | None:
    """Grow the triple over a frontier edge; first extension or None."""
    for bigger in extend_choices(triple, eid):
        return bigger
    return None


def extend_choices(triple: GoodTriple, eid: int) -> Iterator[GoodTriple]:
    ca, cb = triple.ca, triple.cb
    a, b = ca.tree.edges[eid]
    uset = set(triple.vertices)
    if (a in uset) == (b in uset):
        raise ValueError(f"edge {eid} is not a frontier edge")
    w, v = (a, b) if a in uset else (b, a)
    pm_w = triple.phi[w]
    iw = incident_eids(ca, w).index(eid)
    eids_wb = incident_eids(cb, triple.psi[w])
    e_b = eids_wb[pm_w.iso.mark_map[iw]]
    v_b = cb.tree.other_end(e_b, triple.psi[w])
    sigma, c_v = pm_w.iso.transforms[iw]
    if sigma != 1:
        return
    wlo, whi = ca.pieces[v].window
    wlo2, whi2 = cb.pieces[v_b].window
    if (wlo2, whi2) != (wlo + c_v, whi + c_v):
        return
    nf_v = piece_normal_form(ca, v)
    nf_vb = piece_normal_form(cb, v_b)
    iv = incident_eids(ca, v).index(eid)
    iv_b = incident_eids(cb, v_b).index(e_b)
    pin = (iv, iv_b, 1, triple.phi[w].height_shift)
    for iso in marked_tree_extensions(nf_v, nf_vb, pin):
        psi = dict(triple.psi)
        psi[v] = v_b
        edge_map = dict(triple.edge_map)
        edge_map[eid] = e_b
        phi = dict(triple.phi)
        phi[v] = PieceMap(iso, c_v)
        yield GoodTriple(ca, cb, tuple(sorted((*triple.vertices, v))),
                         psi, edge_map, phi)


def seed_triples(ca: Cluster, cb: Cluster, root: int, root_b: int
                 ) -> Iterator[GoodTriple]:
    wlo, whi = ca.pieces[root].window
    wlo2, whi2 = cb.pieces[root_b].window
    shift = wlo2 - wlo
    if whi2 - whi != shift:
        return
    nf = piece_normal_form(ca, root)
    nf_b = piece_normal_form(cb, root_b)
    for iso in marked_tree_extensions(nf, nf_b, None):
        yield GoodTriple(ca, cb, (root,), {root: root_b}, {},
                         {root: PieceMap(iso, shift)})


def isomorphic(ca: Cluster, cb: Cluster) -> GoodTriple | None:
    """Depth-first good-triple growth over all seeds; deterministic.

    The search keeps its own stack, so its depth is not bound by the
    interpreter's recursion limit.

    Returns a triple covering all of T (then the map is a full isometry)
    or None when every branch dies.
    """
    if len(ca.tree.vertices) != len(cb.tree.vertices):
        return None

    root = ca.tree.vertices[0]
    # one iterator of candidate triples per search depth: the seeds, then
    # the extensions of each triple over its first frontier edge
    stack: list[Iterator[GoodTriple]] = [
        (t for root_b in cb.tree.vertices for t in seed_triples(ca, cb, root, root_b))]
    while stack:
        triple = next(stack[-1], None)
        if triple is None:
            stack.pop()
            continue
        uset = set(triple.vertices)
        frontier = next((eid for eid, (x, y) in enumerate(ca.tree.edges)
                         if (x in uset) != (y in uset)), None)
        if frontier is not None:
            stack.append(extend_choices(triple, frontier))
        elif len(uset) == len(ca.tree.vertices):
            ok, cond, detail = verify_good(triple)
            if not ok:
                raise AssertionError(
                    f"search returned a bad triple: condition {cond}, {detail}")
            return triple
    return None


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


def _contracted(tree: MetricTree, marks: Sequence[Line]):
    """(feature vertices, distance dict, mark endpoint data) built by
    repeated single-vertex contraction, not by chain walking."""
    keep = {v for v in tree.vertices if tree.degree(v) != 2}
    for m in marks:
        keep.add(m.start_vertex)
        keep.add(m.end_vertex)
    edges = {eid: (e.a, e.b, e.length) for eid, e in enumerate(tree.edges)}
    changed = True
    while changed:
        changed = False
        degree: dict[int, list] = {}
        for eid, (x, y, L) in edges.items():
            degree.setdefault(x, []).append(eid)
            degree.setdefault(y, []).append(eid)
        for v, incident in degree.items():
            if v in keep or len(incident) != 2:
                continue
            e1, e2 = incident
            x1, y1, l1 = edges.pop(e1)
            x2, y2, l2 = edges.pop(e2)
            far1 = x1 if y1 == v else y1
            far2 = x2 if y2 == v else y2
            edges[min(e1, e2)] = (far1, far2, l1 + l2)
            changed = True
            break
    verts = sorted(keep)
    dist = {(v, v): Fraction(0) for v in verts}
    adj: dict[int, list] = {v: [] for v in verts}
    for x, y, L in edges.values():
        adj[x].append((y, L))
        adj[y].append((x, L))
    for s in verts:
        d = {s: Fraction(0)}
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
    """
    if len(ca.tree.vertices) > max_tree_vertices or \
            len(cb.tree.vertices) > max_tree_vertices:
        raise SizeCapError("tree too large for brute force")
    va, vb = ca.tree.vertices, cb.tree.vertices
    if len(va) != len(vb):
        return None
    edges_b = {frozenset(e): i for i, e in enumerate(cb.tree.edges)}
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
        phi = {}
        for v in va:
            pm = _piece_brute(ca, cb, v, psi, edge_map, shifts, max_features)
            if pm is None:
                ok = False
                break
            phi[v] = pm
        if not ok:
            continue
        return GoodTriple(ca, cb, tuple(va), psi, edge_map, phi)
    return None


def _piece_brute(ca: Cluster, cb: Cluster, v: int, psi: dict,
                 edge_map: dict, shifts: dict, max_features: int
                 ) -> PieceMap | None:
    tree_a = ca.pieces[v].tree
    tree_b = cb.pieces[psi[v]].tree
    eids = incident_eids(ca, v)
    eids_b = incident_eids(cb, psi[v])
    marks_a = [ca.marks[(v, e)] for e in eids]
    marks_b = [cb.marks[(psi[v], e)] for e in eids_b]
    fa, da = _contracted(tree_a, marks_a)
    fb, db = _contracted(tree_b, marks_b)
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

    found = place(0)
    if found is None:
        return None
    nfa = piece_normal_form(ca, v)
    nfb = piece_normal_form(cb, psi[v])
    mark_map = tuple(eids_b.index(edge_map[e]) for e in eids)
    transforms = tuple((1, shifts[ca.tree.other_end(e, v)]) for e in eids)
    return PieceMap(MarkedTreeIso(nfa, nfb, found, mark_map, transforms),
                    shifts[v])
