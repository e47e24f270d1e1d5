"""The benchmark's four workloads, each a fixed op list made from a seed.

``setup(seed)`` builds every instance a pass needs and returns the op
list: zero-argument callables that run one unit of library work, check
its result and return its canonical output as text.  A failed check
raises ``CheckFailed``.  Setup is run afresh before every pass, so each
pass meets the library's caches as cold as a new caller does.

Where a workload mixes instance sizes, the sizes follow a fixed schedule
(``_sizes``) and the seed draws everything else: tree shapes, lengths,
windows, points.  Pinning the sizes keeps the cost mix of a run the same
from seed to seed, so runs on different seeds stay comparable.

Library calls go through module attributes (``distance_oracle.exact_
distance``, never a bare imported name), so the traced run sees them.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import random
from fractions import Fraction
from typing import Callable

from flipcluster import cluster, cluster_iso, distance_oracle, generator, special_path, suites
from flipcluster.rational import format_rational as _fr

Op = Callable[[], str]


class CheckFailed(Exception):
    """An op's output broke one of the workload's correctness checks."""


def _check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def _sizes(count: int, first: tuple[int, int], second: tuple[int, int]
           ) -> list[tuple[int, int]]:
    """A size pair per instance, spread evenly over both ranges: the first
    size cycles through its range, and within each of its values the
    second size steps evenly across its own range."""
    lo1, hi1 = first
    lo2, hi2 = second
    k1 = hi1 - lo1 + 1
    per = -(-count // k1)
    return [(lo1 + i % k1, lo2 + ((i // k1) * 2 + 1) * (hi2 - lo2 + 1) // (2 * per))
            for i in range(count)]


# -- audit: the per-pair unit of the bilipschitz suite --------------------------

AUDIT_INSTANCES = 240
AUDIT_PAIRS = 10


def _audit_op(c, x, y) -> str:
    d, _ = distance_oracle.exact_distance(c, x, y)
    sp = special_path.special_path(c, x, y)
    star = special_path.star_audit(c, x, y)
    _check(sp.length >= d, "special path shorter than the distance")
    _check(d != 0 or sp.length == 0, "positive path length at distance zero")
    _check(all(lhs <= rhs for lhs, rhs in star), "star audit term violated")
    terms = " ".join(f"{_fr(lhs)},{_fr(rhs)}" for lhs, rhs in star)
    return f"{_fr(d)} {_fr(sp.length)} {terms}"


def setup_audit(seed: int) -> list[Op]:
    ops: list[Op] = []
    sizes = _sizes(AUDIT_INSTANCES, suites.CORPUS.tree_size, suites.CORPUS.piece_edges)
    for s, (n, m) in zip(_seeds(seed, AUDIT_INSTANCES), sizes):
        params = dataclasses.replace(suites.CORPUS, seed=s, tree_size=(n, n),
                                     piece_edges=(m, m))
        c = generator.generate_cluster(params)
        pts = generator.sample_points(c, random.Random(s + 2), 2 * AUDIT_PAIRS)
        for j in range(AUDIT_PAIRS):
            x, y = pts[2 * j], pts[2 * j + 1]
            ops.append(lambda c=c, x=x, y=y: _audit_op(c, x, y))
    return ops


# -- chain-cold: the CLI dist path on long path-shaped instances ----------------

CHAIN_INSTANCES = 144
CHAIN_QUERIES = 2
CHAIN_PIECES = (6, 16)
CHAIN_PIECE_EDGES = (16, 48)


def _point_in(c, rng: random.Random, v: int):
    tree = c.pieces[v].tree
    eid = rng.randrange(len(tree.edges))
    lo, hi = c.pieces[v].window
    off = tree.edges[eid].length * Fraction(rng.randint(0, 8), 8)
    return c.point(v, eid, off, lo + (hi - lo) * Fraction(rng.randint(0, 8), 8))


def _chain_op(text: str, xs: str, ys: str) -> str:
    c = cluster.validate(json.loads(text))
    x = cluster.point_of_spec(c, json.loads(xs))
    y = cluster.point_of_spec(c, json.loads(ys))
    d, prof = distance_oracle.exact_distance(c, x, y)
    s = ",".join(_fr(t) for t in prof.s)
    h = ",".join(_fr(t) for t in prof.h)
    return f"{_fr(d)} {len(prof.edges)} {s} {h}"


def setup_chain_cold(seed: int) -> list[Op]:
    ops: list[Op] = []
    sizes = _sizes(CHAIN_INSTANCES, CHAIN_PIECES, CHAIN_PIECE_EDGES)
    for s, (n, m) in zip(_seeds(seed, CHAIN_INSTANCES), sizes):
        params = generator.GeneratorParams(
            seed=s, tree_size=(n, n), piece_edges=(m, m), tree_shape="path")
        c = generator.generate_cluster(params)
        text = cluster.dumps(c)
        rng = random.Random(s + 1)
        for _ in range(CHAIN_QUERIES):
            x = _point_in(c, rng, c.tree.vertices[0])
            y = _point_in(c, rng, c.tree.vertices[-1])
            xs = json.dumps(cluster.point_to_spec(x))
            ys = json.dumps(cluster.point_to_spec(y))
            ops.append(lambda text=text, xs=xs, ys=ys: _chain_op(text, xs, ys))
    return ops


# -- grid-oracle: discretized Dijkstra against the exact distance ---------------

# Many small instances: an instance's cost follows its grid's node count
# (coefficient of variation about 0.45), so at 68 three-piece instances a
# run's median op moved by 18% from seed to seed.
GRID_INSTANCES = 170
GRID_PAIRS = 3
GRID_PIECES = 2
GRID_PIECE_EDGES = 1
GRID_DENOMINATOR = 24   # off the power-of-two grid, so snapping costs show


class _OracleSlot:
    """Per-instance oracle, built by the first query and dropped after the
    last one so a pass holds one graph at a time."""

    def __init__(self, c, queries: int):
        self.c = c
        self.left = queries
        self.oracle = None
        self.eps = None

    def query(self, x, y) -> str:
        c = self.c
        if self.oracle is None:
            self.eps = distance_oracle.default_eps(c)
            self.oracle = distance_oracle.DiscretizedOracle(c, self.eps)
        approx = self.oracle.distance(x, y)
        exact, prof = distance_oracle.exact_distance(c, x, y)
        self.left -= 1
        if self.left == 0:
            self.oracle = None
        bound = 4 * self.eps * (len(prof.edges) + 1)
        _check(exact <= approx <= exact + bound,
               f"discretized {approx} outside [{exact}, {exact + bound}]")
        return f"{_fr(exact)} {_fr(approx)}"


def setup_grid_oracle(seed: int) -> list[Op]:
    ops: list[Op] = []
    for s in _seeds(seed, GRID_INSTANCES):
        params = dataclasses.replace(suites.ORACLE_CORPUS, seed=s,
                                     tree_size=(GRID_PIECES, GRID_PIECES),
                                     piece_edges=(GRID_PIECE_EDGES, GRID_PIECE_EDGES))
        c = generator.generate_cluster(params)
        pts = generator.sample_points(c, random.Random(s + 3), 2 * GRID_PAIRS,
                                      denominator=GRID_DENOMINATOR)
        slot = _OracleSlot(c, GRID_PAIRS)
        for j in range(GRID_PAIRS):
            x, y = pts[2 * j], pts[2 * j + 1]
            ops.append(lambda slot=slot, x=x, y=y: slot.query(x, y))
    return ops


# -- iso-search: the anchored isometry search on planted and mutated pairs ------

ISO_PAIRS = 204
ISO_PIECES = (4, 16)
ISO_PIECE_EDGES = (1, 12)

_REFEREE = inspect.signature(cluster_iso.brute_force_iso).parameters
REFEREE_MAX_TREE = _REFEREE["max_tree_vertices"].default
REFEREE_MAX_FEATURES = _REFEREE["max_features"].default


def _within_referee_caps(ca, cb) -> bool:
    if max(len(ca.tree.vertices), len(cb.tree.vertices)) > REFEREE_MAX_TREE:
        return False
    for c in (ca, cb):
        for v in c.tree.vertices:
            marks = [c.marks[(v, eid)] for eid, _ in c.tree.neighbors(v)]
            if len(cluster_iso.NormalForm(c.pieces[v].tree, marks).features) \
                    > REFEREE_MAX_FEATURES:
                return False
    return True


def _iso_op(ca, cb, planted: bool, referee: bool) -> str:
    triple = cluster_iso.isomorphic(ca, cb)
    _check(not planted or triple is not None, "planted pair reported non-isomorphic")
    out = "none" if triple is None else \
        json.dumps(cluster_iso.witness_to_spec(triple), sort_keys=True)
    if referee:
        ref = cluster_iso.brute_force_iso(ca, cb)
        _check((ref is None) == (triple is None), "search and referee disagree")
        out += " refereed"
    return out


def setup_iso_search(seed: int) -> list[Op]:
    """Two planted pairs for every mutated one.  Mutated pairs mostly fail
    fast and planted ones pay for a full search plus verification, so at
    one to one the median op would sit in the gap between the two."""
    ops: list[Op] = []
    sizes = _sizes(ISO_PAIRS, ISO_PIECES, ISO_PIECE_EDGES)
    for i, (s, (n, m)) in enumerate(zip(_seeds(seed, ISO_PAIRS), sizes)):
        params = generator.GeneratorParams(seed=s, tree_size=(n, n), piece_edges=(m, m))
        planted = i % 3 != 2
        ca, cb = generator.planted_pair(params) if planted else generator.mutated_pair(params)
        referee = _within_referee_caps(ca, cb)
        ops.append(lambda ca=ca, cb=cb, p=planted, r=referee: _iso_op(ca, cb, p, r))
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "audit": setup_audit,
    "chain-cold": setup_chain_cold,
    "grid-oracle": setup_grid_oracle,
    "iso-search": setup_iso_search,
}
