"""Verification suites over generated corpora, reported as JSON.

Each suite regenerates its corpus from the configured seed (instance
seeds are derived arithmetically, so a failure's index pins its input),
runs exact checks, and returns counters plus up to three minimal
reproductions: instance JSON, operation, inputs.  Reports are built with
canonical key order; the only nondeterministic fields are the timing
ones, which consumers strip before comparing runs.  Everything executes
sequentially; instance order is the merge order.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from fractions import Fraction

from .cluster import dumps, point_to_spec, route_between, support_route
from .cluster_iso import brute_force_iso, image_supports, isomorphic
from .distance_oracle import DiscretizedOracle, default_eps, exact_distance, route_distance
from .errors import SizeCapError, excerpt
from .generator import (
    GeneratorParams,
    generate_cluster,
    mutated_pair,
    planted_pair,
    random_graph_spec,
    sample_points,
    shrink_edge,
)
from .jsonutil import dumps_canonical
from .rational import format_rational, parse_rational
from .special_path import length_ratio, route_path, special_path, star_terms, subrange_ratios
from .tree_graded import blocks, check_T1_T2, cut_points, graph_of_spec

SCHEMA_VERSION = 1
MAX_REPROS = 3

# desk-scale defaults, in run order; the acceptance run overrides these from its config
DESK_SIZES = {
    "metric-axioms": {"instances": 30, "triples": 10, "pool": 6},
    "bilipschitz": {"instances": 30, "pairs": 10, "subpath_pairs": 3},
    "oracle-agreement": {"instances": 8, "pairs": 5, "cap": 200_000},
    "remark-nice": {"instances": 10},
    "tree-graded": {"graphs": 50, "max_vertices": 8},
    "isomorphism": {"pairs": 20, "spot_checks": 20},
}
SUITE_NAMES = tuple(DESK_SIZES)

CORPUS = GeneratorParams(seed=0, tree_size=(1, 8), piece_edges=(1, 40))
ORACLE_CORPUS = GeneratorParams(seed=0, tree_size=(1, 3), piece_edges=(1, 3),
                                edge_length=(Fraction(1), Fraction(2)),
                                max_denominator=2)
ISO_CORPUS = GeneratorParams(seed=0, tree_size=(1, 4), piece_edges=(1, 8))


def _instance_seed(base: int, index: int) -> int:
    return base * 100_003 + index


class _Recorder:
    def __init__(self):
        self.failures: list[dict] = []
        self.count = 0

    def fail(self, instance_json: str, op: str, inputs, detail: str):
        self.count += 1
        if len(self.failures) < MAX_REPROS:
            self.failures.append({
                "instance": instance_json,
                "op": op,
                "inputs": inputs,
                "detail": detail,
            })

    def report(self, counters: dict) -> dict:
        return {"pass": self.count == 0, "counters": counters, "failures": self.failures}


def _floor_point_in(c, rng, v):
    """Random horizontal at the window floor; generated windows keep the
    floor strictly below every twin range, so the support is unique."""
    tree = c.pieces[v].tree
    eid = rng.randrange(len(tree._ends))
    off = tree._lengths[eid] * Fraction(rng.randint(0, 8), 8)
    return c.point(v, eid, off, c.pieces[v].window[0])


def suite_metric_axioms(seed: int, sizes: dict) -> dict:
    rec = _Recorder()
    triples_run = 0
    for i in range(sizes["instances"]):
        params = dataclasses.replace(CORPUS, seed=_instance_seed(seed, i))
        c = generate_cluster(params)
        rng = random.Random(params.seed + 1)
        pool = sample_points(c, rng, sizes["pool"])
        sup = [c.supports(p) for p in pool]
        cache: dict[tuple[int, int], Fraction] = {}
        for a, b in itertools.product(range(len(pool)), repeat=2):
            cache[(a, b)] = route_distance(c, route_between(c, sup[a], sup[b]))[0]
        for a in range(len(pool)):
            if cache[(a, a)] != 0:
                rec.fail(dumps(c), "exact_distance",
                         [point_to_spec(pool[a])] * 2, "nonzero self distance")
        for a, b in itertools.combinations(range(len(pool)), 2):
            if cache[(a, b)] != cache[(b, a)]:
                rec.fail(dumps(c), "exact_distance",
                         [point_to_spec(pool[a]), point_to_spec(pool[b])],
                         "asymmetric distance")
            if cache[(a, b)] < 0:
                rec.fail(dumps(c), "exact_distance",
                         [point_to_spec(pool[a]), point_to_spec(pool[b])],
                         "negative distance")
            if cache[(a, b)] == 0 and pool[a] != pool[b]:
                rec.fail(dumps(c), "exact_distance",
                         [point_to_spec(pool[a]), point_to_spec(pool[b])],
                         "zero distance between distinct points")
        combos = list(itertools.combinations(range(len(pool)), 3))
        rng.shuffle(combos)
        for a, b, k in combos[:sizes["triples"]]:
            triples_run += 1
            if cache[(a, b)] > cache[(a, k)] + cache[(k, b)]:
                rec.fail(dumps(c), "exact_distance",
                         [point_to_spec(pool[x]) for x in (a, b, k)],
                         "triangle inequality violated")
    return rec.report({"instances": sizes["instances"], "triples": triples_run,
                       "violations": rec.count})


def suite_bilipschitz(seed: int, sizes: dict, k_obs: str | None) -> dict:
    rec = _Recorder()
    max_ratio = Fraction(0)
    attaining = None
    star_checked = pairs_run = subpaths_run = 0

    def note(c, op, a, b, ratio, problem):
        nonlocal max_ratio, attaining
        if problem is not None:
            rec.fail(dumps(c), op, [point_to_spec(a), point_to_spec(b)], problem)
        elif ratio is not None and ratio > max_ratio:
            max_ratio = ratio
            attaining = [point_to_spec(a), point_to_spec(b)]

    for i in range(sizes["instances"]):
        params = dataclasses.replace(CORPUS, seed=_instance_seed(seed, i))
        c = generate_cluster(params)
        rng = random.Random(params.seed + 2)
        pts = sample_points(c, rng, 2 * sizes["pairs"])
        for j in range(sizes["pairs"]):
            x, y = pts[2 * j], pts[2 * j + 1]
            pairs_run += 1
            route = support_route(c, x, y)
            d, prof = route_distance(c, route)
            sp = route_path(c, route)
            note(c, "special_path", x, y, *length_ratio(sp.length, d))
            for lhs, rhs in star_terms(sp, prof):
                star_checked += 1
                if lhs > rhs:
                    rec.fail(dumps(c), "star_audit",
                             [point_to_spec(x), point_to_spec(y)],
                             f"triangle chain violated: {lhs} > {rhs}")
            if j >= sizes["subpath_pairs"]:
                continue
            for sub, ratio, problem in subrange_ratios(c, sp, d):
                subpaths_run += 1
                note(c, "subpath", sub.segments[0].entry, sub.segments[-1].exit,
                     ratio, problem)
    if k_obs is not None and max_ratio > parse_rational(k_obs):
        rec.count += 1
        rec.failures.append({
            "instance": None,
            "op": "bilipschitz-bound",
            "inputs": attaining,
            "detail": f"observed ratio {format_rational(max_ratio)} exceeds {k_obs}",
        })
    return rec.report({
        "instances": sizes["instances"],
        "pairs": pairs_run,
        "subpaths": subpaths_run,
        "star_terms": star_checked,
        "max_ratio": format_rational(max_ratio),
        "attaining_pair": attaining,
    })


def suite_oracle_agreement(seed: int, sizes: dict) -> dict:
    rec = _Recorder()
    histogram = {str(k): 0 for k in range(5)}
    pairs_run = 0
    for i in range(sizes["instances"]):
        params = dataclasses.replace(ORACLE_CORPUS, seed=_instance_seed(seed, i))
        c = generate_cluster(params)
        eps = default_eps(c)
        try:
            oracle = DiscretizedOracle(c, eps, cap=sizes["cap"])
        except SizeCapError as ex:
            rec.fail(dumps(c), "DiscretizedOracle",
                     [format_rational(eps)], str(ex))
            continue
        rng = random.Random(params.seed + 3)
        pts = sample_points(c, rng, 2 * sizes["pairs"])
        for j in range(sizes["pairs"]):
            x, y = pts[2 * j], pts[2 * j + 1]
            pairs_run += 1
            exact, profile = exact_distance(c, x, y)
            approx = oracle.distance(x, y)
            crossings = len(profile.edges)
            bound = 4 * eps * (crossings + 1)
            if not exact <= approx <= exact + bound:
                rec.fail(dumps(c), "discretized_distance",
                         [point_to_spec(x), point_to_spec(y),
                          format_rational(eps)],
                         f"deviation {format_rational(approx - exact)} "
                         f"outside [0, {format_rational(bound)}]")
                continue
            ratio = (approx - exact) / (eps * (crossings + 1))
            histogram[str(min(int(ratio), 4))] += 1
    return rec.report({"instances": sizes["instances"], "pairs": pairs_run,
                       "deviation_histogram": histogram})


def suite_remark_nice(seed: int, sizes: dict) -> dict:
    rec = _Recorder()
    for i in range(sizes["instances"]):
        length = 5 + i % 4
        params = dataclasses.replace(CORPUS, seed=_instance_seed(seed, i),
                                     tree_size=(length, length),
                                     tree_shape="path", piece_edges=(1, 8))
        c = generate_cluster(params)
        rng = random.Random(params.seed + 4)
        deep = length // 2   # at least two walls from either endpoint piece
        first, last = 0, length - 1
        sp_a = special_path(c, _floor_point_in(c, rng, first),
                            _floor_point_in(c, rng, last))
        sp_b = special_path(c, _floor_point_in(c, rng, first),
                            _floor_point_in(c, rng, last))
        for sp in (sp_a, sp_b):
            assert sp.vertices == tuple(range(length))
        seg_a = sp_a.segments[deep]
        seg_b = sp_b.segments[deep]
        if seg_a != seg_b:
            rec.fail(dumps(c), "special_path",
                     [point_to_spec(seg_a.entry), point_to_spec(seg_b.entry)],
                     f"deep segment at piece {deep} depends on the endpoints")
    return rec.report({"instances": sizes["instances"]})


def _reference_blocks(g) -> set[frozenset]:
    """Maximal vertex sets staying connected under any single removal."""

    def connected(vs: frozenset) -> bool:
        start = next(iter(vs))
        seen = {start}
        work = [start]
        while work:
            v = work.pop()
            for _, w in g.adjacency(v):
                if w in vs and w not in seen:
                    seen.add(w)
                    work.append(w)
        return seen == vs

    robust = []
    verts = list(g.vertices)
    for r in range(2, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            vs = frozenset(combo)
            if connected(vs) and all(connected(vs - {v}) for v in vs):
                robust.append(vs)
    return {vs for vs in robust if not any(vs < other for other in robust)}


def suite_tree_graded(seed: int, sizes: dict) -> dict:
    rec = _Recorder()
    rng = random.Random(seed + 5)
    for i in range(sizes["graphs"]):
        spec = random_graph_spec(rng, max_vertices=sizes["max_vertices"])
        g = graph_of_spec(spec)
        dec = blocks(g)
        fast = {frozenset(b) for b in dec.blocks}
        if fast != _reference_blocks(g):
            rec.fail(dumps_canonical(spec), "blocks", [], "decomposition "
                     "disagrees with the exhaustive reference")
            continue
        report = check_T1_T2(g, dec.blocks)
        if not (report["cover_ok"] and report["t1_ok"] and report["t2_ok"]):
            rec.fail(dumps_canonical(spec), "check_T1_T2", [],
                     dumps_canonical(report))
        seen_in: dict[int, int] = {}
        for b in dec.blocks:
            for v in b:
                seen_in[v] = seen_in.get(v, 0) + 1
        multi = tuple(sorted(v for v, n in seen_in.items() if n >= 2))
        if multi != cut_points(g):
            rec.fail(dumps_canonical(spec), "cut_points", [],
                     "cut vertices do not match multi-block vertices")
    return rec.report({"graphs": sizes["graphs"]})


def suite_isomorphism(seed: int, sizes: dict, fault: str | None) -> dict:
    rec = _Recorder()
    planted_count = sizes["pairs"] // 2
    found = agreements = spots = 0
    for i in range(sizes["pairs"]):
        params = dataclasses.replace(ISO_CORPUS, seed=_instance_seed(seed, i))
        planted = i < planted_count
        ca, cb = planted_pair(params) if planted else mutated_pair(params)
        if fault == "mutate-planted" and i == 0:
            cb = shrink_edge(cb, cb.tree.vertices[0], 0)
        triple = isomorphic(ca, cb)
        referee = brute_force_iso(ca, cb)
        if (triple is None) != (referee is None):
            rec.fail(dumps(ca), "isomorphic", [dumps(cb)],
                     "search and brute force disagree")
            continue
        if planted and triple is None:
            rec.fail(dumps(ca), "isomorphic", [dumps(cb)],
                     "planted isometric pair reported non-isomorphic")
            continue
        agreements += 1
        if triple is None:
            continue
        found += 1
        rng = random.Random(params.seed + 6)
        pts = sample_points(ca, rng, 2 * sizes["spot_checks"])
        for j in range(sizes["spot_checks"]):
            x, y = pts[2 * j], pts[2 * j + 1]
            spots += 1
            sx, sy = ca.supports(x), ca.supports(y)
            fx, fy = image_supports(triple, sx), image_supports(triple, sy)
            if route_distance(ca, route_between(ca, sx, sy))[0] != \
                    route_distance(cb, route_between(cb, fx, fy))[0]:
                rec.fail(dumps(ca), "point_image",
                         [point_to_spec(x), point_to_spec(y)],
                         "witness does not preserve this distance")
                break
    return rec.report({"pairs": sizes["pairs"], "planted": planted_count,
                       "witnesses": found, "agreements": agreements,
                       "spot_checks": spots})


def run_suite(config: dict) -> dict:
    """Execute the configured suites; deterministic apart from timings.
    A malformed config raises ValueError before any suite runs."""
    if not isinstance(config, dict):
        raise ValueError("config must be an object")
    known = {"seed", "suites", "sizes", "k_obs", "fault"}
    unknown = set(config) - known
    if unknown:
        raise ValueError(f"unknown config keys: {excerpt(sorted(unknown))}")
    seed = config.get("seed", 0)
    if type(seed) is not int:
        raise ValueError("seed must be an integer")
    names = config.get("suites", list(SUITE_NAMES))
    if not isinstance(names, list):
        raise ValueError("suites must be a list")
    bad = [n for n in names if n not in SUITE_NAMES]
    if bad:
        raise ValueError(f"unknown suites: {excerpt(bad)}")
    sizes_cfg = config.get("sizes", {})
    if not isinstance(sizes_cfg, dict):
        raise ValueError("sizes must be an object")
    for name, sizes in sizes_cfg.items():
        if name not in DESK_SIZES:
            raise ValueError(f"sizes for an unknown suite {excerpt(name)}")
        if not (isinstance(sizes, dict) and sizes.keys() <= DESK_SIZES[name].keys()
                and all(type(n) is int and n >= 0 for n in sizes.values())):
            raise ValueError(f"sizes of {name} must map some of "
                             f"{sorted(DESK_SIZES[name])} to non-negative integers")
    k_obs = config.get("k_obs")
    if k_obs is not None:
        parse_rational(k_obs)   # a canonical rational string, or ValueError
    fault = config.get("fault")
    if fault not in (None, "mutate-planted"):
        raise ValueError(f"unknown fault flag {excerpt(fault)}")

    suites = {
        "metric-axioms": lambda sizes: suite_metric_axioms(seed, sizes),
        "bilipschitz": lambda sizes: suite_bilipschitz(seed, sizes, k_obs),
        "oracle-agreement": lambda sizes: suite_oracle_agreement(seed, sizes),
        "remark-nice": lambda sizes: suite_remark_nice(seed, sizes),
        "tree-graded": lambda sizes: suite_tree_graded(seed, sizes),
        "isomorphism": lambda sizes: suite_isomorphism(seed, sizes, fault),
    }
    report = {"schema_version": SCHEMA_VERSION, "seed": seed, "suites": {}}
    overall = True
    total0 = time.perf_counter()
    for name in SUITE_NAMES:
        if name not in names:
            continue
        sizes = dict(DESK_SIZES[name])
        sizes.update(sizes_cfg.get(name, {}))
        t0 = time.perf_counter()
        result = suites[name](sizes)
        result["seconds"] = round(time.perf_counter() - t0, 3)
        report["suites"][name] = result
        overall = overall and result["pass"]
    report["pass"] = overall
    report["total_seconds"] = round(time.perf_counter() - total0, 3)
    return report


def strip_timings(report: dict) -> dict:
    """Copy of a report without wall-clock fields, for byte comparison."""
    out = {k: v for k, v in report.items() if k != "total_seconds"}
    out["suites"] = {
        name: {k: v for k, v in suite.items() if k != "seconds"}
        for name, suite in report["suites"].items()
    }
    return out
