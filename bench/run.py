"""flipcluster benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload audit --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, and the run refuses to start without it.  Each
workload is a closed loop with one client: one process, one thread, the
next op starting when the previous one returns.  A run makes whole
passes over the workload's op list, each after a fresh set-up, for as
long as another pass fits in ``--seconds`` (always at least one); the op
lists are sized so that one pass fills most of the default run time.
Set-up is repeated at least three times and ``setup_s`` is the median.

Times are reported in seconds at a reference host speed: the host's
speed drifts by up to two times within a run, and ``yardstick.py``
tracks it with a probe every 20 ms and divides it out (the raw figures
stay in the run record).  ``ops_per_s`` is the median rate over seven
interleaved slices of each pass, ``latency_p50_ms`` and
``latency_p90_ms`` are percentiles over every op of the run.

The last line of output is one JSON object with the metrics named in
BENCHMARK.json: the end-to-end ones with ``--trace 0``, the per-layer
ones with ``--trace 1``; the line before it is the run record (machine,
seed, op and sample counts, digests, problems), also stored under
``bench/runs/``.  The traced run first measures untraced, as ``--trace
0`` does, then repeats one set-up and pass with every function in
``TRACED`` wrapped; its per-layer figures cover that one pass, and
``trace_overhead`` is its throughput relative to the untraced passes.

Every op checks its own result, and a pass's outputs are hashed into a
result digest: all passes of a run must agree, the traced pass must
agree with them, and for the recorded seed the digest must equal the one
in ``bench/digests.json``.  Each run also checks the desk golden hash
of the suites.  That hash depends only on the library sources and the
Python version, and takes 10-15 s to compute, so it is computed once
per set of sources and kept, keyed by their digest, in
``bench/runs/golden.json``; a run whose sources match the key reuses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import weakref
from pathlib import Path

from tracer import Patcher, Tracer, selftest
from yardstick import Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# sha256(dumps_canonical(strip_timings(run_suite({"seed": 42}))))
DESK_GOLDEN = "edbdc60d07cc9025df779c563c32203552b0559d7c6deb7056807110c35d55a7"
MIN_SETUPS = 3
SETUP_SECONDS = 2.0   # cheap set-ups repeat until this much set-up time is sampled
MAX_SETUPS = 50
MAX_ERRORS_KEPT = 3
# ops_per_s is the median rate over interleaved slices of each pass (op i
# in slice i mod 7), so one rare op that runs for seconds moves one slice,
# not the figure.  7 is prime to every workload's ops per instance and
# size cycle, so each slice samples every kind of op.
THROUGHPUT_SLICES = 7

# Library functions the traced run wraps, by module; each reports
# <module>.<qualname>.calls and .self_s.
TRACED = {
    "generator": ["generate_cluster", "planted_pair", "mutated_pair", "sample_points"],
    "cluster": ["validate", "Cluster.supports", "Cluster.mark_relation",
                "SimplicialTree.path"],
    "metric_tree": ["MetricTree.distance", "Line.point_at", "Line.coord_of",
                    "project_to_line", "line_gate"],
    "piecewise_linear": ["minimize_convex_pl"],
    "distance_oracle": ["exact_distance", "crossing_objective",
                        "DiscretizedOracle.__init__", "DiscretizedOracle.distance"],
    "special_path": ["special_path", "star_audit"],
    "cluster_iso": ["isomorphic", "brute_force_iso", "verify_good", "piece_normal_form",
                    "marked_tree_extensions", "extend_choices"],
}
RESUMED = ["cluster_iso.marked_tree_extensions", "cluster_iso.extend_choices"]
TOTALS = ["cluster_iso.isomorphic", "cluster_iso.brute_force_iso"]
TREE_DISTANCE = "metric_tree.MetricTree.distance"
MINIMIZE = "piecewise_linear.minimize_convex_pl"
CROSSING_BUCKETS = [(1, 1), (2, 3), (4, 7), (8, 15), (16, None)]
ORACLE_INIT = "distance_oracle.DiscretizedOracle.__init__"
ORACLE_NODES = "distance_oracle.DiscretizedOracle.nodes"


def _bucket_name(lo: int, hi: int | None) -> str:
    if hi is None:
        return f"crossings_{lo}-up"
    return f"crossings_{lo}" if lo == hi else f"crossings_{lo}-{hi}"


def _crossing_bucket(args, kwargs) -> str | None:
    """Size bucket of a minimize_convex_pl call: two variables per crossing."""
    box = kwargs["box"] if "box" in kwargs else args[1]
    n = len(box) // 2
    for lo, hi in CROSSING_BUCKETS:
        if lo <= n and (hi is None or n <= hi):
            return _bucket_name(lo, hi)
    return None


def layer_metrics(tr) -> dict[str, float]:
    """Every per-layer metric except trace_overhead, read off a tracer."""
    out: dict[str, float] = {}
    for module, names in TRACED.items():
        for qualname in names:
            name = f"{module}.{qualname}"
            st = tr.stat(name)
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self / 1e9
            if name in RESUMED:
                out[f"{name}.resumes"] = st.resumes
            if name in TOTALS:
                out[f"{name}.total_s"] = st.total / 1e9
            if name == TREE_DISTANCE:
                cold = tr.stat(f"{name}.cold")
                out[f"{name}.cold_calls"] = cold.calls
                out[f"{name}.cold_s"] = cold.self / 1e9
            if name == MINIMIZE:
                for lo, hi in CROSSING_BUCKETS:
                    bucket = tr.stat(f"{name}.{_bucket_name(lo, hi)}")
                    out[f"{name}.{_bucket_name(lo, hi)}.calls"] = bucket.calls
                    out[f"{name}.{_bucket_name(lo, hi)}.self_s"] = bucket.self / 1e9
            if name == ORACLE_INIT:
                out[ORACLE_NODES] = tr.counts.get(ORACLE_NODES, 0)
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" if name.endswith("_s") else "count"
             for name in layer_metrics(Tracer())}
    units["trace_overhead"] = "ratio"
    return units


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- measuring ------------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.digest = hashlib.sha256()
        self.spans: list[tuple[float, int, int]] = []   # Yardstick spans, one per op
        self.failed = 0
        self.errors: list[str] = []

    @property
    def latencies(self) -> list[float]:
        """Raw seconds, one per op."""
        return [span[0] for span in self.spans]


def run_pass(ops, yard: Yardstick) -> PassResult:
    """Run every op once, each as a span of the yardstick."""
    res = PassResult()
    for op in ops:
        mark = yard.start()
        try:
            out = op()
        except Exception as ex:   # every exception is a failed op, reported below
            out = f"error {type(ex).__name__}"
            res.failed += 1
            if len(res.errors) < MAX_ERRORS_KEPT:
                res.errors.append(traceback.format_exc(limit=4))
        res.spans.append(yard.stop(mark))
        res.digest.update(out.encode())
        res.digest.update(b"\n")
    return res


def measure(setup, seed: int, seconds: float) -> dict:
    """Whole passes, each after a fresh set-up, while another pass still
    fits in `seconds`; always at least one.  Set-ups and ops are spans of
    one yardstick; their times come back raw and scaled."""
    setups: list[tuple[float, int, int]] = []
    passes: list[PassResult] = []
    with Yardstick() as yard:
        start = time.perf_counter()
        last = 0.0
        while not passes or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            mark = yard.start()
            ops = setup(seed)
            setups.append(yard.stop(mark))
            passes.append(run_pass(ops, yard))
            del ops
            last = time.perf_counter() - t0
        while len(setups) < MIN_SETUPS or (sum(s[0] for s in setups) < SETUP_SECONDS
                                           and len(setups) < MAX_SETUPS):
            mark = yard.start()
            setup(seed)
            setups.append(yard.stop(mark))
    return {
        "setups": [yard.scaled(s) for s in setups],
        "raw_setups": [s[0] for s in setups],
        "passes": passes,
        "scaled_latencies": [[yard.scaled(sp) for sp in p.spans] for p in passes],
        "probes": len(yard.speeds),
        "median_speed": yard.median_speed(),
    }


def throughput(latencies: list[float]) -> list[float]:
    """Ops per second of each interleaved slice of one pass's latencies."""
    rates = []
    for j in range(min(THROUGHPUT_SLICES, len(latencies))):
        part = latencies[j::THROUGHPUT_SLICES]
        rates.append(len(part) / sum(part))
    return rates


def _quantiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def traced_pass(setup, seed: int) -> tuple[PassResult, dict, list[str]]:
    """One set-up plus pass with the library wrapped; restores it after.
    It runs under a yardstick too, for a scaled trace_overhead; spans
    leave out the time its probes interrupt them for."""
    yard = Yardstick()
    tr = Tracer(clock=lambda: time.perf_counter_ns() - round(yard.probe_s * 1e9))
    patcher = Patcher("flipcluster")
    seen_trees: weakref.WeakSet = weakref.WeakSet()

    def first_distance(args, kwargs):
        tree = args[0]
        if tree in seen_trees:
            return None
        seen_trees.add(tree)
        return "cold"

    def count_nodes(args, result):
        tr.add_count(ORACLE_NODES, len(args[0].adj))

    hooks = {
        TREE_DISTANCE: {"split": first_distance},
        MINIMIZE: {"split": _crossing_bucket},
        ORACLE_INIT: {"after": count_nodes},
    }
    try:
        for module, names in TRACED.items():
            for qualname in names:
                name = f"{module}.{qualname}"
                patcher.patch(module, qualname,
                              lambda fn, name=name: tr.wrap(name, fn, **hooks.get(name, {})))
        with yard:
            mark = yard.start()
            ops = setup(seed)
            setup_span = yard.stop(mark)
            res = run_pass(ops, yard)
            del ops
    finally:
        unrestored = patcher.restore()

    metrics = layer_metrics(tr)
    return res, {"metrics": metrics, "setup_s": yard.scaled(setup_span),
                 "scaled_latencies": [yard.scaled(sp) for sp in res.spans]}, unrestored


# -- run record -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def sources_digest() -> str:
    """sha256 over the Python version and every library source file."""
    h = hashlib.sha256(platform.python_version().encode())
    for path in sorted((SRC / "flipcluster").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def desk_golden_hash(cache: Path) -> tuple[str, bool]:
    """The desk golden hash, and whether this run computed it (rather
    than reusing the value stored for the same sources)."""
    key = sources_digest()
    try:
        stored = json.loads(cache.read_text())
        if stored["sources"] == key:
            return stored["hash"], False
    except (OSError, ValueError, KeyError, TypeError):
        pass
    from flipcluster.jsonutil import dumps_canonical
    from flipcluster.suites import run_suite, strip_timings

    report = strip_timings(run_suite({"seed": 42}))
    golden = hashlib.sha256(dumps_canonical(report).encode()).hexdigest()
    cache.write_text(json.dumps({"sources": key, "hash": golden}) + "\n")
    return golden, True


def _declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def main(argv=None) -> int:
    with open(HERE / "digests.json") as fh:
        recorded = json.load(fh)   # result digests of the default seed
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=recorded["seed"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "flipcluster" / "__init__.py").is_file():
        print(f"error: no flipcluster sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flipcluster
    if Path(flipcluster.__file__).resolve().parent != SRC / "flipcluster":
        print(f"error: imported flipcluster from {flipcluster.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = _declared_metrics()
    if e2e_units != END_TO_END_UNITS or layer_units != per_layer_units():
        print("error: BENCHMARK.json metrics differ from the ones this "
              "benchmark reports", file=sys.stderr)
        return 2

    setup = WORKLOADS[args.workload]
    problems: list[str] = []
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "loop": "closed, 1 client, 1 thread, 1 process",
    }
    if args.trace:
        problems += [f"tracer self-test: {p}" for p in selftest()]

    run = measure(setup, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = run["passes"]
    digests = {p.digest.hexdigest() for p in passes}
    digest = passes[0].digest.hexdigest()
    if len(digests) != 1:
        problems.append("passes of one run produced different outputs")
    latencies = [t for pass_ in run["scaled_latencies"] for t in pass_]
    raw_latencies = [t for p in passes for t in p.latencies]
    attempted = len(latencies)
    failed = sum(p.failed for p in passes)
    p50, p90 = _quantiles(latencies)
    ops_per_s = statistics.median(
        [r for pass_ in run["scaled_latencies"] for r in throughput(pass_)])
    raw_ops_per_s = statistics.median([r for p in passes for r in throughput(p.latencies)])
    raw_p50, raw_p90 = _quantiles(raw_latencies)
    record["whole_pass_ops_per_s"] = attempted / sum(latencies)
    record["slowest_op_ms"] = max(latencies) * 1e3
    record["raw"] = {
        "ops_per_s": raw_ops_per_s,
        "latency_p50_ms": raw_p50 * 1e3,
        "latency_p90_ms": raw_p90 * 1e3,
        "setup_s": statistics.median(run["raw_setups"]),
    }
    record["yardstick"] = {"probes": run["probes"], "median_speed": run["median_speed"]}
    record.update({
        "passes": len(passes),
        "ops_per_pass": len(passes[0].spans),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "latency_samples": attempted,
        "samples_above_p90": sum(t > p90 for t in latencies),
        "setup_samples": len(run["setups"]),
        "result_digest": digest,
        "errors": [e for p in passes for e in p.errors][:MAX_ERRORS_KEPT],
    })

    if args.seed == recorded["seed"]:
        want = recorded["digests"].get(args.workload)
        record["recorded_digest_match"] = want == digest
        if want != digest:
            problems.append(f"result digest {digest} differs from the recorded {want}")

    if args.trace:
        res, traced, unrestored = traced_pass(setup, args.seed)
        metrics = traced["metrics"]
        traced_ops_per_s = statistics.median(throughput(traced["scaled_latencies"]))
        metrics["trace_overhead"] = traced_ops_per_s / ops_per_s
        record["trace_overhead"] = metrics["trace_overhead"]
        record["traced_setup_s"] = traced["setup_s"]
        if res.digest.hexdigest() != digest:
            problems.append("the traced pass produced different outputs")
        attempted += len(res.spans)
        failed += res.failed
        if unrestored:
            problems.append(f"library attributes not restored: {unrestored}")
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "setup_s": statistics.median(run["setups"]),
            "peak_rss_mb": peak_rss_mb,
        }

    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    runs_dir = HERE / "runs"
    runs_dir.mkdir(exist_ok=True)
    golden, computed = desk_golden_hash(runs_dir / "golden.json")
    record["desk_golden_hash"] = golden
    record["desk_golden_hash_computed"] = computed
    if golden != DESK_GOLDEN:
        problems.append(f"desk golden hash {golden} differs from {DESK_GOLDEN}")
    record["problems"] = problems

    units = layer_units if args.trace else e2e_units
    print(json.dumps({"record": record}, sort_keys=True))
    out_path = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
