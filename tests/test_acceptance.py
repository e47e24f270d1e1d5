"""Full-scale acceptance run: one test per criterion, frozen sizes.

Sizes, the seed, and the calibrated path/distance ratio bound k_obs live
in config/acceptance.json; nothing here is sampled ad hoc.  Each suite
runs once (module-scoped fixtures) and the tests assert the criterion it
carries, its stated runtime budget where one exists, and print a PASS
line with the counters (visible under pytest -s).

Expected wall time is one to two minutes, dominated by the bilipschitz
corpus (50,000 pairs).
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from flipcluster.jsonutil import dumps_canonical
from flipcluster.rational import parse_rational
from flipcluster.suites import (
    run_suite,
    strip_timings,
    suite_bilipschitz,
    suite_isomorphism,
    suite_metric_axioms,
    suite_oracle_agreement,
    suite_remark_nice,
    suite_tree_graded,
)

pytestmark = pytest.mark.acceptance

CONFIG = json.loads(
    (Path(__file__).resolve().parent.parent / "config" / "acceptance.json")
    .read_text())
SEED = CONFIG["seed"]
SIZES = CONFIG["sizes"]
# sha256(dumps_canonical(strip_timings(run_suite(CONFIG))))
ACCEPTANCE_GOLDEN = "4e35e96387e0d0140191921a46552b86f7bbcc379445625838753119702edf3e"


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _report(name: str, result: dict, seconds: float) -> None:
    verdict = "PASS" if result["pass"] else "FAIL"
    print(f"{verdict} {name}: {result['counters']} in {seconds:.1f}s")
    for failure in result["failures"]:
        print(f"  repro: {json.dumps(failure)[:400]}")


@pytest.fixture(scope="module")
def metric_run():
    return _timed(suite_metric_axioms, SEED, SIZES["metric-axioms"])


@pytest.fixture(scope="module")
def bilipschitz_run():
    return _timed(suite_bilipschitz, SEED, SIZES["bilipschitz"],
                  CONFIG["k_obs"])


@pytest.fixture(scope="module")
def oracle_run():
    return _timed(suite_oracle_agreement, SEED, SIZES["oracle-agreement"])


def test_metric_axioms(metric_run):
    result, seconds = metric_run
    _report("metric-axioms", result, seconds)
    sizes = SIZES["metric-axioms"]
    assert result["counters"]["triples"] == sizes["instances"] * sizes["triples"]
    assert result["pass"], result["failures"]
    assert seconds < 120, f"metric axioms took {seconds:.1f}s, budget 120s"


def test_bilipschitz_ratio_bound(bilipschitz_run):
    result, seconds = bilipschitz_run
    _report("bilipschitz", result, seconds)
    sizes = SIZES["bilipschitz"]
    assert result["counters"]["pairs"] == sizes["instances"] * sizes["pairs"]
    ratio_failures = [f for f in result["failures"]
                      if f["op"] in ("special_path", "subpath",
                                     "bilipschitz-bound")]
    assert not ratio_failures, ratio_failures
    max_ratio = parse_rational(result["counters"]["max_ratio"])
    assert max_ratio <= parse_rational(CONFIG["k_obs"])
    assert result["pass"], result["failures"]


def test_star_inequality_audit(bilipschitz_run):
    result, seconds = bilipschitz_run
    star_failures = [f for f in result["failures"] if f["op"] == "star_audit"]
    verdict = "PASS" if not star_failures and result["pass"] else "FAIL"
    print(f"{verdict} star-audit: {result['counters']['star_terms']} terms, "
          f"{len(star_failures)} violations")
    assert result["counters"]["star_terms"] > 0
    assert not star_failures, star_failures
    assert result["pass"], result["failures"]


def test_oracle_agreement(oracle_run):
    result, seconds = oracle_run
    _report("oracle-agreement", result, seconds)
    sizes = SIZES["oracle-agreement"]
    assert result["counters"]["pairs"] == sizes["instances"] * sizes["pairs"]
    assert result["pass"], result["failures"]
    assert seconds < 60, f"oracle agreement took {seconds:.1f}s, budget 60s"


def test_remark_nice_deep_segments():
    result, seconds = _timed(suite_remark_nice, SEED, SIZES["remark-nice"])
    _report("remark-nice", result, seconds)
    assert result["counters"]["instances"] == SIZES["remark-nice"]["instances"]
    assert result["pass"], result["failures"]


def test_tree_graded_blocks():
    result, seconds = _timed(suite_tree_graded, SEED, SIZES["tree-graded"])
    _report("tree-graded", result, seconds)
    assert result["counters"]["graphs"] == SIZES["tree-graded"]["graphs"]
    assert result["pass"], result["failures"]


def test_isomorphism_referee():
    result, seconds = _timed(suite_isomorphism, SEED, SIZES["isomorphism"],
                             None)
    _report("isomorphism", result, seconds)
    counters = result["counters"]
    sizes = SIZES["isomorphism"]
    assert counters["pairs"] == sizes["pairs"]
    assert counters["planted"] == sizes["pairs"] // 2
    assert counters["agreements"] == sizes["pairs"]
    assert counters["witnesses"] >= counters["planted"]
    assert counters["spot_checks"] == \
        counters["witnesses"] * sizes["spot_checks"]
    assert result["pass"], result["failures"]
    assert seconds < 60, f"isomorphism took {seconds:.1f}s, budget 60s"


def test_determinism_byte_identical():
    config = {"seed": SEED}
    first, t1 = _timed(run_suite, config)
    second, t2 = _timed(run_suite, config)
    a = dumps_canonical(strip_timings(first))
    b = dumps_canonical(strip_timings(second))
    same = a == b
    print(f"{'PASS' if same else 'FAIL'} determinism: two full runs, "
          f"{len(a)} bytes each, in {t1 + t2:.1f}s")
    assert first["pass"] and second["pass"]
    assert same, "reports differ after stripping timing fields"


def test_acceptance_golden_hash():
    """The full acceptance-size report is pinned byte for byte, as the
    desk-size one is: refactors of the library must not move it."""
    report, seconds = _timed(run_suite, CONFIG)
    digest = hashlib.sha256(
        dumps_canonical(strip_timings(report)).encode()).hexdigest()
    print(f"{'PASS' if digest == ACCEPTANCE_GOLDEN else 'FAIL'} acceptance "
          f"golden hash in {seconds:.1f}s")
    assert digest == ACCEPTANCE_GOLDEN
