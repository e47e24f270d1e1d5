"""Full-scale acceptance run: one test per criterion, frozen sizes.

Sizes, the seed, and the calibrated path/distance ratio bound k_obs live
in config/acceptance.json; nothing here is sampled ad hoc.  The whole
configured run happens once (the module-scoped ``acceptance_report``
fixture runs ``run_suite(CONFIG)``): each test reads its suite's result
from that report, asserts the criterion it carries and its stated
runtime budget, taken from the suite's own ``seconds``, and prints a PASS
line with the counters (visible under pytest -s).  The golden-hash test
hashes the same report.  The config names every size key of every suite,
so run_suite calls each suite with exactly the arguments a direct call
would take.

Expected wall time is under a minute, dominated by the bilipschitz
corpus (50,000 pairs).
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from flipcluster.jsonutil import dumps_canonical
from flipcluster.rational import parse_rational
from flipcluster.suites import DESK_SIZES, run_suite, strip_timings

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


def _report(name: str, result: dict) -> None:
    verdict = "PASS" if result["pass"] else "FAIL"
    print(f"{verdict} {name}: {result['counters']} in {result['seconds']:.1f}s")
    for failure in result["failures"]:
        print(f"  repro: {json.dumps(failure)[:400]}")


@pytest.fixture(scope="module")
def acceptance_report():
    return run_suite(CONFIG)


def test_config_sizes_every_suite_in_full():
    """The config names every size key of every suite, so no suite in the
    shared report runs at a desk size the config left out."""
    assert {name: sizes.keys() for name, sizes in SIZES.items()} == \
        {name: sizes.keys() for name, sizes in DESK_SIZES.items()}


def test_metric_axioms(acceptance_report):
    result = acceptance_report["suites"]["metric-axioms"]
    _report("metric-axioms", result)
    sizes = SIZES["metric-axioms"]
    assert result["counters"]["triples"] == sizes["instances"] * sizes["triples"]
    assert result["pass"], result["failures"]
    seconds = result["seconds"]
    assert seconds < 120, f"metric axioms took {seconds:.1f}s, budget 120s"


def test_bilipschitz_ratio_bound(acceptance_report):
    result = acceptance_report["suites"]["bilipschitz"]
    _report("bilipschitz", result)
    sizes = SIZES["bilipschitz"]
    assert result["counters"]["pairs"] == sizes["instances"] * sizes["pairs"]
    ratio_failures = [f for f in result["failures"]
                      if f["op"] in ("special_path", "subpath",
                                     "bilipschitz-bound")]
    assert not ratio_failures, ratio_failures
    max_ratio = parse_rational(result["counters"]["max_ratio"])
    assert max_ratio <= parse_rational(CONFIG["k_obs"])
    assert result["pass"], result["failures"]


def test_star_inequality_audit(acceptance_report):
    result = acceptance_report["suites"]["bilipschitz"]
    star_failures = [f for f in result["failures"] if f["op"] == "star_audit"]
    verdict = "PASS" if not star_failures and result["pass"] else "FAIL"
    print(f"{verdict} star-audit: {result['counters']['star_terms']} terms, "
          f"{len(star_failures)} violations")
    assert result["counters"]["star_terms"] > 0
    assert not star_failures, star_failures
    assert result["pass"], result["failures"]


def test_oracle_agreement(acceptance_report):
    result = acceptance_report["suites"]["oracle-agreement"]
    _report("oracle-agreement", result)
    sizes = SIZES["oracle-agreement"]
    assert result["counters"]["pairs"] == sizes["instances"] * sizes["pairs"]
    assert result["pass"], result["failures"]
    seconds = result["seconds"]
    assert seconds < 60, f"oracle agreement took {seconds:.1f}s, budget 60s"


def test_remark_nice_deep_segments(acceptance_report):
    result = acceptance_report["suites"]["remark-nice"]
    _report("remark-nice", result)
    assert result["counters"]["instances"] == SIZES["remark-nice"]["instances"]
    assert result["pass"], result["failures"]


def test_tree_graded_blocks(acceptance_report):
    result = acceptance_report["suites"]["tree-graded"]
    _report("tree-graded", result)
    assert result["counters"]["graphs"] == SIZES["tree-graded"]["graphs"]
    assert result["pass"], result["failures"]


def test_isomorphism_referee(acceptance_report):
    result = acceptance_report["suites"]["isomorphism"]
    _report("isomorphism", result)
    counters = result["counters"]
    sizes = SIZES["isomorphism"]
    assert counters["pairs"] == sizes["pairs"]
    assert counters["planted"] == sizes["pairs"] // 2
    assert counters["agreements"] == sizes["pairs"]
    assert counters["witnesses"] >= counters["planted"]
    assert counters["spot_checks"] == \
        counters["witnesses"] * sizes["spot_checks"]
    assert result["pass"], result["failures"]
    seconds = result["seconds"]
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


def test_acceptance_golden_hash(acceptance_report):
    """The full acceptance-size report is pinned byte for byte, as the
    desk-size one is: refactors of the library must not move it."""
    digest = hashlib.sha256(
        dumps_canonical(strip_timings(acceptance_report)).encode()).hexdigest()
    print(f"{'PASS' if digest == ACCEPTANCE_GOLDEN else 'FAIL'} acceptance "
          f"golden hash in {acceptance_report['total_seconds']:.1f}s")
    assert digest == ACCEPTANCE_GOLDEN
