"""Generator determinism and validity, suite reports, and the CLI.

The generator promises: same seed, same bytes; every emitted instance
passes validation; planted pairs really are isometric.  The suite runner
promises a stable report schema and byte-identical reruns once timing
fields are stripped.  CLI tests call main() with an argv list and read
stdout, except one subprocess check that runs the `flipcluster` entry
point declared under [project.scripts] in pyproject.toml the way an
installed console-script launcher would.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from flipcluster import cli
from flipcluster.cluster import to_spec, validate
from flipcluster.cluster_iso import brute_force_iso, isomorphic
from flipcluster.generator import (
    GeneratorParams,
    generate,
    generate_cluster,
    mutated_pair,
    planted_pair,
    random_graph_spec,
    sample_points,
    shrink_edge,
    slide_mark,
    widen_window,
)
from flipcluster.jsonutil import dumps_canonical
from flipcluster.rational import parse_rational
from flipcluster.suites import MAX_REPROS, _Recorder, run_suite, strip_timings

SMALL = dict(tree_size=(2, 4), piece_edges=(1, 8))
TINY = dict(tree_size=(2, 3), piece_edges=(1, 4))


class TestGeneratorParams:
    def test_defaults_accepted(self):
        GeneratorParams(seed=0)

    @pytest.mark.parametrize("kw", [
        {"tree_size": (3, 2)},
        {"tree_size": (0, 4)},
        {"piece_edges": (5, 1)},
        {"edge_length": (parse_rational("0"), parse_rational("2"))},
        {"edge_length": (parse_rational("1/2"), parse_rational("4/3"))},
        {"max_denominator": 3},
        {"slack": parse_rational("1")},
        {"tree_shape": "ring"},
    ])
    def test_rejects_bad_params(self, kw):
        with pytest.raises(ValueError):
            GeneratorParams(seed=0, **kw)


class TestGenerate:
    def test_same_seed_same_bytes(self):
        a = dumps_canonical(generate(GeneratorParams(seed=9, **SMALL)))
        b = dumps_canonical(generate(GeneratorParams(seed=9, **SMALL)))
        assert a == b

    def test_different_seeds_differ(self):
        a = dumps_canonical(generate(GeneratorParams(seed=1, **SMALL)))
        b = dumps_canonical(generate(GeneratorParams(seed=2, **SMALL)))
        assert a != b

    def test_bulk_validity_and_bounds(self):
        for seed in range(25):
            params = GeneratorParams(seed=seed, **SMALL)
            c = generate_cluster(params)
            validate(to_spec(c))
            assert 2 <= len(c.tree.vertices) <= 4
            for piece in c.pieces.values():
                assert 1 <= len(piece.tree.edges) <= 8

    def test_path_shape_is_a_path(self):
        params = GeneratorParams(seed=3, tree_size=(5, 5), piece_edges=(1, 4),
                                 tree_shape="path")
        c = generate_cluster(params)
        assert c.tree.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_sample_points_are_resolvable(self):
        c = generate_cluster(GeneratorParams(seed=4, **SMALL))
        rng = random.Random(4)
        pts = sample_points(c, rng, 12)
        assert len(pts) == 12
        for p in pts:
            assert c.supports(p)
            assert c.same_point(p, c.canonical(p))


class TestPlantedPairs:
    def test_planted_pairs_are_isomorphic(self):
        for seed in range(8):
            ca, cb = planted_pair(GeneratorParams(seed=seed, **SMALL))
            validate(to_spec(cb))
            assert isomorphic(ca, cb) is not None, f"seed {seed}"

    def test_tiny_planted_pairs_agree_with_brute(self):
        for seed in range(5):
            ca, cb = planted_pair(GeneratorParams(seed=seed, **TINY))
            assert brute_force_iso(ca, cb) is not None, f"seed {seed}"

    def test_planted_pair_deterministic(self):
        pairs = [planted_pair(GeneratorParams(seed=6, **SMALL))
                 for _ in range(2)]
        assert dumps_canonical(to_spec(pairs[0][1])) == \
            dumps_canonical(to_spec(pairs[1][1]))


class TestMutations:
    def test_mutated_pairs_stay_valid(self):
        for seed in range(10):
            ca, cb = mutated_pair(GeneratorParams(seed=seed, **SMALL))
            validate(to_spec(ca))
            validate(to_spec(cb))

    def test_mutated_pair_deterministic(self):
        a1, b1 = mutated_pair(GeneratorParams(seed=7, **SMALL))
        a2, b2 = mutated_pair(GeneratorParams(seed=7, **SMALL))
        assert dumps_canonical(to_spec(b1)) == dumps_canonical(to_spec(b2))

    def test_each_mutation_preserves_validity(self):
        c = generate_cluster(GeneratorParams(seed=11, **SMALL))
        for v in c.tree.vertices:
            validate(to_spec(widen_window(c, v)))
            piece = c.pieces[v]
            for k in range(len(piece.tree.edges)):
                validate(to_spec(shrink_edge(c, v, k)))
            for eid in range(len(c.tree.edges)):
                a, b = c.tree.edges[eid]
                if v in (a, b):
                    validate(to_spec(slide_mark(c, v, eid)))

    def test_shrink_edge_shrinks(self):
        c = generate_cluster(GeneratorParams(seed=11, **SMALL))
        v = c.tree.vertices[0]
        c2 = shrink_edge(c, v, 0)
        old = c.pieces[v].tree.edges[0].length
        new = c2.pieces[v].tree.edges[0].length
        assert new < old


class TestRandomGraphSpec:
    def test_specs_parse_and_vary(self):
        rng = random.Random(0)
        sizes = set()
        for _ in range(20):
            spec = random_graph_spec(rng, max_vertices=8)
            assert set(spec) == {"vertices", "edges"}
            sizes.add(len(spec["vertices"]))
            for a, b, length in spec["edges"]:
                assert a != b
                assert parse_rational(length) > 0
        assert len(sizes) > 1


class TestRecorder:
    def test_caps_stored_repros_but_counts_all(self):
        rec = _Recorder()
        for i in range(MAX_REPROS + 4):
            rec.fail("{}", "op", [i], f"failure {i}")
        assert rec.count == MAX_REPROS + 4
        assert len(rec.failures) == MAX_REPROS


TINY_SUITE = {
    "seed": 5,
    "suites": ["tree-graded", "isomorphism"],
    "sizes": {
        "tree-graded": {"graphs": 6, "max_vertices": 6},
        "isomorphism": {"pairs": 4, "spot_checks": 3},
    },
}


class TestRunSuite:
    def test_report_schema(self):
        report = run_suite(TINY_SUITE)
        assert set(report) == {"schema_version", "seed", "suites", "pass",
                               "total_seconds"}
        assert report["schema_version"] == 1
        assert report["seed"] == 5
        assert set(report["suites"]) == {"tree-graded", "isomorphism"}
        for suite in report["suites"].values():
            assert set(suite) == {"pass", "counters", "failures", "seconds"}
        assert report["pass"] is True

    def test_rerun_byte_identical_after_strip(self):
        a = dumps_canonical(strip_timings(run_suite(TINY_SUITE)))
        b = dumps_canonical(strip_timings(run_suite(TINY_SUITE)))
        assert a == b

    def test_empty_suite_list_trivially_passes(self):
        report = run_suite({"suites": []})
        assert report["pass"] is True
        assert report["suites"] == {}

    @pytest.mark.parametrize("config", [
        {"bogus": 1},
        {"seed": "5"},
        {"suites": ["metric"]},
        {"fault": "drop-tables"},
    ])
    def test_rejects_bad_config(self, config):
        with pytest.raises(ValueError):
            run_suite(config)

    def test_fault_injection_is_caught(self):
        config = dict(TINY_SUITE, fault="mutate-planted",
                      suites=["isomorphism"])
        report = run_suite(config)
        assert report["pass"] is False
        failures = report["suites"]["isomorphism"]["failures"]
        assert failures
        assert set(failures[0]) == {"instance", "op", "inputs", "detail"}
        assert "non-isomorphic" in failures[0]["detail"]
        # the repro embeds a loadable instance
        validate(json.loads(failures[0]["instance"]))


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


@pytest.fixture
def small_instance(tmp_path):
    c = generate_cluster(GeneratorParams(seed=4, **TINY))
    path = tmp_path / "inst.json"
    path.write_text(dumps_canonical(to_spec(c)))
    return c, str(path)


class TestCLI:
    def test_generate_then_validate(self, tmp_path):
        out = tmp_path / "c.json"
        rc, _ = run_cli("generate", "--seed", "3", "--out", str(out))
        assert rc == 0
        rc, text = run_cli("validate", str(out))
        assert rc == 0
        assert json.loads(text) == {"valid": True}

    def test_generate_output_is_library_dumps(self, tmp_path):
        from flipcluster.cluster import dumps
        want = dumps(generate_cluster(GeneratorParams(seed=1)))
        out = tmp_path / "c.json"
        rc, text = run_cli("generate", "--seed", "1", "--out", str(out))
        assert rc == 0 and text == ""
        assert out.read_bytes() == want.encode()
        rc, text = run_cli("generate", "--seed", "1")
        assert rc == 0
        assert text.encode() == want.encode()

    def test_generate_config_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tree_size": [2, 2], "piece_edges": [1, 2]}))
        rc, text = run_cli("generate", "--seed", "3", "--config", str(cfg))
        assert rc == 0
        spec = json.loads(text)
        assert len(spec["tree"]["vertices"]) == 2

    def test_generate_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"slack": "1"}))
        rc, _ = run_cli("generate", "--seed", "3", "--config", str(cfg))
        assert rc == 2

    def test_validate_invalid_instance(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tree": {}, "pieces": {}}))
        rc, text = run_cli("validate", str(bad))
        assert rc == 1
        payload = json.loads(text)
        assert payload["valid"] is False
        assert payload["problems"]

    def test_unparseable_file_is_usage_error(self, tmp_path):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("not json {")
        rc, _ = run_cli("validate", str(garbled))
        assert rc == 2
        rc, _ = run_cli("validate", str(tmp_path / "absent.json"))
        assert rc == 2

    def test_dist_exact_matches_library(self, small_instance):
        from flipcluster.cluster import point_to_spec
        from flipcluster.distance_oracle import exact_distance
        c, path = small_instance
        pts = sample_points(c, random.Random(1), 2)
        args = [json.dumps(point_to_spec(p)) for p in pts]
        rc, text = run_cli("dist", path, *args)
        assert rc == 0
        payload = json.loads(text)
        want, _ = exact_distance(c, pts[0], pts[1])
        assert parse_rational(payload["exact"]) == want

    def test_dist_with_oracle_sandwich(self, small_instance):
        from flipcluster.cluster import point_to_spec
        c, path = small_instance
        pts = sample_points(c, random.Random(2), 2)
        args = [json.dumps(point_to_spec(p)) for p in pts]
        rc, text = run_cli("dist", path, *args, "--eps", "1/2")
        assert rc == 0
        payload = json.loads(text)
        exact = parse_rational(payload["exact"])
        disc = parse_rational(payload["discretized"])
        assert exact <= disc

    def test_dist_bad_point_is_usage_error(self, small_instance):
        _, path = small_instance
        rc, _ = run_cli("dist", path, "nope", "{}")
        assert rc == 2

    def test_special_path_lengths_sum(self, small_instance):
        from flipcluster.cluster import point_to_spec
        c, path = small_instance
        pts = sample_points(c, random.Random(3), 2)
        args = [json.dumps(point_to_spec(p)) for p in pts]
        rc, text = run_cli("special-path", path, *args)
        assert rc == 0
        payload = json.loads(text)
        total = sum((parse_rational(s["length"]) for s in payload["segments"]),
                    parse_rational("0"))
        assert total == parse_rational(payload["length"])
        assert len(payload["vertices"]) == len(payload["segments"])

    def test_blocks(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({
            "vertices": [0, 1, 2, 3],
            "edges": [[0, 1, "1"], [1, 2, "1"], [2, 0, "1"], [2, 3, "2"]],
        }))
        rc, text = run_cli("blocks", str(g))
        assert rc == 0
        payload = json.loads(text)
        assert payload["cut_vertices"] == [2]
        assert payload["blocks"] == [[0, 1, 2], [2, 3]]

    def test_iso_planted_pair(self, tmp_path):
        ca, cb = planted_pair(GeneratorParams(seed=11, **TINY))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(dumps_canonical(to_spec(ca)))
        pb.write_text(dumps_canonical(to_spec(cb)))
        rc, text = run_cli("iso", str(pa), str(pb))
        assert rc == 0
        payload = json.loads(text)
        assert payload["isomorphic"] is True
        assert set(payload["witness"]) == {"psi", "height_shifts",
                                           "vertex_maps", "mark_maps"}

    def test_iso_negative(self, tmp_path):
        ca, _ = planted_pair(GeneratorParams(seed=11, **TINY))
        cb = generate_cluster(GeneratorParams(seed=12, **TINY))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(dumps_canonical(to_spec(ca)))
        pb.write_text(dumps_canonical(to_spec(cb)))
        rc, text = run_cli("iso", str(pa), str(pb))
        assert rc == 0
        assert json.loads(text) == {"isomorphic": False}

    def test_suite_pass_and_out_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_SUITE))
        out = tmp_path / "report.json"
        rc, _ = run_cli("suite", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["seed"] == 5

    def test_suite_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_SUITE))
        rc, text = run_cli("suite", "--config", str(cfg), "--seed", "77")
        assert rc == 0
        assert json.loads(text)["seed"] == 77

    def test_suite_fault_exits_nonzero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(TINY_SUITE, fault="mutate-planted",
                                       suites=["isomorphism"])))
        rc, text = run_cli("suite", "--config", str(cfg))
        assert rc == 1
        assert json.loads(text)["pass"] is False

    def test_suite_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": True}))
        rc, _ = run_cli("suite", "--config", str(cfg))
        assert rc == 2

    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_console_script_installed(self, tmp_path):
        # Checks the wiring from the checkout alone: whether an installer
        # put a launcher on PATH is the installer's concern, and the test
        # command installs nothing.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["flipcluster"]
        module, attr = entry.split(":")
        # The body installers write into a console-script launcher.
        launcher = (f"import sys; from {module} import {attr}; "
                    f"sys.exit({attr}())")
        out = tmp_path / "c.json"
        proc = subprocess.run(
            [sys.executable, "-c", launcher,
             "generate", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        validate(json.loads(out.read_text()))
