"""Generator determinism and validity, suite reports, and the CLI.

The generator promises: same seed, same bytes; every emitted instance
passes validation; planted pairs really are isometric.  The suite runner
promises a stable report schema and byte-identical reruns once timing
fields are stripped.  CLI tests call main() with an argv list and read
stdout, except one subprocess check that runs the `flipcluster` entry
point declared under [project.scripts] in pyproject.toml the way an
installed console-script launcher would.
"""

import dataclasses
import hashlib
import importlib
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from flipcluster import cli, suites
from flipcluster.cluster import Cluster, lowest_point, to_spec, validate
from flipcluster.cluster_iso import brute_force_iso, isomorphic
from flipcluster.distance_oracle import DiscretizedOracle, default_eps, exact_distance
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
from flipcluster.special_path import special_path, star_audit
from flipcluster.suites import MAX_REPROS, _Recorder, run_suite, strip_timings

# sha256(dumps_canonical(strip_timings(run_suite({"seed": 42}))))
DESK_GOLDEN = "edbdc60d07cc9025df779c563c32203552b0559d7c6deb7056807110c35d55a7"
REPO = Path(__file__).resolve().parent.parent

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
        # inexact or non-int fields: a float or a bool is not a size or a length
        {"slack": 2.5},
        {"edge_length": (1.0, 4.0)},
        {"tree_size": (1, 2.5)},
        {"piece_edges": (1.5, 3)},
        {"tree_size": (True, 4)},
        {"max_denominator": True},
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
            assert lowest_point(c.supports(p)) == p


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

    def test_desk_golden_hash(self):
        """The full desk-size report (all six suites, seed 42) is pinned
        byte for byte: refactors of the library must not move it."""
        report = dumps_canonical(strip_timings(run_suite({"seed": 42})))
        assert hashlib.sha256(report.encode()).hexdigest() == DESK_GOLDEN

    def test_empty_suite_list_trivially_passes(self):
        report = run_suite({"suites": []})
        assert report["pass"] is True
        assert report["suites"] == {}

    @pytest.mark.parametrize("config", [
        {"bogus": 1},
        {"seed": "5"},
        {"suites": ["metric"]},
        {"fault": "drop-tables"},
        [],
        {"suites": "tree-graded"},
        {"sizes": 3},
        {"suites": [], "sizes": {"metric-axioms": 3}},
        {"suites": [], "sizes": {"metric-axiom": {"instances": 2}}},
        {"suites": [], "sizes": {"metric-axioms": {"instance": 2}}},
        {"suites": [], "sizes": {"metric-axioms": {"instances": "2"}}},
        {"suites": [], "sizes": {"metric-axioms": {"instances": True}}},
        {"suites": [], "sizes": {"isomorphism": {"pairs": -3}}},
        {"suites": [], "seed": True},
        {"suites": [], "k_obs": 5},
        {"suites": [], "k_obs": "6/2"},
    ])
    def test_rejects_bad_config(self, config):
        """Each malformed config is refused before any suite runs, whether
        or not the suite it concerns is selected."""
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

    def test_isomorphism_spot_checks_cross_walls(self, monkeypatch):
        """verify_good proves the isometry across walls without measuring
        it, so the suite's spot checks are the glued-metric check on each
        witness: at desk size some of the routes they measure cross walls."""
        walls = []

        def counting(c, sx, sy, _real=suites.route_between):
            route = _real(c, sx, sy)
            walls.append(len(route.edges))
            return route

        monkeypatch.setattr(suites, "route_between", counting)
        report = run_suite({"seed": 42, "suites": ["isomorphism"]})
        assert report["pass"] is True
        assert len(walls) == 2 * report["suites"]["isomorphism"]["counters"]["spot_checks"]
        assert max(walls) >= 1, "no spot-check route crosses a wall"

    def test_metric_axioms_resolves_each_point_once(self, monkeypatch):
        """Beyond what sample_points resolves itself, the metric-axioms suite
        resolves each pool point once and routes every ordered pair, self
        pairs included, from those supports.  Of those resolutions only a
        one-support point's walks: a wall point keeps the map its walk in
        sample_points found."""
        closures, sampled, routes, walks, pool_walks = [], [], [], [], []

        def counting_supports(self, pt, _real=Cluster.supports):
            closures.append(pt)
            return _real(self, pt)

        def counting_walk(self, pt, _real=Cluster._walk):
            reps = _real(self, pt)
            walks.append(len(reps))
            return reps

        def sampling(*args, _real=suites.sample_points):
            before, walked = len(closures), len(walks)
            pts = _real(*args)
            sampled.append(len(closures) - before)
            pool_walks.extend(walks[walked:])
            del walks[walked:]
            return pts

        def routing(c, sx, sy, _real=suites.route_between):
            routes.append((sx, sy))
            return _real(c, sx, sy)

        monkeypatch.setattr(Cluster, "supports", counting_supports)
        monkeypatch.setattr(Cluster, "_walk", counting_walk)
        monkeypatch.setattr(suites, "sample_points", sampling)
        monkeypatch.setattr(suites, "route_between", routing)
        sizes = {"instances": 3, "triples": 4, "pool": 5}
        assert suites.suite_metric_axioms(7, sizes)["pass"] is True
        assert len(sampled) == sizes["instances"] and min(sampled) >= sizes["pool"]
        assert len(closures) - sum(sampled) == sizes["instances"] * sizes["pool"]
        assert len(routes) == sizes["instances"] * sizes["pool"] ** 2
        assert len(pool_walks) == sizes["instances"] * sizes["pool"] and max(pool_walks) > 1
        assert walks == [1] * pool_walks.count(1)


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
        for bad in ({"slack": "1"}, {"tree_size": [1, 2.5]}, {"piece_edges": [1.5, 3]},
                    {"tree_size": [True, 3]}, {"max_denominator": True}):
            cfg.write_text(json.dumps(bad))
            rc, _ = run_cli("generate", "--seed", "3", "--config", str(cfg))
            assert rc == 2, bad

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

    # bytes that are not UTF-8, and nesting past the interpreter's recursion limit
    UNDECODABLE = {"binary": b"\xff\xfe\x00garbage", "deep": b"[" * 100_000 + b"]" * 100_000}

    @pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE)
    @pytest.mark.parametrize("command", ["validate", "dist", "iso", "blocks", "generate", "suite"])
    def test_undecodable_file_is_usage_error(self, command, content, small_instance, tmp_path):
        from flipcluster.cluster import point_to_spec
        c, inst = small_instance
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        point = json.dumps(point_to_spec(sample_points(c, random.Random(1), 1)[0]))
        argv = {"validate": [bad], "dist": [bad, point, point], "iso": [inst, bad],
                "blocks": [bad], "generate": ["--seed", "3", "--config", bad],
                "suite": ["--config", bad]}[command]
        rc, text = run_cli(command, *map(str, argv))
        assert (rc, text) == (2, "")

    def test_undecodable_point_is_usage_error(self, small_instance):
        from flipcluster.cluster import point_to_spec
        c, inst = small_instance
        point = json.dumps(point_to_spec(sample_points(c, random.Random(1), 1)[0]))
        rc, text = run_cli("dist", inst, point, "[" * 100_000 + "]" * 100_000)
        assert (rc, text) == (2, "")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int digit limit in this interpreter")
    def test_int_past_digit_limit_is_usage_error(self, small_instance, tmp_path):
        _, inst = small_instance
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        bad = tmp_path / "bad.json"
        bad.write_text(digits)
        assert run_cli("validate", str(bad)) == (2, "")
        assert run_cli("dist", inst, digits, digits) == (2, "")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no int digit limit in this interpreter")
    def test_distance_past_digit_limit_is_usage_error(self, tmp_path):
        """Two offsets whose denominators have as many digits as the
        interpreter writes are 2/(p * q) apart, which it cannot write."""
        from flipcluster.cluster import dumps
        from test_cluster import two_piece
        inst = tmp_path / "two.json"
        inst.write_text(dumps(two_piece()))
        nines = "9" * sys.get_int_max_str_digits()
        p, q = (json.dumps({"vertex": 0, "edge": 0, "offset": f"1/{nines[:-1]}{d}", "height": "0"})
                for d in "97")
        assert run_cli("dist", str(inst), p, q) == (2, "")
        assert run_cli("special-path", str(inst), p, q) == (2, "")

    def test_dist_exact_matches_library(self, small_instance):
        from flipcluster.cluster import point_to_spec
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

    @pytest.mark.parametrize("point", [
        "[" * 100000 + "]" * 100000,
        '{"vertex": 0, "edge": 0, "offset": "' + "x" * 100000 + '", "height": "0"}',
        json.dumps([1] * 50000),
        json.dumps({"vertex": "0" * 100000, "edge": 0, "offset": "0", "height": "0"}),
    ], ids=["nested", "offset", "list", "vertex"])
    def test_dist_huge_bad_point_is_echoed_short(self, small_instance, capsys, point):
        """A rejected point is echoed as a prefix and its length, on one line."""
        _, path = small_instance
        rc, text = run_cli("dist", path, point, "x")
        assert rc == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert f"({len(point)} characters)" in err

    @pytest.mark.parametrize("patch", [None, {"offset": 0}, {"height": 0.5}])
    def test_dist_malformed_point_spec_is_usage_error(self, small_instance, patch):
        from flipcluster.cluster import point_to_spec
        c, path = small_instance
        good = point_to_spec(sample_points(c, random.Random(2), 1)[0])
        bad = {k: v for k, v in good.items() if k != "height"} if patch is None \
            else {**good, **patch}
        rc, text = run_cli("dist", path, json.dumps(good), json.dumps(bad))
        assert rc == 2
        assert text == ""

    @pytest.mark.parametrize("eps", ["0", "-1", "abc"])
    def test_dist_bad_eps_is_usage_error(self, small_instance, eps):
        from flipcluster.cluster import point_to_spec
        c, path = small_instance
        pts = sample_points(c, random.Random(2), 2)
        args = [json.dumps(point_to_spec(p)) for p in pts]
        rc, text = run_cli("dist", path, *args, "--eps", eps)
        assert rc == 2
        assert text == ""

    def test_dist_oversized_grid_is_usage_error(self, small_instance):
        # a 2**-40 grid is refused from its node count, before any sampling
        from flipcluster.cluster import point_to_spec
        c, path = small_instance
        pts = sample_points(c, random.Random(2), 2)
        args = [json.dumps(point_to_spec(p)) for p in pts]
        rc, text = run_cli("dist", path, *args, "--eps", "1/1099511627776", "--cap", "100")
        assert rc == 2
        assert text == ""

    @pytest.mark.parametrize("ids", [{"vertex": False}, {"edge": False}])
    def test_dist_bool_ids_are_usage_error(self, small_instance, ids):
        from flipcluster.cluster import point_to_spec
        c, path = small_instance
        lo = c.pieces[0].window[0]
        spec = point_to_spec(c.point(0, 0, 0, lo))
        assert (spec["vertex"], spec["edge"]) == (0, 0)
        good = json.dumps(spec)
        rc, _ = run_cli("dist", path, good, good)
        assert rc == 0
        rc, text = run_cli("dist", path, json.dumps({**spec, **ids}), good)
        assert rc == 2
        assert text == ""

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

    def test_non_maximal_instance_is_rejected(self, tmp_path, capsys):
        """A carrier that stops at an inner vertex fails validate, and the
        geometry verbs refuse the file as they load it."""
        from test_cluster import unchecked_spec
        from test_special_path import truncated_bridge
        path = tmp_path / "c.json"
        path.write_text(dumps_canonical(unchecked_spec(*truncated_bridge())))
        rc, text = run_cli("validate", str(path))
        assert rc == 1
        assert json.loads(text) == {"valid": False, "problems": [
            "instance validation failed:",
            "[non-maximal-mark] mark 1:1: carrier from vertex 4 to vertex 3"
            " does not run leaf to leaf"]}
        a, b = (json.dumps({"vertex": v, "edge": 0, "offset": "3", "height": "7"})
                for v in (0, 2))
        capsys.readouterr()
        for verb in ("special-path", "dist"):
            rc, text = run_cli(verb, str(path), a, b)
            assert (rc, text) == (2, "")
            assert "non-maximal-mark" in capsys.readouterr().err

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

    def test_suite_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        rc, text = run_cli("suite", "--config", str(cfg), "--seed", "1")
        assert (rc, text) == (2, "")

    # each subcommand's arguments; the capitalized ones name files and
    # points the test makes
    OUT_ARGS = {
        "generate": ["--seed", "3"],
        "validate": ["INST"],
        "dist": ["INST", "A", "B"],
        "special-path": ["INST", "A", "B"],
        "blocks": ["GRAPH"],
        "iso": ["INST", "INST"],
        "suite": ["--config", "SUITE"],
    }

    def test_out_covers_every_subcommand(self):
        usage = cli.build_parser().format_usage()
        assert "{" + ",".join(self.OUT_ARGS) + "}" in usage

    @pytest.mark.parametrize("command", list(OUT_ARGS))
    def test_out_writes_what_stdout_gets(self, command, small_instance, tmp_path):
        from flipcluster.cluster import point_to_spec
        c, inst = small_instance
        graph, suite = tmp_path / "g.json", tmp_path / "cfg.json"
        graph.write_text(json.dumps({"vertices": [0, 1, 2],
                                     "edges": [[0, 1, "1"], [1, 2, "1"], [2, 0, "1"]]}))
        suite.write_text(json.dumps(dict(TINY_SUITE, suites=["tree-graded"])))
        a, b = (json.dumps(point_to_spec(p)) for p in sample_points(c, random.Random(1), 2))
        made = {"INST": inst, "GRAPH": str(graph), "SUITE": str(suite), "A": a, "B": b}
        argv = [command, *(made.get(arg, arg) for arg in self.OUT_ARGS[command])]
        rc, text = run_cli(*argv)
        assert rc == 0 and text
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--out", str(out)) == (0, "")
        if command == "suite":   # its timing fields differ from run to run
            text, written = (strip_timings(json.loads(t)) for t in (text, out.read_text()))
            assert written == text
        else:
            assert out.read_text() == text

    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_console_script_installed(self, tmp_path):
        # Checks the wiring from the checkout alone: whether an installer
        # put a launcher on PATH is the installer's concern, and the test
        # command installs nothing.
        tomllib = pytest.importorskip("tomllib")
        pyproject = REPO / "pyproject.toml"
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


class TestBenchTracedNames:
    def test_traced_names_resolve(self, monkeypatch):
        """Every library function the benchmark's traced run wraps still
        exists under the name the benchmark looks it up by."""
        monkeypatch.syspath_prepend(str(REPO / "bench"))
        spec = importlib.util.spec_from_file_location("bench_run", REPO / "bench" / "run.py")
        bench_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_run)
        missing = []
        for module, qualnames in bench_run.TRACED.items():
            for qualname in qualnames:
                obj = importlib.import_module(f"flipcluster.{module}")
                for part in qualname.split("."):
                    obj = getattr(obj, part, None)
                if not callable(obj):
                    missing.append(f"{module}.{qualname}")
        assert missing == []


class TestNoTestOnlyHelpers:
    # the PL minimizer's referee lives in the tests, so no name is exempt
    ALLOWED: set[str] = set()

    @staticmethod
    def scan(src: Path, bench: Path) -> tuple[dict[str, str], set[str]]:
        """(defined, used): each top-level function and class in src, and
        each method of such a class, dunders aside, with where it is
        defined; and every name src and bench mention.  A name counts as a
        Name, an Attribute or an import, and in bench also as a dotted part
        of a string, which is how the traced run names what it wraps;
        src's strings are messages and report labels."""
        import ast
        used, defined = set(), {}
        for top in (src, bench):
            for path in sorted(top.rglob("*.py")):
                tree = ast.parse(path.read_text())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
                    elif isinstance(node, ast.alias):
                        used.update(node.name.split("."))
                        used.add(node.asname)
                    elif (top == bench and isinstance(node, ast.Constant)
                          and isinstance(node.value, str)):
                        used.update(node.value.split("."))
                if top == src:
                    for node in tree.body:
                        members = node.body if isinstance(node, ast.ClassDef) else []
                        for d in [node, *members]:
                            if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                                    and not (d.name.startswith("__") and d.name.endswith("__"))):
                                defined[d.name] = f"{path.name}:{d.lineno}"
        return defined, used

    def test_every_definition_has_a_program_caller(self):
        """Each definition in src/, private helpers included, is named
        somewhere in src/ or bench/, so none lives on for a test alone."""
        defined, used = self.scan(REPO / "src", REPO / "bench")
        assert {"special_path", "_PieceGrid", "_foot"} <= defined.keys()   # both
        assert "TRACED" in used                                            # trees were read
        unused = {name: where for name, where in defined.items()
                  if name not in used and name not in self.ALLOWED}
        assert unused == {}

    def test_scan_sees_private_helpers(self, tmp_path):
        src, bench = tmp_path / "src", tmp_path / "bench"
        src.mkdir()
        bench.mkdir()
        (src / "lib.py").write_text("def _orphan():\n    pass\n"
                                    "def public():\n    return _called()\n"
                                    "def _called():\n    pass\n"
                                    "class _Grid:\n    def __init__(self):\n        pass\n"
                                    "    def _snaps(self):\n        pass\n"
                                    "    def rows(self):\n        pass\n")
        (bench / "run.py").write_text("WRAPS = ['lib.public']\nlib._Grid().rows()\n")
        defined, used = self.scan(src, bench)
        assert {name: where for name, where in defined.items() if name not in used} == {
            "_orphan": "lib.py:1", "_snaps": "lib.py:10"}


class TestNoUnusedImports:
    @staticmethod
    def unused_imports(path: Path) -> list[str]:
        """Names a file imports (``__future__`` aside) and never reads: a
        name is read when it appears as a Name anywhere in the file,
        annotations and attribute bases included."""
        import ast
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, f"{path.name}:{node.lineno} {name}")
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        return [where for name, where in imported.items() if name not in read]

    def test_library_imports_are_read(self):
        paths = sorted((REPO / "src").rglob("*.py"))
        assert paths
        assert [hit for path in paths for hit in self.unused_imports(path)] == []

    def test_scan_sees_unused_imports(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text("from __future__ import annotations\nimport os.path\nimport re as regex\n"
                          "from typing import Iterable, NamedTuple\n"
                          "def f(x: NamedTuple) -> None:\n    return os.path.join('Iterable')\n")
        assert self.unused_imports(sample) == ["sample.py:3 regex", "sample.py:4 Iterable"]


class TestNoFloats:
    FORBIDDEN = {"float", "inf", "nan"}

    @staticmethod
    def float_tokens(path: Path) -> list[str]:
        """Float or imaginary literals, and the names float, inf and nan,
        as tokens of the file's code; strings and comments do not count."""
        import ast
        import io
        import tokenize
        found = []
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NUMBER and not isinstance(ast.literal_eval(tok.string), int):
                found.append(f"{path.name}:{tok.start[0]} literal {tok.string}")
            elif tok.type == tokenize.NAME and tok.string in TestNoFloats.FORBIDDEN:
                found.append(f"{path.name}:{tok.start[0]} name {tok.string}")
        return found

    def test_library_code_has_no_floats(self):
        """The library computes on ints and Fractions only."""
        paths = sorted((REPO / "src" / "flipcluster").glob("*.py"))
        assert paths
        assert [t for path in paths for t in self.float_tokens(path)] == []

    def test_scan_sees_floats(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text('from math import inf\nx = [inf] * 3\ny = 1.5 + 2e3 + 3j + 0x1F\n'
                          'z = float("nan")  # float inf\ns = "1.5 inf"\n')
        assert self.float_tokens(sample) == [
            "sample.py:1 name inf", "sample.py:2 name inf", "sample.py:3 literal 1.5",
            "sample.py:3 literal 2e3", "sample.py:3 literal 3j", "sample.py:4 name float"]


class TestNoTruncationGuards:
    """Every mark runs leaf to leaf, so a foot never sits on a truncated
    end: SegmentOverflow is for parameters outside a line's range, raised
    where a parameter is read on a line, and nowhere else."""

    ALLOWED = {"Line._foot"}

    @staticmethod
    def overflow_raisers(path: Path) -> list[str]:
        """The qualified names of the functions that raise SegmentOverflow."""
        import ast
        found = []

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                elif isinstance(child, ast.Raise) and child.exc is not None:
                    exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                    if isinstance(exc, ast.Name) and exc.id == "SegmentOverflow":
                        found.append(".".join(scope))
                visit(child, inner)

        visit(ast.parse(path.read_text()), ())
        return found

    def test_overflow_raised_only_for_out_of_range_parameters(self):
        paths = sorted((REPO / "src" / "flipcluster").glob("*.py"))
        raisers = {name for path in paths for name in self.overflow_raisers(path)}
        assert raisers == self.ALLOWED

    def test_no_extendable_ends(self):
        hits = [f"{path.name}:{k}" for path in sorted((REPO / "src").rglob("*.py"))
                for k, line in enumerate(path.read_text().splitlines(), 1)
                if "extendable" in line.lower()]
        assert hits == []

    def test_scan_sees_raisers(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text("class Line:\n    def point_at(self):\n        raise SegmentOverflow('x')\n"
                          "def project():\n    if 1:\n        raise SegmentOverflow\n"
                          "def other():\n    raise ValueError('SegmentOverflow')\n")
        assert self.overflow_raisers(sample) == ["Line.point_at", "project"]


class TestRefereeIndependence:
    """Each referee names none of the code it checks.

    brute_force_iso referees isomorphic, so its functions name none of
    the search's functions, nor its frame (Cluster.unit), nor a normal
    form's raw locations or mark ints.  piece_normal_form and
    MarkedTreeIso only package the referee's result and stay allowed.
    crossing_objective re-measures route_distance's minimum, so it names
    none of the term builders: line_gate, the relation memo and
    mark_relation, a line's int range, the PL minimizer, nor their frame
    (Cluster.unit); nor line_gate's int core Line._gate, nor a special
    path's int fields, which are built on Cluster.unit.  evaluate_terms
    and grid_minimize referee the PL minimizer, so they name none of its
    functions or slope-form
    operations; the referee's own _clamp stays allowed.  The grid oracle
    (_split, _PieceGrid, DiscretizedOracle, default_eps) referees the
    exact distance, so it names none of the term builders, the distance
    or route code, the special path, nor the re-measure.  It builds its
    den on Cluster.unit by design, and Line._foot and Line.point_at are
    tree primitives with a referee of their own, so those stay allowed."""

    REFEREE = ("brute_force_iso", "_piece_brute", "_contracted")
    SEARCH = {"marked_tree_extensions", "extend_choices", "_solve", "_root_choices",
              "_wall_key", "_transform_for", "raw_loc", "mark_ints", "unit"}
    REMEASURE = ("crossing_objective",)
    TERMS = {"line_gate", "_gate", "_relation", "mark_relation", "_range", "minimize_convex_pl",
             "unit"}
    ORACLE = ("_split", "_PieceGrid", "DiscretizedOracle", "default_eps")
    EXACT = TERMS - {"unit"} | {"route_distance", "exact_distance", "route_path", "special_path",
                                "route_between", "support_route", "crossing_objective"}
    PL_REFEREE = ("evaluate_terms", "grid_minimize")
    PL_KERNEL = {"minimize_convex_pl", "ConvexPL", "_pair_message", "_pair_anchor", "_unary_pl",
                 "inf_conv_abs", "pullback", "argmin_plus_abs"}

    @staticmethod
    def checked_names(path: Path, referee: tuple[str, ...], checked: set[str]
                      ) -> dict[str, list[str]]:
        """Per top-level referee function or class, the checked names
        among the names, attributes and arguments it mentions, nested code
        and a class's methods included."""
        import ast
        found = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in referee:
                names = {n.id if isinstance(n, ast.Name) else
                         n.attr if isinstance(n, ast.Attribute) else n.arg
                         for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute, ast.arg))}
                found[node.name] = sorted(names & checked)
        return found

    def test_referee_names_no_search_code(self):
        found = self.checked_names(REPO / "src" / "flipcluster" / "cluster_iso.py",
                                   self.REFEREE, self.SEARCH)
        assert found == dict.fromkeys(self.REFEREE, [])

    def test_remeasure_names_no_term_builder(self):
        found = self.checked_names(REPO / "src" / "flipcluster" / "distance_oracle.py",
                                   self.REMEASURE, self.TERMS)
        assert found == dict.fromkeys(self.REMEASURE, [])

    def test_remeasure_reads_no_path_ints(self):
        c = generate_cluster(suites.CORPUS)
        sp = special_path(c, *sample_points(c, random.Random(0), 2))
        fields = {name for name in vars(sp) if name.startswith("_")}
        assert {"_frame", "_heights", "_legs", "_feet"} <= fields
        found = self.checked_names(REPO / "src" / "flipcluster" / "distance_oracle.py",
                                   self.REMEASURE, fields)
        assert found == dict.fromkeys(self.REMEASURE, [])

    def test_grid_oracle_names_no_exact_code(self):
        found = self.checked_names(REPO / "src" / "flipcluster" / "distance_oracle.py",
                                   self.ORACLE, self.EXACT)
        assert found == dict.fromkeys(self.ORACLE, [])

    def test_pl_referee_names_no_kernel(self):
        found = self.checked_names(REPO / "tests" / "test_piecewise_linear.py",
                                   self.PL_REFEREE, self.PL_KERNEL)
        assert found == dict.fromkeys(self.PL_REFEREE, [])

    def test_scan_sees_search_names(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text("def brute_force_iso(ca):\n    return piece_normal_form(ca.unit)\n"
                          "def _piece_brute(nf):\n    def place():\n        return nf.mark_ints()\n"
                          "def _contracted(tree, raw_loc):\n    pass\n"
                          "def other():\n    return marked_tree_extensions()\n")
        assert self.checked_names(sample, self.REFEREE, self.SEARCH) == {
            "brute_force_iso": ["unit"], "_piece_brute": ["mark_ints"], "_contracted": ["raw_loc"]}

    def test_scan_sees_term_builders(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text("def crossing_objective(c, line):\n"
                          "    g = line_gate(c.tree, line)\n"
                          "    def leg(v):\n        return c._relation(v, 0, 1), line._range(2)\n"
                          "    return minimize_convex_pl(g, c.mark_relation, c.unit)\n"
                          "def route_distance(c):\n    return line_gate(c)\n")
        assert self.checked_names(sample, self.REMEASURE, self.TERMS) == {
            "crossing_objective": ["_range", "_relation", "line_gate", "mark_relation",
                                   "minimize_convex_pl", "unit"]}

    def test_scan_sees_oracle_methods(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text("def _split(length, eps):\n    return length / eps\n"
                          "class _PieceGrid:\n    def snap(self, line, t):\n"
                          "        return line._foot(t, self.den), line.point_at(t)\n"
                          "class DiscretizedOracle:\n    def __init__(self, c):\n"
                          "        self.den = c.unit\n"
                          "    def distance(self, x, y):\n"
                          "        def ends(p):\n            return support_route(self.c, p, p)\n"
                          "        return exact_distance(self.c, x, y), self.c._relation(0, 1, 2)\n"
                          "def default_eps(c):\n    return special_path(c)._range(1)\n"
                          "class Other:\n    def run(self):\n        return route_distance()\n")
        assert self.checked_names(sample, self.ORACLE, self.EXACT) == {
            "_split": [], "_PieceGrid": [],
            "DiscretizedOracle": ["_relation", "exact_distance", "support_route"],
            "default_eps": ["_range", "special_path"]}

    def test_scan_sees_pl_kernel(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text("def evaluate_terms(terms, x):\n    return _clamp(pl.ConvexPL(x), 0, 1)\n"
                          "def grid_minimize(terms, box):\n"
                          "    def tie(f):\n        return f.argmin_plus_abs(0), f.pullback(1, 0)\n"
                          "    return minimize_convex_pl([], box, [])\n"
                          "def solve(terms, box):\n    return minimize_convex_pl([], box, [])\n")
        assert self.checked_names(sample, self.PL_REFEREE, self.PL_KERNEL) == {
            "evaluate_terms": ["ConvexPL"],
            "grid_minimize": ["argmin_plus_abs", "minimize_convex_pl", "pullback"]}


class TestHotPathsReadColumns:
    """The library reads a metric tree's edge columns, never its TreeEdge
    view: after each query on instances re-read from their wire form, no
    piece tree has built ``edges``."""

    @staticmethod
    def rebuilt(c: Cluster) -> Cluster:
        return validate(to_spec(c))

    @staticmethod
    def assert_no_view(*clusters: Cluster):
        for c in clusters:
            assert [v for v, p in c.pieces.items() if "edges" in p.tree.__dict__] == []

    def test_distance_path_and_star_audit(self):
        for seed in range(4):
            params = GeneratorParams(seed=seed, tree_size=(3, 6), piece_edges=(2, 8),
                                     tree_shape="path")
            c = self.rebuilt(generate_cluster(params))
            self.assert_no_view(c)
            pts = sample_points(c, random.Random(seed), 6)
            for x, y in zip(pts, pts[1:]):
                exact_distance(c, x, y)
                self.assert_no_view(c)
                special_path(c, x, y)
                self.assert_no_view(c)
                star_audit(c, x, y)
                self.assert_no_view(c)

    def test_isometry_search_and_referee(self):
        for seed in range(4):
            params = GeneratorParams(seed=seed, tree_size=(1, 4), piece_edges=(1, 6))
            for planted, pair in ((True, planted_pair(params)), (False, mutated_pair(params))):
                ca, cb = map(self.rebuilt, pair)
                triple = isomorphic(ca, cb)
                assert triple is not None or not planted
                self.assert_no_view(ca, cb)
                brute_force_iso(ca, cb)
                self.assert_no_view(ca, cb)

    def test_grid_oracle(self):
        for seed in range(4):
            params = dataclasses.replace(suites.ORACLE_CORPUS, seed=seed)
            c = self.rebuilt(generate_cluster(params))
            oracle = DiscretizedOracle(c, default_eps(c))
            self.assert_no_view(c)
            pts = sample_points(c, random.Random(seed), 4)
            for x, y in zip(pts, pts[1:]):
                oracle.distance(x, y)
                self.assert_no_view(c)
