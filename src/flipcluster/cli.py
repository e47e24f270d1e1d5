"""Command line front end: every construct is independently invocable.

Exit codes: 0 success, 1 a checked property failed (invalid instance,
failed suite), 2 usage or parse errors.  All output is
canonical JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cluster import point_of_spec, point_to_spec, validate
from .cluster_iso import isomorphic, witness_to_spec
from .distance_oracle import DEFAULT_NODE_CAP, DiscretizedOracle, exact_distance
from .errors import (ClusterValidationError, InvalidPointError, RationalTooLong, SizeCapError,
                     excerpt)
from .generator import GeneratorParams, generate
from .jsonutil import dumps_canonical
from .rational import format_rational, parse_rational
from .special_path import special_path
from .suites import run_suite
from .tree_graded import blocks, decomposition_to_spec, graph_of_spec


def _emit(payload: dict, out: str | None) -> None:
    text = dumps_canonical(payload)  # ends in its own newline
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ValueError covers malformed JSON, bytes that are not UTF-8 and ints past
# the interpreter's digit limit; RecursionError, nesting past its depth limit
_BAD_JSON = (ValueError, RecursionError)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, *_BAD_JSON) as ex:
        raise UsageError(f"cannot read {path}: {ex}")


def _load_cluster(path: str):
    spec = _load_json(path)
    try:
        return validate(spec)
    except ClusterValidationError as ex:
        raise UsageError(f"{path}: {ex}")


def _parse_point(c, text: str):
    try:
        return point_of_spec(c, json.loads(text))
    except (*_BAD_JSON, InvalidPointError) as ex:
        raise UsageError(f"bad point {excerpt(text)}: {ex}")


def _parse_eps(text: str):
    try:
        eps = parse_rational(text)
    except ValueError as ex:
        raise UsageError(f"bad --eps: {ex}")
    if eps <= 0:
        raise UsageError(f"--eps must be positive, got {text}")
    return eps


class UsageError(Exception):
    pass


def cmd_generate(args) -> int:
    overrides = _load_json(args.config) if args.config else {}
    try:
        if "tree_size" in overrides:
            overrides["tree_size"] = tuple(overrides["tree_size"])
        if "piece_edges" in overrides:
            overrides["piece_edges"] = tuple(overrides["piece_edges"])
        if "edge_length" in overrides:
            overrides["edge_length"] = tuple(
                parse_rational(x) for x in overrides["edge_length"])
        if "slack" in overrides:
            overrides["slack"] = parse_rational(overrides["slack"])
        params = GeneratorParams(seed=args.seed, **overrides)
    except (TypeError, ValueError) as ex:
        raise UsageError(f"bad generator config: {ex}")
    _emit(generate(params), args.out)
    return 0


def cmd_validate(args) -> int:
    spec = _load_json(args.file)
    try:
        validate(spec)
    except ClusterValidationError as ex:
        _emit({"valid": False, "problems": str(ex).splitlines()}, args.out)
        return 1
    _emit({"valid": True}, args.out)
    return 0


def cmd_dist(args) -> int:
    c = _load_cluster(args.file)
    x = _parse_point(c, args.point_a)
    y = _parse_point(c, args.point_b)
    eps = None if args.eps is None else _parse_eps(args.eps)
    value, profile = exact_distance(c, x, y)
    payload = {
        "exact": format_rational(value),
        "crossings": len(profile.edges),
        "profile": {
            "vertices": list(profile.vertices),
            "edges": list(profile.edges),
            "s": [format_rational(t) for t in profile.s],
            "h": [format_rational(t) for t in profile.h],
        },
    }
    if eps is not None:
        try:
            oracle = DiscretizedOracle(c, eps, cap=args.cap)
        except SizeCapError as ex:
            raise UsageError(str(ex))
        payload["eps"] = format_rational(eps)
        payload["discretized"] = format_rational(oracle.distance(x, y))
    _emit(payload, args.out)
    return 0


def cmd_special_path(args) -> int:
    c = _load_cluster(args.file)
    x = _parse_point(c, args.point_a)
    y = _parse_point(c, args.point_b)
    sp = special_path(c, x, y)
    payload = {
        "vertices": list(sp.vertices),
        "edges": list(sp.edges),
        "length": format_rational(sp.length),
        "segments": [
            {
                "vertex": seg.vertex,
                "entry": point_to_spec(seg.entry),
                "exit": point_to_spec(seg.exit),
                "length": format_rational(seg.length),
            }
            for seg in sp.segments
        ],
    }
    _emit(payload, args.out)
    return 0


def cmd_blocks(args) -> int:
    spec = _load_json(args.file)
    try:
        g = graph_of_spec(spec)
    except (ValueError, TypeError, KeyError) as ex:
        raise UsageError(f"{args.file}: {ex}")
    _emit(decomposition_to_spec(blocks(g)), args.out)
    return 0


def cmd_iso(args) -> int:
    ca = _load_cluster(args.file_a)
    cb = _load_cluster(args.file_b)
    triple = isomorphic(ca, cb)
    if triple is None:
        _emit({"isomorphic": False}, args.out)
    else:
        _emit({"isomorphic": True, "witness": witness_to_spec(triple)},
              args.out)
    return 0


def cmd_suite(args) -> int:
    config = _load_json(args.config) if args.config else {}
    if args.seed is not None and isinstance(config, dict):   # run_suite rejects the rest
        config["seed"] = args.seed
    try:
        report = run_suite(config)
    except ValueError as ex:
        raise UsageError(f"bad suite config: {ex}")
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipcluster",
        description="exact geometry of flip-glued products of metric trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a random instance as JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", help="JSON file with generator parameter overrides")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dist", help="exact distance between two points")
    p.add_argument("file")
    p.add_argument("point_a", help='point JSON, e.g. {"vertex":0,"edge":0,"offset":"3","height":"5"}')
    p.add_argument("point_b")
    p.add_argument("--eps", help="also run the discretized oracle at this eps")
    p.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("special-path", help="canonical path between two points")
    p.add_argument("file")
    p.add_argument("point_a")
    p.add_argument("point_b")
    p.set_defaults(func=cmd_special_path)

    p = sub.add_parser("blocks", help="block decomposition of a graph file")
    p.add_argument("file")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("iso", help="isometry search between two instances")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("suite", help="run verification suites")
    p.add_argument("--config", help="JSON suite configuration")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_suite)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, RationalTooLong) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
