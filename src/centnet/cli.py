"""Command-line interface: stats, centrality, graph-metric, select,
attack, bench."""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time

from . import io as cio
from . import registry
from .errors import CentnetError, GraphInputError
from .params import ScoreVector
from .resilience import rank_targets, run_experiment

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2


def _parse_param(text: str):
    if "=" not in text:
        raise GraphInputError(f"--param expects k=v, got {text!r}")
    key, value = text.split("=", 1)
    if value.startswith("[") or value.startswith("{"):
        try:
            return key, json.loads(value)
        except json.JSONDecodeError as exc:
            raise GraphInputError(f"--param {text!r}: bad JSON: {exc}") \
                from exc
    for conv in (int, float):
        try:
            return key, conv(value)
        except ValueError:
            continue
    return key, value


def _collect_params(pairs, seed=None) -> dict:
    out = {}
    for item in pairs or ():
        k, v = _parse_param(item)
        out[k] = v
    if seed is not None and "rng_seed" not in out:
        out["rng_seed"] = seed
    return out


def _load(args):
    return cio.parse_edge_list(args.file, directed=args.directed,
                               coords_path=getattr(args, "coords", None))


def _cmd_stats(args) -> int:
    g = _load(args)
    stats = cio.dataset_stats(g)
    for line in stats.lines():
        print(line)
    if g.self_loops_dropped or g.duplicates_collapsed:
        print(f"preprocessing: dropped {g.self_loops_dropped} self-loops, "
              f"collapsed {g.duplicates_collapsed} duplicate edges")
    return EXIT_OK


def _cmd_centrality(args) -> int:
    if args.list:
        for mid in registry.point_metric_ids():
            print(mid)
        return EXIT_OK
    if not args.metric:
        raise GraphInputError("centrality needs --metric (or --list)")
    if args.top is not None and args.top < 0:
        raise GraphInputError("--top must be >= 0")
    g = _load(args)
    scores = registry.compute_point_metric(
        g, args.metric, _collect_params(args.param, args.seed))
    order = rank_targets(scores)
    top = order if args.top is None else order[:args.top]
    for v in top:
        print(f"{g.label_of(v)}\t{scores[v]:.6g}")
    return EXIT_OK


def _cmd_graph_metric(args) -> int:
    if args.list:
        for mid in registry.graph_metric_ids():
            print(mid)
        return EXIT_OK
    if not args.metric:
        raise GraphInputError("graph-metric needs --metric (or --list)")
    g = _load(args)
    result = registry.compute_graph_metric(
        g, args.metric, _collect_params(args.param, args.seed))
    if isinstance(result, ScoreVector):
        for v in range(g.n):
            print(f"{g.label_of(v)}\t{result[v]:.6g}")
    else:
        value = result.value
        if isinstance(value, (tuple, list, set, frozenset)):
            members = sorted(g.label_of(v) for v in value)
            print(f"{result.metric_id}: size {len(members)}")
            print(" ".join(str(x) for x in members))
        else:
            print(f"{result.metric_id}: {value:.6g}")
        for k, v in sorted(result.details.items()):
            print(f"  {k}: {v}")
        if result.skipped_pairs:
            print(f"  skipped_pairs: {result.skipped_pairs}")
    return EXIT_OK


def _cmd_select(args) -> int:
    g = _load(args)
    result = registry.run_strategy(g, args.strategy, args.budget,
                                   _collect_params(args.param))
    print(" ".join(str(g.label_of(v)) for v in result.seeds))
    print(f"stop_reason: {result.stop_reason}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    config = cio.load_config(args.config)
    if args.seed is not None:
        config.attack.rng_seed = args.seed
    g = cio.parse_edge_list(config.input_path, directed=config.directed)
    result = run_experiment(config.attack, g)
    payload = cio.emit_results(result.rows, config.output_format,
                               config.output_path)
    if config.output_path is None:
        sys.stdout.write(payload)
    else:
        print(f"wrote {config.output_path}")
    for name, reason, padded in result.selections:
        print(f"selection[{name}]: stop_reason {reason}, {padded} budget "
              "slots padded in id order", file=sys.stderr)
    for name, message in result.errors:
        print(f"error[{name}]: {message}", file=sys.stderr)
    return EXIT_OK if not result.errors else EXIT_COMPUTE


def _cmd_bench(args) -> int:
    if args.repeat < 1:
        raise GraphInputError("--repeat must be >= 1")
    g = _load(args)
    wildcard = args.metrics == "all"
    if wildcard:
        metric_ids = registry.point_metric_ids(include_capped=False)
    else:
        metric_ids = [m.strip() for m in args.metrics.split(",") if m.strip()]
    overrides = _collect_params(args.param, args.seed)
    lines = ["metric,elapsed_ms"]
    for mid in metric_ids:
        samples = []
        try:
            for fresh in (dataclasses.replace(g) for _ in range(args.repeat)):
                start = time.perf_counter()
                registry.compute_point_metric(fresh, mid, overrides)
                samples.append((time.perf_counter() - start) * 1000.0)
        except CentnetError as exc:
            # with --metrics all, ids inapplicable to this graph kind
            # are reported and skipped rather than failing the sweep
            if not wildcard:
                raise
            print(f"skipped {mid}: {exc}", file=sys.stderr)
            continue
        lines.append(f"{mid},{statistics.median(samples):.6g}")
    payload = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="centnet",
        description="Centrality metrics and attack-resilience experiments")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, coords=False):
        p.add_argument("file", help="edge-list file (u v [w] per line)")
        p.add_argument("--directed", action="store_true")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for any randomized computation")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="metric parameter override (repeatable)")
        if coords:
            p.add_argument("--coords", default=None,
                           help="coordinate side-file: 'node x y' lines")

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("file")
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("centrality", help="point centrality scores")
    common(p, coords=True)
    p.add_argument("--metric", default=None)
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--list", action="store_true",
                   help="list available metric ids")
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("graph-metric", help="whole-graph metrics")
    common(p)
    p.add_argument("--metric", default=None)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_graph_metric)

    p = sub.add_parser("select", help="group seed selection")
    common(p)
    p.add_argument("--strategy", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("attack", help="run an attack experiment config")
    p.add_argument("file", nargs="?", default=None,
                   help="ignored; the config names the input")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("bench", help="median per-metric wall time; each "
                       "sample runs cold, on a fresh copy of the graph")
    common(p, coords=True)
    p.add_argument("--metrics", default="all",
                   help="comma-separated ids, or 'all' (uncapped set)")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_bench)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CentnetError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
