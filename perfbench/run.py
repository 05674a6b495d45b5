"""centnet benchmark: time to solution, set-up time and memory per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload metrics --seed 1 --seconds 55 --trace 0

Generates the seeded edge-list file of each part of the workload
(metrics: paths and spectral; attacks: dismantle and spread). Then runs
repetitions, each in a fresh single-threaded process, until they have
used up `--seconds`; at least MIN_REPS of them, and the check's time is
not counted. The first repetition's outputs are checked against
independent references; every later one must reproduce them exactly.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced repetitions and reports the per-layer
metrics, with the tracing overhead. The last line of standard output is
one JSON object; the line before it records the inputs, the
environment and every repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Spans report self time in seconds ("_s"), the rest are exact counts.
SPANS = ("io.parse_edge_list", "graph.build_graph", "graph.shortest_paths",
         "graph.unit_weights", "graph.components", "graph.power_iteration",
         "params.score_vector",
         "metric.betweenness", "metric.closeness", "metric.load",
         "metric.pagerank", "metric.leaderrank", "metric.eigenvector",
         "metric.dynamical-influence", "metric.cumulative-nomination",
         "metric.contribution", "metric.degree", "metric.k-shell",
         "select.collective-influence", "select.degree-distance",
         "select.degree-punishment", "select.single-discount",
         "select.degree-discount",
         "attack.rank_targets", "attack.non_infectious", "attack.infectious")
COUNTS = ("graph.arcs", "graph.shortest_paths.calls",
          "graph.unit_weights.calls", "graph.components.calls",
          "graph.components.alive_nodes", "graph.power_iteration.calls",
          "graph.power_iteration.matvecs", "params.score_vector.calls",
          "metric.failures", "select.seeds", "select.padded",
          "select.stop_early", "attack.non_infectious.calls",
          "attack.points", "attack.infectious.calls",
          "attack.infected_total", "attack.errors")
PER_LAYER = {**{f"{s}_s": "s" for s in SPANS},
             **{c: "count" for c in COUNTS},
             "trace.run_s": "s", "trace.overhead_pct": "%"}

MIN_REPS = 3            # untraced repetitions with --trace 0
MIN_TRACE_PAIRS = 2     # untraced + traced pairs with --trace 1
DEADLINE_S = 170        # the whole run, building the input included
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/centnet/__init__.py", "tests/_synth.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a centnet checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    began = time.perf_counter()
    parts = workloads.parts_of(args.workload)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs, sizes = {}, {}
        for p in parts:
            edges = workloads.make_edges(p, args.seed)
            inputs[p.name] = str(work / f"{p.name}.txt")
            workloads.write_edge_list(edges, inputs[p.name])
            sizes[p.name] = {"generator": "ba_edges", "n": p.n,
                             "m": len(edges), "directed": p.directed,
                             "weighted": p.weighted}
        reps = run_reps(args, inputs, work, began)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, workloads.op_keys(args.workload), sizes, reps)
    return 0


class RepFailed(Exception):
    pass


def run_reps(args, inputs: dict, work: Path, began: float) -> list[dict]:
    """Fresh-process repetitions; traced ones alternate with untraced."""
    env = {**os.environ, "PYTHONHASHSEED": "0",
           **{k: "1" for k in THREAD_ENV}}
    minimum = 2 * MIN_TRACE_PAIRS if args.trace else MIN_REPS
    reps: list[dict] = []
    spent = longest = 0.0       # seconds of repetitions, checks left out
    while len(reps) < minimum or spent + longest <= args.seconds:
        i = len(reps)
        req = {"workload": args.workload, "seed": args.seed,
               "inputs": inputs,
               "trace": bool(args.trace and i % 2),
               "check": i == 0, "result": str(work / f"rep{i}.json")}
        (work / "request.json").write_text(json.dumps(req))
        t0 = time.perf_counter()
        budget = DEADLINE_S - (t0 - began)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "rep.py"),
                 str(work / "request.json")],
                env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise RepFailed(f"repetition {i} passed the "
                            f"{DEADLINE_S} s deadline") from exc
        if proc.returncode != 0:
            raise RepFailed(f"repetition {i} exited {proc.returncode}")
        rep = json.loads(Path(req["result"]).read_text())
        rep["traced"] = req["trace"]
        reps.append(rep)
        took = time.perf_counter() - t0 - rep.get("check_s", 0.0)
        spent += took
        longest = max(longest, took)
    return reps


def failures(ops: list[str], reps: list[dict]) -> list[tuple]:
    """(repetition, op, why) for each op that raised, failed the check,
    or gave another output than in the first repetition."""
    out = []
    first = reps[0]["digests"]
    for i, rep in enumerate(reps):
        for op in ops:
            why = rep["errors"].get(op) or "; ".join(
                rep.get("check", {}).get(op, [])[:3])
            if not why and rep["digests"][op] != first[op]:
                why = "output differs from repetition 0"
            if why:
                out.append((i, op, why))
    return out


def environment() -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "threads": {k: "1" for k in THREAD_ENV}}


def report(args, ops: list[str], sizes: dict, reps: list[dict]) -> None:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    failed = failures(ops, reps)
    attempted = len(reps) * len(ops)

    def median(key, rows):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        values = {f"{s}_s": statistics.median(r["self_s"].get(s, 0.0)
                                              for r in traced)
                  for s in SPANS}
        values.update({c: traced[0]["counts"].get(c, 0) for c in COUNTS})
        values["trace.run_s"] = median("run_s", traced)
        values["trace.overhead_pct"] = \
            100.0 * (values["trace.run_s"] / median("run_s", plain) - 1.0)
        units = PER_LAYER
    else:
        values = {k: median(k, plain) for k in END_TO_END}
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    name = args.workload
    for k, m in metrics.items():
        print(f"{name} {k} = {m['value']:.6g} {m['unit']}")
    for part in sizes:
        tried = sum(op.startswith(f"{part}/") for op in ops) * len(reps)
        bad = sum(op.startswith(f"{part}/") for _, op, _ in failed)
        setup = statistics.median(r["part_setup_s"][part] for r in plain)
        run = statistics.median(r["part_run_s"][part] for r in plain)
        print(f"{name}/{part} setup_s = {setup:.6g} s, run_s = {run:.6g} s, "
              f"error_rate = {bad / tried:.6g} ratio")
    print(f"{name} error_rate = {len(failed) / attempted:.6g} ratio "
          f"({len(failed)} failed of {attempted} attempted)")
    messages = [f"rep {i} {op}: {why}" for i, op, why in failed]
    for msg in messages:
        print(f"{name} FAILED {msg}", file=sys.stderr)
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": sizes,
        "env": environment(),
        "check_s": reps[0].get("check_s"),
        "counts_repeat": all(r["counts"] == traced[0]["counts"]
                             for r in traced),
        "reps": [{k: r[k] for k in ("traced", "setup_s", "run_s",
                                    "peak_rss_mb", "part_setup_s",
                                    "part_run_s", "op_seconds")}
                 for r in reps],
        "failures": messages,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
