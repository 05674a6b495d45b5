"""One repetition of a workload, in a fresh process.

Usage: python3 perfbench/rep.py REQUEST.json

The request names the workload, seed, one edge-list file per part,
whether to trace and whether to check outputs, and the file to write the
result to. run.py starts one such process per repetition, because
repeats inside one process drift upward.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads
    from centnet import io as cio
    from tracing import Tracer, installed

    parts = workloads.parts_of(req["workload"])
    clock = time.perf_counter
    tracer = Tracer()
    graphs, setup_s, run_s, outputs, op_seconds = {}, {}, {}, {}, {}
    with installed(tracer) if req["trace"] else nullcontext():
        for p in parts:
            start = clock()
            graphs[p.name] = cio.parse_edge_list(req["inputs"][p.name],
                                                 directed=p.directed)
            setup_s[p.name] = clock() - start
        for p in parts:
            start = clock()
            outputs[p.name], seconds = workloads.run_ops(
                p, graphs[p.name], req["seed"])
            run_s[p.name] = clock() - start
            op_seconds.update({f"{p.name}/{k}": v for k, v in seconds.items()})
    # ru_maxrss is in KiB on Linux; read it before the checks allocate
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    flat = {f"{p.name}/{op}": out
            for p in parts for op, out in outputs[p.name].items()}
    result = {
        "setup_s": sum(setup_s.values()),
        "run_s": sum(run_s.values()),
        "peak_rss_mb": peak_rss_mb,
        "part_setup_s": setup_s,
        "part_run_s": run_s,
        "op_seconds": op_seconds,
        "digests": {k: workloads.digest(out) for k, out in flat.items()},
        "errors": {k: out for k, out in flat.items() if isinstance(out, str)},
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
    }
    if req["check"]:
        start = clock()
        result["check"] = {}
        for p in parts:
            ref = workloads.Reference(
                p, workloads.read_edge_list(req["inputs"][p.name]))
            found = workloads.check(p, ref, graphs[p.name], outputs[p.name],
                                    req["seed"])
            result["check"].update(
                {f"{p.name}/{op}": msgs for op, msgs in found.items()})
        result["check_s"] = clock() - start
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
