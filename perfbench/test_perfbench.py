"""Tests of the benchmark itself, on small instances of its workloads.

Run from the repository root: python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from centnet import io as cio
from centnet.graph import Graph
from centnet.params import ScoreVector
from tracing import Tracer, centnet_modules, installed

SMALL = {"paths": 60, "spectral": 200, "dismantle": 500, "spread": 300}
SEED = 5


def small(name):
    return dataclasses.replace(workloads.PARTS[name], n=SMALL[name])


def traced_run(w, seed, path):
    workloads.write_edge_list(workloads.make_edges(w, seed), path)
    tracer = Tracer()
    with installed(tracer):
        g = cio.parse_edge_list(path, directed=w.directed)
        outputs, _ = workloads.run_ops(w, g, seed)
    return g, outputs, tracer


@pytest.fixture(scope="module", params=sorted(SMALL))
def case(request, tmp_path_factory):
    w = small(request.param)
    path = tmp_path_factory.mktemp(w.name) / "input.txt"
    g, outputs, tracer = traced_run(w, SEED, path)
    ref = workloads.Reference(w, workloads.read_edge_list(path))
    return w, ref, g, outputs, tracer


def test_same_seed_gives_identical_files(tmp_path):
    for name in SMALL:
        w = small(name)
        blobs = []
        for i, seed in enumerate((SEED, SEED, SEED + 1)):
            path = tmp_path / f"{name}{i}.txt"
            workloads.write_edge_list(workloads.make_edges(w, seed), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0] != blobs[2]


def _all_bindings():
    out = {(mod.__name__, attr): val for mod in centnet_modules()
           for attr, val in vars(mod).items()}
    out["Graph.unit_weights"] = Graph.__dict__["unit_weights"]
    out["ScoreVector.__post_init__"] = ScoreVector.__dict__["__post_init__"]
    return out


def test_wrappers_cover_every_binding_and_are_removed(tmp_path):
    before = _all_bindings()
    with installed(Tracer()):
        during = _all_bindings()
        g = cio.parse_edge_list(_edge_file(tmp_path), directed=False)
        assert g.unit_weights
    assert _all_bindings() == before
    changed = {key for key in before if during[key] is not before[key]}
    expected = {
        "shortest_paths": ("graph", "globalmetrics", "graphmetrics",
                           "groupselect", ""),
        "components": ("graph", "globalmetrics", "graphmetrics",
                       "resilience", ""),
        "power_iteration": ("graph", "iterative", "globalmetrics", ""),
        "build_graph": ("io", "graph", ""),
    }
    for attr, mods in expected.items():
        for mod in mods:
            name = f"centnet.{mod}" if mod else "centnet"
            assert (name, attr) in changed
    assert {"Graph.unit_weights", "ScoreVector.__post_init__"} <= changed


def _edge_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("0 1\n1 2\n")
    return path


def test_outputs_pass_their_checks(case):
    w, ref, g, outputs, _ = case
    assert workloads.check(w, ref, g, outputs, SEED) == \
        {op: [] for op in w.ops}


def _corrupt(w, out):
    """Copies of one op's output, each with one deliberate defect."""
    if isinstance(out, ScoreVector):
        vals = list(out.values)
        top = max(range(len(vals)), key=lambda v: abs(vals[v]))
        vals[top] *= 1.01
        return [ScoreVector(tuple(vals), out.metric_id)]
    row = next(r for r in out if r.phi > 0)
    i = out.index(row)
    bad = [dataclasses.replace(row, giant_fraction=row.giant_fraction
                               - 1.0 / w.n)]
    if w.attack == "infectious":
        bad += [dataclasses.replace(row, seeds=row.seeds - 1),
                dataclasses.replace(row,
                                    infected_total=row.infected_total + 1)]
    else:
        bad += [dataclasses.replace(row, seeds=row.seeds + 1)]
    return [out[:i] + [r] + out[i + 1:] for r in bad]


def test_checks_flag_corrupted_outputs(case):
    w, ref, g, outputs, _ = case
    for op in w.ops:
        for corrupted in _corrupt(w, outputs[op]):
            found = workloads.check(w, ref, g, {**outputs, op: corrupted},
                                    SEED)
            assert found[op], op


def test_errors_and_changed_repeats_count_as_failures(case):
    w, _, _, outputs, _ = case
    op = w.ops[0]
    digests = {o: workloads.digest(out) for o, out in outputs.items()}
    rep = {"digests": digests, "errors": {}, "check": {}}
    assert run.failures(w.ops, [rep, rep]) == []
    moved = {**digests, op: workloads.digest(_corrupt(w, outputs[op])[0])}
    raised = {"digests": {**digests, op: "error"},
              "errors": {op: "ValueError: x"}}
    found = run.failures(w.ops,
                         [rep, {"digests": moved, "errors": {}}, raised])
    assert [(i, o) for i, o, _ in found] == [(1, op), (2, op)]


def test_exact_counts_repeat(case, tmp_path):
    w, _, _, _, first = case
    _, _, second = traced_run(w, SEED, tmp_path / "again.txt")
    keys = ("graph.shortest_paths.calls", "graph.components.calls",
            "graph.power_iteration.matvecs", "attack.infected_total",
            "select.seeds", "select.padded")
    assert {k: first.counts[k] for k in keys} == \
        {k: second.counts[k] for k in keys}
    assert set(first.counts) <= set(run.COUNTS)
    assert set(first.self_s) <= set(run.SPANS)


def test_counts_match_the_work(case):
    w, _, _, outputs, tracer = case
    c = tracer.counts
    if w.name == "paths":
        assert c["graph.shortest_paths.calls"] == 3 * w.n
        assert c["graph.unit_weights.calls"] == 3 * w.n
    if w.name == "spectral":
        assert c["graph.power_iteration.calls"] == 3
        assert c["graph.power_iteration.matvecs"] > 3
    if w.name == "dismantle":
        assert c["graph.components.calls"] == c["attack.points"] == 63
    if w.name == "spread":
        rows = [r for op in w.ops for r in outputs[op]]
        assert c["attack.infected_total"] == \
            sum(r.infected_total for r in rows)
        assert c["select.seeds"] + c["select.padded"] == 5 * 6


def test_workloads_cover_every_part_once():
    names = [name for parts in workloads.WORKLOADS.values()
             for name in parts]
    assert sorted(names) == sorted(workloads.PARTS)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [x["name"] for x in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {x["name"]: x["unit"] for x in spec["end_to_end"]} == \
        run.END_TO_END
    assert {x["name"]: x["unit"] for x in spec["per_layer"]} == \
        run.PER_LAYER


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metrics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
