"""The benchmark's workloads: seeded inputs, timed operations, checks.

A workload is made of parts. Each part writes one edge-list file from
`tests/_synth.py` edges, runs its operations through centnet's public
API on the parsed graph, and checks every output against a reference
that shares no code with centnet (networkx or scipy). See README.md for
why each part exists and why parts share a workload.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# Tolerances of the checks. Scores compared with networkx use the tier-1
# 1e-9 tolerance, relative so that betweenness values near 1e5 keep the
# same number of exact digits. A fixed point is accepted when its
# sup-norm residual is below 1e-8 of the vector's L1 mass: each metric
# stops once no entry moves by 1e-10 under a normalisation no larger
# than that mass, so a correct vector sits near 1e-10.
REL_TOL = 1e-9
ABS_TOL = 1e-9
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Part:
    name: str
    n: int
    directed: bool = False
    weighted: bool = False
    ops: tuple = ()           # metric ids, or attack sources
    attack: str = ""          # non-infectious | infectious; "" for metrics
    phi_grid: tuple = ()
    beta: float = 0.0
    runs: int = 1


PARTS = {
    p.name: p for p in (
        Part("paths", n=1000,
                 ops=("betweenness", "closeness", "load")),
        Part("spectral", n=10_000, directed=True,
                 weighted=True,
                 ops=("pagerank", "leaderrank", "eigenvector",
                      "dynamical-influence", "cumulative-nomination",
                      "contribution")),
        Part("dismantle", n=50_000,
                 ops=("degree", "k-shell", "random"),
                 attack="non-infectious",
                 phi_grid=tuple(i / 40 for i in range(21))),
        Part("spread", n=3000,
                 ops=("degree", "collective-influence", "degree-distance",
                      "degree-punishment", "single-discount",
                      "degree-discount"),
                 attack="infectious", phi_grid=(0.005, 0.01, 0.02),
                 beta=0.1, runs=10),
    )
}

WORKLOADS = {"metrics": ("paths", "spectral"),
             "attacks": ("dismantle", "spread")}


def parts_of(workload: str) -> list[Part]:
    return [PARTS[name] for name in WORKLOADS[workload]]


def op_keys(workload: str) -> list[str]:
    """"part/op" for every operation of the workload."""
    return [f"{p.name}/{op}" for p in parts_of(workload) for op in p.ops]

BA_M = 3


# -- inputs -------------------------------------------------------------------


def make_edges(part: Part, seed: int) -> list[tuple]:
    """Edges as (u, v) or (u, v, weight); node labels are ints."""
    from _synth import ba_edges

    edges = ba_edges(part.n, BA_M, seed)
    if not part.directed:
        return edges
    rng = random.Random(seed * 1_000_003 + 1)
    arcs = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v, rng.uniform(0.5, 4.0)))
    return arcs


def write_edge_list(edges, path) -> None:
    # repr() round-trips a float exactly, so the parsed weights are the
    # generated ones
    with open(path, "w", encoding="utf-8") as fh:
        for e in edges:
            fh.write(" ".join(repr(x) for x in e) + "\n")


def read_edge_list(path) -> list[tuple]:
    edges = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cols = line.split()
            if len(cols) == 3:
                edges.append((int(cols[0]), int(cols[1]), float(cols[2])))
            else:
                edges.append((int(cols[0]), int(cols[1])))
    return edges


# -- the timed operations ----------------------------------------------------


def plan_for(part: Part, seed: int):
    from centnet import AttackPlan

    sources = [op if op in ("degree", "k-shell", "random")
               else {"strategy": op} for op in part.ops]
    return AttackPlan(kind=part.attack, sources=sources,
                      phi_grid=list(part.phi_grid), beta=part.beta,
                      runs=part.runs, rng_seed=seed)


def run_ops(part: Part, g, seed: int) -> tuple[dict, dict]:
    """Run the part's operations on graph `g`.

    Returns ({op: output or error text}, {op: seconds}). An output is a
    ScoreVector for point metrics and the list of that source's rows for
    attacks; an op fails when it raises or run_experiment reports it.
    """
    from centnet import registry, run_experiment

    outputs, seconds = {}, {}
    if not part.attack:
        for op in part.ops:
            start = time.perf_counter()
            try:
                outputs[op] = registry.compute_point_metric(g, op)
            except Exception as exc:    # a failed op is counted, not fatal
                outputs[op] = f"{type(exc).__name__}: {exc}"
            seconds[op] = time.perf_counter() - start
        return outputs, seconds
    start = time.perf_counter()
    try:
        result = run_experiment(plan_for(part, seed), g)
    except Exception as exc:            # a failed op is counted, not fatal
        return {op: f"{type(exc).__name__}: {exc}" for op in part.ops}, \
            {"run_experiment": time.perf_counter() - start}
    seconds["run_experiment"] = time.perf_counter() - start
    errors = dict(result.errors)
    for op in part.ops:
        outputs[op] = errors.get(op) or [
            r for r in result.rows if r.metric == op]
    return outputs, seconds


def digest(output) -> str:
    """Stable hash of an op's output, ignoring elapsed times."""
    if isinstance(output, str):
        return "error"
    if hasattr(output, "values"):
        text = repr(output.values)
    else:
        text = repr([(r.metric, r.phi, r.run, r.giant_fraction, r.seeds,
                      r.infected_total, r.node_states) for r in output])
    return hashlib.sha256(text.encode()).hexdigest()


# -- correctness checks ------------------------------------------------------


class Reference:
    """Independent view of the input: ids in first-appearance order, as
    the edge-list format defines them, and scipy/networkx graphs."""

    def __init__(self, part: Part, edges):
        ids: dict = {}
        for e in edges:
            for x in e[:2]:
                ids.setdefault(x, len(ids))
        self.part = part
        self.labels = list(ids)
        self.n = len(ids)
        self.src = np.array([ids[e[0]] for e in edges])
        self.dst = np.array([ids[e[1]] for e in edges])
        self.weight = np.array([e[2] if len(e) == 3 else 1.0
                                for e in edges])

    def arcs(self, weighted: bool) -> sp.csr_matrix:
        """A[u, v] = weight of the arc u -> v; both ways if undirected."""
        src, dst, w = self.src, self.dst, self.weight
        if not weighted:
            w = np.ones_like(w)
        if not self.part.directed:
            src, dst, w = (np.concatenate([src, dst]),
                           np.concatenate([dst, src]), np.concatenate([w, w]))
        return sp.csr_matrix((w, (src, dst)), shape=(self.n, self.n))

    def nx_graph(self):
        import networkx as nx

        h = nx.Graph()
        h.add_nodes_from(range(self.n))
        h.add_edges_from(zip(self.src.tolist(), self.dst.tolist()))
        return h


def giant_size(adj: sp.csr_matrix, alive: np.ndarray) -> int:
    keep = np.flatnonzero(alive)
    if keep.size == 0:
        return 0
    _, labels = connected_components(adj[keep][:, keep], directed=False)
    return int(np.bincount(labels).max())


def removal_count(phi: float, n: int) -> int:
    return min(n, math.ceil(phi * n - 1e-9))


def check(part: Part, ref: Reference, g, outputs: dict, seed: int) -> dict:
    """{op: list of failure messages}; an empty list means correct."""
    failures = {op: [] for op in part.ops}
    if tuple(int(x) for x in g.labels) != tuple(ref.labels):
        for op in part.ops:
            failures[op].append("node ids differ from first-appearance order")
        return failures
    for op, out in outputs.items():
        if isinstance(out, str):
            failures[op].append(out)
        else:
            failures[op] += CHECKS[part.name](part, ref, op, out, seed)
    return failures


def _close(got, want, what: str) -> list[str]:
    for v, (a, b) in enumerate(zip(got, want)):
        if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return [f"{what}: node {v} has {a!r}, reference {b!r}"]
    if len(got) != len(want):
        return [f"{what}: {len(got)} scores for {len(want)} nodes"]
    return []


def _check_paths(part, ref, op, scores, seed):
    import networkx as nx

    h = ref.nx_graph()
    vals = list(scores.values)
    if op == "betweenness":
        want = nx.betweenness_centrality(h, normalized=False)
    elif op == "closeness":
        # networkx scales by the n - 1 reachable peers (graph is connected)
        want = nx.closeness_centrality(h)
        vals = [x * (ref.n - 1) for x in vals]
    else:
        want = nx.load_centrality(h, normalized=False)
    return _close(vals, [want[v] for v in range(ref.n)], op)


def _eigen_residual(m):
    """Residual of M x = lambda x, with lambda the Rayleigh quotient."""
    def residual(x):
        y = m @ x
        return y * (float(x @ x) / float(x @ y)) - x
    return residual


def _spectral_residual(ref: Reference, op: str):
    """The fixed-point equation each spectral metric's output solves, as
    a function from the returned vector to its residual vector."""
    n = ref.n
    a = ref.arcs(weighted=False)
    outdeg = np.asarray(a.sum(axis=1)).ravel()
    eye = sp.identity(n, format="csr")
    if op in ("eigenvector", "dynamical-influence"):
        # in-aggregation with the +I shift: y_v = x_v + sum_u w_uv x_u
        return _eigen_residual(eye + ref.arcs(weighted=True).T)
    if op == "cumulative-nomination":
        return _eigen_residual(eye + a.T)
    if op == "contribution":
        # weight times Jaccard dissimilarity of the undirected
        # neighbourhoods, on each in-arc
        und = ((a + a.T) > 0).astype(float).tocsr()
        deg = np.asarray(und.sum(axis=1)).ravel()
        w = ref.arcs(weighted=True).tocoo()
        common = np.asarray(
            und[w.row].multiply(und[w.col]).sum(axis=1)).ravel()
        union = deg[w.row] + deg[w.col] - common
        dis = 1.0 - np.where(union > 0, common / np.maximum(union, 1), 0.0)
        m = sp.csr_matrix((w.data * dis, (w.row, w.col)), shape=(n, n))
        return _eigen_residual(eye + m.T)
    if op == "pagerank":
        # x = 1 + 0.85 P^T x, P the out-degree-normalised walk
        p = sp.diags(1.0 / np.maximum(outdeg, 1)) @ a
        return lambda x: x - 1.0 - 0.85 * (p.T @ x)
    if op == "leaderrank":
        # ground node g linked both ways to every node; the returned
        # score is s_v + s_g / n, so recover s_g first
        share = 1.0 / (outdeg + 1.0)
        walk = (sp.diags(share) @ a).T

        def residual(final):
            s_g = (final @ share) / (1.0 + share.sum() / n)
            s = final - s_g / n
            return np.concatenate([s - s_g / n - walk @ s,
                                   [s_g - s @ share]])
        return residual
    raise ValueError(op)


def fixed_point_residual(ref: Reference, op: str, values) -> float:
    x = np.asarray(values, dtype=float)
    r = _spectral_residual(ref, op)(x)
    return float(np.max(np.abs(r)) / np.sum(np.abs(x)))


def _check_spectral(part, ref, op, scores, seed):
    r = fixed_point_residual(ref, op, scores.values)
    if not r < RESIDUAL_TOL:
        return [f"{op}: fixed-point residual {r:.3e}"]
    return []


def attack_ordering(ref: Reference, source: str, run: int, seed: int):
    """The removal order centnet documents for a static source: score
    descending, node id ascending; random is a seeded shuffle."""
    if source == "random":
        order = list(range(ref.n))
        random.Random(seed + run).shuffle(order)
        return order
    if source == "degree":
        score = np.asarray(ref.arcs(weighted=False).sum(axis=1)).ravel()
    else:
        import networkx as nx
        core = nx.core_number(ref.nx_graph())
        score = np.array([core[v] for v in range(ref.n)])
    return np.lexsort((np.arange(ref.n), -score)).tolist()


def _check_dismantle(part, ref, op, rows, seed):
    adj = ref.arcs(weighted=False)
    want_rows = len(set(part.phi_grid) | {0.0}) * part.runs
    if len(rows) != want_rows:
        return [f"{op}: {len(rows)} rows, expected {want_rows}"]
    out = []
    orders = {run: attack_ordering(ref, op, run, seed)
              for run in range(part.runs)}
    for r in rows:
        k = removal_count(r.phi, ref.n)
        alive = np.ones(ref.n, dtype=bool)
        alive[orders[r.run][:k]] = False
        want = giant_size(adj, alive) / ref.n
        if r.seeds != k or r.giant_fraction != want:
            out.append(f"{op} phi={r.phi}: removed {r.seeds} giant "
                       f"{r.giant_fraction!r}, reference {k} {want!r}")
    return out


def _check_spread(part, ref, op, rows, seed):
    adj = ref.arcs(weighted=False)
    want_rows = len(set(part.phi_grid) | {0.0}) * part.runs
    if len(rows) != want_rows:
        return [f"{op}: {len(rows)} rows, expected {want_rows}"]
    out = []
    for r in rows:
        states = np.array(r.node_states)
        removed = int(np.count_nonzero(states == "R"))
        want = giant_size(adj, states == "S") / ref.n
        # infectious_attack dedups its seeds, so a duplicate in the
        # selected prefix shows as fewer seeds than the budget
        if r.seeds != removal_count(r.phi, ref.n):
            out.append(f"{op} phi={r.phi} run={r.run}: {r.seeds} distinct "
                       f"seeds, budget {removal_count(r.phi, ref.n)}")
        if r.giant_fraction != want or removed != r.infected_total:
            out.append(f"{op} phi={r.phi} run={r.run}: giant "
                       f"{r.giant_fraction!r} infected {r.infected_total}, "
                       f"node_states give {want!r} and {removed}")
    return out


CHECKS = {"paths": _check_paths, "spectral": _check_spectral,
          "dismantle": _check_dismantle, "spread": _check_spread}
