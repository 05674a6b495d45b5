"""Whole-graph centralization and cohesion measures."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import GraphInputError, SizeCapError, UnsupportedGraphError
from .graph import INF, Graph, all_distances, components, shortest_paths
from .globalmetrics import betweenness_family, closeness_family, \
    flow_betweenness
from .iterative import k_shell
from .local import local_clustering
from .params import ScoreVector, score_vector


@dataclass
class GraphMetricValue:
    metric_id: str
    value: object                 # real, integer, or node-set tuple
    skipped_pairs: int = 0
    details: dict = field(default_factory=dict)

    def numeric(self) -> float:
        """Scalar view; node sets report their size."""
        if isinstance(self.value, (tuple, list, frozenset, set)):
            return float(len(self.value))
        return float(self.value)


# -- distance / dominance ----------------------------------------------------


def dispersion(g: Graph) -> GraphMetricValue:
    """Sum of distances over ordered reachable pairs (compactness)."""
    total = 0.0
    skipped = 0
    for v in range(g.n):
        dist = shortest_paths(g, v).dist
        for u in range(g.n):
            if u == v:
                continue
            if dist[u] == INF:
                skipped += 1
            else:
                total += dist[u]
    return GraphMetricValue("dispersion", total, skipped)


def degree_gc(g: Graph, normalized: bool = False) -> GraphMetricValue:
    """Degree dominance of the most connected vertex."""
    deg = g.degrees()
    if not deg:
        return GraphMetricValue("degree-gc", 0.0)
    d_star = max(deg)
    if normalized:
        if g.n < 3:
            raise GraphInputError("normalized degree-GC needs n >= 3")
        value = sum(d_star - d for d in deg) / (g.n ** 2 - 3 * g.n + 2)
    else:
        value = float(sum(_binom2(1 + d_star - d) for d in deg))
    return GraphMetricValue("degree-gc", value,
                            details={"normalized": normalized})


def _binom2(a: int) -> int:
    return a * (a - 1) // 2 if a >= 2 else 0


def centralization(g: Graph, base: str) -> GraphMetricValue:
    """Summed gap to the most central node, star-normalized to [0,1]."""
    n = g.n
    if n < 3:
        raise GraphInputError("centralization needs n >= 3")
    if base == "betweenness":
        raw = betweenness_family(g, "betweenness").values
        pairs = (n - 1) * (n - 2) if g.directed else (n - 1) * (n - 2) / 2
        norm = [x / pairs for x in raw]
        value = sum(max(norm) - x for x in norm) / (n - 1)
    elif base == "closeness":
        if components(g).giant_size != n:
            raise UnsupportedGraphError(
                "closeness centralization needs a connected graph")
        clo = closeness_family(g, "closeness").values
        norm = [(n - 1) * x for x in clo]
        value = sum(max(norm) - x for x in norm) \
            / ((n ** 2 - 3 * n + 2) / (2 * n - 3))
    elif base == "flow-betweenness":
        raw = flow_betweenness(g, normalized=True).values
        pairs = (n - 1) * (n - 2) if g.directed else (n - 1) * (n - 2) / 2
        norm = [x / pairs for x in raw]
        value = sum(max(norm) - x for x in norm) / (n - 1)
    else:
        raise GraphInputError(f"unknown centralization base {base!r}")
    return GraphMetricValue(f"{base}-gc", value)


def reciprocity(g: Graph) -> GraphMetricValue:
    """Tr(A^2) / m: fraction of arcs that are reciprocated."""
    if not g.directed:
        raise UnsupportedGraphError("reciprocity needs a directed graph")
    if g.m == 0:
        return GraphMetricValue("reciprocity", 0.0)
    a = g.adjacency(False)
    return GraphMetricValue("reciprocity", a.multiply(a.T).nnz / g.m)


# -- cohesive subgroups -------------------------------------------------------


def k_core_set(g: Graph, k: int) -> tuple:
    """Maximal vertex set whose induced subgraph has min degree >= k:
    the nodes whose k-shell index is at least k."""
    return tuple(v for v, s in enumerate(k_shell(g).shell_index) if s >= k)


def _max_clique(g: Graph) -> tuple:
    """Exact maximum clique, branch and bound with pivoting."""
    nbr = [set(g.all_neighbors(v)) for v in range(g.n)]
    best: list[int] = []

    def expand(r: list[int], p: set):
        nonlocal best
        if not p:
            if len(r) > len(best):
                best = r[:]
            return
        if len(r) + len(p) <= len(best):
            return
        pivot = max(p, key=lambda v: len(nbr[v] & p))
        for v in sorted(p - nbr[pivot]):
            r.append(v)
            expand(r, p & nbr[v])
            r.pop()
            p = p - {v}
            if len(r) + len(p) <= len(best):
                break

    expand([], set(range(g.n)))
    return tuple(sorted(best))


def _max_kplex(g: Graph, k: int) -> tuple:
    """Exact maximum k-plex by bounded enumeration."""
    n = g.n
    nbr = [set(g.all_neighbors(v)) for v in range(n)]
    best: list[int] = []

    def can_add(s: list[int], counts: dict, v: int) -> bool:
        size = len(s) + 1
        dv = sum(1 for u in s if u in nbr[v])
        if dv < size - k:
            return False
        return all(counts[u] + (1 if v in nbr[u] else 0) >= size - k
                   for u in s)

    def expand(s: list[int], counts: dict, cands: list[int]):
        nonlocal best
        if len(s) > len(best):
            best = s[:]
        if len(s) + len(cands) <= len(best):
            return
        for i, v in enumerate(cands):
            if not can_add(s, counts, v):
                continue
            counts2 = {u: c + (1 if v in nbr[u] else 0)
                       for u, c in counts.items()}
            counts2[v] = sum(1 for u in s if u in nbr[v])
            expand(s + [v], counts2, cands[i + 1:])

    expand([], {}, list(range(n)))
    return tuple(sorted(best))


def _split_max_flow(n: int, arcs: set, s: int, t: int,
                    forbidden: set) -> tuple[int, set]:
    """Unit-vertex-capacity max flow via node splitting.

    Returns (flow value, min vertex cut). Node v becomes v_in = 2v,
    v_out = 2v+1 with a capacity-1 internal arc; graph arcs get a large
    capacity. `forbidden` nodes are excluded entirely. The cut is the
    nodes whose v_in the positive residual reaches from s_in and whose
    v_out it does not; every maximum flow leaves the same reachable set.
    """
    big = n + 1
    keep = np.ones(n, dtype=bool)
    keep[list(forbidden)] = False
    inner = np.flatnonzero(keep)
    uv = np.array(list(arcs), dtype=np.int64).reshape(-1, 2)
    uv = uv[keep[uv[:, 0]] & keep[uv[:, 1]]]
    cap = np.ones(inner.size, dtype=np.int32)
    cap[np.isin(inner, (s, t))] = big
    net = scipy.sparse.csr_array(
        (np.concatenate([cap, np.full(len(uv), big, dtype=np.int32)]),
         (np.concatenate([2 * inner, 2 * uv[:, 0] + 1]),
          np.concatenate([2 * inner + 1, 2 * uv[:, 1]]))),
        shape=(2 * n, 2 * n))
    res = maximum_flow(net, 2 * s, 2 * t + 1)
    side = np.zeros(2 * n, dtype=bool)
    side[breadth_first_order(net - res.flow > 0, 2 * s,
                             return_predecessors=False)] = True
    cut = inner[side[2 * inner] & ~side[2 * inner + 1]]
    return int(res.flow_value), set(cut.tolist())


def _vertex_connectivity(g: Graph, nodes: list[int]) -> tuple[int, set]:
    """(kappa, witness min cut) of the induced subgraph on `nodes`."""
    node_set = set(nodes)
    nbr = {v: set(g.all_neighbors(v)) & node_set for v in nodes}
    arcs = {(u, v) for u in nodes for v in nbr[u]}
    k = len(nodes)
    if all(len(nbr[v]) == k - 1 for v in nodes):
        return k - 1, set()
    forbidden = set(range(g.n)) - node_set
    v0 = min(nodes, key=lambda v: (len(nbr[v]), v))
    best = len(nbr[v0])
    best_cut = set(nbr[v0])
    pairs = [(v0, u) for u in nodes if u != v0 and u not in nbr[v0]]
    nb = sorted(nbr[v0])
    pairs += [(a, b) for a, b in combinations(nb, 2) if b not in nbr[a]]
    for s, t in pairs:
        val, cut = _split_max_flow(g.n, arcs, s, t, forbidden)
        if val < best:
            best, best_cut = val, cut
    return best, best_cut


def k_component(g: Graph, k: int) -> tuple:
    """Largest vertex set whose induced subgraph is k-vertex-connected.

    Cohesive refinement: candidates start from components of the k-core;
    a candidate failing the connectivity test is split along a minimum
    vertex cut and the pieces retried.
    """
    best: tuple = ()
    core = k_core_set(g, k)
    if not core:
        return best
    in_core = set(core)
    sub_labels = components(g, mask=[v in in_core for v in range(g.n)])
    stack = [sorted(sub_labels.members(c)) for c in range(len(sub_labels.sizes))
             if sub_labels.sizes[c] > k]
    seen: set = set()
    while stack:
        cand = stack.pop()
        key = tuple(cand)
        if key in seen or len(cand) <= max(k, len(best)):
            continue
        seen.add(key)
        kappa, cut = _vertex_connectivity(g, cand)
        if kappa >= k:
            if len(cand) > len(best):
                best = tuple(cand)
            continue
        if not cut:
            continue
        # Moody-White refinement: each side of the separator, with the
        # separator re-attached, is inspected recursively
        rest = [v for v in cand if v not in cut]
        mask = [False] * g.n
        for v in rest:
            mask[v] = True
        lab = components(g, mask=mask)
        for c in range(len(lab.sizes)):
            piece = sorted(set(lab.members(c)) | cut)
            if len(piece) > k and len(piece) < len(cand):
                stack.append(piece)
    return best


def cohesive_subgroup(g: Graph, kind: str, k: int = 1,
                      size_cap: int = 200) -> GraphMetricValue:
    """k-core / maximum clique / maximum k-plex / largest k-component."""
    if k < 1:
        raise GraphInputError("k must be >= 1")
    if k > g.n:
        return GraphMetricValue(kind, ())
    if kind in ("k-clique-max", "k-plex-max") and g.n > size_cap:
        raise SizeCapError(
            f"{kind} is exponential; n={g.n} exceeds size_cap={size_cap} "
            f"(raise size_cap explicitly to force)")
    if kind == "k-core":
        return GraphMetricValue("k-core", k_core_set(g, k),
                                details={"k": k})
    if kind == "k-clique-max":
        return GraphMetricValue("k-clique-max", _max_clique(g))
    if kind == "k-plex-max":
        return GraphMetricValue("k-plex-max", _max_kplex(g, k),
                                details={"k": k})
    if kind == "k-component":
        return GraphMetricValue("k-component", k_component(g, k),
                                details={"k": k})
    raise GraphInputError(f"unknown cohesive subgroup kind {kind!r}")


# -- clustering / assortativity ----------------------------------------------


def global_clustering(g: Graph) -> GraphMetricValue:
    """Mean local clustering coefficient (degree <2 contributes 0)."""
    cc = local_clustering(g)
    value = sum(cc.tolist()) / g.n if g.n else 0.0
    return GraphMetricValue("global-clustering", value)


def _endpoint_series(g: Graph, mode: str):
    """(xs, ys): the excess degrees at the tail and at the head of every
    arc, in storage order."""
    out, inn = g.out_csr.degrees, g.in_csr.degrees
    ends = {"undirected": (g.degree_array,) * 2,
            "directed-out-in": (out, inn), "in-in": (inn, inn),
            "out-out": (out, out)}.get(mode)
    if ends is None:
        raise GraphInputError(f"unknown assortativity mode {mode!r}")
    if mode != "undirected" and not g.directed:
        raise UnsupportedGraphError(f"{mode} assortativity needs a "
                                    "directed graph")
    return ends[0][g.arc_tails] - 1.0, ends[1][g.out_csr.indices] - 1.0


def assortativity(g: Graph, mode: str = "undirected") -> GraphMetricValue:
    """Pearson correlation of excess degrees across edge endpoints."""
    xs, ys = _endpoint_series(g, mode)
    if xs.size < 2:
        raise GraphInputError("assortativity needs at least 2 edges")
    dx, dy = xs - xs.mean(), ys - ys.mean()
    vx, vy = dx @ dx, dy @ dy
    if vx == 0.0 or vy == 0.0:
        raise GraphInputError(
            "assortativity undefined: zero excess-degree variance")
    return GraphMetricValue(f"assortativity-{mode}",
                            float(dx @ dy / math.sqrt(vx * vy)))


def local_assortativity(g: Graph) -> ScoreVector:
    """Per-node assortativity share; sums to the global coefficient."""
    if g.directed:
        raise UnsupportedGraphError(
            "local assortativity is defined on undirected graphs")
    xs, _ = _endpoint_series(g, "undirected")
    if xs.size < 2:
        raise GraphInputError("local assortativity needs at least 2 edges")
    mu = xs.mean()
    var = np.mean((xs - mu) ** 2)
    if var == 0.0:
        raise GraphInputError(
            "local assortativity undefined: zero excess-degree variance")
    deg = g.degree_array
    j = deg - 1.0
    # the mean excess degree of v's neighbours
    kbar = np.divide(g.adjacency(False) @ j, deg, out=np.zeros(g.n),
                     where=deg > 0)
    return score_vector("local-assortativity",
                        (j + 1) * (j * kbar - mu * mu) / (2 * g.m * var))


# -- hyperbolicity -------------------------------------------------------------


def delta_hyperbolicity(g: Graph, sample_count: int = 1000,
                        rng_seed: int = 0) -> GraphMetricValue:
    """Thin-triangle curvature over sampled (or exhaustive) node triples.

    For each triple, delta is the smallest worst-case distance any node
    has to the three geodesic sets. Reports max delta as the value; the
    mean delta and mean delta / (min side length) ride in details.
    """
    if sample_count < 1:
        raise GraphInputError("sample_count must be >= 1")
    n = g.n
    if n and components(g).giant_size != n:
        raise UnsupportedGraphError("delta-hyperbolicity needs a "
                                    "connected graph")
    if n < 3:
        return GraphMetricValue("delta-hyperbolicity", 0.0,
                                details={"mean_delta": 0.0,
                                         "mean_ratio": 0.0, "triples": 0})
    dist = all_distances(g)
    total = n * (n - 1) * (n - 2) // 6
    if sample_count >= total:
        triples = list(combinations(range(n), 3))
    else:
        rng = random.Random(rng_seed)
        triples = [tuple(sorted(rng.sample(range(n), 3)))
                   for _ in range(sample_count)]

    def geodesic_nodes(u, v):
        duv = dist[u][v]
        return [w for w in range(n) if dist[u][w] + dist[w][v] == duv]

    deltas = []
    ratios = []
    for i, j, k in triples:
        sides = [geodesic_nodes(i, j), geodesic_nodes(i, k),
                 geodesic_nodes(j, k)]
        best = INF
        for m in range(n):
            dm = dist[m]
            worst = max(min(dm[w] for w in side) for side in sides)
            if worst < best:
                best = worst
                if best == 0:
                    break
        ell = min(dist[i][j], dist[i][k], dist[j][k])
        deltas.append(best)
        ratios.append(best / ell)
    return GraphMetricValue(
        "delta-hyperbolicity", max(deltas),
        details={"mean_delta": sum(deltas) / len(deltas),
                 "mean_ratio": sum(ratios) / len(ratios),
                 "triples": len(triples)})
