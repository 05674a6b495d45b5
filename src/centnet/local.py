"""Point centralities computable from a node's local neighborhood."""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations

from .errors import GraphInputError, UnsupportedGraphError
from .graph import Graph
from .params import MetricParams, ScoreVector, score_vector


def _require_undirected(g: Graph, name: str):
    if g.directed:
        raise UnsupportedGraphError(f"{name} is defined on undirected graphs")


# -- degree -------------------------------------------------------------


def degree_family(g: Graph, mode: str = "total",
                  normalized: bool = False) -> ScoreVector:
    """Degree, in-degree, or out-degree; normalized divides by n-1."""
    if mode in ("in", "out") and not g.directed:
        raise UnsupportedGraphError(f"{mode}-degree needs a directed graph")
    counts = {"total": g.degree_array, "in": g.in_csr.degrees,
              "out": g.out_csr.degrees}.get(mode)
    if counts is None:
        raise GraphInputError(f"unknown degree mode {mode!r}")
    vals = counts.astype(float)
    if normalized:
        if g.n < 2:
            raise GraphInputError("normalized degree needs n >= 2")
        vals = vals / (g.n - 1)
    name = "degree" if mode == "total" else f"{mode}-degree"
    return score_vector(name, vals, {"normalized": normalized})


# -- neighborhood balls ---------------------------------------------------


def ball(g: Graph, v: int, h: int) -> set:
    """Nodes within distance h of v, excluding v itself."""
    seen = {v}
    frontier = [v]
    out: set = set()
    for _ in range(h):
        nxt = []
        for u in frontier:
            for w in g.all_neighbors(u):
                if w not in seen:
                    seen.add(w)
                    out.add(w)
                    nxt.append(w)
        frontier = nxt
        if not frontier:
            break
    return out


def _two_ball_sizes(g: Graph) -> list[int]:
    """|N_2(w)| for every w: nearest plus next-nearest neighbors."""
    sizes = []
    for w in range(g.n):
        seen = {w}
        level1 = []
        for u in g.neighbors(w):
            if u not in seen:
                seen.add(u)
                level1.append(u)
        count = len(level1)
        for u in level1:
            for x in g.neighbors(u):
                if x not in seen:
                    seen.add(x)
                    count += 1
        sizes.append(count)
    return sizes


def neighborhood_degree_family(g: Graph, metric: str,
                               params: MetricParams | None = None) -> ScoreVector:
    """Semi-local, hybrid-degree, and volume centralities."""
    _require_undirected(g, metric)
    params = params or MetricParams()
    if metric == "semi-local":
        d2 = _two_ball_sizes(g)
        q = [sum(d2[w] for w in g.neighbors(u)) for u in range(g.n)]
        vals = [float(sum(q[u] for u in g.neighbors(v))) for v in range(g.n)]
        return score_vector("semi-local", vals)
    if metric == "hybrid-degree":
        alpha = 1000.0 if params.alpha is None else params.alpha
        beta = 0.1 if params.beta is None else params.beta
        p = params.p
        d2 = _two_ball_sizes(g)
        q = [sum(d2[w] for w in g.neighbors(u)) for u in range(g.n)]
        vals = []
        for v in range(g.n):
            semi = sum(q[u] for u in g.neighbors(v))
            m_local = semi - 2 * sum(g.degree(u) for u in g.neighbors(v))
            vals.append((beta - p) * alpha * g.degree(v) + p * m_local)
        return score_vector("hybrid-degree", vals,
                            {"alpha": alpha, "beta": beta, "p": p})
    if metric == "volume":
        vals = [float(sum(g.degree(u) for u in ball(g, v, params.h)))
                for v in range(g.n)]
        return score_vector("volume", vals, {"h": params.h})
    raise GraphInputError(f"unknown neighborhood metric {metric!r}")


# -- clustering ----------------------------------------------------------


def local_clustering(g: Graph) -> list[float]:
    """Per-node clustering coefficient; <2 (out-)neighbors scores 0.

    Directed graphs use the out-neighborhood and count ordered linked
    pairs over the ordered pair count.
    """
    nbr_sets = [set(g.neighbors(v)) for v in range(g.n)]
    vals = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        k = len(nbrs)
        if k < 2:
            vals.append(0.0)
            continue
        if g.directed:
            links = sum(1 for r in nbrs for s in nbrs
                        if r != s and s in nbr_sets[r])
            vals.append(links / (k * (k - 1)))
        else:
            links = sum(1 for r, s in combinations(nbrs, 2)
                        if s in nbr_sets[r])
            vals.append(2.0 * links / (k * (k - 1)))
    return vals


def clustering_family(g: Graph, metric: str = "clustering") -> ScoreVector:
    if metric == "clustering":
        return score_vector("clustering", local_clustering(g))
    if metric == "redundancy":
        return score_vector("redundancy", _redundancy(g))
    if metric == "clusterrank":
        if not g.directed:
            raise UnsupportedGraphError("clusterrank needs a directed graph")
        cc = local_clustering(g)
        vals = []
        for v in range(g.n):
            s = sum(g.out_degree(u) + 1 for u in g.neighbors(v))
            vals.append(10.0 ** (-cc[v]) * s)
        return score_vector("clusterrank", vals)
    raise GraphInputError(f"unknown clustering metric {metric!r}")


def _redundancy(g: Graph) -> list[float]:
    _require_undirected(g, "redundancy")
    nbr_sets = [set(g.neighbors(v)) for v in range(g.n)]
    if g.unit_weights:
        # Borgatti's simple-graph reduction: 2e / degree
        vals = []
        for v in range(g.n):
            k = g.degree(v)
            if k == 0:
                vals.append(0.0)
                continue
            nbrs = g.neighbors(v)
            e = sum(1 for r, s in combinations(nbrs, 2) if s in nbr_sets[r])
            vals.append(2.0 * e / k)
        return vals
    # weighted ego network: p_vs marginal tie strength, m_rs relative
    # strength of r's tie to s among r's contacts inside the ego net
    w = {}
    for u in range(g.n):
        for v2, wt in g.adj[u]:
            w[(u, v2)] = wt
    vals = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        denom_v = sum(w[(v, r)] + w[(r, v)] for r in nbrs)
        if denom_v == 0:
            vals.append(0.0)
            continue
        total = 0.0
        for r in nbrs:
            shared = nbr_sets[r] & nbr_sets[v]
            if not shared:
                continue
            max_rt = max(w.get((r, t), 0.0) + w.get((t, r), 0.0)
                         for t in shared)
            for s in shared:
                p_vs = (w.get((v, s), 0.0) + w.get((s, v), 0.0)) / denom_v
                m_rs = (w.get((r, s), 0.0) + w.get((s, r), 0.0)) / max_rt
                total += p_vs * m_rs
        vals.append(total)
    return vals


# -- entropy -------------------------------------------------------------


def entropy_family(g: Graph, metric: str) -> ScoreVector:
    """Local entropy -sum d(u) ln d(u); mapping entropy -d(v) sum ln d(u)."""
    deg = g.degrees()
    vals = []
    for v in range(g.n):
        nbrs = g.all_neighbors(v)
        if metric == "local-entropy":
            vals.append(-sum(deg[u] * math.log(deg[u]) for u in nbrs
                             if deg[u] > 0))
        elif metric == "mapping-entropy":
            vals.append(-deg[v] * sum(math.log(deg[u]) for u in nbrs
                                      if deg[u] > 0))
        else:
            raise GraphInputError(f"unknown entropy metric {metric!r}")
    return score_vector(metric, vals)


# -- h-index -------------------------------------------------------------


def _h_operator(values) -> int:
    vals = sorted(values, reverse=True)
    h = 0
    for i, x in enumerate(vals):
        if x >= i + 1:
            h = i + 1
        else:
            break
    return h


def h_index(g: Graph, order: int = 1) -> ScoreVector:
    """k-order h-index; order 1 is the lobby index over neighbor degrees."""
    if order < 1:
        raise GraphInputError("h-index order must be >= 1")
    current = [float(d) for d in g.degrees()]
    for _ in range(order):
        nxt = [float(_h_operator(current[u] for u in g.all_neighbors(v)))
               for v in range(g.n)]
        if nxt == current:
            break
        current = nxt
    return score_vector("h-index", current, {"order": order})


# -- combinatorial curvature ----------------------------------------------


def _cliques_through(g: Graph, v: int, k_max: int,
                     nbr_sets: list[set]) -> list[int]:
    """counts[k] = number of (k+1)-cliques containing v, k = 0..k_max-1."""
    counts = [0] * k_max
    counts[0] = 1
    if k_max == 1:
        return counts

    def grow(clique_nbrs: set, size: int, min_id: int):
        # `size` counts members besides v; all mutually adjacent
        if size >= k_max:
            return
        for u in sorted(clique_nbrs):
            if u < min_id:
                continue
            counts[size] += 1
            grow(clique_nbrs & nbr_sets[u], size + 1, u + 1)

    grow(nbr_sets[v], 1, 0)
    return counts


def gauss_curvature(g: Graph, k_max: int = 3) -> ScoreVector:
    """Truncated alternating clique sum: 1 - deg/2 + triangles/3 - ...

    The untruncated sum is exponential in the clique number, so only
    terms for clique sizes 1..k_max are counted.
    """
    _require_undirected(g, "gauss-curvature")
    if k_max < 1:
        raise GraphInputError("k_max must be >= 1")
    nbr_sets = [set(g.neighbors(v)) for v in range(g.n)]
    vals = []
    for v in range(g.n):
        counts = _cliques_through(g, v, k_max, nbr_sets)
        vals.append(sum((-1) ** k * counts[k] / (k + 1)
                        for k in range(k_max)))
    return score_vector("gauss-curvature", vals, {"k_max": k_max})
