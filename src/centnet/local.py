"""Point centralities computable from a node's local neighborhood."""

from __future__ import annotations

import math

import numpy as np

from .errors import GraphInputError, UnsupportedGraphError
from .graph import Graph
from .neighborhoods import ball_sums, closed_operator, closed_wedges
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


def _semi_local(g: Graph) -> np.ndarray:
    """A @ (A @ d2), d2 the count of nodes within two hops of each node,
    the node itself left out. Every sum adds integers, so it is exact."""
    a = g.adjacency(False)
    d2 = ball_sums(closed_operator(g), np.arange(g.n), 2,
                   np.ones(g.n, dtype=np.int64))[1] - 1
    return a @ (a @ d2)


def neighborhood_degree_family(g: Graph, metric: str,
                               params: MetricParams | None = None) -> ScoreVector:
    """Semi-local, hybrid-degree, and volume centralities."""
    _require_undirected(g, metric)
    params = params or MetricParams()
    if metric == "semi-local":
        return score_vector("semi-local", _semi_local(g))
    if metric == "hybrid-degree":
        alpha = 1000.0 if params.alpha is None else params.alpha
        beta = 0.1 if params.beta is None else params.beta
        p = params.p
        a, deg = g.adjacency(False), g.degree_array
        m_local = _semi_local(g) - 2 * (a @ deg)
        vals = (beta - p) * alpha * deg + p * m_local
        return score_vector("hybrid-degree", vals,
                            {"alpha": alpha, "beta": beta, "p": p})
    if metric == "volume":
        # the summed degree within h hops, less the node's own
        deg = g.degree_array
        vals = ball_sums(closed_operator(g), np.arange(g.n), params.h,
                         deg)[1] - deg
        return score_vector("volume", vals, {"h": params.h})
    raise GraphInputError(f"unknown neighborhood metric {metric!r}")


# -- clustering ----------------------------------------------------------


def _linked_pairs(g: Graph) -> np.ndarray:
    """The ordered pairs (r, s) of v's out-neighbours with an arc r -> s,
    for every v: the arcs (v, r) of `closed_wedges`, one per common
    out-neighbour s. An undirected graph counts each pair both ways."""
    arc, _, _ = closed_wedges(g.adjacency(False))
    return np.bincount(g.arc_tails[arc], minlength=g.n)


def local_clustering(g: Graph) -> np.ndarray:
    """Per-node clustering coefficient; <2 (out-)neighbors scores 0.

    Linked ordered pairs of out-neighbours (`_linked_pairs`, an integer
    count) over the k(k - 1) ordered pairs, k the out-degree.
    """
    k = g.out_csr.degrees
    return np.divide(_linked_pairs(g), k * (k - 1.0), out=np.zeros(g.n),
                     where=k >= 2)


def clustering_family(g: Graph, metric: str = "clustering") -> ScoreVector:
    if metric == "clustering":
        return score_vector("clustering", local_clustering(g))
    if metric == "redundancy":
        return score_vector("redundancy", _redundancy(g))
    if metric == "clusterrank":
        if not g.directed:
            raise UnsupportedGraphError("clusterrank needs a directed graph")
        s = g.adjacency(False) @ (g.out_csr.degrees + 1.0)
        # Python's float pow: numpy's may round the last bit differently
        return score_vector("clusterrank", [
            10.0 ** -c * x for c, x in zip(local_clustering(g).tolist(),
                                           s.tolist())])
    raise GraphInputError(f"unknown clustering metric {metric!r}")


def _redundancy(g: Graph) -> np.ndarray:
    _require_undirected(g, "redundancy")
    rows, tails = g.out_csr, g.arc_tails
    if g.unit_weights:
        # Borgatti's simple-graph reduction: 2e / degree
        return np.divide(_linked_pairs(g), rows.degrees, out=np.zeros(g.n),
                         where=rows.degrees > 0)
    # weighted ego network: the sum over the triangles (v, r, s) of
    # p_vs = w_vs / (v's strength), the marginal tie strength, times
    # m_rs = w_rs / max w_rt over the common neighbours t of v and r
    heads, w = rows.indices, rows.weights
    # every triangle (v, r, t) through the arc e = (v, r), t ascending
    e, vt, rt = closed_wedges(g.adjacency(False))
    top = np.zeros(heads.size)
    np.maximum.at(top, e, w[rt])
    shared = np.bincount(e, w[vt] * w[rt], minlength=heads.size)
    per_arc = np.divide(shared, top, out=np.zeros(heads.size), where=top > 0)
    strength = np.bincount(tails, w, minlength=g.n)
    return np.divide(np.bincount(tails, per_arc, minlength=g.n), strength,
                     out=np.zeros(g.n), where=strength > 0)


# -- entropy -------------------------------------------------------------


def entropy_family(g: Graph, metric: str) -> ScoreVector:
    """Local entropy -sum d(u) ln d(u); mapping entropy -d(v) sum ln d(u):
    row sums over `undirected_adjacency` of math.log (np.log may differ
    in the last bit); an isolated node scores +0.0."""
    if metric not in ("local-entropy", "mapping-entropy"):
        raise GraphInputError(f"unknown entropy metric {metric!r}")
    sym, deg = g.undirected_adjacency, g.degree_array
    top = int(deg.max(initial=0))
    ln = np.array([0.0] + [math.log(k) for k in range(1, top + 1)])[deg]
    if metric == "local-entropy":
        vals = np.where(deg > 0, -(sym @ (deg * ln)), 0.0)
    else:
        vals = -deg * (sym @ ln)
    return score_vector(metric, vals)


# -- h-index -------------------------------------------------------------


def _h_operator(values) -> int:
    """The largest h with h values >= h."""
    return sum(x >= i for i, x in enumerate(sorted(values, reverse=True), 1))


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
