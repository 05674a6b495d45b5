"""Point centralities defined as fixed points or decomposition sweeps.

Each fixed-point metric is a sparse operator built from
`Graph.adjacency` plus a step map: the eigenvector-style metrics run
`power_iteration` on I + M, and PageRank, cumulative nomination,
LeaderRank, HITS and SALSA hand their own step to `fixed_point`.
Diffusion is a fixed number of sparse products, and Katz and subgraph
centrality are dense solves under the dense cap.

k-shell and mixed-degree decomposition are one peel, keyed on residual
+ lambda * exhausted degree: k-shell is its lambda = 0 case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import GraphInputError, UnsupportedGraphError
from .graph import (
    Graph,
    fixed_point,
    power_iteration,
    require_dense,
    row_positions,
    solve_linear,
    spectral_radius,
)
from .neighborhoods import closed_wedges
from .params import MetricParams, ScoreVector, score_vector


@dataclass
class DecompositionResult:
    """Outcome of an iterative pruning sweep."""

    shell_index: list[int]
    removal_order: list[tuple[int, int]]   # (node, stage value)


def _peel(g: Graph, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(removal order, stage of each node) of iterative pruning keyed on
    residual + lam * exhausted degree, direction ignored.

    Each round removes every live node whose key is at most the stage m
    and moves the removed arcs of its live neighbours from residual to
    exhausted; only those neighbours are examined for the next round.
    When a round finds nobody, m rises to the least live key. A key only
    falls within a stage (by (1 - lam) per arc), so the nodes a stage
    removes do not depend on the order of its rounds. The rounds number
    the peel depth plus the stages, so a path of n nodes takes n/2
    rounds; the removal order lists each round in id order.
    """
    a = g.adjacency(weighted=False)
    # row v: v's neighbours, each with its float count of arcs to or from
    # v, so a reciprocal pair counts twice and a row sums to the total degree
    op = a + g.reversed.adjacency(False) if g.directed else a
    ptr, nbrs, arcs = op.indptr, op.indices, op.data
    degree = np.asarray(op.sum(axis=1)).ravel()
    residual = degree.copy()      # exhausted degree: degree - residual
    key = degree.astype(float)
    alive = np.ones(g.n, dtype=bool)
    stage = np.zeros(g.n)
    order = np.empty(g.n, dtype=np.int64)
    done, m = 0, 0.0
    frontier = order[:0]
    while done < g.n:
        if not frontier.size:
            m = key[alive].min()
            frontier = np.flatnonzero(alive & (key <= m))
        alive[frontier] = False
        stage[frontier] = m
        order[done:done + frontier.size] = frontier
        done += frontier.size
        # the removed rows' entries, gathered in one index array
        at = row_positions(ptr, frontier)
        heads, counts = nbrs[at], arcs[at]
        live = alive[heads]
        touched, which = np.unique(heads[live], return_inverse=True)
        residual[touched] -= np.bincount(which, counts[live])
        key[touched] = residual[touched] + \
            lam * (degree[touched] - residual[touched])
        frontier = touched[key[touched] <= m]
    return order, stage


def k_shell(g: Graph) -> DecompositionResult:
    """Iterative minimum-degree pruning (Batagelj & Zaversnik): the
    lambda = 0 peel; directed graphs use total degree."""
    order, stage = _peel(g, 0.0)
    shell = stage.astype(np.int64)
    return DecompositionResult(shell.tolist(),
                               list(zip(order.tolist(), shell[order].tolist())))


def mixed_degree_decomposition(g: Graph,
                               lambda_mdd: float = 0.7) -> ScoreVector:
    """Pruning by residual + lambda * exhausted degree.

    lambda 0 reproduces the k-shell index, lambda 1 the degree.
    """
    if not 0.0 <= lambda_mdd <= 1.0:
        raise GraphInputError("lambda_mdd must lie in [0,1]")
    return score_vector("mixed-degree", _peel(g, lambda_mdd)[1],
                        {"lambda_mdd": lambda_mdd})


def coreness_family(g: Graph, variant: str = "nc") -> ScoreVector:
    """Neighborhood coreness: sum of neighbor shell indices (nc) or of
    neighbor nc values (nc-plus)."""
    nbr = g.undirected_adjacency
    nc = nbr @ np.array(k_shell(g).shell_index, dtype=float)
    if variant == "nc":
        return score_vector("nc", nc)
    if variant == "nc-plus":
        return score_vector("nc-plus", nbr @ nc)
    raise GraphInputError(f"unknown coreness variant {variant!r}")


# -- eigen-style fixed points ---------------------------------------------


def _aggregation(g: Graph, aggregate: str = "in", weighted: bool = True,
                 dissimilarity: bool = False) -> scipy.sparse.csr_matrix:
    """Sparse operator M with (M x)_v = sum of w * x_u over the nodes u
    that v aggregates scores from.

    Directed graphs aggregate over in-neighbors (the prestige reading);
    aggregate='out' flips to out-neighbors. `weighted=False` counts each
    arc once. `dissimilarity` scales each entry by the Jaccard
    dissimilarity of the two endpoints' undirected neighborhoods,
    1 - common / (deg_u + deg_v - common), common from `closed_wedges`.
    """
    if not g.directed or aggregate == "out":
        m = g.adjacency(weighted)
    elif aggregate == "in":
        m = g.reversed.adjacency(weighted)
    else:
        raise GraphInputError(f"unknown aggregation {aggregate!r}")
    if dissimilarity:
        # on the pattern of the undirected adjacency, which holds m's
        sym = g.undirected_adjacency
        deg = np.diff(sym.indptr)
        common = np.bincount(closed_wedges(sym)[0], minlength=sym.nnz)
        union = np.repeat(deg, deg) + deg[sym.indices] - common
        m = m.multiply(scipy.sparse.csr_matrix(
            (1.0 - common / union, sym.indices, sym.indptr), shape=m.shape))
    return m


def _principal(m, params: MetricParams) -> np.ndarray:
    """L2-unit principal eigenvector of I + M from the all-ones start;
    the +I shift keeps the iteration convergent on bipartite/periodic
    graphs without moving the eigenvector."""
    _, vec = power_iteration(lambda x: x + m @ x, np.ones(m.shape[0]),
                             tol=params.tol, max_iter=params.max_iter)
    return vec


def eigen_family(g: Graph, metric: str,
                 params: MetricParams | None = None,
                 aggregate: str = "in") -> ScoreVector:
    params = params or MetricParams()
    if metric == "eigenvector":
        return _eigenvector(g, params, aggregate)
    if metric == "katz":
        return _katz(g, params, aggregate)
    if metric == "pagerank":
        return _pagerank(g, params)
    if metric == "contribution":
        return _contribution(g, params)
    if metric == "cumulative-nomination":
        return _cumulative_nomination(g, params)
    if metric == "dynamical-influence":
        return _dynamical_influence(g, params)
    raise GraphInputError(f"unknown eigen metric {metric!r}")


def _eigenvector(g: Graph, params: MetricParams,
                 aggregate: str) -> ScoreVector:
    if g.n == 0:
        return score_vector("eigenvector", [])
    vec = _principal(_aggregation(g, aggregate), params)
    return score_vector("eigenvector", vec,
                        {"aggregate": aggregate if g.directed else "n/a"})


def _katz(g: Graph, params: MetricParams, aggregate: str) -> ScoreVector:
    require_dense(g.n, "katz")
    lam = spectral_radius(g)
    alpha = params.alpha
    if alpha is None:
        alpha = 0.85 / lam if lam > 0 else 0.85
    beta = 1.0 if params.beta is None else params.beta
    if lam > 0 and alpha >= 1.0 / lam:
        raise GraphInputError(
            f"katz alpha {alpha} must be below 1/lambda_max = {1.0 / lam:.6g}")
    m = np.eye(g.n) - alpha * _aggregation(g, aggregate).toarray()
    x = solve_linear(m, np.full(g.n, beta))
    return score_vector("katz", x, {"alpha": alpha, "beta": beta})


def _pagerank(g: Graph, params: MetricParams,
              normalized: bool = False) -> ScoreVector:
    alpha = 0.85 if params.alpha is None else params.alpha
    beta = 1.0 if params.beta is None else params.beta
    if not 0.0 < alpha < 1.0:
        raise GraphInputError("pagerank alpha must lie in (0,1)")
    n = g.n
    if n == 0:
        return score_vector("pagerank", [])
    m = g.reversed.adjacency(False)
    outdeg = np.maximum(g.out_csr.degrees, 1)
    x = fixed_point(lambda x: beta + alpha * (m @ (x / outdeg)),
                    np.full(n, beta), params.tol, params.max_iter,
                    "pagerank")
    if normalized:
        x = x / x.sum()
    return score_vector("pagerank", x, {"alpha": alpha, "beta": beta,
                                        "normalized": normalized})


def pagerank(g: Graph, params: MetricParams | None = None,
             normalized: bool = False) -> ScoreVector:
    return _pagerank(g, params or MetricParams(), normalized)


def _contribution(g: Graph, params: MetricParams) -> ScoreVector:
    if g.n == 0:
        return score_vector("contribution", [])
    vec = _principal(_aggregation(g, dissimilarity=True), params)
    return score_vector("contribution", vec)


def _cumulative_nomination(g: Graph, params: MetricParams) -> ScoreVector:
    n = g.n
    if n == 0:
        return score_vector("cumulative-nomination", [])
    m = _aggregation(g, weighted=False)

    def step(p):
        raw = p + m @ p
        return raw / raw.sum()

    p = fixed_point(step, np.full(n, 1.0 / n), params.tol, params.max_iter,
                    "cumulative nomination")
    return score_vector("cumulative-nomination", p)


def _dynamical_influence(g: Graph, params: MetricParams) -> ScoreVector:
    """Left principal eigenvector of the dynamics matrix (M = A),
    normalized to sum 1."""
    if g.n == 0:
        return score_vector("dynamical-influence", [])
    # left eigenvector of A = right eigenvector of A^T: the in-aggregation
    # operator, as for eigenvector centrality
    vec = _principal(_aggregation(g), params)
    return score_vector("dynamical-influence", vec / vec.sum())


# -- HITS and SALSA --------------------------------------------------------


def _unit(x):
    norm = np.linalg.norm(x)
    return x / norm if norm > 0 else x


def hits(g: Graph, tol: float = 1e-10,
         max_iter: int = 10000) -> tuple[ScoreVector, ScoreVector]:
    """Authority and hub scores: principal eigenvectors of A^T A and
    A A^T via alternating updates with L2 normalization."""
    if not g.directed:
        raise UnsupportedGraphError("hits needs a directed graph")
    n = g.n
    if g.m == 0:
        warnings.warn("hits on an edgeless graph: uniform fallback")
        u = [1.0 / np.sqrt(n)] * n if n else []
        return (score_vector("authority", u), score_vector("hub", u))
    a, at = g.adjacency(), g.reversed.adjacency()

    def step(z):
        # z stacks (authority, hub); each update reads the newest other
        auth = _unit(at @ z[n:])
        return np.concatenate([auth, _unit(a @ auth)])

    z = fixed_point(step, np.full(2 * n, 1.0 / np.sqrt(n)), tol, max_iter,
                    "hits")
    return (score_vector("authority", z[:n]), score_vector("hub", z[n:]))


def salsa(g: Graph, tol: float = 1e-10,
          max_iter: int = 10000) -> tuple[ScoreVector, ScoreVector]:
    """Stationary scores of the two-step random walks on the bipartite
    hub/authority expansion; each side sums to 1, absent nodes score 0."""
    if not g.directed:
        raise UnsupportedGraphError("salsa needs a directed graph")
    a, at = g.adjacency(False), g.reversed.adjacency(False)
    outdeg, indeg = g.out_csr.degrees, g.in_csr.degrees

    def stationary(side_deg, there, other_deg, back):
        # walk a side node along `there` to the other side and `back`
        side = side_deg > 0
        if not side.any():
            return np.zeros(g.n)
        first = np.maximum(side_deg, 1)
        second = np.maximum(other_deg, 1)

        def step(pi):
            nxt = back @ ((there @ (pi / first)) / second)
            return nxt / nxt.sum()

        return fixed_point(step, side / side.sum(), tol, max_iter, "salsa")

    hub_scores = stationary(outdeg, at, indeg, a)
    auth_scores = stationary(indeg, a, outdeg, at)
    return (score_vector("salsa-authority", auth_scores),
            score_vector("salsa-hub", hub_scores))


def leader_rank(g: Graph, tol: float = 1e-10,
                max_iter: int = 100000) -> ScoreVector:
    """Ground-node random redistribution; score s_v(t_e) + s_g(t_e)/n."""
    if not g.directed:
        raise UnsupportedGraphError("leaderrank needs a directed graph")
    n = g.n
    if n == 0:
        return score_vector("leaderrank", [])
    m = g.reversed.adjacency(False)
    outdeg = g.out_csr.degrees + 1.0

    def step(s):
        # s[n] is the ground node, linked both ways to every node
        share = s[:n] / outdeg
        return np.append(s[n] / n + m @ share, share.sum())

    s = fixed_point(step, np.append(np.ones(n), 0.0), tol, max_iter,
                    "leaderrank")
    return score_vector("leaderrank", s[:n] + s[n] / n)


# -- walk-sum metrics -------------------------------------------------------


def diffusion_centrality(g: Graph, q: float = 0.1, T: int = 10) -> ScoreVector:
    """Sum over t = 1..T of (qA)^t applied to the all-ones vector."""
    if not 0.0 < q <= 1.0:
        raise GraphInputError("q must lie in (0,1]")
    if T < 1:
        raise GraphInputError("T must be >= 1")
    a = g.adjacency()
    x = np.ones(g.n)
    acc = np.zeros(g.n)
    for _ in range(T):
        x = q * (a @ x)
        acc += x
    return score_vector("diffusion", acc, {"q": q, "T": T})


def subgraph_centrality(g: Graph) -> ScoreVector:
    """Weighted closed-walk count: sum_j (u_j^v)^2 e^{lambda_j}."""
    if g.directed:
        raise UnsupportedGraphError(
            "subgraph centrality needs an undirected graph")
    require_dense(g.n, "subgraph centrality")
    if g.n == 0:
        return score_vector("subgraph", [])
    a = g.adjacency_matrix()
    lam, vecs = np.linalg.eigh(a)
    vals = (vecs ** 2) @ np.exp(lam)
    return score_vector("subgraph", vals)
