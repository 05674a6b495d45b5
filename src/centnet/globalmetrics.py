"""Point centralities requiring whole-graph path or flow computations.

Information centrality is current-flow closeness: both read the
effective resistances of one grounded Laplacian inverse per component.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .errors import GraphInputError, UnsupportedGraphError
from .graph import (
    INF,
    Graph,
    _from_arcs,
    components,
    max_flow,
    power_iteration,
    reciprocal,
    require_dense,
    shortest_paths,
    solve_linear,
    traverse,
)
from .iterative import k_shell
from .params import MetricParams, ScoreVector, score_vector

_CLAMP = 1e-12


def _require_connected(g: Graph, name: str):
    if g.n and components(g).giant_size != g.n:
        raise UnsupportedGraphError(f"{name} needs a connected graph")


# -- shortest-path betweenness family ------------------------------------


def _dependency_sum(g: Graph, sources, cap=None, weights=None):
    """Brandes dependencies summed over `sources`, each source's
    weighted by weights[source] (1 when None)."""
    acc = np.zeros(g.n)
    for t in traverse(g, sources, cap):
        delta = t.accumulate(t.sigma, reciprocal(t.sigma))
        acc += delta.sum(axis=1) if weights is None else \
            delta @ weights[t.sources]
    return acc


def betweenness_family(g: Graph, metric: str = "betweenness",
                       params: MetricParams | None = None,
                       normalized: bool = False) -> ScoreVector:
    """Betweenness, L-betweenness, percolation, and load centralities.

    Betweenness sums over unordered pairs on undirected graphs and
    ordered pairs on directed graphs; the normalization divisor is the
    Freeman pair count.
    """
    params = params or MetricParams()
    n = g.n
    if metric in ("betweenness", "l-betweenness"):
        cap = None if metric == "betweenness" else float(params.L)
        acc = _dependency_sum(g, range(n), cap)
        if not g.directed:
            acc /= 2.0
        if normalized:
            acc = _freeman_normalize(acc, n, g.directed)
        extra = {"L": params.L} if metric == "l-betweenness" else {}
        return score_vector(metric, acc, {"normalized": normalized, **extra})

    if metric == "percolation":
        states = params.percolation_states
        if states is None:
            states = [1.0] * n      # fully percolated network
        if len(states) != n or not any(x > 0 for x in states):
            raise GraphInputError(
                "percolation centrality needs per-node states with at "
                "least one positive entry")
        x = np.asarray(states, dtype=float)
        acc = _dependency_sum(g, np.flatnonzero(x), weights=x)
        rest = x.sum() - x
        vals = np.zeros(n)
        if n > 2:
            np.divide(acc, (n - 2) * rest, out=vals, where=rest > 0.0)
        return score_vector("percolation", vals)

    if metric == "load":
        return _load(g)

    raise GraphInputError(f"unknown betweenness metric {metric!r}")


def _freeman_normalize(acc, n, directed):
    pairs = (n - 1) * (n - 2) if directed else (n - 1) * (n - 2) / 2.0
    if pairs <= 0:
        return [0.0] * n
    return [x / pairs for x in acc]


def _load(g: Graph) -> ScoreVector:
    """Goh's packet-splitting load: unit packets split evenly at each
    branching point, accumulated over ordered pairs."""
    acc = np.zeros(g.n)
    for t in traverse(g, range(g.n)):
        acc += t.accumulate(1.0, reciprocal(t.pred_count())).sum(axis=1)
    return score_vector("load", acc)


# -- flow family ----------------------------------------------------------


def flow_betweenness(g: Graph, normalized: bool = False,
                     pair_distance_cap: int | None = None,
                     with_diagnostics: bool = False):
    """Max-flow betweenness: unordered source-sink pairs on undirected
    graphs (Freeman pair convention, like betweenness), ordered pairs on
    directed graphs.

    The deterministic augmenting order of graph max flow defines the
    flow decomposition; on undirected graphs the lower node id acts as
    the source. `pair_distance_cap` restricts to pairs within that many
    hops (the tractability device used for large graphs).
    """
    n = g.n
    acc = [0.0] * n
    skipped = 0
    for s in range(n):
        reach = None
        if pair_distance_cap is not None:
            d = shortest_paths(g, s, cap=float(pair_distance_cap)).dist
            reach = [t for t in range(n) if t != s and d[t] < INF]
            skipped += (n - 1) - len(reach)
        targets = reach if reach is not None else \
            [t for t in range(n) if t != s]
        if not g.directed:
            targets = [t for t in targets if t > s]
        for t in targets:
            res = max_flow(g, s, t)
            if res.value == 0:
                continue
            for v in range(n):
                if v == s or v == t:
                    continue
                contrib = res.throughflow[v]
                if normalized:
                    contrib /= res.value
                acc[v] += contrib
    sv = score_vector("flow-betweenness", acc,
                      {"normalized": normalized,
                       "pair_distance_cap": pair_distance_cap})
    if with_diagnostics:
        return sv, {"skipped_pairs": skipped}
    return sv


def _grounded_inverse(sub) -> np.ndarray:
    """Inverse of the Laplacian of the k x k weighted operator `sub`
    with its last node grounded (that row and column are zero)."""
    k = sub.shape[0]
    require_dense(k, "grounded Laplacian inverse")
    lap = -sub.toarray()
    lap[np.diag_indices(k)] = sub @ np.ones(k)
    return np.pad(solve_linear(lap[:-1, :-1]), (0, 1))


def _component_nodes(g: Graph) -> list[list[int]]:
    lab = components(g)
    out: list[list[int]] = [[] for _ in lab.sizes]
    for v, c in enumerate(lab.component_id):
        out[c].append(v)
    return out


def current_flow_betweenness(g: Graph,
                             per_component: bool = False) -> ScoreVector:
    """Electrical-current betweenness, ordered pairs, prefactor
    1/((n-1)(n-2)); edges as unit (or weight) conductances."""
    if g.directed:
        raise UnsupportedGraphError(
            "current-flow betweenness needs an undirected graph")
    comps = _component_nodes(g)
    if len(comps) > 1 and not per_component:
        raise UnsupportedGraphError(
            "current-flow betweenness on a disconnected graph needs "
            "per_component=True")
    vals = np.zeros(g.n)
    for nodes in comps:
        nc = len(nodes)
        if nc < 3:
            continue
        sub = g.adjacency()[nodes][:, nodes]
        tmat = _grounded_inverse(sub)
        # each edge once, row by row: the upper triangle
        upper = scipy.sparse.triu(sub, 1, "csr")
        tails = np.repeat(np.arange(nc), np.diff(upper.indptr)).tolist()
        edge_sum = np.zeros(nc)
        i = np.arange(nc)
        for v, u, w in zip(tails, upper.indices.tolist(),
                           upper.data.tolist()):
            f = w * (tmat[v] - tmat[u])
            f.sort()
            # sum over node pairs s<t of |F(s)-F(t)| via sorted prefix
            s_e = float(np.sum((2 * i - nc + 1) * f))
            edge_sum[v] += s_e
            edge_sum[u] += s_e
        vals[nodes] = (edge_sum - (nc - 1)) / ((nc - 1) * (nc - 2))
    return score_vector("current-flow-betweenness", vals)


def current_flow_closeness(g: Graph,
                           per_component: bool = False) -> ScoreVector:
    """Closeness under effective resistances, aligned with information
    centrality (count-n prefactor)."""
    if g.directed:
        raise UnsupportedGraphError(
            "current-flow closeness needs an undirected graph")
    comps = _component_nodes(g)
    if len(comps) > 1 and not per_component:
        raise UnsupportedGraphError(
            "current-flow closeness on a disconnected graph needs "
            "per_component=True")
    vals = np.zeros(g.n)
    for nodes in comps:
        nc = len(nodes)
        if nc < 2:
            continue
        tmat = _grounded_inverse(g.adjacency()[nodes][:, nodes])
        # each node's effective resistances to the others, summed:
        # sum_j T_ii + T_jj - 2 T_ij
        vals[nodes] = nc / (nc * np.diag(tmat) + np.trace(tmat)
                            - 2.0 * tmat.sum(axis=1))
    return score_vector("current-flow-closeness", vals)


def random_walk_betweenness(g: Graph) -> ScoreVector:
    """Newman's random-walk betweenness, in which each pair's endpoints
    count 1, as the rescaling ((n-2) * cfb + 2) / n of current-flow
    betweenness on a connected graph."""
    if g.directed:
        raise UnsupportedGraphError(
            "random-walk betweenness needs an undirected graph")
    _require_connected(g, "random-walk betweenness")
    n = g.n
    if n < 2:
        return score_vector("random-walk-betweenness", [0.0] * n)
    cfb = current_flow_betweenness(g).values
    return score_vector("random-walk-betweenness",
                        [((n - 2) * c + 2) / n for c in cfb])


# -- closeness family -------------------------------------------------------


def closeness_family(g: Graph, metric: str = "closeness",
                     params: MetricParams | None = None,
                     reachable_only: bool = False,
                     with_diagnostics: bool = False):
    """Closeness, Bavelas ratio, residual/decay, eccentricity,
    straightness.

    Default disconnected handling is strict: a node with any unreachable
    peer scores 0 for closeness/bavelas/eccentricity. With
    `reachable_only`, sums run over the node's reachable set instead.
    Residual and straightness always skip unreachable pairs.
    """
    params = params or MetricParams()
    n = g.n
    skipped = 0
    if metric == "straightness" and g.coords is None:
        raise GraphInputError("straightness needs node coordinates")

    if metric == "bavelas":
        base, diag = closeness_family(g, "closeness", params,
                                      reachable_only, True)
        total = sum(base.values)
        if total == 0:
            vals = [0.0] * n
        else:
            vals = [x / total for x in base.values]
        sv = score_vector("bavelas", vals)
        return (sv, diag) if with_diagnostics else sv

    if metric not in ("closeness", "eccentricity", "residual",
                      "straightness"):
        raise GraphInputError(f"unknown closeness metric {metric!r}")
    vals = np.zeros(n)
    for t in traverse(g, range(n)):
        cols = np.arange(len(t.sources))
        reached = t.dist < INF
        reached[t.sources, cols] = False
        d = np.where(reached, t.dist, 0.0)
        count = reached.sum(axis=0)
        skipped += int((n - 1 - count).sum())
        scored = count > 0
        if not reachable_only and metric in ("closeness", "eccentricity"):
            scored &= count == n - 1
        if metric == "closeness":
            val = reciprocal(d.sum(axis=0))
        elif metric == "eccentricity":
            val = reciprocal(d.max(axis=0, initial=0.0))
        elif metric == "residual":
            val = np.where(reached, params.delta_decay ** d, 0.0).sum(axis=0)
        else:
            xy = np.asarray(g.coords)
            euclid = np.linalg.norm(xy[:, None] - xy[t.sources], axis=2)
            ratio = euclid / np.where(reached, d, 1.0)
            val = np.where(reached, ratio, 0.0).sum(axis=0) / \
                np.maximum(count, 1)
        vals[t.sources] = np.where(scored, val, 0.0)
    extra = {"delta": params.delta_decay} if metric == "residual" else {}
    sv = score_vector(metric, vals,
                      {"reachable_only": reachable_only, **extra})
    if with_diagnostics:
        return sv, {"skipped_pairs": skipped}
    return sv


def information_centrality(g: Graph) -> ScoreVector:
    """Stephenson-Zelen information centrality: current-flow closeness
    on a connected undirected graph (Brandes & Fleischer 2005)."""
    if g.directed:
        raise UnsupportedGraphError(
            "information centrality needs an undirected graph")
    _require_connected(g, "information centrality")
    if g.n < 2:
        return score_vector("information", [0.0] * g.n)
    return score_vector("information", current_flow_closeness(g).values)


# -- k-shell tie-broken ranking -------------------------------------------


def improved_method(g: Graph, with_diagnostics: bool = False):
    """Rank k-shell ties by distance to the network core.

    Returns [(node, shell, theta)] sorted by shell descending, theta
    ascending, node id ascending. Unreachable core members are skipped
    from the distance sums (count reported via diagnostics).
    """
    shell = k_shell(g).shell_index
    ks_max = max(shell, default=0)
    core = [v for v in range(g.n) if shell[v] == ks_max]
    skipped = 0
    rows = []
    for v in range(g.n):
        dist = shortest_paths(g, v).dist
        total = 0.0
        for u in core:
            if dist[u] == INF:
                skipped += 1
            else:
                total += dist[u]
        theta = (ks_max - shell[v] + 1) * total
        rows.append((v, shell[v], theta))
    rows.sort(key=lambda r: (-r[1], r[2], r[0]))
    ranked = [(v, s, t) for v, s, t in rows]
    if with_diagnostics:
        return ranked, {"skipped_pairs": skipped}
    return ranked


def improved_method_scores(g: Graph) -> ScoreVector:
    """Rank-derived scores so the ordering plugs into attack rankings."""
    ranked = improved_method(g)
    vals = [0.0] * g.n
    for pos, (v, _, _) in enumerate(ranked):
        vals[v] = float(g.n - pos)
    return score_vector("improved-method", vals)


# -- generalized weighted (GDSP) family -------------------------------------


def _alpha_distance_graph(g: Graph, alpha: float) -> Graph:
    """Reweight: edge strength w becomes traversal length 1/w^alpha."""
    tails, heads, w = g.arc_tails, g.out_csr.indices, g.out_csr.weights
    if not g.directed:
        up = tails < heads
        tails, heads, w = tails[up], heads[up], w[up]
    return _from_arcs(g.n, g.directed, tails, heads, 1.0 / w ** alpha)


def generalized_weighted_family(g: Graph, metric: str,
                                alpha: float = 0.5) -> ScoreVector:
    """Degree/closeness/betweenness interpolating unweighted (alpha 0)
    and strength-weighted (alpha 1) readings."""
    if alpha < 0:
        raise GraphInputError("alpha must be >= 0")
    if metric == "gdsp-degree":
        ones = np.ones(g.n)
        strength = g.adjacency() @ ones
        if g.directed:
            strength += g.reversed.adjacency() @ ones
        # a degree-0 node scores 0, the limit of k^(1-alpha) s^alpha
        deg = g.degree_array
        vals = np.zeros(g.n)
        on = deg > 0
        vals[on] = deg[on] ** (1.0 - alpha) * strength[on] ** alpha
        return score_vector("gdsp-degree", vals, {"alpha": alpha})
    if metric not in ("gdsp-closeness", "gdsp-betweenness"):
        raise GraphInputError(f"unknown generalized metric {metric!r}")
    h = g if (alpha == 0.0 and g.unit_weights) else \
        _alpha_distance_graph(g, alpha)
    if metric == "gdsp-closeness":
        base = closeness_family(h, "closeness")
        return score_vector("gdsp-closeness", base.values, {"alpha": alpha})
    base = betweenness_family(h, "betweenness")
    return score_vector("gdsp-betweenness", base.values, {"alpha": alpha})


def weight_neighborhood(g: Graph, benchmark: str = "degree",
                        alpha: float = 0.5,
                        params: MetricParams | None = None) -> ScoreVector:
    """Benchmark score plus degree-power-weighted neighbor scores."""
    if not 0.0 <= alpha <= 1.0:
        raise GraphInputError("alpha must lie in [0,1]")
    phi = np.asarray(_benchmark_scores(g, benchmark, params))
    deg = g.degree_array
    # (k_u k_v)^alpha over its mean across the edges (the arcs when
    # directed), on every pair of neighbours
    mean_w = np.mean((deg[g.arc_tails] * deg[g.out_csr.indices]) ** alpha) \
        if g.m else 1.0
    sym = g.undirected_adjacency
    tails = np.repeat(np.arange(g.n), np.diff(sym.indptr))
    w = (deg[tails] * deg[sym.indices]) ** alpha / mean_w
    vals = phi + scipy.sparse.csr_matrix((w, sym.indices, sym.indptr),
                                         shape=sym.shape) @ phi
    return score_vector("weight-neighborhood", vals,
                        {"alpha": alpha, "benchmark": benchmark})


def _benchmark_scores(g: Graph, benchmark: str,
                      params: MetricParams | None):
    from .local import degree_family
    if benchmark == "degree":
        return degree_family(g).values
    if benchmark == "betweenness":
        return betweenness_family(g, "betweenness", params).values
    if benchmark == "k-shell":
        return [float(s) for s in k_shell(g).shell_index]
    raise GraphInputError(
        f"unsupported weight-neighborhood benchmark {benchmark!r}")


# -- AHP ---------------------------------------------------------------------


def _si_spread_scores(g: Graph, params: MetricParams) -> list[float]:
    """Mean infected fraction after si_steps of an SI cascade from each
    node; si_runs seeded replicates."""
    import random

    n = g.n
    totals = [0.0] * n
    for rep in range(params.si_runs):
        rng = random.Random(params.rng_seed + rep)
        for seed in range(n):
            infected = {seed}
            frontier = [seed]
            for _ in range(params.si_steps):
                new = []
                for v in frontier:
                    for u in g.neighbors(v):
                        if u not in infected and \
                                rng.random() < params.si_beta:
                            infected.add(u)
                            new.append(u)
                if not new:
                    break
                frontier = new
            totals[seed] += len(infected) / n
    return [t / params.si_runs for t in totals]


def ahp_centrality(g: Graph,
                   params: MetricParams | None = None) -> ScoreVector:
    """Analytic-hierarchy combination of degree, betweenness, closeness,
    weighted by agreement with a short SI spreading score."""
    params = params or MetricParams()
    n = g.n
    if n == 0:
        return score_vector("ahp", [])
    cols = [
        ("degree", [float(g.degree(v)) for v in range(n)]),
        ("betweenness", list(betweenness_family(g, "betweenness").values)),
        ("closeness", list(closeness_family(g, "closeness").values)),
        ("si-spread", _si_spread_scores(g, params)),
    ]
    d = np.zeros((n, 4))
    for j, (name, col) in enumerate(cols):
        total = sum(col)
        if total <= 0.0:
            raise GraphInputError(
                f"ahp attribute column {name!r} is degenerate (all zero)")
        d[:, j] = col
    r = d / d.sum(axis=0)

    e = np.zeros(3)
    for j in range(3):
        v_ij = 1.0 / np.maximum(np.abs(r[:, j] - r[:, 3]), _CLAMP)
        e[j] = float(np.sum(v_ij))
    w = e / e.sum()

    s = np.zeros((n, 3))
    for j in range(3):
        col = np.maximum(d[:, j], _CLAMP)
        inv = 1.0 / col

        def action(x, col=col, inv=inv):
            # B^(j) = col inv^T is rank one; apply without materializing
            return col * float(inv @ x)

        _, vec = power_iteration(action, np.ones(n), tol=params.tol,
                                 max_iter=params.max_iter)
        s[:, j] = vec
    scores = s @ w
    return score_vector("ahp", scores, {
        "si_beta": params.si_beta, "si_steps": params.si_steps,
        "si_runs": params.si_runs, "rng_seed": params.rng_seed})
