"""Point centralities requiring whole-graph path or flow computations.

Betweenness, load, closeness, eccentricity and bavelas read one uncapped
all-source `traverse` sweep per Graph, kept in a weak-keyed memo for the
Graph's life (5 float64 n-vectors). Closeness ids run its forward pass
alone (per source: reached count, distance sum, farthest); betweenness or
load add the sums of both backward sweeps, Brandes dependencies and load.

The four current-flow ids read one kernel, `_current_flow`: one directed
check, one `components` call and, per component of nc nodes, the inverse
T of the Laplacian grounded at its last node. Closeness, and information
centrality with it, sums each node's effective resistances
T_ii + T_jj - 2 T_ij. Betweenness, and random-walk betweenness as its
rescaling, sorts each edge's potential differences w (T_v - T_u) in
blocks of edges, an (edges, nc) array sorted along its rows, reduces
each row against (2i - nc + 1), and adds each edge's sum to its two ends
with one bincount, in edge order.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse

from .errors import GraphInputError, UnsupportedGraphError
from .graph import (
    INF,
    Graph,
    _from_arcs,
    components,
    cut_blocks,
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


# -- shortest-path betweenness family ------------------------------------

_SWEEPS = weakref.WeakKeyDictionary()


def _sweep(g: Graph, backward: bool = False) -> dict:
    """The memoised sweep of `g` (module docstring) as read-only
    n-vectors; "betweenness" and "load" come with `backward`."""
    memo = _SWEEPS.get(g)
    if memo is not None and (not backward or "load" in memo):
        return memo
    keys = ("count", "total", "farthest") + backward * ("betweenness", "load")
    memo = {k: np.zeros(g.n) for k in keys}
    for t in traverse(g, range(g.n)):
        for k, part in zip(keys, t.reach()):
            memo[k][t.sources] = part
        if backward:
            memo["betweenness"] += t.accumulate(
                t.sigma, reciprocal(t.sigma)).sum(axis=1)
            memo["load"] += t.accumulate(
                1.0, reciprocal(t.pred_count())).sum(axis=1)
    for v in memo.values():
        v.flags.writeable = False
    _SWEEPS[g] = memo
    return memo


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
    Freeman pair count. Load is Goh's packet splitting; it and betweenness
    read the memoised sweep (module docstring), which the first one runs.
    """
    params = params or MetricParams()
    n = g.n
    if metric in ("betweenness", "l-betweenness"):
        acc = _sweep(g, True)["betweenness"] if metric == "betweenness" \
            else _dependency_sum(g, range(n), float(params.L))
        if not g.directed:
            acc = acc / 2.0
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
        return score_vector("load", _sweep(g, True)["load"])

    raise GraphInputError(f"unknown betweenness metric {metric!r}")


def _freeman_normalize(acc, n, directed):
    pairs = (n - 1) * (n - 2) if directed else (n - 1) * (n - 2) / 2.0
    if pairs <= 0:
        return [0.0] * n
    return [x / pairs for x in acc]


# -- flow family ----------------------------------------------------------


def flow_betweenness(g: Graph, normalized: bool = False,
                     pair_distance_cap: int | None = None,
                     with_diagnostics: bool = False):
    """Max-flow betweenness: unordered source-sink pairs on undirected
    graphs (Freeman pair convention, like betweenness), ordered pairs on
    directed graphs.

    Each pair's unit-capacity max flow comes from csgraph's Edmonds-Karp
    (`graph.max_flow`), whose augmenting order defines the flow
    decomposition: that of an ascending-id BFS, an order scipy does not
    document. On undirected graphs the lower node id acts as the
    source. A pair with no path carries no flow, so the sinks of a
    source are the nodes its distance row reaches. `pair_distance_cap`
    restricts to pairs within that many hops (the tractability device
    used for large graphs); `skipped_pairs` counts the others.
    """
    n = g.n
    cap = None if pair_distance_cap is None else float(pair_distance_cap)
    acc = np.zeros(n)
    skipped = 0
    for block in traverse(g, range(n), cap):
        for s, dist in zip(block.sources.tolist(), block.dist.T):
            reach = dist < INF
            reach[s] = False
            if cap is not None:
                skipped += n - 1 - int(np.count_nonzero(reach))
            if not g.directed:
                reach[:s] = False
            for t in np.flatnonzero(reach).tolist():
                res = max_flow(g, s, t)
                through = np.array(res.throughflow)
                through[[s, t]] = 0.0
                acc += through / res.value if normalized else through
    sv = score_vector("flow-betweenness", acc,
                      {"normalized": normalized,
                       "pair_distance_cap": pair_distance_cap})
    if with_diagnostics:
        return sv, {"skipped_pairs": skipped}
    return sv


def _current_flow(g: Graph, name: str, per_component: bool,
                  betweenness: bool) -> np.ndarray:
    """Current-flow betweenness (ordered pairs, prefactor
    1/((n-1)(n-2))) or closeness (count-n prefactor) of every node, one
    grounded inverse per component (module docstring); edges are unit
    (or weight) conductances."""
    if g.directed:
        raise UnsupportedGraphError(f"{name} needs an undirected graph")
    lab = components(g)
    if len(lab.sizes) > 1 and not per_component:
        raise UnsupportedGraphError(f"{name} needs a connected graph")
    vals = np.zeros(g.n)
    order = np.argsort(lab.labels, kind="stable")
    for nodes in np.split(order, np.cumsum(lab.sizes)[:-1]):
        nc = len(nodes)
        if nc < 2 + betweenness:
            continue
        require_dense(nc, "grounded Laplacian inverse")
        sub = g.adjacency()[nodes][:, nodes]
        lap = -sub.toarray()
        lap[np.diag_indices(nc)] = sub @ np.ones(nc)
        tmat = np.pad(solve_linear(lap[:-1, :-1]), (0, 1))
        if not betweenness:
            # each node's effective resistances to the others, summed:
            # sum_j T_ii + T_jj - 2 T_ij
            vals[nodes] = nc / (nc * np.diag(tmat) + np.trace(tmat)
                                - 2.0 * tmat.sum(axis=1))
            continue
        # each edge once, row by row: the upper triangle
        upper = scipy.sparse.triu(sub, 1, "csr")
        tails = np.repeat(np.arange(nc), np.diff(upper.indptr))
        edge_sums = np.empty(upper.nnz)
        coef = 2 * np.arange(nc) - nc + 1
        for b in cut_blocks(np.full(upper.nnz, nc)):
            f = upper.data[b, None] * (tmat[tails[b]] - tmat[upper.indices[b]])
            f.sort(axis=1)
            # sum over node pairs s<t of |F(s)-F(t)| via sorted prefix
            edge_sums[b] = (coef * f).sum(axis=1)
        # each edge's sum to its tail, then its head, in edge order
        ends = np.column_stack([tails, upper.indices]).ravel()
        node_sums = np.bincount(ends, np.repeat(edge_sums, 2), nc)
        vals[nodes] = (node_sums - (nc - 1)) / ((nc - 1) * (nc - 2))
    return vals


def current_flow_betweenness(g: Graph,
                             per_component: bool = False) -> ScoreVector:
    """Electrical-current betweenness; a disconnected graph needs
    `per_component`, which scores each component on its own."""
    return score_vector("current-flow-betweenness", _current_flow(
        g, "current-flow betweenness", per_component, betweenness=True))


def current_flow_closeness(g: Graph,
                           per_component: bool = False) -> ScoreVector:
    """Closeness under effective resistances, aligned with information
    centrality; `per_component` as for current-flow betweenness."""
    return score_vector("current-flow-closeness", _current_flow(
        g, "current-flow closeness", per_component, betweenness=False))


def random_walk_betweenness(g: Graph) -> ScoreVector:
    """Newman's random-walk betweenness, in which each pair's endpoints
    count 1, as the rescaling ((n-2) * cfb + 2) / n of current-flow
    betweenness on a connected graph."""
    cfb = _current_flow(g, "random-walk betweenness", per_component=False,
                        betweenness=True)
    n = g.n
    return score_vector("random-walk-betweenness",
                        ((n - 2) * cfb + 2) / n if n > 1 else cfb)


# -- closeness family -------------------------------------------------------


def closeness_family(g: Graph, metric: str = "closeness",
                     params: MetricParams | None = None,
                     reachable_only: bool = False,
                     with_diagnostics: bool = False):
    """Closeness, Bavelas ratio, residual/decay, eccentricity,
    straightness.

    Default disconnected handling is strict: a node with any unreachable
    peer scores 0 for closeness/bavelas/eccentricity; with `reachable_only`
    sums run over its reachable set. Residual and straightness always skip
    unreachable pairs; the others read the memoised sweep (module doc).
    """
    params = params or MetricParams()
    n = g.n
    if metric == "straightness" and g.coords is None:
        raise GraphInputError("straightness needs node coordinates")

    if metric == "bavelas":
        base, diag = closeness_family(g, "closeness", params,
                                      reachable_only, True)
        total = sum(base.values)
        vals = [x / total for x in base.values] if total else [0.0] * n
        sv = score_vector("bavelas", vals)
        return (sv, diag) if with_diagnostics else sv

    if metric in ("closeness", "eccentricity"):
        count, total, far = map(_sweep(g).get, ("count", "total", "farthest"))
        vals = reciprocal(total if metric == "closeness" else far)
        vals = np.where(reachable_only | (count == n - 1), vals, 0.0)
    elif metric in ("residual", "straightness"):
        vals, count = np.zeros(n), np.zeros(n, dtype=int)
        for t in traverse(g, range(n)):
            reached = t.dist < INF
            reached[t.sources, np.arange(len(t.sources))] = False
            d = np.where(reached, t.dist, 0.0)
            count[t.sources] = reached.sum(axis=0)
            if metric == "residual":
                val = np.where(reached, params.delta_decay ** d, 0.0).sum(0)
            else:
                xy = np.asarray(g.coords)
                euclid = np.linalg.norm(xy[:, None] - xy[t.sources], axis=2)
                ratio = euclid / np.where(reached, d, 1.0)
                val = np.where(reached, ratio, 0.0).sum(axis=0) / \
                    np.maximum(count[t.sources], 1)
            vals[t.sources] = val
    else:
        raise GraphInputError(f"unknown closeness metric {metric!r}")
    skipped = int((n - 1 - count).sum())
    extra = {"delta": params.delta_decay} if metric == "residual" else {}
    sv = score_vector(metric, vals,
                      {"reachable_only": reachable_only, **extra})
    if with_diagnostics:
        return sv, {"skipped_pairs": skipped}
    return sv


def information_centrality(g: Graph) -> ScoreVector:
    """Stephenson-Zelen information centrality: current-flow closeness
    on a connected undirected graph (Brandes & Fleischer 2005)."""
    return score_vector("information", _current_flow(
        g, "information centrality", per_component=False,
        betweenness=False))


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
    if with_diagnostics:
        return rows, {"skipped_pairs": skipped}
    return rows


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
    # unit weights stay 1 / 1^alpha = 1, so g's memoised sweep serves
    h = g if g.unit_weights else _alpha_distance_graph(g, alpha)
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
