"""Independent brute-force oracles.

These deliberately avoid the library's algorithmic shortcuts: path
enumeration instead of dependency accumulation, Floyd-Warshall instead
of per-source BFS, per-definition k-core peeling instead of staged
pruning, bipartition search instead of augmenting paths.
"""

import heapq
import math
import random
from collections import deque
from itertools import combinations

import numpy as np
import scipy.sparse

from centnet import GraphInputError
from centnet.graph import _from_arcs, components, solve_linear

INF = math.inf


def floyd_warshall(g):
    n = g.n
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    for u in range(n):
        for v, w in g.adj[u]:
            d[u, v] = min(d[u, v], w)
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def all_shortest_path_lists(g, s, t, dist):
    """Every geodesic from s to t as an explicit node list (DFS)."""
    if dist[s][t] == INF:
        return []
    paths = []

    def walk(u, acc):
        if u == t:
            paths.append(acc[:])
            return
        for v, w in g.adj[u]:
            if dist[s][u] + w + dist[v][t] == dist[s][t] and \
                    dist[s][v] == dist[s][u] + w:
                acc.append(v)
                walk(v, acc)
                acc.pop()

    walk(s, [s])
    return paths


def bf_betweenness_paths(g):
    """Betweenness by full geodesic enumeration (tiny graphs only)."""
    n = g.n
    dist = floyd_warshall(g)
    acc = [0.0] * n
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t] \
        if g.directed else list(combinations(range(n), 2))
    for s, t in pairs:
        paths = all_shortest_path_lists(g, s, t, dist)
        if not paths:
            continue
        for v in range(n):
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            acc[v] += through / len(paths)
    return acc


def sigma_counts(g, s, dist):
    """Geodesic counts from s by distance-ordered dynamic programming."""
    n = g.n
    order = sorted((v for v in range(n) if dist[s][v] < INF),
                   key=lambda v: dist[s][v])
    sigma = [0] * n
    sigma[s] = 1
    for v in order:
        if v == s:
            continue
        sigma[v] = sum(sigma[u] for u, w in g.reversed.adj[v]
                       if dist[s][u] + w == dist[s][v])
    return sigma


def bf_betweenness_sigma(g):
    """Betweenness via the sigma_sv * sigma_vt / sigma_st identity."""
    n = g.n
    dist = floyd_warshall(g)
    sig = [sigma_counts(g, s, dist) for s in range(n)]
    acc = [0.0] * n
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t] \
        if g.directed else list(combinations(range(n), 2))
    for s, t in pairs:
        if dist[s][t] == INF:
            continue
        st = sig[s][t]
        for v in range(n):
            if v in (s, t):
                continue
            if dist[s][v] + dist[v][t] == dist[s][t]:
                acc[v] += sig[s][v] * sig[v][t] / st
    return acc


def bf_load(g):
    """Load by per-pair packet simulation toward each target."""
    n = g.n
    dist = floyd_warshall(g)
    acc = [0.0] * n
    for s in range(n):
        for t in range(n):
            if s == t or dist[s][t] == INF:
                continue
            # walk the packet backward from t, splitting among the
            # predecessors (neighbors strictly closer to s) evenly
            amount = {t: 1.0}
            order = sorted(
                (v for v in range(n)
                 if dist[s][v] + dist[v][t] == dist[s][t]
                 and dist[s][v] < INF),
                key=lambda v: -dist[s][v])
            for v in order:
                if v == s or v not in amount:
                    continue
                preds = [u for u, w in g.reversed.adj[v]
                         if dist[s][u] + w == dist[s][v]]
                share = amount[v] / len(preds)
                for u in preds:
                    amount[u] = amount.get(u, 0.0) + share
            for v in range(n):
                if v not in (s, t) and v in amount:
                    acc[v] += amount[v]
    return acc


# -- per-source traversal: the reference for the batched path engine ------


def single_source(g, source, cap=None):
    """(dist, sigma, preds, order) from one source by a Python BFS when
    every weight is 1 and a binary-heap Dijkstra otherwise. Path lengths
    tie under graph.TIE_RTOL; nodes beyond `cap` are unreachable; `order`
    lists the reached nodes by non-decreasing distance."""
    unit = all(w == 1.0 for row in g.adj for _, w in row)
    return (_bfs if unit else _dijkstra)(g.n, g.adj, source, cap)


def _bfs(n, adj, source, cap):
    dist = [INF] * n
    sigma = [0] * n
    preds = [[] for _ in range(n)]
    order = [source]
    dist[source] = 0.0
    sigma[source] = 1
    q = deque([source])
    limit = INF if cap is None else cap
    while q:
        v = q.popleft()
        dv = dist[v]
        if dv >= limit:
            continue
        for u, _ in adj[v]:
            if dist[u] == INF:
                dist[u] = dv + 1.0
                q.append(u)
                order.append(u)
            if dist[u] == dv + 1.0:
                sigma[u] += sigma[v]
                preds[u].append(v)
    if cap is not None:
        for v in range(n):
            if dist[v] > cap:
                dist[v], sigma[v], preds[v] = INF, 0, []
        order = [v for v in order if dist[v] < INF]
    return dist, sigma, preds, order


def _ties(a, b):
    from centnet.graph import TIE_RTOL
    return abs(a - b) <= TIE_RTOL * min(abs(a), abs(b))


def _dijkstra(n, adj, source, cap):
    dist = [INF] * n
    sigma = [0] * n
    preds = [[] for _ in range(n)]
    done = [False] * n
    order = []
    dist[source] = 0.0
    sigma[source] = 1
    heap = [(0.0, source)]
    limit = INF if cap is None else cap
    while heap:
        dv, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        if dv > limit and not _ties(dv, limit):
            break
        order.append(v)
        for u, w in adj[v]:
            if done[u]:
                continue
            alt = dv + w
            if _ties(alt, dist[u]):
                sigma[u] += sigma[v]
                preds[u].append(v)
            elif alt < dist[u]:
                dist[u] = alt
                sigma[u] = sigma[v]
                preds[u] = [v]
                heapq.heappush(heap, (alt, u))
    for v in range(n):
        if dist[v] > limit and not _ties(dist[v], limit):
            dist[v], sigma[v], preds[v] = INF, 0, []
    order = [v for v in order if dist[v] < INF]
    return dist, sigma, preds, order


def dependencies(sigma, preds, order):
    """Brandes dependency accumulation over one shortest-path DAG."""
    delta = [0.0] * len(sigma)
    for w in reversed(order):
        coeff = (1.0 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
    return delta


def source_betweenness(g, cap=None, states=None):
    """Betweenness summed per source (halved when undirected), with
    nodes beyond `cap` unreachable; with per-node `states`, percolation
    centrality instead."""
    n = g.n
    acc = [0.0] * n
    for s in range(n):
        x = 1.0 if states is None else states[s]
        if x == 0.0:
            continue
        dist, sigma, preds, order = single_source(g, s, cap)
        delta = dependencies(sigma, preds, order)
        for v in range(n):
            if v != s:
                acc[v] += x * delta[v]
    if states is not None:
        total = sum(states)
        return [acc[v] / ((n - 2) * (total - states[v]))
                if n > 2 and total - states[v] > 0.0 else 0.0
                for v in range(n)]
    return acc if g.directed else [x / 2.0 for x in acc]


def source_load(g):
    """Goh's load by splitting each source's unit packets evenly over
    the predecessors, node by node in reverse distance order."""
    n = g.n
    acc = [0.0] * n
    for s in range(n):
        dist, _, preds, order = single_source(g, s)
        amount = [0.0] * n
        for v in order:
            amount[v] += 1.0
        for w in reversed(order):
            for v in preds[w]:
                amount[v] += amount[w] / len(preds[w])
        for v in order:
            if v != s:
                acc[v] += amount[v] - 1.0
    return acc


def bf_closeness(g):
    n = g.n
    dist = floyd_warshall(g)
    out = []
    for v in range(n):
        ds = [dist[v][u] for u in range(n) if u != v]
        if not ds or any(d == INF for d in ds):
            out.append(0.0)
        else:
            out.append(1.0 / sum(ds))
    return out


def bf_eccentricity(g):
    n = g.n
    dist = floyd_warshall(g)
    out = []
    for v in range(n):
        ds = [dist[v][u] for u in range(n) if u != v]
        if not ds or any(d == INF for d in ds):
            out.append(0.0)
        else:
            out.append(1.0 / max(ds))
    return out


def bf_k_shell(g):
    """Shell index straight from the defining maximal-subgraph property:
    shell(v) = max k such that v survives min-degree-k peeling."""
    n = g.n

    def k_core_members(k):
        alive = set(range(n))
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                deg = sum(1 for u, _ in g.adj[v] if u in alive)
                if g.directed:
                    deg += sum(1 for u, _ in g.reversed.adj[v]
                               if u in alive)
                if deg < k:
                    alive.discard(v)
                    changed = True
        return alive

    maxdeg = max((g.degree(v) for v in range(n)), default=0)
    shell = [0] * n
    for k in range(1, maxdeg + 1):
        for v in k_core_members(k):
            shell[v] = k
    return shell


def bf_min_edge_cut(g, s, t):
    """Minimum s-t edge cut over all vertex bipartitions."""
    n = g.n
    others = [v for v in range(n) if v not in (s, t)]
    best = INF
    for mask in range(1 << len(others)):
        side = {s}
        for i, v in enumerate(others):
            if mask >> i & 1:
                side.add(v)
        # adj stores both orientations of an undirected edge, but only
        # the u-in-side -> v-outside direction is counted, so each
        # crossing edge contributes exactly once either way
        crossing = 0
        for u in range(n):
            for v, _ in g.adj[u]:
                if u in side and v not in side:
                    crossing += 1
        best = min(best, crossing)
    return best


def bf_local_clustering(g):
    """Undirected clustering by explicit triple enumeration."""
    out = []
    nbr = [set(g.neighbors(v)) for v in range(g.n)]
    for v in range(g.n):
        k = len(nbr[v])
        if k < 2:
            out.append(0.0)
            continue
        closed = sum(1 for a, b in combinations(sorted(nbr[v]), 2)
                     if b in nbr[a])
        out.append(closed / (k * (k - 1) / 2))
    return out


def bf_assortativity_ejk(g):
    """Degree assortativity from the joint excess-degree table e_jk."""
    pairs = []
    deg = g.degrees()
    for u in range(g.n):
        for v, _ in g.adj[u]:
            pairs.append((deg[u] - 1, deg[v] - 1))
    maxj = max(max(j, k) for j, k in pairs)
    e = np.zeros((maxj + 1, maxj + 1))
    for j, k in pairs:
        e[j, k] += 1
    e /= e.sum()
    q = e.sum(axis=1)
    js = np.arange(maxj + 1)
    mu = float(js @ q)
    var = float((js ** 2) @ q - mu ** 2)
    num = sum(j * k * (e[j, k] - q[j] * q[k])
              for j in range(maxj + 1) for k in range(maxj + 1))
    return num / var


def bf_delta_hyperbolicity(g, dist=None):
    """Exhaustive thin-triangle delta over all triples."""
    n = g.n
    if dist is None:
        dist = floyd_warshall(g)
    best = 0.0
    for i, j, k in combinations(range(n), 3):
        sides = []
        for (a, b) in ((i, j), (i, k), (j, k)):
            dab = dist[a][b]
            sides.append([w for w in range(n)
                          if dist[a][w] + dist[w][b] == dab])
        delta = min(
            max(min(dist[m][w] for w in side) for side in sides)
            for m in range(n))
        best = max(best, delta)
    return best


def current_flow(g, per_component=False):
    """(current-flow betweenness, current-flow closeness) as lists, from
    one grounded Laplacian inverse per component and one sort per edge
    in a Python loop: the bit-for-bit reference for the blocked edge
    sums of globalmetrics."""
    lab = components(g)
    order = np.argsort(lab.labels, kind="stable")
    comps = np.split(order, np.cumsum(lab.sizes)[:-1])
    if len(comps) > 1 and not per_component:
        raise GraphInputError("current_flow needs a connected graph")
    cfb, cfc = np.zeros(g.n), np.zeros(g.n)
    for nodes in comps:
        nc = len(nodes)
        if nc < 2:
            continue
        sub = g.adjacency()[nodes][:, nodes]
        lap = -sub.toarray()
        lap[np.diag_indices(nc)] = sub @ np.ones(nc)
        tmat = np.pad(solve_linear(lap[:-1, :-1]), (0, 1))
        cfc[nodes] = nc / (nc * np.diag(tmat) + np.trace(tmat)
                           - 2.0 * tmat.sum(axis=1))
        if nc < 3:
            continue
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
        cfb[nodes] = (edge_sum - (nc - 1)) / ((nc - 1) * (nc - 2))
    return cfb.tolist(), cfc.tolist()


def random_walk_betweenness(g):
    """Newman's random-walk betweenness by direct pair accumulation on a
    connected undirected graph (O(n^2 m)); endpoints count 1 per pair."""
    n = g.n
    if n < 2:
        return [0.0] * n
    lap = np.zeros((n, n))
    for v in range(n):
        for u, w in g.adj[v]:
            lap[v, v] += w
            lap[v, u] -= w
    # voltages with the last node grounded
    tmat = np.zeros((n, n))
    tmat[:-1, :-1] = np.linalg.inv(lap[:-1, :-1])
    raw = [0.0] * n
    for s, t in combinations(range(n), 2):
        for v in range(n):
            if v == s or v == t:
                raw[v] += 1.0
                continue
            cur = 0.0
            for u, w in g.adj[v]:
                cur += w * abs(tmat[v, s] - tmat[v, t]
                               - tmat[u, s] + tmat[u, t])
            raw[v] += 0.5 * cur
    denom = 0.5 * n * (n - 1)
    return [x / denom for x in raw]


# -- greedy seed selection ------------------------------------------------
#
# The per-step Python loops that rescan every candidate, as the reference
# for the array strategies in groupselect. Each returns (seeds,
# [(chosen, score) per step], stop_reason); ties go to the lowest id.


def _argmax(scores):
    best_v, best_s = None, -INF
    for v in sorted(scores):
        if scores[v] > best_s:
            best_v, best_s = v, scores[v]
    return best_v, best_s


def degree_distance(g, params, variant="plain"):
    """Every candidate checked against every seed's distance row at each
    step, with the pooled seed-neighbour sets rebuilt per step. Steps
    are (chosen, score, excluded), `excluded` the non-seeds ruled out."""
    n = g.n
    deg = g.degrees()
    nbr = [set(g.all_neighbors(v)) for v in range(n)]
    seeds, steps, seed_dist = [], [], {}

    def admissible(u, seed_nbrs, seed_nbrs2):
        near = [s for s in seeds if seed_dist[s][u] < params.t_td]
        if not near:
            return True
        if variant == "plain":
            return False
        pooled = len(nbr[u] & seed_nbrs) + len(nbr[u] & seed_nbrs2)
        if pooled >= params.theta:
            return False
        if variant == "sidd":
            p = params.p
            for s in near:
                direct = p if u in nbr[s] else 0.0
                influence = direct + sum(p * p for w in nbr[u] & nbr[s])
                if influence > params.beta_inf:
                    return False
        return True

    while len(seeds) < params.budget:
        seed_nbrs, seed_nbrs2 = set(), set()
        for s in seeds:
            seed_nbrs |= nbr[s]
            for w in nbr[s]:
                seed_nbrs2 |= nbr[w]
        seed_nbrs -= set(seeds)
        seed_nbrs2 -= set(seeds)
        ok = {u: float(deg[u]) for u in range(n)
              if u not in seeds and admissible(u, seed_nbrs, seed_nbrs2)}
        if not ok:
            return seeds, steps, "infeasible"
        v, s = _argmax(ok)
        steps.append((v, s, n - len(seeds) - len(ok)))
        seeds.append(v)
        seed_dist[v] = single_source(g, v)[0]
    return seeds, steps, "budget"


def single_discount(g, budget):
    deg = g.degrees()
    nbr = [set(g.all_neighbors(v)) for v in range(g.n)]
    seeds, steps, chosen = [], [], set()
    while len(seeds) < budget:
        scores = {u: float(deg[u] - len(nbr[u] & chosen))
                  for u in range(g.n) if u not in chosen}
        v, s = _argmax(scores)
        seeds.append(v)
        chosen.add(v)
        steps.append((v, s))
    return seeds, steps, "budget"


def degree_discount(g, budget, p=0.05):
    deg = g.degrees()
    nbr = [set(g.all_neighbors(v)) for v in range(g.n)]
    seeds, steps, chosen = [], [], set()
    while len(seeds) < budget:
        scores = {}
        for u in range(g.n):
            if u in chosen:
                continue
            t = len(nbr[u] & chosen)
            scores[u] = deg[u] - 2.0 * t - (deg[u] - t) * t * p
        v, s = _argmax(scores)
        seeds.append(v)
        chosen.add(v)
        steps.append((v, s))
    return seeds, steps, "budget"


def degree_punishment(g, budget, omega=0.05, r=2, initial_seeds=()):
    n = g.n
    deg = g.degrees()
    seeds, steps = [], []
    penalty = [0.0] * n

    def absorb(v):
        # walks of length 1..r-1 along the arcs out of the new seed
        walk = [0.0] * n
        walk[v] = 1.0
        scale = omega
        for _ in range(1, r):
            nxt = [0.0] * n
            for a in range(n):
                if walk[a]:
                    for b, _w in g.adj[a]:
                        nxt[b] += walk[a]
            for b in range(n):
                penalty[b] += deg[v] * nxt[b] * scale
            walk = nxt
            scale *= omega

    for v in initial_seeds:
        seeds.append(v)
        absorb(v)
    while len(seeds) < budget:
        scores = {u: deg[u] - penalty[u] for u in range(n) if u not in seeds}
        v, s = _argmax(scores)
        seeds.append(v)
        steps.append((v, s))
        absorb(v)
    return seeds, steps, "budget"


def _shell_degree_sum(adj_sets, res_deg, removed, v, ell):
    """Sum of (residual degree - 1) over the nodes at distance ell."""
    seen = {v}
    frontier = [v]
    for _ in range(ell):
        nxt = []
        for a in frontier:
            for b in adj_sets[a]:
                if b not in seen and not removed[b]:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return float(sum(res_deg[b] - 1 for b in frontier))


def _ci_scores(adj_sets, res_deg, removed, ell):
    return {v: (res_deg[v] - 1) * _shell_degree_sum(
        adj_sets, res_deg, removed, v, ell)
        for v in range(len(adj_sets)) if not removed[v]}


def collective_influence(g, budget=None, ell=2, stop_on_lambda=False):
    """CI recomputed for every node from scratch at every step."""
    n = g.n
    adj_sets = [set(g.all_neighbors(v)) for v in range(n)]
    res_deg = [len(s) for s in adj_sets]
    removed = [False] * n
    mean_deg = sum(res_deg) / n if n else 0.0
    seeds, steps = [], []
    limit = budget if budget is not None else n
    while len(seeds) < limit:
        ci = _ci_scores(adj_sets, res_deg, removed, ell)
        if stop_on_lambda and n and mean_deg > 0:
            lam = (sum(ci.values()) / (n * mean_deg)) ** (1.0 / (ell + 1))
            if lam <= 1.0:
                return seeds, steps, "stopping-rule"
        if not ci:
            return seeds, steps, "exhausted"
        v, s = _argmax(ci)
        seeds.append(v)
        steps.append((v, s))
        removed[v] = True
        for b in adj_sets[v]:
            if not removed[b]:
                res_deg[b] -= 1
    return seeds, steps, "budget"


def collective_influence_lambda(g, removed_nodes, ell=2):
    n = g.n
    adj_sets = [set(g.all_neighbors(v)) for v in range(n)]
    removed = [False] * n
    for v in removed_nodes:
        removed[v] = True
    res_deg = [sum(1 for b in s if not removed[b]) for s in adj_sets]
    mean_deg = sum(len(s) for s in adj_sets) / n if n else 0.0
    if n == 0 or mean_deg == 0:
        return 0.0
    total = sum(_ci_scores(adj_sets, res_deg, removed, ell).values())
    return (total / (n * mean_deg)) ** (1.0 / (ell + 1))


def quantize(values, rel=1e-9):
    """Round scores to a relative grid so exact mathematical ties that
    differ by accumulation-order noise rank as ties."""
    scale = max((abs(x) for x in values), default=1.0) or 1.0
    return [round(x / scale, 9) for x in values]


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        rk = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and \
                    vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for t in range(i, j + 1):
                rk[order[t]] = avg
            i = j + 1
        return rk

    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if vx == 0 or vy == 0:
        return 1.0 if rx == ry else 0.0
    return cov / (vx * vy)


# -- connected components by slicing the operator ------------------------------


def slice_components(g, mode="weak", mask=None):
    """(labels, sizes, giant) of csgraph on the subgraph that the mask
    slices out of the 0/1 adjacency; excluded nodes are labelled -1."""
    from scipy.sparse.csgraph import connected_components

    a = g.adjacency(weighted=False)
    comp = np.full(g.n, -1)
    if mask is None:
        alive = slice(None)
    else:
        alive = np.flatnonzero(np.asarray(mask, dtype=bool))
        a = a[alive][:, alive]
    count, labels = connected_components(
        a, directed=g.directed,
        connection="strong" if mode == "strong" else "weak")
    comp[alive] = labels
    sizes = np.bincount(labels, minlength=count).tolist()
    return comp, sizes, max(sizes, default=0)


def non_infectious_rows(g, ordering=None, seed_set=None, phi_grid=(0.0,)):
    """(phi, seeds, giant fraction) per point, phi ascending, of the
    per-point mask loop: the removed prefix grows with phi, and every
    point labels the whole masked graph with one `components` call."""
    from centnet import components
    from centnet.resilience import removal_count

    n = g.n
    if seed_set is not None:
        prefix = list(seed_set)
        phis = sorted({0.0, len(prefix) / n if n else 0.0})
    else:
        prefix = list(ordering)
        phis = sorted(set(phi_grid) | {0.0})
    rows = []
    mask = bytearray(b"\x01") * n
    removed = 0
    for phi in phis:
        k = len(prefix) if seed_set is not None and phi > 0 \
            else removal_count(phi, n)
        for v in prefix[removed:k]:
            mask[v] = 0
        removed = k
        giant = components(g, mask=mask).giant_size / n if n else 0.0
        rows.append((phi, k, giant))
    return rows


# -- graph construction and the SIR cascade, on tuple adjacency ---------------


class TupleGraph:
    """The graph as the tuple-first build made it: adj[v] a tuple of
    (neighbour, weight) pairs sorted by neighbour; in_adj the same
    object when undirected."""

    def __init__(self, n, directed, adj, in_adj, labels, loops, dups):
        self.n, self.directed = n, directed
        self.adj, self.in_adj = adj, in_adj
        self.labels = labels
        self.self_loops_dropped, self.duplicates_collapsed = loops, dups

    def adjacency(self, weighted=True):
        """CSR re-read of the tuples, as the tuple-first operator was."""
        import scipy.sparse as sp

        indptr = np.cumsum([0] + [len(a) for a in self.adj])
        arcs = np.array([pair for row in self.adj for pair in row],
                        dtype=float).reshape(-1, 2)
        data = arcs[:, 1] if weighted else np.ones(len(arcs))
        return sp.csr_matrix((data, arcs[:, 0].astype(np.int64), indptr),
                             shape=(self.n, self.n))

    def undirected_adjacency(self):
        a = self.adjacency(False)
        if not self.directed:
            return a
        sym = (a + a.T).tocsr()
        sym.data[:] = 1.0
        sym.sort_indices()
        return sym


def graph_from_arcs(n, directed, arcs):
    """Id-preserving constructor: the Graph of `arcs`, (u, v, w) with
    0 <= u, v < n already deduplicated."""
    arcs = np.array(list(arcs), dtype=float).reshape(-1, 3)
    ends = arcs[:, :2].astype(np.int64)
    return _from_arcs(n, directed, ends[:, 0], ends[:, 1], arcs[:, 2])


def tuple_build_graph(edges, directed=False, isolated=()):
    """Per-edge loop: first-appearance ids, self-loops dropped, the first
    of duplicate edges kept, each row sorted by neighbour."""
    label_to_id, labels = {}, []

    def intern(lbl):
        if lbl not in label_to_id:
            label_to_id[lbl] = len(labels)
            labels.append(lbl)
        return label_to_id[lbl]

    seen, arcs, loops, dups = set(), [], 0, 0
    for e in edges:
        u, v, w = (*e, 1.0) if len(e) == 2 else e
        ui, vi = intern(u), intern(v)
        if ui == vi:
            loops += 1
            continue
        key = (ui, vi) if directed or ui < vi else (vi, ui)
        if key in seen:
            dups += 1
            continue
        seen.add(key)
        arcs.append((ui, vi, float(w)))
    for lbl in isolated:
        intern(lbl)
    n = len(labels)
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for u, v, w in arcs:
        out[u].append((v, w))
        inn[v].append((u, w))
        if not directed:
            out[v].append((u, w))
            inn[u].append((v, w))
    adj = tuple(tuple(sorted(a)) for a in out)
    in_adj = adj if not directed else tuple(tuple(sorted(a)) for a in inn)
    plain = all(lbl == i for i, lbl in enumerate(labels))
    return TupleGraph(n, directed, adj, in_adj,
                      None if plain else tuple(labels), loops, dups)


def sir_cascade(g, seeds, beta, rng_seed=0):
    """Single-attempt SIR node by node: (final 'S'/'R' labels, number
    ever infected). Each round, every infected node in list order
    attacks each out-neighbour in row order that was never attacked,
    with one draw per attack."""
    rng = random.Random(rng_seed)
    S, I, R = 0, 1, 2
    state = [S] * g.n
    attempted = [False] * g.n
    seeds = sorted(set(seeds))
    for v in seeds:
        state[v] = I
        attempted[v] = True
    infected = list(seeds)
    ever = len(seeds)
    while infected:
        new = []
        for v in infected:
            for u, _ in g.adj[v]:
                if state[u] == S and not attempted[u]:
                    attempted[u] = True
                    if rng.random() < beta:
                        state[u] = I
                        new.append(u)
        for v in infected:
            state[v] = R
        ever += len(new)
        infected = new
    return ["S" if s == S else "R" for s in state], ever


# -- local and cohesion measures, by node loops over neighbour sets --------
#
# The per-node loops that preceded the sparse forms in local,
# graphmetrics and globalmetrics, as their reference.


def local_clustering(g):
    """Linked pairs among each node's out-neighbours over the pair
    count: unordered pairs when undirected, ordered ones when directed;
    fewer than 2 out-neighbours scores 0."""
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


def clusterrank(g):
    cc = local_clustering(g)
    return [10.0 ** (-cc[v]) * sum(len(g.neighbors(u)) + 1
                                   for u in g.neighbors(v))
            for v in range(g.n)]


def redundancy(g):
    """Borgatti's 2e / degree on unit weights; on weighted graphs the
    ego-network sum of p_vs * m_rs over linked neighbour pairs."""
    nbr_sets = [set(g.neighbors(v)) for v in range(g.n)]
    if g.unit_weights:
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


def jaccard_aggregation(g):
    """Contribution's operator, entry by entry: the weighted
    in-aggregation operator (the adjacency when undirected) with each
    entry (u, v) scaled by 1 - |N(u) & N(v)| / |N(u) | N(v)|, N the
    neighbours with direction ignored."""
    a = g.adjacency()
    m = (a.T.tocsr() if g.directed else a).tocoo()
    nbr = [set(g.all_neighbors(v)) for v in range(g.n)]
    jaccard = [len(nbr[u] & nbr[v]) / len(nbr[u] | nbr[v])
               for u, v in zip(m.row.tolist(), m.col.tolist())]
    return scipy.sparse.csr_matrix(
        (m.data * (1.0 - np.array(jaccard)), (m.row, m.col)), shape=m.shape)


def entropy(g, metric):
    """Local entropy -sum d(u) ln d(u) and mapping entropy
    -d(v) sum ln d(u), over the neighbours u of v with direction
    ignored, d the total degree."""
    deg = g.degrees()
    vals = []
    for v in range(g.n):
        nbrs = g.all_neighbors(v)
        if metric == "local-entropy":
            vals.append(-sum(deg[u] * math.log(deg[u]) for u in nbrs
                             if deg[u] > 0))
        else:
            vals.append(-deg[v] * sum(math.log(deg[u]) for u in nbrs
                                      if deg[u] > 0))
    return vals


def ball(g, v, h):
    """Nodes within distance h of v, excluding v itself."""
    seen = {v}
    frontier = [v]
    out = set()
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


def volume(g, h):
    return [float(sum(g.degree(u) for u in ball(g, v, h)))
            for v in range(g.n)]


def two_ball_sizes(g):
    """|N_2(w)| for every w: nearest plus next-nearest neighbours."""
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


def semi_local(g):
    d2 = two_ball_sizes(g)
    q = [sum(d2[w] for w in g.neighbors(u)) for u in range(g.n)]
    return [float(sum(q[u] for u in g.neighbors(v))) for v in range(g.n)]


def hybrid_degree(g, alpha=1000.0, beta=0.1, p=0.05):
    d2 = two_ball_sizes(g)
    q = [sum(d2[w] for w in g.neighbors(u)) for u in range(g.n)]
    vals = []
    for v in range(g.n):
        semi = sum(q[u] for u in g.neighbors(v))
        m_local = semi - 2 * sum(g.degree(u) for u in g.neighbors(v))
        vals.append((beta - p) * alpha * g.degree(v) + p * m_local)
    return vals


def reciprocity(g):
    """Reciprocated arcs over all arcs (0 without arcs)."""
    out_sets = [set(g.neighbors(v)) for v in range(g.n)]
    co = sum(1 for v in range(g.n) for u in out_sets[v] if v in out_sets[u])
    return co / g.m if g.m else 0.0


def endpoint_series(g, mode):
    """(xs, ys): the excess degrees at the tail and head of every arc,
    row by row."""
    indeg = g.in_csr.degrees.tolist()
    outdeg = g.out_csr.degrees.tolist()
    deg = g.degrees()
    kinds = {"undirected": (deg, deg), "directed-out-in": (outdeg, indeg),
             "in-in": (indeg, indeg), "out-out": (outdeg, outdeg)}
    dx, dy = kinds[mode]
    xs, ys = [], []
    for u in range(g.n):
        for v, _ in g.adj[u]:
            xs.append(dx[u] - 1)
            ys.append(dy[v] - 1)
    return xs, ys


def local_assortativity(g):
    xs, _ = endpoint_series(g, "undirected")
    mu = sum(xs) / len(xs)
    var = sum((x - mu) ** 2 for x in xs) / len(xs)
    deg = g.degrees()
    vals = []
    for v in range(g.n):
        j = deg[v] - 1
        nbrs = g.neighbors(v)
        kbar = sum(deg[u] - 1 for u in nbrs) / deg[v] if nbrs else 0.0
        vals.append((j + 1) * (j * kbar - mu * mu) / (2 * g.m * var))
    return vals


def gdsp_degree(g, alpha):
    """k^(1-alpha) * s^alpha, s the strength over out- and, when
    directed, in-arcs."""
    vals = []
    for v in range(g.n):
        strength = sum(w for _, w in g.adj[v])
        if g.directed:
            strength += sum(w for _, w in g.reversed.adj[v])
        vals.append((float(g.degree(v)) ** (1.0 - alpha)) *
                    (strength ** alpha))
    return vals


def alpha_distance_arcs(g, alpha):
    """Each edge (each arc when directed) once, with length 1/w^alpha."""
    return [(v, u, 1.0 / (w ** alpha)) for v in range(g.n)
            for u, w in g.adj[v] if g.directed or v < u]


def weight_neighborhood(g, phi, alpha):
    """phi(v) plus the neighbours' phi, each weighted by
    (k_u k_v)^alpha over its mean across the edges."""
    deg = g.degrees()
    weights = [(deg[u] * deg[v]) ** alpha for v in range(g.n)
               for u, _ in g.adj[v] if g.directed or v < u]
    mean_w = sum(weights) / len(weights) if weights else 1.0
    vals = []
    for v in range(g.n):
        s = phi[v]
        for u in g.all_neighbors(v):
            s += ((deg[u] * deg[v]) ** alpha / mean_w) * phi[u]
        vals.append(s)
    return vals


def si_spread_scores(g, params):
    """Mean infected fraction after si_steps of an SI cascade from each
    node over si_runs seeded replicates, one draw per exposed arc in row
    order."""
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
                    for u, _ in g.adj[v]:
                        if u not in infected and \
                                rng.random() < params.si_beta:
                            infected.add(u)
                            new.append(u)
                if not new:
                    break
                frontier = new
            totals[seed] += len(infected) / n
    return [t / params.si_runs for t in totals]


# -- pruning sweeps and vertex cuts -------------------------------------------
#
# The loops that preceded iterative._peel and the csgraph max flow of
# graphmetrics._split_network, as their reference.


def total_degree_rows(g):
    """Row v: (u, arcs between v and u) over v's neighbours u in id
    order, direction ignored, so a reciprocal pair counts twice."""
    rows = []
    for v in range(g.n):
        count = {}
        for u, _ in g.adj[v]:
            count[u] = count.get(u, 0) + 1
        if g.directed:
            for u, _ in g.reversed.adj[v]:
                count[u] = count.get(u, 0) + 1
        rows.append(sorted(count.items()))
    return rows


def k_shell_rounds(g):
    """(shell index, removal order) of the frontier peel: each round
    removes, in id order, every live node of residual degree <= k; k
    rises to the least live degree when a round finds nobody."""
    n = g.n
    rows = total_degree_rows(g)
    deg = [sum(c for _, c in row) for row in rows]
    alive = [True] * n
    shell = [0] * n
    order = []
    k = 0
    frontier = []
    while len(order) < n:
        if not frontier:
            k = min(deg[v] for v in range(n) if alive[v])
            frontier = [v for v in range(n) if alive[v] and deg[v] <= k]
        for v in frontier:
            alive[v] = False
            shell[v] = k
            order.append((v, k))
        touched = set()
        for v in frontier:
            for u, c in rows[v]:
                if alive[u]:
                    deg[u] -= c
                    touched.add(u)
        frontier = sorted(u for u in touched if deg[u] <= k)
    return shell, order


def mixed_degree_decomposition(g, lam):
    """Stage of each node under pruning by residual + lam * exhausted
    degree, one queue per stage."""
    n = g.n
    rows = total_degree_rows(g)
    k_r = [sum(c for _, c in row) for row in rows]
    k_e = [0] * n
    alive = [True] * n
    score = [0.0] * n
    remaining = n
    while remaining:
        mixed = [k_r[v] + lam * k_e[v] for v in range(n)]
        m_stage = min(mixed[v] for v in range(n) if alive[v])
        queue = deque(v for v in range(n)
                      if alive[v] and mixed[v] <= m_stage)
        while queue:
            v = queue.popleft()
            if not alive[v]:
                continue
            alive[v] = False
            remaining -= 1
            score[v] = m_stage
            for u, c in rows[v]:
                if alive[u]:
                    k_r[u] -= c
                    k_e[u] += c
                    if k_r[u] + lam * k_e[u] <= m_stage:
                        queue.append(u)
    return score


def split_max_flow(n, arcs, s, t, forbidden):
    """(flow value, vertex cut) of unit vertex capacities by node
    splitting and Edmonds-Karp: v_in = 2v, v_out = 2v + 1 joined by a
    capacity-1 arc (n + 1 at s and t), each graph arc of capacity n + 1,
    `forbidden` nodes left out; the cut is the nodes whose v_in the
    residual reaches from 2s and whose v_out it does not."""
    big = n + 1
    cap = {}
    adj = {}

    def add(a, b, c):
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), cap.get((b, a), 0))
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for v in range(n):
        if v in forbidden:
            continue
        add(2 * v, 2 * v + 1, big if v in (s, t) else 1)
    for u, v in arcs:
        if u in forbidden or v in forbidden:
            continue
        add(2 * u + 1, 2 * v, big)

    flow = {}
    src, dst = 2 * s, 2 * t + 1
    value = 0
    while True:
        prev = {src: src}
        q = deque([src])
        while q and dst not in prev:
            a = q.popleft()
            for b in sorted(adj.get(a, ())):
                if b not in prev and \
                        cap.get((a, b), 0) - flow.get((a, b), 0) > 0:
                    prev[b] = a
                    q.append(b)
        if dst not in prev:
            break
        b = dst
        while b != src:
            a = prev[b]
            flow[(a, b)] = flow.get((a, b), 0) + 1
            flow[(b, a)] = flow.get((b, a), 0) - 1
            b = a
        value += 1
    side = {src}
    q = deque([src])
    while q:
        a = q.popleft()
        for b in adj.get(a, ()):
            if b not in side and cap.get((a, b), 0) - flow.get((a, b), 0) > 0:
                side.add(b)
                q.append(b)
    cut = {v for v in range(n)
           if v not in forbidden and 2 * v in side and 2 * v + 1 not in side}
    return value, cut


# -- max flow, flow betweenness and delta-hyperbolicity -----------------------
#
# The loops that preceded the csgraph max flow of graph.max_flow and the
# distance-array form of graphmetrics.delta_hyperbolicity, as their
# reference.


def max_flow(g, s, t):
    """(value, throughflow, edge_flow) of unit-capacity Edmonds-Karp whose
    BFS scans residual neighbours in ascending id order: throughflow[v]
    is the positive flow into v (the value at s and t), edge_flow maps
    each arc (u, v) of positive flow to it."""
    n = g.n
    capacity = {(u, v): 1 for u in range(n) for v, _ in g.adj[u]}
    residual_nbrs = [
        sorted({u for u, _ in g.adj[v]} | {u for u, _ in g.reversed.adj[v]})
        for v in range(n)]
    flow = {}
    value = 0
    while True:
        prev = [-1] * n
        prev[s] = s
        q = deque([s])
        while q and prev[t] < 0:
            v = q.popleft()
            for u in residual_nbrs[v]:
                if prev[u] < 0 and \
                        capacity.get((v, u), 0) - flow.get((v, u), 0) > 0:
                    prev[u] = v
                    q.append(u)
        if prev[t] < 0:
            break
        v = t
        while v != s:
            u = prev[v]
            flow[(u, v)] = flow.get((u, v), 0) + 1
            flow[(v, u)] = flow.get((v, u), 0) - 1
            v = u
        value += 1
    through = [0.0] * n
    for (u, v), f in flow.items():
        if f > 0:
            through[v] += f
    through[s] = float(value)
    through[t] = float(value)
    return value, through, {k: f for k, f in flow.items() if f > 0}


def flow_betweenness(g, normalized=False, pair_distance_cap=None):
    """(scores, skipped pairs): the throughflow of `max_flow` summed per
    node over every pair, unordered (lower id as source) when
    undirected, divided by the pair's flow value when `normalized`; with
    a cap, only pairs within that many hops, the others counted."""
    n = g.n
    acc = [0.0] * n
    skipped = 0
    for s in range(n):
        targets = [t for t in range(n) if t != s]
        if pair_distance_cap is not None:
            dist = single_source(g, s, float(pair_distance_cap))[0]
            targets = [t for t in targets if dist[t] < INF]
            skipped += (n - 1) - len(targets)
        if not g.directed:
            targets = [t for t in targets if t > s]
        for t in targets:
            value, through, _ = max_flow(g, s, t)
            if value == 0:
                continue
            for v in range(n):
                if v != s and v != t:
                    acc[v] += through[v] / value if normalized else through[v]
    return acc, skipped


def delta_hyperbolicity(dist, sample_count, rng_seed):
    """(max delta, mean delta, mean delta / shortest side, triples) over
    the node triples of the distance rows `dist`: all of them when
    `sample_count` reaches their number, else `sample_count` sorted
    draws of random.Random(rng_seed).sample."""
    n = len(dist)
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
    return (max(deltas), sum(deltas) / len(deltas),
            sum(ratios) / len(ratios), len(triples))


def parse_edge_lines(path):
    """The edges of an edge-list file, read with readlines and parsed
    line by line: comments judged before commas become spaces, 2 or 3
    columns, a positive finite weight."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    for lineno, line in enumerate(raw_lines, start=1):
        text = line.strip()
        if not text or text.startswith("#") or text.startswith("%"):
            continue
        parts = text.replace(",", " ").split()
        if len(parts) not in (2, 3):
            raise GraphInputError(
                f"{path}:{lineno}: expected 'u v [w]', got {text!r}")
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError as exc:
                raise GraphInputError(
                    f"{path}:{lineno}: bad weight {parts[2]!r}") from exc
            if not (w > 0.0) or not math.isfinite(w):
                raise GraphInputError(
                    f"{path}:{lineno}: weight must be positive, got {w}")
            edges.append((parts[0], parts[1], w))
        else:
            edges.append((parts[0], parts[1]))
    if not edges:
        raise GraphInputError(f"{path}: no edges found")
    return edges
