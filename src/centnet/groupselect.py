"""Seed-set selection strategies that avoid naive top-K clustering.

All strategies are deterministic: candidate ties break toward the
lowest node id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphInputError
from .graph import INF, Graph, shortest_paths
from .neighborhoods import ball_sums, closed_operator
from .params import GroupSelectParams


@dataclass
class SelectionStep:
    chosen: int
    score: float
    excluded: int        # candidates ruled out at this step


@dataclass
class SelectionResult:
    seeds: list[int]
    per_step: list[SelectionStep] = field(default_factory=list)
    stop_reason: str = "budget"

    def __post_init__(self):
        if len(set(self.seeds)) != len(self.seeds):
            raise GraphInputError("selection produced duplicate seeds")


def _argmax(scores: np.ndarray, candidates: np.ndarray) -> tuple[int, float]:
    """Highest score among the candidates (a mask), lowest node id on
    ties: np.argmax returns the first maximum."""
    v = int(np.argmax(np.where(candidates, scores, -INF)))
    return v, float(scores[v])


# -- DegreeDistance and its improvements --------------------------------------


def degree_distance(g: Graph, params: GroupSelectParams | None = None,
                    variant: str = "plain") -> SelectionResult:
    """Greedy max degree with a minimum-distance spacing constraint.

    plain: candidates closer than t_td to any seed are excluded.
    fidd:  close candidates stay admissible while their pooled count of
           common neighbors / neighbors-of-neighbors with the seed set
           is below theta.
    sidd:  additionally drops candidates whose two-hop activation
           influence on some seed exceeds beta_inf.
    """
    if variant not in ("plain", "fidd", "sidd"):
        raise GraphInputError(f"unknown degree-distance variant {variant!r}")
    params = params or GroupSelectParams()
    if params.budget > g.n:
        raise GraphInputError("budget exceeds node count")
    deg = g.degree_array.astype(float)
    nearest = np.full(g.n, INF)         # distance from the nearest seed
    is_seed = np.zeros(g.n, dtype=bool)
    seeds: list[int] = []
    steps: list[SelectionStep] = []
    seed_dist: dict[int, list[float]] = {}
    if variant != "plain":
        nbr = [set(g.all_neighbors(v)) for v in range(g.n)]

    def admissible(u: int, seed_nbrs: set, seed_nbrs2: set) -> bool:
        """fidd/sidd, for a non-seed u within t_td of some seed."""
        pooled = len(nbr[u] & seed_nbrs) + len(nbr[u] & seed_nbrs2)
        if pooled >= params.theta:
            return False
        if variant == "sidd":
            p = params.p
            for s in seeds:
                if seed_dist[s][u] >= params.t_td:
                    continue
                direct = p if u in nbr[s] else 0.0
                influence = direct + sum(
                    p * p for w in nbr[u] & nbr[s])
                if influence > params.beta_inf:
                    return False
        return True

    while len(seeds) < params.budget:
        ok = ~is_seed & (nearest >= params.t_td)
        if variant != "plain":
            # pooled common-neighbor sets of the current seed set
            seed_nbrs: set = set()
            seed_nbrs2: set = set()
            for s in seeds:
                seed_nbrs |= nbr[s]
                for w in nbr[s]:
                    seed_nbrs2 |= nbr[w]
            seed_nbrs -= set(seeds)
            seed_nbrs2 -= set(seeds)
            for u in np.flatnonzero(~is_seed & ~ok).tolist():
                ok[u] = admissible(u, seed_nbrs, seed_nbrs2)
        if not ok.any():
            return SelectionResult(seeds, steps, "infeasible")
        v, s = _argmax(deg, ok)
        steps.append(SelectionStep(v, s, g.n - len(seeds) - int(ok.sum())))
        seeds.append(v)
        is_seed[v] = True
        dist = shortest_paths(g, v).dist
        if variant == "sidd":       # the one variant that reads it
            seed_dist[v] = dist
        nearest = np.minimum(nearest, dist)
    return SelectionResult(seeds, steps, "budget")


# -- greedy picks: discount heuristics, degree punishment ---------------------


def _greedy(g: Graph, budget: int, score, absorb, initial=(),
            spent=lambda: False) -> SelectionResult:
    """Seeds up to `budget` (`initial` ones included, without a step):
    each pick is the argmax of score() over the nodes not yet chosen,
    and absorb(v) then updates what score() reads. Ends early with
    "stopping-rule" once spent() holds before a pick."""
    if budget > g.n:
        raise GraphInputError("budget exceeds node count")
    candidates = np.ones(g.n, dtype=bool)
    seeds: list[int] = []
    steps = []
    for v in initial:
        seeds.append(v)
        candidates[v] = False
        absorb(v)
    while len(seeds) < budget:
        if spent():
            return SelectionResult(seeds, steps, "stopping-rule")
        v, s = _argmax(score(), candidates)
        seeds.append(v)
        steps.append(SelectionStep(v, s, 0))
        candidates[v] = False
        absorb(v)
    return SelectionResult(seeds, steps, "budget")


def _discount(g: Graph, budget: int, score) -> SelectionResult:
    """Greedy on score(deg, t), t[u] the count of u's neighbours
    (direction ignored) among the seeds."""
    deg = g.degree_array
    nbr = g.undirected_adjacency
    t = np.zeros(g.n, dtype=np.int64)

    def absorb(v: int):
        t[nbr.indices[nbr.indptr[v]:nbr.indptr[v + 1]]] += 1
    return _greedy(g, budget, lambda: score(deg, t), absorb)


def single_discount(g: Graph, budget: int) -> SelectionResult:
    """Iteratively pick argmax of degree minus links into the seed set."""
    return _discount(g, budget, lambda d, t: (d - t).astype(float))


def degree_discount(g: Graph, budget: int, p: float = 0.05) -> SelectionResult:
    """Independent-cascade-aware discount: d - 2t - (d - t) t p."""
    if not 0.0 <= p <= 1.0:
        raise GraphInputError("p must lie in [0,1]")
    return _discount(g, budget, lambda d, t: d - 2.0 * t - (d - t) * t * p)


def degree_punishment(g: Graph, budget: int, omega: float = 0.05,
                      r: int = 2, initial_seeds=()) -> SelectionResult:
    """Penalize candidates by walk-counted closeness to the seed set.

    Punishment from seed u to candidate v is deg(u) * sum over walk
    lengths h < r of (A^h)_{uv} omega^h, evaluated on the intact graph.
    `initial_seeds` pre-populates the seed set (they count toward the
    budget but produce no selection step).
    """
    if r < 2:
        raise GraphInputError("r must be >= 2")
    if not 0.0 <= omega <= 1.0:
        raise GraphInputError("omega must lie in [0,1]")
    deg = g.degree_array
    walk_step = g.reversed.adjacency(False)
    penalty = np.zeros(g.n)        # sum over seeds of p_{u -> v}

    def absorb(v: int):
        # the new seed's punishment: walks of length 1..r-1 out of v
        walk = np.zeros(g.n)
        walk[v] = 1.0
        scale = omega
        for _ in range(1, r):
            walk = walk_step @ walk
            penalty[:] += deg[v] * walk * scale
            scale *= omega
    return _greedy(g, budget, lambda: deg - penalty, absorb, initial_seeds)


# -- collective influence ------------------------------------------------------


class _Residual:
    """The graph with direction ignored, less the removed nodes: `op`
    is `neighborhoods.closed_operator`, A + I, with the removed nodes'
    columns zeroed, so a product with it steps from alive nodes to the
    alive nodes within one hop (scipy drops zero sums). `deg` holds
    residual degrees (exact for alive nodes)."""

    def __init__(self, g: Graph):
        sym = g.undirected_adjacency
        self.n = g.n
        self.deg = np.diff(sym.indptr)
        self.mean_deg = sym.nnz / g.n if g.n else 0.0
        self.alive = np.ones(g.n, dtype=bool)
        self.op = closed_operator(g)
        # position of the stored (w, v) for each stored (v, w)
        tails = np.repeat(np.arange(g.n), np.diff(self.op.indptr))
        self._mirror = np.lexsort((tails, self.op.indices))

    def remove(self, v: int):
        if not self.alive[v]:
            return
        row = slice(self.op.indptr[v], self.op.indptr[v + 1])
        self.deg[self.op.indices[row]] -= 1
        self.op.data[self._mirror[row]] = 0
        self.alive[v] = False

    def ball(self, v: int, radius: int) -> np.ndarray:
        """Alive nodes within `radius` hops of v."""
        reach = np.zeros(self.n, dtype=bool)
        reach[v] = True
        for _ in range(radius):
            reach = self.op @ reach > 0
        return np.flatnonzero(reach & self.alive)

    def lam(self, ci: np.ndarray, ell: int) -> float:
        """(sum CI / (n <k>))^(1/(ell+1)), <k> the intact mean degree."""
        return (float(ci.sum()) / (self.n * self.mean_deg)) ** (1 / (ell + 1))

    def ci(self, rows: np.ndarray, ell: int) -> np.ndarray:
        """int64 CI of the alive `rows`: the distance-ell frontier is the
        radius-ell ball less the radius ell - 1 one."""
        excess = self.deg - 1
        inner, outer = ball_sums(self.op, rows, ell, excess)
        return excess[rows] * (outer - inner)


def collective_influence(g: Graph, budget: int | None = None,
                         ell: int = 2,
                         stop_on_lambda: bool = False) -> SelectionResult:
    """Optimal-percolation heuristic: repeatedly remove the node with the
    highest CI on the residual graph.

    CI(v) = (deg v - 1) * sum over the distance-ell frontier of
    (deg u - 1), on the residual graph with direction ignored. Ties go
    to the lowest id. CI is computed once for every node; removing v
    changes only the CI of nodes within ell + 1 hops of v on the graph
    before the removal (their degrees or distance-ell frontiers may
    change), so only those are recomputed. With `stop_on_lambda`,
    selection ends once the non-backtracking eigenvalue estimate
    lambda = (sum CI / (n <k>))^(1/(ell+1)) drops to 1; <k> is the mean
    degree of the ORIGINAL network.
    """
    if ell < 1:
        raise GraphInputError("ell must be >= 1")
    if budget is None and not stop_on_lambda:
        raise GraphInputError("need a budget or the stopping rule")
    res = _Residual(g)
    ci = res.ci(np.arange(g.n), ell)

    def absorb(v: int):
        near = res.ball(v, ell + 1)
        res.remove(v)
        near = near[near != v]
        ci[near] = res.ci(near, ell)

    def spent() -> bool:
        return stop_on_lambda and res.mean_deg > 0 and \
            res.lam(ci[res.alive], ell) <= 1.0
    return _greedy(g, g.n if budget is None else budget, lambda: ci, absorb,
                   spent=spent)


def collective_influence_lambda(g: Graph, removed_nodes,
                                ell: int = 2) -> float:
    """The stopping-rule estimate on the residual graph after removals."""
    res = _Residual(g)
    if res.mean_deg == 0:
        return 0.0
    for v in removed_nodes:
        res.remove(v)
    return res.lam(res.ci(np.flatnonzero(res.alive), ell), ell)
