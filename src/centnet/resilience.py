"""Targeted/random attack experiments: removal cascades, giant-component
measurement, and the relative-graph-centrality bookkeeping."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphInputError
from .graph import Graph, components, row_positions
from .params import ScoreVector


@dataclass
class AttackPlan:
    """One experiment: attack kind, target sources, removal fractions.

    kind "random" is shorthand for a non-infectious plan whose only
    source is random removal.
    """

    kind: str                       # non-infectious | infectious | random
    sources: list                   # metric/strategy source specs
    phi_grid: list[float]
    beta: float = 0.05
    runs: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("non-infectious", "infectious", "random"):
            raise GraphInputError(f"unknown attack kind {self.kind!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise GraphInputError("beta must lie in [0,1]")
        if self.runs < 1:
            raise GraphInputError("runs must be >= 1")
        grid = sorted(float(x) for x in self.phi_grid)
        if grid and (grid[0] < 0.0 or grid[-1] > 1.0):
            raise GraphInputError("phi values must lie in [0,1]")
        if not grid or grid[0] > 0.0:
            grid = [0.0] + grid
        self.phi_grid = grid
        if self.kind == "random":
            self.kind = "non-infectious"
            self.sources = ["random"]


@dataclass
class AttackOutcome:
    """Result of a single (source, phi, run) cell."""

    metric: str
    phi: float
    run: int
    giant_fraction: float
    seeds: int
    infected_total: int | None = None     # None for non-infectious rows
    node_states: list | None = None       # 'S' / 'R' final labels
    elapsed_ms: float = 0.0

    @property
    def infected_fraction(self) -> float | None:
        if self.infected_total is None or self.node_states is None:
            return None
        n = len(self.node_states)
        return self.infected_total / n if n else 0.0


@dataclass
class ExperimentResult:
    rows: list
    summary: dict                   # (metric, phi) -> (mean, std)
    errors: list = field(default_factory=list)
    # (strategy source, stop reason, budget slots padded in id order)
    selections: list = field(default_factory=list)


def rank_targets(scores: ScoreVector) -> list[int]:
    """Descending score, ascending node id on ties."""
    vals = np.asarray(scores.values, dtype=float)
    return np.lexsort((np.arange(len(vals)), -vals)).tolist()


def _node_ids(g: Graph, ids, what: str, distinct: bool = True) -> list:
    """`ids` as a list of node ids of g, none repeated if `distinct`."""
    ids = list(ids)
    arr = np.asarray(ids)
    if ids and (arr.dtype.kind not in "iu" or arr.min() < 0
                or arr.max() >= g.n):
        raise GraphInputError(f"{what} must be node ids in [0, {g.n})")
    if distinct and len(set(ids)) < len(ids):
        raise GraphInputError(f"{what} repeats a node")
    return ids


def removal_count(phi: float, n: int) -> int:
    return min(n, math.ceil(phi * n - 1e-9))


def non_infectious_attack(g: Graph, ordering=None, seed_set=None,
                          phi_grid=(0.0,), metric: str = "") -> list[AttackOutcome]:
    """Remove static-ranked prefixes and report giant fractions.

    The ordering is computed once on the intact graph; the giant
    fraction is normalized by the original node count. A phi=0 row is
    always emitted.
    """
    n = g.n
    if seed_set is not None:
        prefix = _node_ids(g, seed_set, "seed_set")
        phis = sorted({0.0, len(prefix) / n if n else 0.0})
    else:
        if ordering is None or len(ordering) != n:
            raise GraphInputError("ordering must cover every node")
        prefix = _node_ids(g, ordering, "ordering")
        phis = sorted(set(phi_grid) | {0.0})
    rows = []
    mask = [True] * n           # the removed prefix grows with phi
    removed = 0
    for phi in phis:
        start = time.perf_counter()
        k = len(prefix) if seed_set is not None and phi > 0 \
            else removal_count(phi, n)
        for v in prefix[removed:k]:
            mask[v] = False
        removed = k
        giant = components(g, mask=mask).giant_size / n if n else 0.0
        elapsed = (time.perf_counter() - start) * 1000.0
        rows.append(AttackOutcome(metric, phi, 0, giant, seeds=k,
                                  elapsed_ms=elapsed))
    return rows


def infectious_attack(g: Graph, seeds, beta: float,
                      rng_seed: int = 0, metric: str = "",
                      phi: float = 0.0, run: int = 0) -> AttackOutcome:
    """Single-attempt SIR cascade.

    Seeds start Infected; each round every Infected node attacks each
    still-Susceptible out-neighbor that has never been attacked before,
    with success probability beta, then turns Removed. Attacks run in
    the order of the infected list, then of each out-row, with one
    `random.Random(rng_seed)` draw per attacked node. A node that
    survives its one attempt is immune for good (it stays in S). The
    giant fraction is measured on the subgraph induced by S nodes,
    normalized by the original node count.
    """
    if not 0.0 <= beta <= 1.0:
        raise GraphInputError("beta must lie in [0,1]")
    seeds = sorted(set(_node_ids(g, seeds, "seeds", distinct=False)))
    if not seeds:
        raise GraphInputError("infectious attack needs at least one seed")
    n = g.n
    start = time.perf_counter()
    rng = random.Random(rng_seed)
    rows = g.out_csr
    attempted = np.zeros(n, dtype=bool)
    ever = np.zeros(n, dtype=bool)          # ever infected: R at the end
    infected = np.array(seeds)
    attempted[infected] = ever[infected] = True
    while infected.size:
        # the out-arcs of the infected nodes, in list order; each head
        # not yet attempted is exposed once, at its first such arc, and
        # draws once, in that order
        heads = rows.indices[row_positions(rows.indptr, infected)]
        heads = heads[~attempted[heads]]
        _, first = np.unique(heads, return_index=True)
        exposed = heads[np.sort(first)]
        attempted[exposed] = True
        draws = np.array([rng.random() for _ in range(exposed.size)])
        infected = exposed[draws < beta]
        ever[infected] = True
    # components gets a list mask, which perfbench's tracer sums into a
    # JSON count
    mask = (~ever).tolist()
    giant = components(g, mask=mask).giant_size / n if n else 0.0
    labels = np.where(ever, "R", "S").tolist()
    elapsed = (time.perf_counter() - start) * 1000.0
    return AttackOutcome(metric, phi, run, giant, seeds=len(seeds),
                         infected_total=int(ever.sum()), node_states=labels,
                         elapsed_ms=elapsed)


def mean_infected_per_attacker(outcome: AttackOutcome) -> float:
    """(infected_total - seeds) / seeds."""
    if outcome.infected_total is None:
        raise GraphInputError("outcome is not from an infectious attack")
    if outcome.seeds == 0:
        raise GraphInputError("outcome has zero seeds")
    return (outcome.infected_total - outcome.seeds) / outcome.seeds


def rgc(gc_before: float, gc_after: float) -> float:
    """Relative graph centrality: (GC - GC') / GC."""
    if gc_before == 0:
        raise GraphInputError("rgc needs a nonzero baseline value")
    return (gc_before - gc_after) / gc_before


# -- whole-plan driver ---------------------------------------------------------


def _source_name(source) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source, dict):
        return source.get("metric") or source.get("strategy") or "?"
    return str(source)


def _resolve_ordering(g: Graph, source, plan: AttackPlan):
    """Static target ordering for a source (None for random), and for a
    strategy source its (stop reason, budget slots padded in id order)."""
    from . import registry

    if source == "random" or (isinstance(source, dict)
                              and source.get("metric") == "random"):
        return None, None
    if isinstance(source, dict) and "strategy" in source:
        budget = max((removal_count(phi, g.n) for phi in plan.phi_grid),
                     default=0)
        budget = max(budget, 1)
        result = registry.run_strategy(g, source["strategy"], budget,
                                       source.get("params") or {})
        order = list(result.seeds)
        chosen = set(order)
        padded = max(0, budget - len(order))
        return order + [v for v in range(g.n) if v not in chosen], \
            (result.stop_reason, padded)
    metric_id = source if isinstance(source, str) else source["metric"]
    overrides = {} if isinstance(source, str) else (source.get("params") or {})
    scores = registry.compute_point_metric(g, metric_id, overrides)
    return rank_targets(scores), None


def run_experiment(plan: AttackPlan, g: Graph) -> ExperimentResult:
    """Execute a plan: per-source rankings, per-run simulations,
    per-(source, phi) mean and standard deviation."""
    rows: list[AttackOutcome] = []
    errors: list[tuple[str, str]] = []
    selections: list[tuple[str, str, int]] = []
    n = g.n
    if plan.kind == "infectious":       # the phi = 0 rows' giant
        intact_giant = components(g).giant_size / n if n else 0.0
    for source in plan.sources:
        name = _source_name(source)
        try:
            ordering, selection = _resolve_ordering(g, source, plan)
        except Exception as exc:    # per-metric failure: record, continue
            errors.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        if selection is not None:
            selections.append((name, *selection))
        for run in range(plan.runs):
            order = ordering
            if order is None:
                order = list(range(n))
                random.Random(plan.rng_seed + run).shuffle(order)
            if plan.kind == "non-infectious":
                for row in non_infectious_attack(
                        g, ordering=order,
                        phi_grid=plan.phi_grid, metric=name):
                    row.run = run
                    rows.append(row)
                continue
            for phi in plan.phi_grid:
                k = removal_count(phi, n)
                if k == 0:
                    rows.append(AttackOutcome(name, phi, run, intact_giant,
                                              seeds=0, infected_total=0,
                                              node_states=["S"] * n))
                    continue
                rows.append(infectious_attack(
                    g, order[:k], plan.beta,
                    rng_seed=plan.rng_seed + run, metric=name,
                    phi=phi, run=run))

    summary: dict = {}
    buckets: dict = {}
    for row in rows:
        buckets.setdefault((row.metric, row.phi), []).append(
            row.giant_fraction)
    for key, vals in buckets.items():
        mean = sum(vals) / len(vals)
        var = sum((x - mean) ** 2 for x in vals) / len(vals)
        summary[key] = (mean, math.sqrt(var))
    return ExperimentResult(rows, summary, errors, selections)
