"""Targeted/random attack experiments: removal cascades, giant-component
measurement, and the relative-graph-centrality bookkeeping."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import GraphInputError
from .graph import Graph, _from_arcs, components, row_positions
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
        if not (isinstance(self.beta, Real) and 0.0 <= self.beta <= 1.0):
            raise GraphInputError("beta must lie in [0,1]")
        if not (isinstance(self.runs, Integral) and self.runs >= 1):
            raise GraphInputError("runs must be an integer >= 1")
        if not isinstance(self.rng_seed, Integral):
            raise GraphInputError("rng_seed must be an integer")
        if not isinstance(self.sources, (list, tuple)):
            raise GraphInputError(f"sources must be a list: {self.sources!r}")
        if not isinstance(self.phi_grid, (list, tuple)):
            raise GraphInputError("phi_grid must be a list of numbers, not "
                                  f"{self.phi_grid!r}")
        try:
            grid = sorted({float(x) for x in self.phi_grid})
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphInputError(f"phi_grid must hold numbers: {exc}") from exc
        if not all(0.0 <= x <= 1.0 for x in grid):
            raise GraphInputError("phi values must lie in [0,1]")
        if not grid or grid[0] > 0.0:
            grid = [0.0] + grid
        self.phi_grid = grid
        if self.kind == "random":
            self.kind = "non-infectious"
            self.sources = ["random"]
        names = [_source_name(source) for source in self.sources]
        for i, name in enumerate(names):    # rows are keyed by name
            if name in names[:i]:
                raise GraphInputError(f"two sources are named {name!r}")


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
    return _ranking(scores).tolist()


def _ranking(scores: ScoreVector) -> np.ndarray:
    """`rank_targets` as an int array."""
    vals = np.asarray(scores.values, dtype=float)
    return np.lexsort((np.arange(len(vals)), -vals))


def _node_ids(g: Graph, ids, what: str, distinct: bool = True) -> np.ndarray:
    """`ids` as an int array of node ids of g, none repeated if
    `distinct`."""
    arr = np.asarray(ids if isinstance(ids, (list, tuple, np.ndarray))
                     else list(ids))
    if not arr.size:
        return np.empty(0, dtype=np.intp)
    if arr.ndim != 1 or arr.dtype.kind not in "iu" or arr.min() < 0 \
            or arr.max() >= g.n:
        raise GraphInputError(f"{what} must be node ids in [0, {g.n})")
    arr = arr.astype(np.intp, copy=False)
    if distinct and np.bincount(arr).max() > 1:
        raise GraphInputError(f"{what} repeats a node")
    return arr


def removal_count(phi: float, n: int) -> int:
    return min(n, math.ceil(phi * n - 1e-9))


def non_infectious_attack(g: Graph, ordering=None, seed_set=None,
                          phi_grid=(0.0,), metric: str = "") -> list[AttackOutcome]:
    """Remove static-ranked prefixes and report giant fractions.

    The ordering is computed once on the intact graph; the giant
    fraction is normalized by the original node count. A phi=0 row is
    always emitted.

    The points come from block contraction, as in reverse percolation
    (Newman & Ziff, PRL 85, 4104, 2000). Nodes are relabelled by
    removal position, and the edges of `Graph._edges` are sorted once by
    the position of their earlier-removed end, so the edges that return
    at each point are one slice. The grid is walked from the largest
    prefix down to none. At each point one `components` call labels a
    small graph: the block of nodes that return there, plus each
    existing component they touch, contracted to one node (`_from_arcs`
    drops the parallel edges this makes). The giant is the larger of the
    previous point's giant and the largest merged size. Each row's
    `elapsed_ms` is the time of its own step; the row of the largest
    prefix, the first step, also carries the sort.
    """
    n = g.n
    if seed_set is not None:
        prefix = _node_ids(g, seed_set, "seed_set")
        phis = sorted({0.0, len(prefix) / n if n else 0.0})
        ks = [len(prefix) if phi > 0 else 0 for phi in phis]
    else:
        if ordering is None or len(ordering) != n:
            raise GraphInputError("ordering must cover every node")
        prefix = _node_ids(g, ordering, "ordering")
        phis = sorted(set(phi_grid) | {0.0})
        ks = [removal_count(phi, n) for phi in phis]
    start = time.perf_counter()
    # components, by id: the id of each position's component when it
    # returned, what each id merged into (itself while current), sizes.
    # Made before the sort's temporaries, so that once freed those lie
    # above them on the heap and can be given back to the system.
    comp = np.empty(n, dtype=np.int32)
    root = np.empty(n, dtype=np.int32)
    size = np.empty(n, dtype=np.int32)
    # the removal position of every node; the nodes a seed set leaves
    # follow it, in id order
    order = prefix.astype(np.int32)
    if order.size < n:
        left = np.ones(n, dtype=bool)
        left[order] = False
        order = np.concatenate([order, np.flatnonzero(left)])
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n, dtype=np.int32)
    del order
    # each edge as (earlier, later) end positions, bucketed by the point
    # at which the earlier returns: point i puts back ends[i]:ends[i + 1]
    tails, upper = g._edges
    lo = pos.take(tails)
    hi = pos.take(upper.indices)
    del pos
    later = np.maximum(lo, hi)
    np.minimum(lo, hi, out=lo)
    del hi
    ends = ks + [n]
    bucket = np.repeat(np.arange(len(ks), dtype=np.int32),
                       np.diff(ends)).take(lo)
    cuts = [0] + np.cumsum(np.bincount(bucket, minlength=len(ks))).tolist()
    sort = np.argsort(bucket)
    del bucket
    lo = lo.take(sort)
    hi = later.take(sort)
    del later, sort
    made = giant = 0
    rows = []
    for i in range(len(ks) - 1, -1, -1):
        k, top = ends[i], ends[i + 1]
        block = top - k
        tail, head = lo[cuts[i]:cuts[i + 1]] - k, hi[cuts[i]:cuts[i + 1]]
        old = head >= top       # the later end returned at an earlier step
        touched, local = np.unique(
            _current(root, comp.take(head.compress(old))),
            return_inverse=True)
        head = head - k
        head[old] = block + local
        small = _from_arcs(block + touched.size, False, tail, head,
                           np.ones(tail.size))
        labels = components(small).labels
        merged = np.bincount(labels, np.concatenate(
            [np.ones(block), size.take(touched)])).astype(np.int32)
        labels += made          # the merged components take the next ids
        comp[k:top] = labels[:block]
        root[touched] = labels[block:]
        new = np.arange(made, made + merged.size)
        root[new] = new
        size[new] = merged
        made += merged.size
        giant = max(giant, int(merged.max(initial=0)))
        elapsed = (time.perf_counter() - start) * 1000.0
        rows.append(AttackOutcome(metric, phis[i], 0,
                                  giant / n if n else 0.0, seeds=k,
                                  elapsed_ms=elapsed))
        start = time.perf_counter()
    return rows[::-1]


def _current(root, ids):
    """The current component of each id: `root` followed to a fixed
    point, and every id read pointed straight at it."""
    start = ids
    while True:
        up = root.take(ids)
        if np.array_equal(up, ids):
            root[start] = ids
            return ids
        ids = up


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
    seeds = np.unique(_node_ids(g, seeds, "seeds", distinct=False))
    if not seeds.size:
        raise GraphInputError("infectious attack needs at least one seed")
    n = g.n
    start = time.perf_counter()
    rng = random.Random(rng_seed)
    rows = g.out_csr
    attempted = np.zeros(n, dtype=bool)
    ever = np.zeros(n, dtype=bool)          # ever infected: R at the end
    none = np.iinfo(np.intp).max            # first's entries between rounds
    first = np.full(n, none)
    infected = seeds
    attempted[infected] = ever[infected] = True
    while infected.size:
        # the out-arcs of the infected nodes, in list order; each head
        # not yet attempted is exposed once, at its first such arc, which
        # minimum.at finds without a sort, and draws once, in that order
        heads = rows.indices.take(row_positions(rows.indptr, infected))
        heads = heads[~attempted.take(heads)]
        at = np.arange(heads.size)
        np.minimum.at(first, heads, at)
        exposed = heads[first.take(heads) == at]
        first[heads] = none
        attempted[exposed] = True
        # fromiter reads exactly exposed.size draws: random() never
        # returns the sentinel 2.0
        draws = np.fromiter(iter(rng.random, 2.0), float, exposed.size)
        infected = exposed[draws < beta]
        ever[infected] = True
    # a bytearray mask reads into numpy without a per-node loop, and its
    # sum(), which a tracer may count, is a Python int
    mask = bytearray((~ever).tobytes())
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
        budget = max([1] + [removal_count(phi, g.n) for phi in plan.phi_grid])
        result = registry.run_strategy(g, source["strategy"], budget,
                                       source.get("params") or {})
        seeds = np.asarray(result.seeds, dtype=np.intp)
        rest = np.flatnonzero(np.bincount(seeds, minlength=g.n) == 0)
        return np.concatenate([seeds, rest]), \
            (result.stop_reason, max(0, budget - seeds.size))
    metric_id = source if isinstance(source, str) else source["metric"]
    overrides = {} if isinstance(source, str) else (source.get("params") or {})
    scores = registry.compute_point_metric(g, metric_id, overrides)
    return _ranking(scores), None


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
