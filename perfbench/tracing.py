"""Per-layer spans and counts, recorded by wrapping centnet from outside.

`installed(tracer)` replaces each traced function in every centnet
module that bound it, plus two class attributes, and puts the originals
back on exit. centnet itself has no tracing hooks; a later change may
move spans inside the program.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager


def centnet_modules() -> list:
    """The centnet package and every module in it, imported."""
    import centnet

    return [centnet] + [importlib.import_module(f"centnet.{m.name}")
                        for m in pkgutil.iter_modules(centnet.__path__)]


class Tracer:
    """Spans with self time (duration minus time covered by child
    spans) and integer counts, keyed by name."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._children: list = []      # child time, per open span

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        self._children.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.self_s[name] += duration - self._children.pop()
            if self._children:
                self._children[-1] += duration


# -- wrappers: (span name, what the call adds to the counts) -----------------


def _parse_edge_list(t, orig):
    def wrapper(*args, **kwargs):
        return t.call("io.parse_edge_list", orig, *args, **kwargs)
    return wrapper


def _build_graph(t, orig):
    def wrapper(*args, **kwargs):
        g = t.call("graph.build_graph", orig, *args, **kwargs)
        t.counts["graph.arcs"] += sum(len(a) for a in g.adj)
        return g
    return wrapper


def _shortest_paths(t, orig):
    def wrapper(*args, **kwargs):
        t.counts["graph.shortest_paths.calls"] += 1
        return t.call("graph.shortest_paths", orig, *args, **kwargs)
    return wrapper


def _components(t, orig):
    def wrapper(g, *args, **kwargs):
        t.counts["graph.components.calls"] += 1
        mask = kwargs.get("mask", args[1] if len(args) > 1 else None)
        t.counts["graph.components.alive_nodes"] += \
            g.n if mask is None else sum(mask)
        return t.call("graph.components", orig, g, *args, **kwargs)
    return wrapper


def _power_iteration(t, orig):
    def wrapper(matvec, *args, **kwargs):
        t.counts["graph.power_iteration.calls"] += 1

        def counted(x):
            t.counts["graph.power_iteration.matvecs"] += 1
            return matvec(x)
        return t.call("graph.power_iteration", orig, counted,
                      *args, **kwargs)
    return wrapper


def _compute_point_metric(t, orig):
    def wrapper(g, metric_id, *args, **kwargs):
        try:
            return t.call(f"metric.{metric_id}", orig, g, metric_id,
                          *args, **kwargs)
        except Exception:
            t.counts["metric.failures"] += 1
            raise
    return wrapper


def _run_strategy(t, orig):
    def wrapper(g, strategy_id, budget, *args, **kwargs):
        res = t.call(f"select.{strategy_id}", orig, g, strategy_id, budget,
                     *args, **kwargs)
        t.counts["select.seeds"] += len(res.seeds)
        # run_experiment pads a short seed list up to the budget
        t.counts["select.padded"] += max(0, budget - len(res.seeds))
        t.counts["select.stop_early"] += res.stop_reason != "budget"
        return res
    return wrapper


def _rank_targets(t, orig):
    def wrapper(*args, **kwargs):
        return t.call("attack.rank_targets", orig, *args, **kwargs)
    return wrapper


def _non_infectious_attack(t, orig):
    def wrapper(*args, **kwargs):
        t.counts["attack.non_infectious.calls"] += 1
        rows = t.call("attack.non_infectious", orig, *args, **kwargs)
        t.counts["attack.points"] += len(rows)
        return rows
    return wrapper


def _infectious_attack(t, orig):
    def wrapper(*args, **kwargs):
        t.counts["attack.infectious.calls"] += 1
        out = t.call("attack.infectious", orig, *args, **kwargs)
        t.counts["attack.infected_total"] += out.infected_total
        return out
    return wrapper


def _run_experiment(t, orig):
    def wrapper(*args, **kwargs):
        result = orig(*args, **kwargs)
        t.counts["attack.errors"] += len(result.errors)
        return result
    return wrapper


# (module that defines it, name, wrapper factory)
FUNCTIONS = (
    ("centnet.io", "parse_edge_list", _parse_edge_list),
    ("centnet.graph", "build_graph", _build_graph),
    ("centnet.graph", "shortest_paths", _shortest_paths),
    ("centnet.graph", "components", _components),
    ("centnet.graph", "power_iteration", _power_iteration),
    ("centnet.registry", "compute_point_metric", _compute_point_metric),
    ("centnet.registry", "run_strategy", _run_strategy),
    ("centnet.resilience", "rank_targets", _rank_targets),
    ("centnet.resilience", "non_infectious_attack", _non_infectious_attack),
    ("centnet.resilience", "infectious_attack", _infectious_attack),
    ("centnet.resilience", "run_experiment", _run_experiment),
)


def bindings(original) -> list:
    """Every (module, name) among centnet's modules bound to `original`."""
    return [(mod, attr) for mod in centnet_modules()
            for attr, val in vars(mod).items() if val is original]


@contextmanager
def installed(tracer: Tracer):
    """Trace centnet's layers into `tracer` for the duration."""
    from centnet.graph import Graph
    from centnet.params import ScoreVector

    undo = []
    try:
        for home, name, factory in FUNCTIONS:
            orig = getattr(importlib.import_module(home), name)
            wrapper = functools.wraps(orig)(factory(tracer, orig))
            for mod, attr in bindings(orig):
                undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

        unit_weights = Graph.__dict__["unit_weights"]

        def traced_unit_weights(g):
            tracer.counts["graph.unit_weights.calls"] += 1
            return tracer.call("graph.unit_weights", unit_weights.fget, g)
        undo.append((Graph, "unit_weights", unit_weights))
        Graph.unit_weights = property(traced_unit_weights)

        post_init = ScoreVector.__dict__["__post_init__"]

        def traced_post_init(sv):
            tracer.counts["params.score_vector.calls"] += 1
            tracer.call("params.score_vector", post_init, sv)
        undo.append((ScoreVector, "__post_init__", post_init))
        ScoreVector.__post_init__ = traced_post_init
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
