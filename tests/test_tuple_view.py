"""No metric and no benchmark path builds the tuple adjacency.

`Graph.adj` is derived from the CSR arrays on first read, and only the
tests and the benchmark harness's arc count read it. Four tests parse a
small seeded edge-list file of one benchmark shape and run that shape's
operations: the path metrics on an undirected Barabasi-Albert graph, the
six spectral metrics on a directed weighted one, and the non-infectious
and infectious attack plans. The last two run every registry point and
graph metric on small undirected, weighted and directed graphs. No
tuple row may be built on the way.
"""

import random

import pytest

from _synth import ba_edges
from centnet import AttackPlan, SizeCapError, UnsupportedGraphError, \
    build_graph, graph, registry, run_experiment
from centnet.io import parse_edge_list


@pytest.fixture
def tuple_rows(monkeypatch):
    """The CSR row sets turned into tuples while the test runs."""
    made = []
    build = graph._tuple_rows

    def counted(rows):
        made.append(rows)
        return build(rows)
    monkeypatch.setattr(graph, "_tuple_rows", counted)
    return made


def _parsed(tmp_path, edges, directed=False):
    path = tmp_path / "edges.txt"
    path.write_text("".join(" ".join(map(repr, e)) + "\n" for e in edges))
    return parse_edge_list(path, directed=directed)


def _oriented(edges, seed):
    """Each edge turned at random, with a weight in [0.5, 4)."""
    rng = random.Random(seed)
    return [(v, u, rng.uniform(0.5, 4.0)) if rng.random() < 0.5
            else (u, v, rng.uniform(0.5, 4.0)) for u, v in edges]


def _untouched(g, made):
    assert made == []
    for h in (g, g.reversed):
        assert "adj" not in vars(h)


def test_path_metrics(tmp_path, tuple_rows):
    g = _parsed(tmp_path, ba_edges(120, 3, 1))
    for metric in ("betweenness", "closeness", "load"):
        registry.compute_point_metric(g, metric)
    _untouched(g, tuple_rows)


def test_spectral_metrics(tmp_path, tuple_rows):
    g = _parsed(tmp_path, _oriented(ba_edges(300, 3, 2), 2), directed=True)
    for metric in ("pagerank", "leaderrank", "eigenvector",
                   "dynamical-influence", "cumulative-nomination",
                   "contribution"):
        registry.compute_point_metric(g, metric)
    _untouched(g, tuple_rows)


def test_dismantle_plan(tmp_path, tuple_rows):
    g = _parsed(tmp_path, ba_edges(400, 3, 3))
    plan = AttackPlan(kind="non-infectious",
                      sources=["degree", "k-shell", "random"],
                      phi_grid=[i / 40 for i in range(21)], rng_seed=3)
    result = run_experiment(plan, g)
    assert result.errors == [] and len(result.rows) == 3 * 21
    _untouched(g, tuple_rows)


def test_spread_plan(tmp_path, tuple_rows):
    g = _parsed(tmp_path, ba_edges(300, 3, 4))
    strategies = ("collective-influence", "degree-distance",
                  "degree-punishment", "single-discount", "degree-discount")
    plan = AttackPlan(kind="infectious",
                      sources=["degree"] + [{"strategy": s}
                                            for s in strategies],
                      phi_grid=[0.005, 0.01, 0.02], beta=0.1, runs=3,
                      rng_seed=4)
    result = run_experiment(plan, g)
    assert result.errors == [] and len(result.rows) == 6 * 4 * 3
    _untouched(g, tuple_rows)


def _small(kind):
    """A 30-node graph with coordinates: Barabasi-Albert edges, unit or
    weighted, or turned at random and threaded by a directed cycle."""
    edges = ba_edges(30, 2, 6)
    if kind == "weighted":
        edges = [(u, v, 1.0 + (u * v) % 3) for u, v in edges]
    elif kind == "directed":
        edges = _oriented(edges, 6) + [(v, (v + 1) % 30) for v in range(30)]
    rng = random.Random(6)
    coords = {v: (rng.random(), rng.random()) for v in range(30)}
    return build_graph(edges, directed=kind == "directed",
                       coordinates=coords)


KINDS = ("undirected", "weighted", "directed")


def _run(g, compute, metric_id, made):
    try:
        compute(g, metric_id)
    except (UnsupportedGraphError, SizeCapError):
        pass
    _untouched(g, made)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("metric_id", registry.point_metric_ids())
def test_every_point_metric(kind, metric_id, tuple_rows):
    _run(_small(kind), registry.compute_point_metric, metric_id, tuple_rows)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("metric_id", registry.graph_metric_ids())
def test_every_graph_metric(kind, metric_id, tuple_rows):
    _run(_small(kind), registry.compute_graph_metric, metric_id, tuple_rows)


def test_reading_adj_builds_the_view_once(tmp_path, tuple_rows):
    g = _parsed(tmp_path, _oriented(ba_edges(50, 2, 5), 5), directed=True)
    assert g.adj is g.adj and g.reversed.adj is g.reversed.adj
    assert len(tuple_rows) == 2
