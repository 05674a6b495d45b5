"""The benchmark's end-to-end paths never build the tuple adjacency.

`Graph.adj` and `in_adj` are derived from the CSR arrays on first read.
Each test parses a small seeded edge-list file of one benchmark shape
and runs that shape's operations: the path metrics on an undirected
Barabasi-Albert graph, the six spectral metrics on a directed weighted
one, and the non-infectious and infectious attack plans. No tuple row
may be built on the way.
"""

import random

import pytest

from _synth import ba_edges
from centnet import AttackPlan, graph, registry, run_experiment
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
        assert "adj" not in vars(h) and "in_adj" not in vars(h)


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


def test_reading_adj_builds_the_view_once(tmp_path, tuple_rows):
    g = _parsed(tmp_path, _oriented(ba_edges(50, 2, 5), 5), directed=True)
    assert g.adj is g.adj and g.in_adj is g.in_adj
    assert len(tuple_rows) == 2
