"""Greedy seed selection on seeded graphs (n = 300), checked against the
per-step Python loops in oracles.py with exact equality: the seeds, each
step's (chosen, score) and the stop reason.

Four variants: Barabasi-Albert edges; the same edges randomly oriented,
one in ten of them both ways, so that a node's degree (in + out) differs
from its count of neighbours; the disconnected union of two draws of 150
nodes; and a sparse Erdos-Renyi draw with isolated nodes.
"""

import random

import pytest

import oracles
from _synth import ba_edges, er_edges
from centnet import build_graph
from centnet.groupselect import (
    collective_influence,
    collective_influence_lambda,
    degree_discount,
    degree_punishment,
    single_discount,
)

N = 300
BUDGET = 40


def _variant(kind, seed):
    """(edge list, directed) of a seeded variant."""
    rng = random.Random(seed)
    if kind == "union":
        half = N // 2
        return ba_edges(half, 3, seed) + [
            (u + half, v + half) for u, v in ba_edges(half, 3, seed + 1)
        ], False
    if kind == "er":
        return er_edges(N, 0.006, seed), False
    edges = ba_edges(N, 3, seed)
    if kind == "directed":
        arcs = []
        for u, v in edges:
            if rng.random() < 0.5:
                u, v = v, u
            arcs.append((u, v))
            if rng.random() < 0.1:
                arcs.append((v, u))
        return arcs, True
    return edges, False


@pytest.fixture(scope="module", params=["ba", "directed", "union", "er"])
def g(request):
    edges, directed = _variant(request.param, 31)
    return build_graph(edges, directed=directed, isolated=range(N))


def _triple(result):
    return (result.seeds, [(s.chosen, s.score) for s in result.per_step],
            result.stop_reason)


def test_variants_are_what_they_claim(g):
    deg = g.degrees()
    nbrs = [len(g.all_neighbors(v)) for v in range(g.n)]
    if g.directed:
        assert deg != nbrs
    assert g.n == N


def test_er_variant_has_isolated_nodes():
    edges, _ = _variant("er", 31)
    h = build_graph(edges, isolated=range(N))
    assert 0 in h.degrees()


def test_undirected_adjacency_is_all_neighbors(g):
    sym = g.undirected_adjacency
    assert sym is g.undirected_adjacency
    assert not sym.data.flags.writeable and set(sym.data) == {1.0}
    if not g.directed:
        assert sym is g.adjacency(False)
    for v in range(g.n):
        row = sym.indices[sym.indptr[v]:sym.indptr[v + 1]]
        assert row.tolist() == g.all_neighbors(v)


def test_single_discount(g):
    assert _triple(single_discount(g, BUDGET)) == \
        oracles.single_discount(g, BUDGET)


@pytest.mark.parametrize("p", [0.05, 0.3])
def test_degree_discount(g, p):
    assert _triple(degree_discount(g, BUDGET, p)) == \
        oracles.degree_discount(g, BUDGET, p)


@pytest.mark.parametrize("r,omega,initial", [
    (2, 0.05, ()), (3, 0.05, ()), (3, 0.3, (5, 0, 17)), (4, 0.5, (2,))])
def test_degree_punishment(g, r, omega, initial):
    got = degree_punishment(g, BUDGET, omega, r, initial_seeds=initial)
    assert _triple(got) == oracles.degree_punishment(
        g, BUDGET, omega, r, initial_seeds=initial)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_collective_influence(g, ell):
    got = collective_influence(g, budget=BUDGET, ell=ell)
    assert _triple(got) == oracles.collective_influence(g, BUDGET, ell)


@pytest.mark.parametrize("ell", [1, 2])
def test_collective_influence_stopping_rule(g, ell):
    got = collective_influence(g, budget=None, ell=ell, stop_on_lambda=True)
    want = oracles.collective_influence(g, None, ell, stop_on_lambda=True)
    assert _triple(got) == want
    assert want[2] == "stopping-rule"


def test_collective_influence_budget_n():
    # every node removed, with and without the stopping rule
    h = build_graph(ba_edges(40, 2, 5), isolated=range(40))
    for stop in (False, True):
        got = collective_influence(h, budget=40, ell=2, stop_on_lambda=stop)
        assert _triple(got) == oracles.collective_influence(h, 40, 2, stop)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_collective_influence_lambda(g, ell):
    rng = random.Random(ell)
    for k in (0, 1, 10, 100, N):
        removed = rng.sample(range(N), k)
        assert collective_influence_lambda(g, removed, ell) == \
            oracles.collective_influence_lambda(g, removed, ell)
