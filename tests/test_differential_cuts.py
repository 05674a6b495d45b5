"""Vertex cuts on seeded graphs (n = 300): the split-network max flow
against its Edmonds-Karp loop in `oracles`, exactly in value and cut,
and vertex connectivity against networkx.node_connectivity on induced
subgraphs.

The variants: Barabasi-Albert edges; the disconnected union of two
150-node draws; a sparse Erdos-Renyi draw with isolated nodes; and the
Barabasi-Albert edges randomly oriented, one in ten of them both ways.
"""

import random

import networkx as nx
import pytest

import oracles
from _synth import ba_edges, er_edges
from centnet import build_graph
from centnet.graphmetrics import _split_max_flow, _vertex_connectivity, \
    k_core_set

N = 300


def _edges(kind, seed):
    """(edge list, directed) of a seeded variant."""
    rng = random.Random(seed)
    if kind == "union":
        half = N // 2
        return ba_edges(half, 3, seed) + [
            (u + half, v + half) for u, v in ba_edges(half, 3, seed + 1)
        ], False
    if kind == "er":
        return er_edges(N, 0.02, seed), False
    edges = ba_edges(N, 3, seed)
    if kind == "ba":
        return edges, False
    arcs = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v))
        if rng.random() < 0.1:
            arcs.append((v, u))
    return arcs, True


def _graph(kind, seed):
    edges, directed = _edges(kind, seed)
    return build_graph(edges, directed=directed, isolated=range(N))


def _pairs(g, rng):
    """(s, t, forbidden) cases: random pairs with and without forbidden
    nodes, an arc's two ends, and a pair whose source is forbidden."""
    cases = []
    for i in range(12):
        s, t = rng.sample(range(N), 2)
        forbidden = set(rng.sample(range(N), 30)) - {s, t} if i % 2 else set()
        cases.append((s, t, forbidden))
    s = next(v for v in range(N) if g.neighbors(v))
    cases.append((s, g.neighbors(s)[0], set()))
    cases.append((0, 1, {0, 5, 7}))
    return cases


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", ["ba", "union", "er", "directed"])
def test_split_max_flow_matches_the_loop(kind, seed):
    g = _graph(kind, 40 + seed)
    arcs = {(v, u) for v in range(N) for u in g.neighbors(v)}
    for s, t, forbidden in _pairs(g, random.Random(seed)):
        assert _split_max_flow(N, arcs, s, t, forbidden) == \
            oracles.split_max_flow(N, arcs, s, t, forbidden), (s, t)


def _induced(kind, seed):
    """(graph, node subsets that induce the subgraphs to test)."""
    g = _graph(kind, 40 + seed)
    if kind == "er":
        return g, [list(k_core_set(g, k)) for k in (2, 3)]
    ball = {0} | set(g.all_neighbors(0))
    ball |= {u for v in list(ball) for u in g.all_neighbors(v)}
    return g, [list(range(N)), sorted(ball)]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", ["ba", "union", "er"])
def test_vertex_connectivity_matches_networkx(kind, seed):
    g, subsets = _induced(kind, seed)
    h = nx.Graph()
    h.add_edges_from((v, u) for v in range(N) for u in g.all_neighbors(v))
    for nodes in subsets:
        sub = h.subgraph(nodes)
        kappa, cut = _vertex_connectivity(g, nodes)
        assert kappa == nx.node_connectivity(sub)
        if kappa < len(nodes) - 1:
            # the witness is a minimum cut of the induced subgraph
            assert len(cut) == kappa
            assert not nx.is_connected(sub.subgraph(set(nodes) - cut))
