"""Subgraph centrality, k-cores and the maximum clique on seeded graphs
(n = 200 to 400) against networkx: `nx.subgraph_centrality`, `nx.k_core`
at every k up to one past the top core, and the largest of
`nx.find_cliques`, at n = 200, inside k-clique-max's size cap.

The variants: Barabasi-Albert edges; the disconnected union of two
Barabasi-Albert draws; a sparse Erdos-Renyi draw with isolated nodes;
Barabasi-Albert edges (two per node) overlaid with an Erdos-Renyi draw,
which spreads the core numbers; and that overlay randomly oriented, three
in ten of its edges both ways. networkx counts a directed node's degree
as in + out, as the k-shell peel does.
"""

import random

import networkx as nx
import pytest

from _synth import ba_edges, er_edges
from centnet import build_graph
from centnet.graphmetrics import cohesive_subgroup
from centnet.iterative import subgraph_centrality

REL = 1e-12


def _edges(kind, n, seed):
    """(edge list, directed) of a seeded variant on n nodes."""
    if kind == "ba":
        return ba_edges(n, 3, seed), False
    if kind == "union":
        half = n // 2
        return ba_edges(half, 3, seed) + [
            (u + half, v + half) for u, v in ba_edges(n - half, 3, seed + 1)
        ], False
    if kind == "er":
        return er_edges(n, 0.015, seed), False
    edges = ba_edges(n, 2, seed) + er_edges(n, 0.015, seed)
    if kind == "overlay":
        return edges, False
    rng = random.Random(seed)
    arcs = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v))
        if rng.random() < 0.3:
            arcs.append((v, u))
    return arcs, True


def _variant(kind, n, seed=3):
    """(centnet graph, networkx graph on the same node ids)."""
    return _graphs(n, *_edges(kind, n, seed))


def _graphs(n, edges, directed=False):
    g = build_graph(edges, directed=directed, isolated=range(n))
    h = nx.DiGraph() if directed else nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from((g.id_of(u), g.id_of(v)) for u, v in edges)
    return g, h


@pytest.mark.parametrize("kind", ["ba", "union", "er"])
def test_subgraph(kind):
    g, h = _variant(kind, 400)
    want = nx.subgraph_centrality(h)
    assert list(subgraph_centrality(g).values) == pytest.approx(
        [want[v] for v in range(g.n)], rel=REL)


@pytest.mark.parametrize("kind", ["er", "overlay", "directed"])
def test_k_core(kind):
    g, h = _variant(kind, 400)
    top = max(nx.core_number(h).values())
    assert top >= 4
    for k in range(1, top + 2):
        got = cohesive_subgroup(g, "k-core", k)
        assert got.value == tuple(sorted(nx.k_core(h, k))), k
    assert got.value == ()


@pytest.mark.parametrize("variant", [("ba", None), ("er", 0.05), ("er", 0.1),
                                     ("overlay", None)])
def test_max_clique(variant):
    kind, p = variant
    n = 200
    if kind == "er":
        g, h = _graphs(n, er_edges(n, p, 9))
    else:
        g, h = _variant(kind, n, 9)
    largest = max(len(c) for c in nx.find_cliques(h))
    assert largest >= 4
    want = {tuple(sorted(c)) for c in nx.find_cliques(h) if len(c) == largest}
    got = cohesive_subgroup(g, "k-clique-max").value
    assert len(got) == largest
    assert got in want
