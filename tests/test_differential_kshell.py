"""k-shell index on seeded graphs (n = 300) against networkx.core_number.

networkx counts a directed node's degree as in + out, so a reciprocal
pair of arcs counts twice, as k_shell does. The variants: Barabasi-Albert
edges; the same edges randomly oriented, one in ten of them both ways;
the disconnected union of two 150-node draws; and sparse Erdos-Renyi
draws, undirected and directed, with isolated nodes.
"""

import random

import networkx as nx
import pytest

from _synth import ba_edges, er_edges
from centnet import build_graph
from centnet.iterative import k_shell

N = 300
SEEDS = range(5)


def _variant(kind, seed):
    """(edge list, directed) of a seeded variant."""
    rng = random.Random(seed)
    if kind == "union":
        half = N // 2
        return ba_edges(half, 3, seed) + [
            (u + half, v + half) for u, v in ba_edges(half, 3, seed + 1)
        ], False
    if kind in ("er", "er-directed"):
        edges = er_edges(N, 0.01, seed)
        if kind == "er":
            return edges, False
        return [(v, u) if rng.random() < 0.5 else (u, v)
                for u, v in edges], True
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


def _core_number(g, edges):
    """networkx's core numbers of `edges`, indexed by g's node ids."""
    h = nx.DiGraph() if g.directed else nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((g.id_of(u), g.id_of(v)) for u, v in edges)
    core = nx.core_number(h)
    return [core[v] for v in range(g.n)]


def _check(g, want):
    got = k_shell(g)
    assert got.shell_index == want
    nodes = [v for v, _ in got.removal_order]
    stages = [k for _, k in got.removal_order]
    assert sorted(nodes) == list(range(g.n))
    assert stages == sorted(stages)
    assert all(got.shell_index[v] == k for v, k in got.removal_order)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["ba", "directed", "union", "er",
                                  "er-directed"])
def test_matches_core_number(kind, seed):
    edges, directed = _variant(kind, 100 + seed)
    g = build_graph(edges, directed=directed, isolated=range(N))
    assert g.n == N
    _check(g, _core_number(g, edges))


def test_variants_are_what_they_claim():
    edges, _ = _variant("directed", 100)
    arcs = set(edges)
    assert any((v, u) in arcs for u, v in edges)
    for kind in ("er", "er-directed"):
        edges, directed = _variant(kind, 100)
        g = build_graph(edges, directed=directed, isolated=range(N))
        assert 0 in g.degrees()


def test_long_path():
    # the deepest peel: two nodes leave per round, one from each end
    n = 2000
    edges = [(v, v + 1) for v in range(n - 1)]
    g = build_graph(edges, isolated=range(n))
    _check(g, [1] * n)
