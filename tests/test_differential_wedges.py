"""Common neighbours of the two ends of every arc, and contribution's
Jaccard weights, which count them, on seeded graphs (n = 300) against
brute force.

Four variants: Barabasi-Albert edges; the same edges randomly oriented,
one in ten of them both ways; the disconnected union of two draws, a
star of three leaves and an isolated node; and the oriented edges with
weights uniform in [0.5, 4). Each check runs at the default block
budget and at `small_blocks`, where the same inputs take many blocks.
"""

import random
import tracemalloc

import numpy as np
import pytest

import oracles
from _synth import ba_edges
from centnet import build_graph
from centnet.iterative import _aggregation
from centnet.local import clustering_family, local_clustering
from centnet.neighborhoods import closed_wedges

N = 300
KINDS = ("ba", "oriented", "union", "weighted")


def _variant(kind, seed=41):
    rng = random.Random(seed)
    if kind == "union":
        # nodes 0-147 and 148-294, a star centred on 295, 299 isolated
        edges = ba_edges(148, 3, seed) + [
            (u + 148, v + 148) for u, v in ba_edges(147, 3, seed + 1)
        ] + [(295, 296), (295, 297), (295, 298)]
        return build_graph(edges, isolated=range(N))
    edges = ba_edges(N, 3, seed)
    if kind == "ba":
        return build_graph(edges, isolated=range(N))
    arcs = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v, rng.uniform(0.5, 4.0)))
        if rng.random() < 0.1:
            arcs.append((v, u, rng.uniform(0.5, 4.0)))
    if kind == "oriented":
        arcs = [(u, v) for u, v, _ in arcs]
    return build_graph(arcs, directed=True, isolated=range(N))


GRAPHS = {kind: _variant(kind) for kind in KINDS}


@pytest.fixture(params=["default", "small"])
def budget(request):
    if request.param == "small":
        request.getfixturevalue("small_blocks")


def _same_operator(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_variants_are_what_they_claim():
    union = GRAPHS["union"]
    assert union.degree_array[299] == 0 and union.degree_array[296] == 1
    assert not GRAPHS["ba"].directed and GRAPHS["ba"].unit_weights
    for kind in ("oriented", "weighted"):
        g = GRAPHS[kind]
        assert g.directed
        assert g.undirected_adjacency.nnz < 2 * g.m
    assert GRAPHS["oriented"].unit_weights
    assert not GRAPHS["weighted"].unit_weights


@pytest.mark.parametrize("kind", KINDS)
def test_jaccard_aggregation_is_the_set_loop(kind, budget):
    g = GRAPHS[kind]
    _same_operator(_aggregation(g, dissimilarity=True),
                   oracles.jaccard_aggregation(g))


@pytest.mark.parametrize("view", ["adjacency", "undirected"])
@pytest.mark.parametrize("kind", KINDS)
def test_closed_wedges_are_the_row_intersections(kind, view, budget):
    """Per arc (v, r), one triple for each t in both rows, t ascending,
    vt in v's row and rt in r's row, both at t."""
    g = GRAPHS[kind]
    a = g.adjacency() if view == "adjacency" else g.undirected_adjacency
    arc, vt, rt = closed_wedges(a)
    heads = a.indices
    tails = np.repeat(np.arange(g.n), np.diff(a.indptr))
    rows = [set(heads[a.indptr[v]:a.indptr[v + 1]].tolist())
            for v in range(g.n)]
    assert np.bincount(arc, minlength=a.nnz).tolist() == \
        [len(rows[v] & rows[r]) for v, r in zip(tails.tolist(),
                                                heads.tolist())]
    assert np.array_equal(heads[vt], heads[rt])
    assert np.array_equal(tails[vt], tails[arc])
    assert np.array_equal(tails[rt], heads[arc])
    assert np.all(np.diff(arc * g.n + heads[vt]) > 0)


def test_clustering_and_redundancy_peaks():
    """On BA n=2e4, neither clustering nor weighted redundancy holds the
    product of the adjacency with itself or the list of open wedges:
    each peaks below 20 MB of traced allocations."""
    rng = random.Random(5)
    edges = ba_edges(20000, 3, 1)
    unit = build_graph(edges)
    weighted = build_graph([(u, v, rng.uniform(0.5, 4.0)) for u, v in edges])
    for g, run in ((unit, local_clustering),
                   (weighted, lambda g: clustering_family(g, "redundancy"))):
        g.adjacency(False), g.arc_tails     # cached before tracing
        tracemalloc.start()
        try:
            run(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
