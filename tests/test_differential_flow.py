"""Max flow, flow betweenness and delta-hyperbolicity on seeded graphs,
exactly against the loops they replaced, kept in `oracles`.

Max flow is compared over every ordered pair (every pair with s < t when
undirected) in value, per-node throughflow and per-arc flow; the
throughflow is the flow decomposition that flow betweenness sums, so it
depends on the augmenting order as well as on the value. The variants:
Barabasi-Albert edges; the same edges randomly oriented, one in ten of
them both ways; the disconnected union of two Barabasi-Albert draws; and
a sparse Erdos-Renyi draw with isolated nodes.

Delta-hyperbolicity is compared on sampled triples at n = 300, with the
oracle reading distance rows from its own per-source traversal, and
exhaustively against `oracles.bf_delta_hyperbolicity` at n <= 30. The
weights there are small integers, so every distance is exact and the
geodesic tests (d(a, w) + d(w, b) == d(a, b)) cannot depend on the
order of a float sum.
"""

import math
import random

import pytest

import oracles
from _synth import ba_edges, er_edges
from centnet import build_graph, components
from centnet.globalmetrics import flow_betweenness
from centnet.graph import max_flow
from centnet.graphmetrics import delta_hyperbolicity

KINDS = ("ba", "oriented", "union", "er")


def _edges(kind, n, seed, weights=None):
    """(edge list, directed) of a seeded variant on n nodes; `weights`,
    when given, is the sequence each edge's weight is drawn from."""
    rng = random.Random(seed)
    if kind == "union":
        half = n // 2
        edges = ba_edges(half, 3, seed) + [
            (u + half, v + half) for u, v in ba_edges(n - half, 3, seed + 1)]
    elif kind == "er":
        edges = er_edges(n, 0.05, seed)
    else:
        edges = ba_edges(n, 3, seed)
    directed = kind == "oriented"
    if directed:
        arcs = []
        for u, v in edges:
            if rng.random() < 0.5:
                u, v = v, u
            arcs.append((u, v))
            if rng.random() < 0.1:
                arcs.append((v, u))
        edges = arcs
    if weights is not None:
        edges = [(u, v, rng.choice(weights)) for u, v in edges]
    return edges, directed


def _graph(kind, n, seed, weights=None):
    edges, directed = _edges(kind, n, seed, weights)
    return build_graph(edges, directed=directed, isolated=range(n))


def test_variants_are_what_they_claim():
    assert components(_graph("ba", 80, 1)).giant_size == 80
    assert len(components(_graph("union", 80, 1)).sizes) == 2
    er = _graph("er", 80, 1)
    assert min(er.degree_array) == 0
    oriented = _graph("oriented", 80, 1)
    assert oriented.directed
    assert any(u in oriented.neighbors(v) for v in range(80)
               for u in oriented.in_csr.row(v))
    assert components(oriented, "strong").giant_size < 80


@pytest.mark.parametrize("kind", KINDS)
def test_max_flow_matches_the_loop(kind):
    n = 60 if kind == "er" else 80
    g = _graph(kind, n, 20)
    for s in range(n):
        for t in range(n):
            if s == t or (t < s and not g.directed):
                continue
            res = max_flow(g, s, t)
            assert (res.value, res.throughflow, res.edge_flow) == \
                oracles.max_flow(g, s, t), (s, t)


@pytest.mark.parametrize("cap", [None, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_flow_betweenness_matches_the_loop(kind, cap):
    g = _graph(kind, 48, 7)
    for normalized in (False, True):
        sv, diag = flow_betweenness(g, normalized, cap, with_diagnostics=True)
        values, skipped = oracles.flow_betweenness(g, normalized, cap)
        assert list(sv.values) == values
        assert diag["skipped_pairs"] == skipped
    if cap is None:
        assert skipped == 0


def _same(got, want):
    """Equal, or both nan (a mean ratio over triples with an infinite
    side is nan on a graph that is not strongly connected)."""
    return got == want or (math.isnan(got) and math.isnan(want))


def _distance_rows(g):
    return [oracles.single_source(g, v)[0] for v in range(g.n)]


@pytest.mark.parametrize("variant", [("ba", None), ("ba", (1, 2, 3)),
                                     ("oriented", (1, 2, 3)),
                                     ("union", None)])
def test_delta_hyperbolicity_matches_the_loop(variant):
    kind, weights = variant
    if kind == "union":
        # delta needs a connected graph: the union's 0 ~ 150 bridge
        # joins its two halves
        edges, _ = _edges("union", 300, 5)
        g = build_graph(edges + [(0, 150)])
    else:
        g = _graph(kind, 300, 5, weights)
    dist = _distance_rows(g)
    for seed in range(2):
        got = delta_hyperbolicity(g, sample_count=150, rng_seed=seed)
        want = oracles.delta_hyperbolicity(dist, 150, seed)
        assert got.value == want[0]
        assert _same(got.details["mean_delta"], want[1])
        assert _same(got.details["mean_ratio"], want[2])
        assert got.details["triples"] == want[3] == 150


def _connected_er(n, seed, weights):
    """The first connected ER draw at p = 0.2 from `seed` on."""
    for k in range(seed, seed + 100):
        rng = random.Random(k)
        g = build_graph([(u, v, rng.choice(weights))
                         for u, v in er_edges(n, 0.2, k)], isolated=range(n))
        if components(g).giant_size == n:
            return g
    raise AssertionError("no connected ER draw")


@pytest.mark.parametrize("variant", [("ba", None, 1), ("ba", (1, 2, 3), 2),
                                     ("oriented", None, 3),
                                     ("er", (1, 2, 3), 4)])
def test_delta_hyperbolicity_exhaustive(variant):
    kind, weights, seed = variant
    n = 30 if kind == "ba" else 24
    if kind == "er":
        g = _connected_er(n, seed, weights)
    else:
        g = _graph(kind, n, seed, weights)
    total = math.comb(n, 3)
    got = delta_hyperbolicity(g, sample_count=total)
    want = oracles.delta_hyperbolicity(_distance_rows(g), total, 0)
    assert got.value == want[0] == oracles.bf_delta_hyperbolicity(g)
    assert _same(got.details["mean_delta"], want[1])
    assert _same(got.details["mean_ratio"], want[2])
    assert got.details["triples"] == want[3] == total
