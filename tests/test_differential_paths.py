"""Shortest-path centralities on seeded graphs (n = 300), checked against
networkx and against the per-source Python traversal in oracles.py.

Five variants of Barabasi-Albert edges: undirected; randomly oriented
(directed); undirected with weights uniform in [0.5, 4]; undirected with
weights in {1, 2, 3}, whose exact sums make many routes tie in length;
and the disconnected union of two draws of 150 nodes. A sixth variant,
deeper than the level sweep goes, is a cycle of 300 nodes with three
chords. A 32 x 32 grid checks betweenness where geodesic counts pass
2**53.
"""

import dataclasses
import math
import random

import networkx as nx
import pytest

import oracles
from _synth import ba_edges
from centnet import MetricParams, build_graph, globalmetrics, registry
from centnet.errors import CentnetError
from centnet.globalmetrics import betweenness_family, closeness_family
from centnet.graph import all_distances, shortest_paths

N = 300
REL = 1e-9


def _variant(kind, seed):
    """(edge list, directed, weighted) of a seeded variant."""
    rng = random.Random(seed)
    if kind == "union":
        half = N // 2
        return ba_edges(half, 3, seed) + [
            (u + half, v + half) for u, v in ba_edges(half, 3, seed + 1)
        ], False, False
    if kind == "ring":
        return [(v, (v + 1) % N) for v in range(N)] + \
            [(0, 100), (50, 200), (150, 250)], False, False
    edges = ba_edges(N, 3, seed)
    if kind == "directed":
        return [(v, u) if rng.random() < 0.5 else (u, v)
                for u, v in edges], True, False
    if kind == "weighted":
        return [(u, v, rng.uniform(0.5, 4.0)) for u, v in edges], \
            False, True
    if kind == "ties":
        return [(u, v, float(rng.randint(1, 3))) for u, v in edges], \
            False, True
    return edges, False, False


@pytest.fixture(scope="module",
                params=["undirected", "directed", "weighted", "ties", "union",
                        "ring"])
def case(request):
    """(centnet graph, networkx graph on its ids, weight key or None)."""
    edges, directed, weighted = _variant(request.param, 21)
    rng = random.Random(22)
    coords = {v: (rng.random(), rng.random()) for v in range(N)}
    g = build_graph(edges, directed=directed, isolated=range(N),
                    coordinates=coords)
    h = nx.DiGraph(kind=request.param) if directed else \
        nx.Graph(kind=request.param)
    h.add_nodes_from(range(N))
    for e in edges:
        h.add_edge(g.id_of(e[0]), g.id_of(e[1]),
                   weight=e[2] if weighted else 1.0)
    return g, h, "weight" if weighted else None


def _close(got, want):
    assert list(got) == pytest.approx(list(want), rel=REL, abs=REL)


def _ordered(d):
    return [d[v] for v in range(len(d))]


def test_betweenness(case):
    g, h, weight = case
    want = nx.betweenness_centrality(h, normalized=False, weight=weight)
    _close(betweenness_family(g).values, _ordered(want))


def test_load(case):
    g, h, weight = case
    if h.graph["kind"] == "ties":
        pytest.skip("networkx's load stops reading a node's predecessors "
                    "at the source, so it drops tied routes through the "
                    "others; test_load_matches_source_loop covers this case")
    want = nx.load_centrality(h, normalized=False, weight=weight)
    _close(betweenness_family(g, "load").values, _ordered(want))


def test_closeness(case):
    g, h, weight = case
    # networkx closeness reads in-distances on a directed graph
    ref = h.reverse() if g.directed else h
    want = nx.closeness_centrality(ref, distance=weight, wf_improved=False)
    reach = [len(nx.descendants(h, v)) for v in range(N)]
    per_peer = [want[v] / reach[v] if reach[v] else 0.0 for v in range(N)]
    _close(closeness_family(g, reachable_only=True).values, per_peer)
    strict = [x if r == N - 1 else 0.0 for x, r in zip(per_peer, reach)]
    _close(closeness_family(g).values, strict)


def test_distance_family(case):
    """Every closeness-family id and all_distances against networkx's
    all-pairs distances."""
    g, h, weight = case
    dist = dict(nx.all_pairs_dijkstra_path_length(h, weight="weight"))
    rows = all_distances(g)
    delta = 0.3
    want = {"eccentricity": [], "residual": [], "straightness": []}
    for v in range(N):
        assert rows[v] == pytest.approx(
            [dist[v].get(u, math.inf) for u in range(N)], rel=REL)
        peers = {u: d for u, d in dist[v].items() if u != v}
        full = len(peers) == N - 1
        want["eccentricity"].append(
            1.0 / max(peers.values()) if peers and full else 0.0)
        want["residual"].append(sum(delta ** d for d in peers.values()))
        want["straightness"].append(
            sum(math.dist(g.coords[v], g.coords[u]) / d
                for u, d in peers.items()) / len(peers) if peers else 0.0)
    params = MetricParams(delta_decay=delta)
    for metric, values in want.items():
        _close(closeness_family(g, metric, params).values, values)


def test_l_betweenness(case):
    g, h, _ = case
    cap = 3.0 if g.unit_weights else 4.5
    if h.graph["kind"] == "ring":
        cap = 40.0      # past the level sweep's depth limit
    got = betweenness_family(g, "l-betweenness", MetricParams(L=cap)).values
    _close(got, oracles.source_betweenness(g, cap=cap))


def test_percolation(case):
    g, _, _ = case
    rng = random.Random(23)
    states = [rng.choice([0.0, 0.2, 0.5, 1.0]) for _ in range(N)]
    got = betweenness_family(
        g, "percolation", MetricParams(percolation_states=states)).values
    _close(got, oracles.source_betweenness(g, states=states))


def test_load_matches_source_loop(case):
    g, _, _ = case
    _close(betweenness_family(g, "load").values, oracles.source_load(g))


def test_load_in_small_blocks(case, small_blocks):
    """One source per block, so every block takes the distance-ordered
    sweep. The graph is a fresh copy: on the fixture's own graph, the
    earlier tests' memoised sweep would answer instead."""
    g = dataclasses.replace(case[0])
    _close(betweenness_family(g, "load").values, oracles.source_load(g))
    _close(betweenness_family(g).values, oracles.source_betweenness(g))
    rows = all_distances(g)
    peers = [[d for u, d in enumerate(row) if u != v]
             for v, row in enumerate(rows)]
    reach = [sum(d for d in ds if d < math.inf) for ds in peers]
    full = [1.0 / r if all(d < math.inf for d in ds) and r else 0.0
            for ds, r in zip(peers, reach)]
    _close(closeness_family(g).values, full)
    _close(closeness_family(g, reachable_only=True).values,
           [1.0 / r if r else 0.0 for r in reach])


# Ids that read the memoised all-source sweep, in the order requested;
# ahp with one SI replicate, since its spread score is not under test
SWEEP_IDS = ("betweenness", "closeness", "load", "eccentricity", "bavelas",
             "ahp", "betweenness-gc", "closeness-gc")


def _value(g, mid):
    """The id's values on g, or the error it raises."""
    try:
        if mid in registry.GRAPH_METRICS:
            return registry.compute_graph_metric(g, mid).value
        return registry.compute_point_metric(g, mid, {"si_runs": 1}).values
    except CentnetError as exc:
        return repr(exc)


def test_path_ids_share_one_sweep(case, monkeypatch):
    """On one Graph, every id of SWEEP_IDS reads one all-source
    traversal; a closeness id first runs the forward pass alone, so a
    later betweenness traverses again. Each value equals that of the id
    alone on a fresh Graph."""
    calls, traverse = [], globalmetrics.traverse

    def counted(g, sources, cap=None):
        calls.append(len(sources))
        return traverse(g, sources, cap)

    monkeypatch.setattr(globalmetrics, "traverse", counted)
    g = dataclasses.replace(case[0])
    got = [_value(g, mid) for mid in SWEEP_IDS]
    assert calls == [g.n]
    h = dataclasses.replace(g)
    _value(h, "closeness")
    _value(h, "betweenness")
    assert calls == [g.n] * 3
    for mid, value in zip(SWEEP_IDS, got):
        assert value == _value(dataclasses.replace(g), mid), mid


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_gdsp_reads_the_sweep_on_unit_weights(case, monkeypatch, alpha):
    """On unit weights, gdsp-betweenness and gdsp-closeness read the
    input's memoised sweep: after betweenness they add no all-source
    traversal, where weighted input traverses its reweighted copy once
    per id. Their values equal those on the reweighted copy of a fresh
    Graph, since 1 / 1^alpha is exactly 1."""
    calls, traverse = [], globalmetrics.traverse

    def counted(g, sources, cap=None):
        calls.append(len(sources))
        return traverse(g, sources, cap)

    monkeypatch.setattr(globalmetrics, "traverse", counted)
    g = dataclasses.replace(case[0])
    _value(g, "betweenness")
    got = [registry.compute_point_metric(g, f"gdsp-{mid}",
                                         {"alpha": alpha}).values
           for mid in ("betweenness", "closeness")]
    assert calls == [g.n] * (1 if g.unit_weights else 3)
    h = globalmetrics._alpha_distance_graph(dataclasses.replace(g), alpha)
    assert got == [betweenness_family(h).values,
                   closeness_family(h).values]
    fresh = dataclasses.replace(g)
    assert got == [registry.compute_point_metric(
        fresh, f"gdsp-{mid}", {"alpha": alpha}).values
        for mid in ("betweenness", "closeness")]


def test_grid_sigma_beyond_float_precision():
    """Corner-to-corner geodesics of a 32 x 32 grid number C(62, 31),
    about 4.7e17, past the 2**53 up to which float64 counts exactly."""
    k = 32
    edges = [((i, j), (i + di, j + dj)) for i in range(k) for j in range(k)
             for di, dj in ((0, 1), (1, 0)) if i + di < k and j + dj < k]
    g = build_graph(edges)
    far = shortest_paths(g, g.id_of((0, 0))).sigma[g.id_of((k - 1, k - 1))]
    assert far > 2 ** 53
    assert far == pytest.approx(math.comb(2 * k - 2, k - 1), rel=1e-12)
    h = nx.Graph(edges)
    want = nx.betweenness_centrality(h, normalized=False)
    _close(betweenness_family(g).values,
           [want[g.label_of(v)] for v in range(g.n)])
