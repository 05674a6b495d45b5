"""Local and cohesion measures on seeded graphs (n = 300) against
networkx where the conventions agree, and against the node loops in
`oracles` elsewhere.

The variants: Barabasi-Albert edges, unit and with weights uniform in
[0.5, 4); the disconnected union of two 150-node draws; and the same
edges randomly oriented and weighted, one in ten of them both ways. The
measures whose loops summed integers, or kept their order, must equal
the loops exactly; the rest agree to REL.
"""

import random

import networkx as nx
import pytest

import oracles
from _synth import ba_edges
from centnet import MetricParams, UnsupportedGraphError, build_graph
from centnet.globalmetrics import (
    _si_spread_scores,
    betweenness_family,
    closeness_family,
    current_flow_betweenness,
    current_flow_closeness,
    generalized_weighted_family,
    information_centrality,
    random_walk_betweenness,
    weight_neighborhood,
)
from centnet.graphmetrics import (
    assortativity,
    global_clustering,
    local_assortativity,
    reciprocity,
)
from centnet.local import clustering_family, degree_family, \
    entropy_family, neighborhood_degree_family

N = 300
REL = 1e-12
UNDIRECTED = ("ba", "weighted", "union")
VARIANTS = UNDIRECTED + ("directed",)


def _edges(kind, seed):
    """(edge list, directed) of a seeded variant."""
    rng = random.Random(seed)
    if kind == "union":
        half = N // 2
        return ba_edges(half, 3, seed) + [
            (u + half, v + half) for u, v in ba_edges(half, 3, seed + 1)
        ], False
    edges = ba_edges(N, 3, seed)
    if kind == "ba":
        return edges, False
    if kind == "weighted":
        return [(u, v, rng.uniform(0.5, 4.0)) for u, v in edges], False
    arcs = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v, rng.uniform(0.5, 4.0)))
        if rng.random() < 0.1:
            arcs.append((v, u, rng.uniform(0.5, 4.0)))
    return arcs, True


def _variant(kind, seed=31):
    """(centnet graph, networkx graph on its node ids)."""
    edges, directed = _edges(kind, seed)
    g = build_graph(edges, directed=directed, isolated=range(N))
    h = nx.DiGraph() if directed else nx.Graph()
    h.add_nodes_from(range(N))
    for e in edges:
        h.add_edge(g.id_of(e[0]), g.id_of(e[1]),
                   weight=e[2] if len(e) == 3 else 1.0)
    return g, h


GRAPHS = {kind: _variant(kind) for kind in VARIANTS}


def _close(got, want):
    assert list(got) == pytest.approx(list(want), rel=REL, abs=REL)


def _ordered(d):
    return [d[v] for v in range(N)]


def _component_graphs(h):
    """Each component of h as (its nodes, sorted; its subgraph)."""
    for nodes in nx.connected_components(h):
        nodes = sorted(nodes)
        yield nodes, h.subgraph(nodes)


def test_variants_are_what_they_claim():
    assert nx.number_connected_components(GRAPHS["union"][1]) == 2
    assert nx.is_connected(GRAPHS["ba"][1])
    g, h = GRAPHS["directed"]
    assert g.directed and not g.unit_weights
    assert 0.0 < nx.overall_reciprocity(h) < 1.0
    assert not GRAPHS["weighted"][0].unit_weights


# -- against networkx -----------------------------------------------------


@pytest.mark.parametrize("kind", UNDIRECTED)
def test_clustering(kind):
    g, h = GRAPHS[kind]
    _close(clustering_family(g, "clustering").values,
           _ordered(nx.clustering(h)))
    assert global_clustering(g).value == pytest.approx(
        nx.average_clustering(h), rel=REL)


def test_reciprocity():
    g, h = GRAPHS["directed"]
    assert reciprocity(g).value == nx.overall_reciprocity(h)


@pytest.mark.parametrize("kind", UNDIRECTED)
def test_assortativity(kind):
    g, h = GRAPHS[kind]
    assert assortativity(g).value == pytest.approx(
        nx.degree_assortativity_coefficient(h), rel=REL)


@pytest.mark.parametrize("mode, x, y", [("directed-out-in", "out", "in"),
                                        ("in-in", "in", "in"),
                                        ("out-out", "out", "out")])
def test_directed_assortativity(mode, x, y):
    g, h = GRAPHS["directed"]
    assert assortativity(g, mode).value == pytest.approx(
        nx.degree_assortativity_coefficient(h, x=x, y=y), rel=REL)


@pytest.mark.parametrize("kind", UNDIRECTED)
def test_current_flow(kind):
    """Each component against networkx on its subgraph: betweenness as
    it is, closeness times the component's size; information on the
    connected variants, times n."""
    g, h = GRAPHS[kind]
    split = kind == "union"
    if split:
        with pytest.raises(UnsupportedGraphError):
            current_flow_betweenness(g)
        with pytest.raises(UnsupportedGraphError):
            information_centrality(g)
    else:
        want = nx.information_centrality(h, weight="weight")
        _close(information_centrality(g).values,
               [N * want[v] for v in range(N)])
    cfb = current_flow_betweenness(g, per_component=split).values
    cfc = current_flow_closeness(g, per_component=split).values
    for nodes, sub in _component_graphs(h):
        want = nx.current_flow_betweenness_centrality(
            sub, normalized=True, weight="weight")
        _close([cfb[v] for v in nodes], [want[v] for v in nodes])
        want = nx.current_flow_closeness_centrality(sub, weight="weight")
        _close([cfc[v] for v in nodes], [len(nodes) * want[v]
                                         for v in nodes])


@pytest.mark.parametrize("kind", UNDIRECTED)
def test_current_flow_loop(kind):
    """The four current-flow ids equal the per-edge loop exactly: each
    component on its own on the union, random-walk betweenness as its
    rescaling ((n-2) c + 2) / n and information as closeness on the
    connected variants."""
    g, _ = GRAPHS[kind]
    split = kind == "union"
    cfb, cfc = oracles.current_flow(g, per_component=split)
    assert list(current_flow_betweenness(g, split).values) == cfb
    assert list(current_flow_closeness(g, split).values) == cfc
    if not split:
        assert list(random_walk_betweenness(g).values) == \
            [((N - 2) * c + 2) / N for c in cfb]
        assert list(information_centrality(g).values) == cfc


# -- against the node loops -------------------------------------------------


@pytest.mark.parametrize("kind", VARIANTS)
def test_clustering_loop(kind):
    g, _ = GRAPHS[kind]
    assert list(clustering_family(g, "clustering").values) == \
        oracles.local_clustering(g)


def test_clusterrank_loop():
    g, _ = GRAPHS["directed"]
    assert list(clustering_family(g, "clusterrank").values) == \
        oracles.clusterrank(g)


@pytest.mark.parametrize("kind", UNDIRECTED)
def test_redundancy_loop(kind):
    g, _ = GRAPHS[kind]
    got = clustering_family(g, "redundancy").values
    if g.unit_weights:
        assert list(got) == oracles.redundancy(g)
    else:
        _close(got, oracles.redundancy(g))


def _pendants():
    """A draw of 290 nodes, a star of four leaves, a path of three
    nodes, an edge and an isolated node: zero sums at the star's centre,
    the edge's ends and the isolated node."""
    edges = ba_edges(290, 3, 37) + [(290, 291), (290, 292), (290, 293),
                                     (290, 294), (295, 296), (296, 297),
                                     (298, 299)]
    return build_graph(edges, isolated=range(N + 1))


@pytest.mark.parametrize("metric", ["local-entropy", "mapping-entropy"])
@pytest.mark.parametrize("kind", VARIANTS + ("pendants", "hub"))
def test_entropy_loop(kind, metric):
    """Bit for bit, the sign of each zero included. The hub has degree
    9170, whose log np.log rounds otherwise than math.log on some
    platforms."""
    if kind == "hub":
        g = build_graph([(0, leaf) for leaf in range(1, 9171)])
    else:
        g = _pendants() if kind == "pendants" else GRAPHS[kind][0]
    got = entropy_family(g, metric).values
    assert [x.hex() for x in got] == \
        [float(x).hex() for x in oracles.entropy(g, metric)]


@pytest.mark.parametrize("kind", UNDIRECTED)
def test_semi_local_and_hybrid_degree_loops(kind):
    g, _ = GRAPHS[kind]
    assert list(neighborhood_degree_family(g, "semi-local").values) == \
        oracles.semi_local(g)
    params = MetricParams(alpha=3.0, beta=0.5, p=0.2)
    assert list(neighborhood_degree_family(g, "hybrid-degree").values) == \
        oracles.hybrid_degree(g)
    assert list(neighborhood_degree_family(
        g, "hybrid-degree", params).values) == \
        oracles.hybrid_degree(g, 3.0, 0.5, 0.2)


@pytest.mark.parametrize("kind", UNDIRECTED)
def test_semi_local_and_hybrid_degree_in_small_blocks(kind, small_blocks):
    """A block of two-hop balls holds mostly one row."""
    test_semi_local_and_hybrid_degree_loops(kind)


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("h", [1, 2, 5])
@pytest.mark.parametrize("kind", UNDIRECTED + ("pendants",))
def test_volume_loop(kind, h, small, request):
    """Also in `small_blocks`, where a block holds a few rows at h = 1
    and mostly one row from h = 2 on."""
    if small:
        request.getfixturevalue("small_blocks")
    g = _pendants() if kind == "pendants" else GRAPHS[kind][0]
    got = neighborhood_degree_family(g, "volume", MetricParams(h=h)).values
    assert list(got) == oracles.volume(g, h)


@pytest.mark.parametrize("kind", UNDIRECTED)
def test_local_assortativity_loop(kind):
    g, _ = GRAPHS[kind]
    _close(local_assortativity(g).values, oracles.local_assortativity(g))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", VARIANTS)
def test_gdsp_loops(kind, alpha):
    """gdsp-degree against its loop; gdsp-closeness and -betweenness
    against closeness and betweenness on the loop's reweighted arcs."""
    g, _ = GRAPHS[kind]
    _close(generalized_weighted_family(g, "gdsp-degree", alpha).values,
           oracles.gdsp_degree(g, alpha))
    ref = oracles.graph_from_arcs(g.n, g.directed,
                                  oracles.alpha_distance_arcs(g, alpha))
    _close(generalized_weighted_family(g, "gdsp-closeness", alpha).values,
           closeness_family(ref, "closeness").values)
    _close(generalized_weighted_family(g, "gdsp-betweenness",
                                       alpha).values,
           betweenness_family(ref, "betweenness").values)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", VARIANTS)
def test_weight_neighborhood_loop(kind, alpha):
    g, _ = GRAPHS[kind]
    phi = degree_family(g).values
    _close(weight_neighborhood(g, alpha=alpha).values,
           oracles.weight_neighborhood(g, phi, alpha))


@pytest.mark.parametrize("kind", VARIANTS)
def test_ahp_spread_loop(kind):
    """ahp's SI spread score, the only part of ahp read from the rows,
    draws its random numbers in the loop's order."""
    g, _ = GRAPHS[kind]
    params = MetricParams(si_runs=3, si_beta=0.2, rng_seed=5)
    assert _si_spread_scores(g, params) == \
        oracles.si_spread_scores(g, params)
