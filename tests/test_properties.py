"""Hypothesis properties of the graph substrate, checked against networkx
and the reference loops in oracles.py."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

import oracles
from centnet import (
    build_graph,
    components,
    non_infectious_attack,
    rank_targets,
)
from centnet.globalmetrics import betweenness_family, closeness_family
from centnet.params import score_vector
from centnet.resilience import removal_count

MAX_N = 60

# A small label pool mixing ints and strings, so that self-loops and
# duplicates are common; weights from a set with exact sums.
LABELS = st.integers(0, 6) | st.sampled_from(["a", "b", "c", "7"])
WEIGHTS = st.sampled_from([0.25, 1.0, 1.5, 3.0])


@st.composite
def graphs(draw):
    """(directed, n, edge list, mask or None) with 0 <= n <= MAX_N; the
    edges may repeat and contain self-loops, as raw input does."""
    directed = draw(st.booleans())
    n = draw(st.integers(0, MAX_N))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n)) if n else []
    mask = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    return directed, n, edges, mask


def _reference(g, edges):
    """The networkx graph of `edges` on g's node ids."""
    ref = nx.DiGraph() if g.directed else nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from((g.id_of(u), g.id_of(v)) for u, v in edges if u != v)
    return ref


def _partition(component_id, alive):
    groups: dict = {}
    for v in alive:
        groups.setdefault(component_id[v], set()).add(v)
    return sorted(sorted(c) for c in groups.values())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graphs())
def test_components_match_networkx(case):
    directed, n, edges, mask = case
    g = build_graph(edges, directed=directed, isolated=range(n))
    ref = _reference(g, edges)
    assert g.m == ref.number_of_edges()
    alive = [v for v in range(n) if mask is None or mask[v]]
    sub = ref.subgraph(alive)
    expected = {
        "weak": nx.weakly_connected_components(sub) if directed
        else nx.connected_components(sub),
        "strong": nx.strongly_connected_components(sub) if directed
        else nx.connected_components(sub),
    }
    for mode, comps in expected.items():
        want = sorted(sorted(c) for c in comps)
        lab = components(g, mode, mask=mask)
        assert _partition(lab.component_id, alive) == want
        assert all(lab.component_id[v] == -1
                   for v in set(range(n)) - set(alive))
        assert lab.sizes == [lab.component_id.count(c)
                             for c in range(len(want))]
        assert lab.giant_size == max((len(c) for c in want), default=0)
        if mode == "weak":
            # weak ids count components in order of their smallest node
            firsts = [lab.component_id[v] for v in alive]
            seen = list(dict.fromkeys(firsts))
            assert seen == list(range(len(want)))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(graphs(), st.booleans())
def test_adjacency_is_one_read_only_operator(case, weighted):
    directed, n, edges, _ = case
    g = build_graph([(u, v, 1.0 + (u + v) % 3 * weighted) for u, v in edges],
                    directed=directed, isolated=range(n))
    for flag in (True, False):
        a = g.adjacency(flag)
        assert a is g.adjacency(flag)
        assert not any(arr.flags.writeable
                       for arr in (a.data, a.indices, a.indptr))
    a, unit = g.adjacency(True), g.adjacency(False)
    # the unweighted twin is the operator itself when all weights are 1
    assert unit is a or (np.shares_memory(unit.indices, a.indices) and
                         np.shares_memory(unit.indptr, a.indptr))
    assert (unit != (a != 0)).nnz == 0
    assert g.unit_weights == (not weighted or bool((a.data == 1.0).all()))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.booleans(), st.booleans(), st.integers(1, 40), st.data())
def test_path_scores_permute_with_the_nodes(directed, weighted, n, data):
    """Relabelling the nodes permutes betweenness, load and closeness.
    Weights come from a small set, so equal-length routes occur."""
    node = st.integers(0, n - 1)
    weight = st.sampled_from([0.5, 1.0, 1.5, 2.5] if weighted else [1.0])
    edges = data.draw(st.lists(st.tuples(node, node, weight),
                               max_size=3 * n))
    perm = data.draw(st.permutations(range(n)))
    g = build_graph(edges, directed=directed, isolated=range(n))
    h = build_graph([(perm[u], perm[v], w) for u, v, w in edges],
                    directed=directed, isolated=range(n))
    for score in (lambda x: betweenness_family(x),
                  lambda x: betweenness_family(x, "load"),
                  lambda x: closeness_family(x, reachable_only=True)):
        got, moved = score(g).values, score(h).values
        assert [moved[h.id_of(perm[g.label_of(v)])] for v in range(n)] == \
            pytest.approx(list(got), rel=1e-9, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(graphs(), st.lists(st.floats(0.0, 1.0), max_size=6), st.data())
def test_non_infectious_rows_match_csgraph(case, grid, data):
    """Each row's giant is the largest weak component of the subgraph
    the ordering's prefix leaves, from csgraph on the raw edges; the
    rows never grow with phi and never exceed 1 - phi."""
    directed, n, edges, _ = case
    g = build_graph(edges, directed=directed, isolated=range(n))
    order = data.draw(st.permutations(range(n)))
    rows = non_infectious_attack(g, ordering=order, phi_grid=grid)
    assert [r.phi for r in rows] == sorted(set(grid) | {0.0})
    arcs = np.array([(g.id_of(u), g.id_of(v)) for u, v in edges if u != v],
                    dtype=int).reshape(-1, 2)
    adj = sp.csr_matrix((np.ones(len(arcs)), (arcs[:, 0], arcs[:, 1])),
                        shape=(n, n))
    for r in rows:
        assert r.seeds == removal_count(r.phi, n)
        keep = np.setdiff1d(np.arange(n), order[:r.seeds])
        giant = 0
        if keep.size:
            _, labels = connected_components(adj[keep][:, keep],
                                             directed=directed,
                                             connection="weak")
            giant = int(np.bincount(labels).max())
        assert r.giant_fraction == (giant / n if n else 0.0)
        assert giant <= n - r.seeds
        assert r.giant_fraction <= 1.0 - r.phi + 1e-12
    fracs = [r.giant_fraction for r in rows]
    assert fracs == sorted(fracs, reverse=True)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 5e-324,
                                 -5e-324, 1e300]) | st.floats(
    allow_nan=False, allow_infinity=False), max_size=40))
def test_rank_targets_is_score_then_id(scores):
    """Descending score, ascending id on ties; -0.0 ties with 0.0."""
    want = sorted(range(len(scores)), key=lambda v: (-scores[v], v))
    assert rank_targets(score_vector("x", scores)) == want


@st.composite
def raw_edges(draw):
    """(edges, directed, isolated): (u, v) and (u, v, w) edges, plus
    reversed copies of some of them with other weights, each placed
    after its original."""
    edge = st.tuples(LABELS, LABELS) | st.tuples(LABELS, LABELS, WEIGHTS)
    edges = draw(st.lists(edge, max_size=40))
    for _ in range(draw(st.integers(0, 8)) if edges else 0):
        i = draw(st.integers(0, len(edges) - 1))
        u, v = edges[i][:2]
        edges.insert(draw(st.integers(i + 1, len(edges))),
                     (v, u, draw(WEIGHTS)))
    return edges, draw(st.booleans()), draw(st.lists(LABELS, max_size=5))


def _arrays(a):
    return a.indptr.tolist(), a.indices.tolist(), a.data.tolist()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(raw_edges())
def test_build_matches_the_tuple_build(case):
    """The array build equals the per-edge tuple build exactly: ids,
    counts, the tuple views, and the operators it re-read from them."""
    edges, directed, isolated = case
    g = build_graph(edges, directed=directed, isolated=isolated)
    ref = oracles.tuple_build_graph(edges, directed=directed,
                                    isolated=isolated)
    assert (g.labels, g.n) == (ref.labels, ref.n)
    assert g.self_loops_dropped == ref.self_loops_dropped
    assert g.duplicates_collapsed == ref.duplicates_collapsed
    assert g.adj == ref.adj and g.in_adj == ref.in_adj
    for weighted in (True, False):
        assert _arrays(g.adjacency(weighted)) == \
            _arrays(ref.adjacency(weighted))
    assert _arrays(g.undirected_adjacency) == \
        _arrays(ref.undirected_adjacency())
