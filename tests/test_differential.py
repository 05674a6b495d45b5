"""Fixed-point centralities on seeded directed weighted graphs (n = 300),
checked against networkx or against a dense numpy statement of the
equation each metric solves.

The graphs are Barabasi-Albert edges given a random orientation and a
weight uniform in [0.5, 4]. The strongly connected draw also threads a
directed cycle through every node, so the graph has no sinks and a
unique positive principal eigenvector.
"""

import json
import random

import networkx as nx
import numpy as np
import pytest

from _synth import ba_edges
from centnet import MetricParams, build_graph
from centnet.iterative import (
    diffusion_centrality,
    eigen_family,
    hits,
    leader_rank,
    salsa,
)

N = 300

# A fixed point is accepted when its sup-norm residual is below this
# fraction of the vector's L1 mass; every metric stops once no entry
# moves by 1e-10 under a normalisation no larger than that mass.
RESIDUAL_TOL = 1e-8


def directed_weighted_arcs(n, seed, strong=False):
    rng = random.Random(seed)
    arcs = {}
    for u, v in ba_edges(n, 3, seed):
        if rng.random() < 0.5:
            u, v = v, u
        arcs[(u, v)] = rng.uniform(0.5, 4.0)
    if strong:
        ring = list(range(n))
        rng.shuffle(ring)
        for u, v in zip(ring, ring[1:] + ring[:1]):
            arcs.setdefault((u, v), rng.uniform(0.5, 4.0))
    return [(u, v, w) for (u, v), w in sorted(arcs.items())]


def graphs(arcs):
    """(centnet graph, networkx DiGraph, dense weighted adjacency), the
    last two on centnet's dense node ids."""
    g = build_graph(arcs, directed=True, isolated=range(N))
    arcs = [(g.id_of(u), g.id_of(v), w) for u, v, w in arcs]
    h = nx.DiGraph()
    h.add_nodes_from(range(N))
    h.add_weighted_edges_from(arcs)
    a = np.zeros((N, N))
    for u, v, w in arcs:
        a[u, v] = w
    return g, h, a


@pytest.fixture(scope="module", params=[11, 12])
def strong(request):
    return graphs(directed_weighted_arcs(N, request.param, strong=True))


@pytest.fixture(scope="module", params=[11, 12])
def oriented(request):
    return graphs(directed_weighted_arcs(N, request.param))


def _values(h_dict):
    return np.array([h_dict[v] for v in range(N)])


def _eigen_residual(m, x):
    """Sup-norm residual of M x = lambda x (lambda the Rayleigh quotient)
    over the L1 mass of x."""
    y = m @ x
    r = y * (x @ x) / (x @ y) - x
    return np.max(np.abs(r)) / np.sum(np.abs(x))


def _jaccard_dissimilarity(a):
    und = ((a + a.T) > 0).astype(float)
    common = und @ und
    deg = und.sum(axis=1)
    union = deg[:, None] + deg[None, :] - common
    return 1.0 - np.where(union > 0, common / np.maximum(union, 1), 0.0)


class TestAgainstNetworkx:
    def test_eigenvector(self, strong):
        g, h, _ = strong
        got = np.array(eigen_family(g, "eigenvector").values)
        want = _values(nx.eigenvector_centrality_numpy(h, weight="weight"))
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_katz(self, oriented):
        g, h, a = oriented
        sv = eigen_family(g, "katz")
        alpha = json.loads(sv.params_digest)["alpha"]
        lam = np.max(np.abs(np.linalg.eigvals(a)))
        assert alpha == pytest.approx(0.85 / lam, rel=1e-9)
        want = _values(nx.katz_centrality_numpy(
            h, alpha=alpha, beta=1.0, normalized=False, weight="weight"))
        assert np.allclose(sv.values, want, rtol=1e-9, atol=0)

    def test_pagerank(self, strong):
        g, h, _ = strong
        alpha = 0.85
        got = np.array(eigen_family(g, "pagerank",
                                    MetricParams(alpha=alpha)).values)
        want = _values(nx.pagerank(h, alpha=alpha, weight=None,
                                   tol=1e-15, max_iter=10000))
        assert np.allclose(got, want * N / (1 - alpha), rtol=1e-9, atol=0)

    def test_hits(self, strong):
        g, h, _ = strong
        auth, hub = hits(g)
        want_hub, want_auth = nx.hits(h, max_iter=10000, tol=0)
        for got, want in ((auth, want_auth), (hub, want_hub)):
            x = np.array(got.values)
            assert np.allclose(x / x.sum(), _values(want),
                               rtol=0, atol=1e-10)


class TestAgainstDenseEquations:
    def test_dynamical_influence(self, oriented):
        g, _, a = oriented
        x = np.array(eigen_family(g, "dynamical-influence").values)
        assert x.sum() == pytest.approx(1.0)
        assert _eigen_residual(np.eye(N) + a.T, x) < RESIDUAL_TOL

    def test_contribution(self, oriented):
        g, _, a = oriented
        x = np.array(eigen_family(g, "contribution").values)
        m = a * _jaccard_dissimilarity(a)
        assert _eigen_residual(np.eye(N) + m.T, x) < RESIDUAL_TOL

    def test_cumulative_nomination(self, oriented):
        g, _, a = oriented
        x = np.array(eigen_family(g, "cumulative-nomination").values)
        assert x.sum() == pytest.approx(1.0)
        assert _eigen_residual(np.eye(N) + (a > 0).T, x) < RESIDUAL_TOL

    def test_leaderrank(self, oriented):
        g, _, a = oriented
        final = np.array(leader_rank(g).values)
        # ground node linked both ways to every node; the score is
        # s_v + s_g / n, so recover s_g and s first
        share = 1.0 / ((a > 0).sum(axis=1) + 1.0)
        walk = ((a > 0) * share[:, None]).T
        s_g = (final @ share) / (1.0 + share.sum() / N)
        s = final - s_g / N
        r = np.concatenate([s - s_g / N - walk @ s, [s_g - s @ share]])
        assert np.max(np.abs(r)) / np.sum(final) < RESIDUAL_TOL

    def test_salsa(self, oriented):
        g, _, a = oriented
        auth, hub = salsa(g)
        b = (a > 0).astype(float)
        out = b.sum(axis=1)
        inn = b.sum(axis=0)
        fwd = b / np.maximum(out, 1)[:, None]       # hub -> authority
        back = b.T / np.maximum(inn, 1)[:, None]    # authority -> hub
        for got, walk, side in ((hub, fwd @ back, out > 0),
                                (auth, back @ fwd, inn > 0)):
            pi = np.array(got.values)
            assert pi.sum() == pytest.approx(1.0)
            assert np.all(pi[~side] == 0.0)
            assert np.max(np.abs(pi @ walk - pi)) < RESIDUAL_TOL

    def test_diffusion(self, oriented):
        g, _, a = oriented
        q, T = 0.1, 10
        x = np.ones(N)
        want = np.zeros(N)
        for _ in range(T):
            x = q * (a @ x)
            want += x
        got = diffusion_centrality(g, q, T).values
        assert np.allclose(got, want, rtol=1e-12, atol=0)
