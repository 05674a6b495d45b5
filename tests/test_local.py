import math
import random

import pytest

import oracles
from centnet import GraphInputError, MetricParams, UnsupportedGraphError, \
    build_graph
from centnet.local import (
    clustering_family,
    degree_family,
    entropy_family,
    gauss_curvature,
    h_index,
    neighborhood_degree_family,
)
from centnet.iterative import k_shell


class TestDegree:
    def test_star_center(self, s5):
        assert degree_family(s5).values[0] == 4.0
        assert degree_family(s5, normalized=True).values[0] == 1.0

    def test_directed_two_cycle_in_mode(self):
        g = build_graph([(0, 1), (1, 0)], directed=True)
        assert degree_family(g, "in").values == (1.0, 1.0)

    def test_k3(self, k3):
        assert degree_family(k3).values == (2.0, 2.0, 2.0)

    def test_in_out_need_directed(self, k3):
        with pytest.raises(UnsupportedGraphError):
            degree_family(k3, "in")

    def test_normalized_bounds(self, atlas_sample):
        for g in atlas_sample:
            if g.n < 2:
                continue
            for x in degree_family(g, normalized=True).values:
                assert 0.0 <= x <= 1.0

    def test_directed_total_is_in_plus_out(self):
        g = build_graph([(0, 1), (1, 2), (2, 0), (0, 2)], directed=True)
        tot = degree_family(g).values
        ins = degree_family(g, "in").values
        outs = degree_family(g, "out").values
        assert tot == tuple(i + o for i, o in zip(ins, outs))


class TestNeighborhoodDegree:
    def test_semi_local_p5_middle(self, p5):
        assert neighborhood_degree_family(p5, "semi-local").values[2] == 12.0

    def test_volume_h2_p4(self, p4):
        got = neighborhood_degree_family(p4, "volume", MetricParams(h=2))
        assert got.values[1] == 4.0

    def test_hybrid_p0_collapses_to_degree(self, p5):
        params = MetricParams(p=0.0)
        hybrid = neighborhood_degree_family(p5, "hybrid-degree", params)
        deg = degree_family(p5).values
        assert hybrid.values == tuple(0.1 * 1000.0 * d for d in deg)

    def test_directed_rejected(self):
        g = build_graph([(0, 1)], directed=True)
        for metric in ("semi-local", "hybrid-degree", "volume"):
            with pytest.raises(UnsupportedGraphError):
                neighborhood_degree_family(g, metric)

    def test_permutation_equivariance(self, atlas_sample):
        rng = random.Random(9)
        for g in atlas_sample[:40]:
            if g.n < 2:
                continue
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [(perm[v], perm[u]) for v in range(g.n)
                     for u, _ in g.adj[v] if v < u]
            h = build_graph(edges, isolated=range(g.n))
            for metric in ("semi-local", "volume"):
                a = neighborhood_degree_family(g, metric).values
                b = neighborhood_degree_family(h, metric).values
                for v in range(g.n):
                    assert a[v] == b[h.id_of(perm[v])]


class TestClustering:
    def test_k3_and_star(self, k3, s5):
        assert clustering_family(k3, "clustering").values == (1.0, 1.0, 1.0)
        assert clustering_family(s5, "clustering").values[0] == 0.0

    def test_matches_triple_enumeration(self, atlas_sample):
        for g in atlas_sample:
            got = clustering_family(g, "clustering").values
            want = oracles.bf_local_clustering(g)
            assert got == pytest.approx(want)
            for x in got:
                assert 0.0 <= x <= 1.0

    def test_redundancy_k3(self, k3):
        assert clustering_family(k3, "redundancy").values == (1.0, 1.0, 1.0)

    def test_redundancy_bound(self, atlas_sample):
        for g in atlas_sample:
            red = clustering_family(g, "redundancy").values
            for v in range(g.n):
                if g.degree(v) >= 1:
                    assert red[v] <= g.degree(v) - 1 + 1e-12

    def test_clusterrank_directed_star(self):
        g = build_graph([("a", "b"), ("a", "c")], directed=True)
        assert clustering_family(g, "clusterrank").values[0] == 2.0

    def test_clusterrank_needs_directed(self, k3):
        with pytest.raises(UnsupportedGraphError):
            clustering_family(k3, "clusterrank")

    def test_weighted_redundancy_reduces_on_unit_triangle(self):
        # weighted formula applied to a unit-weight triangle agrees with
        # the simple-graph reduction
        g = build_graph([(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0)])
        got = clustering_family(g, "redundancy").values
        assert got == pytest.approx((1.0, 1.0, 1.0))


class TestEntropy:
    @pytest.mark.parametrize("edges", [[], [(0, 1)]])
    def test_unknown_metric_named(self, edges):
        # on a graph with no nodes the name used to come back as the
        # metric id of an empty score vector
        with pytest.raises(GraphInputError, match="bogus"):
            entropy_family(build_graph(edges), "bogus")

    def test_star_center_zero(self, s5):
        assert entropy_family(s5, "local-entropy").values[0] == 0.0
        assert entropy_family(s5, "mapping-entropy").values[0] == 0.0

    def test_k3_mapping(self, k3):
        want = -2.0 * (math.log(2) + math.log(2))
        for x in entropy_family(k3, "mapping-entropy").values:
            assert x == pytest.approx(want)

    def test_isolated_zero(self):
        g = build_graph([(0, 1)], isolated=[0, 1, 2])
        assert entropy_family(g, "local-entropy").values[2] == 0.0
        assert entropy_family(g, "mapping-entropy").values[2] == 0.0


class TestHIndex:
    def test_star_center(self, s5):
        assert h_index(s5).values[0] == 1.0

    def test_k4(self, k4):
        assert h_index(k4).values == (3.0, 3.0, 3.0, 3.0)

    def test_high_order_equals_k_shell(self, atlas_sample):
        for g in atlas_sample:
            shells = [float(s) for s in k_shell(g).shell_index]
            assert list(h_index(g, order=50).values) == shells

    def test_monotone_in_order(self, atlas_sample):
        for g in atlas_sample[:40]:
            prev = h_index(g, 1).values
            for k in range(2, 6):
                cur = h_index(g, k).values
                assert all(c <= p for c, p in zip(cur, prev))
                prev = cur

    def test_fixed_once_at_coreness(self, p5):
        shells = [float(s) for s in k_shell(p5).shell_index]
        k = 1
        while list(h_index(p5, k).values) != shells:
            k += 1
        assert list(h_index(p5, k + 3).values) == shells


class TestGaussCurvature:
    def test_isolated_node(self):
        g = build_graph([], isolated=[0])
        assert gauss_curvature(g).values == (1.0,)

    def test_p3_middle(self, p3):
        assert gauss_curvature(p3).values[1] == 0.0

    def test_k3(self, k3):
        for x in gauss_curvature(k3).values:
            assert x == pytest.approx(1.0 / 3.0)

    def test_k4_with_k4_term(self, k4):
        # 1 - 3/2 + 3/3 - 1/4 per node when 4-cliques are included
        got = gauss_curvature(k4, k_max=4).values
        assert got == pytest.approx(tuple([1 - 1.5 + 1 - 0.25] * 4))

    def test_directed_rejected(self):
        g = build_graph([(0, 1)], directed=True)
        with pytest.raises(UnsupportedGraphError):
            gauss_curvature(g)

    def test_bad_kmax(self, k3):
        with pytest.raises(GraphInputError):
            gauss_curvature(k3, k_max=0)
