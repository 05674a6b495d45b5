import math
import random

import numpy as np
import pytest

import oracles
from _synth import er_connected, er_graph
from centnet import GraphInputError, MetricParams, UnsupportedGraphError, \
    build_graph
from centnet.globalmetrics import (
    ahp_centrality,
    betweenness_family,
    closeness_family,
    current_flow_betweenness,
    current_flow_closeness,
    flow_betweenness,
    generalized_weighted_family,
    improved_method,
    information_centrality,
    random_walk_betweenness,
    weight_neighborhood,
)
from conftest import cycle_graph, path_graph, star_graph


def diameter(g):
    d = oracles.floyd_warshall(g)
    return max(x for row in d for x in row if x < math.inf)


class TestBetweenness:
    def test_p3_middle(self, p3):
        assert betweenness_family(p3).values == (0.0, 1.0, 0.0)

    def test_matches_path_enumeration(self, atlas_sample):
        for g in atlas_sample:
            got = betweenness_family(g).values
            want = oracles.bf_betweenness_paths(g)
            assert got == pytest.approx(want, abs=1e-9)

    def test_directed_matches_sigma_identity(self):
        rng = random.Random(17)
        for seed in range(12):
            n = rng.randint(3, 8)
            edges = {(rng.randrange(n), rng.randrange(n))
                     for _ in range(3 * n)}
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                continue
            g = build_graph(edges, directed=True, isolated=range(n))
            got = betweenness_family(g).values
            want = oracles.bf_betweenness_sigma(g)
            assert got == pytest.approx(want, abs=1e-9)

    def test_normalized_star_center(self, s5):
        got = betweenness_family(s5, normalized=True).values
        assert got[0] == pytest.approx(1.0)

    def test_l_betweenness_caps_and_converges(self, atlas_sample):
        for g in atlas_sample[:60]:
            if g.n < 3:
                continue
            full = betweenness_family(g).values
            dia = int(diameter(g))
            prev = [0.0] * g.n
            for L in range(1, dia + 1):
                cur = betweenness_family(
                    g, "l-betweenness", MetricParams(L=L)).values
                assert all(c >= p - 1e-12 for c, p in zip(cur, prev))
                prev = cur
            assert prev == pytest.approx(full, abs=1e-9)


class TestPercolation:
    def test_uniform_states_rank_like_betweenness(self, atlas_sample):
        for g in atlas_sample[:40]:
            if g.n < 4:
                continue
            params = MetricParams(percolation_states=[0.7] * g.n)
            perc = oracles.quantize(
                betweenness_family(g, "percolation", params).values)
            bet = oracles.quantize(betweenness_family(g).values)
            assert oracles.spearman(perc, bet) == pytest.approx(1.0)

    def test_all_zero_states_rejected(self, p4):
        with pytest.raises(GraphInputError):
            betweenness_family(p4, "percolation",
                               MetricParams(percolation_states=[0.0] * 4))

    def test_default_states_are_uniform(self, p4):
        default = betweenness_family(p4, "percolation").values
        explicit = betweenness_family(
            p4, "percolation",
            MetricParams(percolation_states=[1.0] * 4)).values
        assert default == explicit

    def test_wrong_length_rejected(self, p4):
        with pytest.raises(GraphInputError):
            betweenness_family(p4, "percolation",
                               MetricParams(percolation_states=[1.0] * 3))

    def test_single_percolated_source(self, p3):
        # only node 0 percolated: every dependency is weighted by x_0
        params = MetricParams(percolation_states=[1.0, 0.0, 0.0])
        got = betweenness_family(p3, "percolation", params).values
        # middle node: delta from source 0 toward 2 is 1; prefactor
        # 1/(n-2)=1, weight x_0/(sum-x_1)=1
        assert got == pytest.approx((0.0, 1.0, 0.0))


class TestLoad:
    def test_p3(self, p3):
        assert betweenness_family(p3, "load").values == (0.0, 2.0, 0.0)

    def test_matches_per_pair_simulation(self, atlas_sample):
        for g in atlas_sample[:60]:
            got = betweenness_family(g, "load").values
            want = oracles.bf_load(g)
            assert got == pytest.approx(want, abs=1e-9)

    def test_witness_load_differs_from_betweenness(self, atlas):
        # branch-count asymmetry makes load deviate somewhere in the corpus
        found = False
        for g in atlas:
            if g.n < 5:
                continue
            load = betweenness_family(g, "load").values
            bet = betweenness_family(g).values
            scale = 1.0 if g.directed else 2.0
            if any(abs(l - scale * b) > 1e-9 for l, b in zip(load, bet)):
                found = True
                break
        assert found


class TestFlowBetweenness:
    def test_p3_normalized(self, p3):
        got = flow_betweenness(p3, normalized=True)
        assert got.values == (0.0, 1.0, 0.0)

    def test_k4_symmetry(self, k4):
        vals = flow_betweenness(k4).values
        assert len(set(vals)) == 1

    def test_pair_cap_skips(self, p5):
        sv, diag = flow_betweenness(p5, pair_distance_cap=1,
                                    with_diagnostics=True)
        assert diag["skipped_pairs"] > 0

    def test_directed(self):
        g = build_graph([(0, 1), (1, 2)], directed=True)
        got = flow_betweenness(g).values
        assert got == (0.0, 1.0, 0.0)


class TestCurrentFlow:
    def test_cfb_p3(self, p3):
        assert current_flow_betweenness(p3).values == \
            pytest.approx((0.0, 1.0, 0.0))

    def test_cfb_matches_newman_ranking(self, atlas_sample):
        for g in atlas_sample:
            if g.n < 4 or oracles.floyd_warshall(g).max() == math.inf:
                continue
            cfb = oracles.quantize(current_flow_betweenness(g).values)
            rwb = oracles.quantize(oracles.random_walk_betweenness(g))
            assert oracles.spearman(cfb, rwb) == pytest.approx(1.0)

    def test_rwb_matches_oracle(self, atlas, atlas_weighted):
        for g in atlas + atlas_weighted:
            got = random_walk_betweenness(g).values
            want = oracles.random_walk_betweenness(g)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_per_component_scales_with_components(self):
        # 1251 disjoint 4-node paths: n = 5004 is past the dense cap, but
        # every component is solved on its own
        k = 1251
        g = build_graph([(4 * c + i, 4 * c + i + 1)
                         for c in range(k) for i in range(3)])
        p4 = path_graph(4)
        for metric in (current_flow_betweenness, current_flow_closeness):
            want = metric(p4).values
            got = metric(g, per_component=True).values
            assert got == pytest.approx(want * k, rel=1e-12)

    def test_rwb_p3_endpoint_convention(self, p3):
        got = random_walk_betweenness(p3).values
        assert got[1] == pytest.approx(1.0)
        assert got[0] == pytest.approx(2.0 / 3.0)

    def test_rwb_k3_uniform(self, k3):
        vals = random_walk_betweenness(k3).values
        assert max(vals) - min(vals) < 1e-12

    def test_cfc_equals_information(self, atlas_sample):
        for g in atlas_sample:
            if g.n < 2:
                continue
            cfc = current_flow_closeness(g).values
            info = information_centrality(g).values
            assert cfc == pytest.approx(info, abs=1e-6)

    def test_disconnected_needs_flag(self):
        g = build_graph([(0, 1), (2, 3)])
        with pytest.raises(UnsupportedGraphError):
            current_flow_betweenness(g)
        vals = current_flow_closeness(g, per_component=True).values
        assert len(vals) == 4

    def test_directed_rejected(self):
        g = build_graph([(0, 1)], directed=True)
        with pytest.raises(UnsupportedGraphError):
            current_flow_betweenness(g)


class TestCloseness:
    def test_p3_closeness(self, p3):
        assert closeness_family(p3).values == (1 / 3, 0.5, 1 / 3)

    def test_p3_residual(self, p3):
        assert closeness_family(p3, "residual").values == (0.75, 1.0, 0.75)

    def test_decay_delta(self, p3):
        got = closeness_family(p3, "residual",
                               MetricParams(delta_decay=0.1)).values
        assert got[0] == pytest.approx(0.1 + 0.01)

    def test_p3_eccentricity(self, p3):
        assert closeness_family(p3, "eccentricity").values == (0.5, 1.0, 0.5)

    def test_matches_floyd_warshall(self, atlas_sample):
        for g in atlas_sample:
            assert closeness_family(g).values == \
                pytest.approx(oracles.bf_closeness(g))
            assert closeness_family(g, "eccentricity").values == \
                pytest.approx(oracles.bf_eccentricity(g))

    def test_strict_zero_vs_reachable_only(self):
        g = build_graph([(0, 1), (2, 3)])
        strict = closeness_family(g).values
        assert strict == (0.0, 0.0, 0.0, 0.0)
        reach = closeness_family(g, reachable_only=True).values
        assert all(x > 0 for x in reach)

    def test_positive_iff_reaches_somebody(self):
        g = build_graph([(0, 1)], isolated=[0, 1, 2])
        vals = closeness_family(g, reachable_only=True).values
        assert vals[0] > 0 and vals[1] > 0 and vals[2] == 0.0

    def test_bavelas_is_closeness_share(self, p4):
        clo = closeness_family(p4).values
        bav = closeness_family(p4, "bavelas").values
        total = sum(clo)
        assert bav == pytest.approx(tuple(x / total for x in clo))

    def test_straightness_collinear(self):
        coords = {i: (float(i), 0.0) for i in range(4)}
        g = build_graph([(0, 1), (1, 2), (2, 3)], coordinates=coords)
        assert closeness_family(g, "straightness").values == \
            pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_straightness_needs_coords(self, p3):
        with pytest.raises(GraphInputError):
            closeness_family(p3, "straightness")

    def test_directed_uses_out_distances(self):
        g = build_graph([(0, 1), (1, 2)], directed=True)
        vals = closeness_family(g, reachable_only=True).values
        assert vals[0] == pytest.approx(1.0 / 3.0)
        assert vals[2] == 0.0


class TestInformation:
    def test_k3_uniform(self, k3):
        vals = information_centrality(k3).values
        assert max(vals) - min(vals) < 1e-12

    def test_p3_middle_highest(self, p3):
        vals = information_centrality(p3).values
        assert vals[1] > vals[0]

    def test_closed_form_identity(self, atlas_sample):
        for g in atlas_sample[:30]:
            if g.n < 2:
                continue
            a = g.adjacency_matrix()
            c = np.linalg.inv(np.diag(a.sum(axis=1)) - a
                              + np.ones((g.n, g.n)))
            closed = [1.0 / (c[v, v] + np.trace(c) / g.n - 2.0 / g.n ** 2)
                      for v in range(g.n)]
            assert information_centrality(g).values == \
                pytest.approx(closed, abs=1e-9)

    def test_disconnected_rejected(self):
        with pytest.raises(UnsupportedGraphError):
            information_centrality(build_graph([(0, 1), (2, 3)]))


class TestImprovedMethod:
    def test_k4_complete_tie(self, k4):
        ranked = improved_method(k4)
        assert [(s, t) for _, s, t in ranked] == [(3, 3.0)] * 4

    def test_k4_pendant_order(self):
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                         (3, 4)])
        ranked = improved_method(g)
        assert ranked[-1][0] == 4          # pendant ranked last
        assert all(v != 4 for v, _, _ in ranked[:4])

    def test_ring_all_tied(self):
        ranked = improved_method(cycle_graph(6))
        assert len({(s, t) for _, s, t in ranked}) == 1
        assert [v for v, _, _ in ranked] == list(range(6))


class TestGeneralizedWeighted:
    def test_alpha0_equals_unweighted(self, atlas_weighted):
        for g in atlas_weighted[:30]:
            unit = build_graph(
                [(v, u) for v in range(g.n) for u, _ in g.adj[v] if v < u],
                isolated=range(g.n))
            for metric, base in (
                    ("gdsp-degree", [float(d) for d in unit.degrees()]),
                    ("gdsp-closeness", closeness_family(unit).values),
                    ("gdsp-betweenness", betweenness_family(unit).values)):
                got = generalized_weighted_family(g, metric, 0.0).values
                assert got == pytest.approx(base)

    def test_alpha1_equals_weighted(self, atlas_weighted):
        from centnet.graph import graph_from_arcs
        for g in atlas_weighted[:15]:
            arcs = [(v, u, 1.0 / w) for v in range(g.n)
                    for u, w in g.adj[v] if v < u]
            inv = graph_from_arcs(g.n, False, arcs)
            got = generalized_weighted_family(g, "gdsp-closeness", 1.0).values
            assert got == pytest.approx(closeness_family(inv).values)

    def test_unit_weights_alpha_invariant(self, p4):
        for metric in ("gdsp-degree", "gdsp-closeness", "gdsp-betweenness"):
            a = generalized_weighted_family(p4, metric, 0.0).values
            b = generalized_weighted_family(p4, metric, 0.7).values
            c = generalized_weighted_family(p4, metric, 1.0).values
            assert a == pytest.approx(b) and b == pytest.approx(c)

    def test_gdsp_degree_interpolates(self):
        g = build_graph([(0, 1, 4.0), (0, 2, 1.0)])
        got = generalized_weighted_family(g, "gdsp-degree", 0.5).values
        assert got[0] == pytest.approx((2.0 ** 0.5) * (5.0 ** 0.5))


class TestWeightNeighborhood:
    def test_alpha0_degree_benchmark_p3(self, p3):
        got = weight_neighborhood(p3, "degree", 0.0).values
        assert got[1] == 4.0

    def test_regular_uniform(self, c4):
        for benchmark in ("degree", "betweenness", "k-shell"):
            vals = weight_neighborhood(c4, benchmark, 0.7).values
            assert max(vals) - min(vals) < 1e-9

    def test_alpha1_star_center_max(self, s5):
        vals = weight_neighborhood(s5, "degree", 1.0).values
        assert vals[0] == max(vals)
        assert all(vals[0] > vals[i] for i in range(1, 5))

    def test_unknown_benchmark(self, p3):
        with pytest.raises(GraphInputError):
            weight_neighborhood(p3, "nope", 0.5)


class TestAhp:
    def test_star_center_first(self, s5):
        vals = ahp_centrality(s5, MetricParams(si_beta=1.0, si_steps=1,
                                               si_runs=3)).values
        assert vals[0] == max(vals)

    def test_shape_and_finite(self, p5):
        vals = ahp_centrality(p5, MetricParams(si_runs=5)).values
        assert len(vals) == 5
        assert all(math.isfinite(x) for x in vals)

    def test_deterministic_given_seed(self, p5):
        a = ahp_centrality(p5, MetricParams(si_runs=5, rng_seed=3)).values
        b = ahp_centrality(p5, MetricParams(si_runs=5, rng_seed=3)).values
        assert a == b

    def test_degenerate_column_named(self):
        g = build_graph([(0, 1)])
        with pytest.raises(GraphInputError) as err:
            ahp_centrality(g, MetricParams(si_runs=2))
        assert "betweenness" in str(err.value)
