import math
import random
from itertools import combinations

import pytest

import oracles
from _synth import er_connected
from centnet import GraphInputError, SizeCapError, UnsupportedGraphError, \
    build_graph
from centnet.graphmetrics import (
    assortativity,
    centralization,
    cohesive_subgroup,
    degree_gc,
    delta_hyperbolicity,
    dispersion,
    global_clustering,
    local_assortativity,
    reciprocity,
)
from centnet.iterative import k_shell
from conftest import complete_graph, cycle_graph, path_graph, star_graph


class TestDispersion:
    def test_p3(self, p3):
        assert dispersion(p3).value == 8.0

    def test_k3(self, k3):
        assert dispersion(k3).value == 6.0

    def test_isolated_pair(self):
        g = build_graph([], isolated=[0, 1])
        got = dispersion(g)
        assert got.value == 0.0
        assert got.skipped_pairs == 2


class TestDegreeGC:
    def test_k3_raw_zero(self, k3):
        assert degree_gc(k3).value == 0.0

    def test_star_normalized_one(self, s5):
        assert degree_gc(s5, normalized=True).value == 1.0

    def test_star_raw(self, s5):
        assert degree_gc(s5).value == 24.0

    def test_small_n_rejected(self):
        with pytest.raises(GraphInputError):
            degree_gc(build_graph([(0, 1)]), normalized=True)


class TestCentralization:
    def test_star_extremes(self, s5):
        assert centralization(s5, "betweenness").value == \
            pytest.approx(1.0, abs=1e-12)
        assert centralization(s5, "closeness").value == \
            pytest.approx(1.0, abs=1e-12)
        assert centralization(s5, "flow-betweenness").value == \
            pytest.approx(1.0, abs=1e-12)

    def test_complete_zero(self, k4):
        for base in ("betweenness", "closeness", "flow-betweenness"):
            assert centralization(k4, base).value == pytest.approx(0.0)

    def test_unit_interval(self, atlas_sample):
        for g in atlas_sample[:50]:
            if g.n < 3:
                continue
            for base in ("betweenness", "closeness"):
                v = centralization(g, base).value
                assert -1e-12 <= v <= 1.0 + 1e-12

    def test_closeness_needs_connected(self):
        with pytest.raises(UnsupportedGraphError):
            centralization(build_graph([(0, 1), (2, 3)]), "closeness")


class TestReciprocity:
    def test_two_cycle(self):
        g = build_graph([(0, 1), (1, 0)], directed=True)
        assert reciprocity(g).value == 1.0

    def test_three_cycle(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)], directed=True)
        assert reciprocity(g).value == 0.0

    def test_mixed(self):
        g = build_graph([("a", "b"), ("b", "a"), ("b", "c")], directed=True)
        assert reciprocity(g).value == pytest.approx(2.0 / 3.0)

    def test_unit_interval(self):
        rng = random.Random(5)
        for seed in range(10):
            n = rng.randint(2, 9)
            edges = {(rng.randrange(n), rng.randrange(n))
                     for _ in range(3 * n)}
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                continue
            g = build_graph(edges, directed=True)
            assert 0.0 <= reciprocity(g).value <= 1.0

    def test_undirected_rejected(self, k3):
        with pytest.raises(UnsupportedGraphError):
            reciprocity(k3)


class TestCohesiveSubgroups:
    def test_k4_max_clique(self, k4):
        assert cohesive_subgroup(k4, "k-clique-max").value == (0, 1, 2, 3)

    def test_clique_with_tail(self):
        g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        assert cohesive_subgroup(g, "k-clique-max").value == (0, 1, 2)

    def test_p3_two_core_empty(self, p3):
        assert cohesive_subgroup(p3, "k-core", k=2).value == ()

    def test_k_core_matches_shell(self, atlas_sample):
        for g in atlas_sample[:60]:
            if g.n == 0:
                continue
            max_shell = max(k_shell(g).shell_index)
            if max_shell < 1:
                continue
            assert len(cohesive_subgroup(g, "k-core", k=max_shell).value) > 0
            if max_shell + 1 <= g.n:
                assert cohesive_subgroup(
                    g, "k-core", k=max_shell + 1).value == ()

    def test_k4_component(self, k4):
        assert cohesive_subgroup(k4, "k-component", k=3).value == (0, 1, 2, 3)

    def test_two_triangles_bridge(self):
        # two triangles joined by a cut vertex: 2-components are the triangles
        g = build_graph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        got = cohesive_subgroup(g, "k-component", k=2).value
        assert got in ((0, 1, 2), (2, 3, 4))

    def test_k_plex_k1_is_clique(self, k4):
        assert cohesive_subgroup(k4, "k-plex-max", k=1).value == (0, 1, 2, 3)

    def test_k_plex_relaxes(self, c4):
        # C4 has max clique 2, but the whole cycle is a 2-plex
        assert len(cohesive_subgroup(c4, "k-plex-max", k=2).value) == 4

    def test_k_exceeds_n(self, p3):
        assert cohesive_subgroup(p3, "k-core", k=9).value == ()

    def test_size_cap(self):
        g = er_connected(25, 0.3, 1)
        with pytest.raises(SizeCapError):
            cohesive_subgroup(g, "k-clique-max", size_cap=20)


class TestClusteringAndAssortativity:
    def test_global_clustering_extremes(self, k3, s5):
        assert global_clustering(k3).value == 1.0
        assert global_clustering(s5).value == 0.0

    def test_k4_minus_edge(self):
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert global_clustering(g).value == pytest.approx(5.0 / 6.0)

    def test_matches_census(self, atlas_sample):
        for g in atlas_sample[:50]:
            want = sum(oracles.bf_local_clustering(g)) / g.n
            assert global_clustering(g).value == pytest.approx(want)

    def test_p4_assortativity(self, p4):
        assert assortativity(p4).value == pytest.approx(-0.5)

    def test_star_perfectly_disassortative(self, s5):
        # hub-leaf edges only: excess degrees anti-correlate exactly
        assert assortativity(s5).value == pytest.approx(-1.0)

    def test_two_triangles_undefined(self):
        g = build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(GraphInputError):
            assortativity(g)

    def test_matches_ejk_oracle(self, atlas_sample):
        for g in atlas_sample[:60]:
            try:
                got = assortativity(g).value
            except GraphInputError:
                continue
            assert got == pytest.approx(oracles.bf_assortativity_ejk(g),
                                        abs=1e-9)

    def test_directed_modes(self):
        g = build_graph([(0, 1), (1, 2), (2, 0), (0, 2)], directed=True)
        for mode in ("directed-out-in", "in-in", "out-out"):
            v = assortativity(g, mode).value
            assert -1.0 <= v <= 1.0

    def test_directed_mode_needs_directed(self, p4):
        with pytest.raises(UnsupportedGraphError):
            assortativity(p4, "in-in")

    def test_unknown_mode_named(self, p4):
        # on an undirected graph this used to claim that the mode needs
        # a directed graph
        directed = build_graph([(0, 1), (1, 2), (2, 0)], directed=True)
        for g in (p4, directed):
            with pytest.raises(GraphInputError, match="bogus"):
                assortativity(g, "bogus")


class TestLocalAssortativity:
    def test_sums_to_global(self, atlas_sample):
        for g in atlas_sample[:60]:
            try:
                rho = assortativity(g).value
            except GraphInputError:
                continue
            local = local_assortativity(g).values
            assert sum(local) == pytest.approx(rho, abs=1e-6)

    def test_p4_orbits(self, p4):
        vals = local_assortativity(p4).values
        assert vals[0] == pytest.approx(vals[3])
        assert vals[1] == pytest.approx(vals[2])

    def test_shape(self, p5):
        assert len(local_assortativity(p5).values) == 5

    def test_zero_variance_rejected(self):
        g = build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(GraphInputError):
            local_assortativity(g)

    def test_star_sums_to_minus_one(self, s5):
        assert sum(local_assortativity(s5).values) == pytest.approx(-1.0)


class TestDeltaHyperbolicity:
    def test_tree_zero(self):
        tree = build_graph([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        got = delta_hyperbolicity(tree, sample_count=10 ** 6, rng_seed=0)
        assert got.value == 0.0
        assert got.details["mean_delta"] == 0.0

    def test_deterministic(self):
        g = er_connected(14, 0.3, 9)
        a = delta_hyperbolicity(g, sample_count=50, rng_seed=4)
        b = delta_hyperbolicity(g, sample_count=50, rng_seed=4)
        assert a.value == b.value
        assert a.details == b.details

    def test_exhaustive_matches_oracle(self, atlas_sample):
        for g in atlas_sample[:40]:
            if g.n < 3:
                continue
            total = math.comb(g.n, 3)
            got = delta_hyperbolicity(g, sample_count=total, rng_seed=0)
            assert got.value == oracles.bf_delta_hyperbolicity(g)
            assert got.details["triples"] == total

    def test_sampled_bounded_by_exhaustive(self):
        g = er_connected(12, 0.35, 3)
        full = delta_hyperbolicity(g, sample_count=math.comb(12, 3))
        for seed in range(5):
            sampled = delta_hyperbolicity(g, sample_count=30, rng_seed=seed)
            assert sampled.value <= full.value

    def test_cycle_known_value(self):
        # C6: the triple of pairwise-opposite... equally spaced nodes
        # has delta 1; no triple exceeds it
        got = delta_hyperbolicity(cycle_graph(6), sample_count=100,
                                  rng_seed=0)
        assert got.value == 1.0

    def test_disconnected_rejected(self):
        with pytest.raises(UnsupportedGraphError):
            delta_hyperbolicity(build_graph([(0, 1), (2, 3)]), 10, 0)
