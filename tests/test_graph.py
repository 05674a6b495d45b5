import math
import random

import numpy as np
import pytest

import oracles
from centnet import (
    ConvergenceError,
    GraphInputError,
    SingularMatrixError,
    SizeCapError,
    build_graph,
    components,
    max_flow,
    power_iteration,
    shortest_paths,
    solve_linear,
)
from centnet import graph, iterative
from centnet.globalmetrics import betweenness_family, information_centrality
from centnet.graph import DENSE_CAP, all_distances, spectral_radius, \
    traverse
from centnet.graphmetrics import delta_hyperbolicity
from centnet.iterative import eigen_family, subgraph_centrality
from conftest import complete_graph, path_graph, star_graph
from _synth import er_graph


class TestBuildGraph:
    def test_basic_undirected(self):
        g = build_graph([("a", "b"), ("b", "c")])
        assert g.n == 3 and g.m == 2
        assert not g.directed

    def test_directed_keeps_both_arcs(self):
        g = build_graph([("a", "b"), ("b", "a")], directed=True)
        assert g.n == 2 and g.m == 2

    def test_self_loop_dropped_with_warning_count(self):
        g = build_graph([("a", "a")])
        assert g.n == 1 and g.m == 0
        assert g.self_loops_dropped == 1

    def test_duplicates_collapse(self):
        g = build_graph([(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.duplicates_collapsed == 2

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph([(0, 1, -1.0)])
        with pytest.raises(GraphInputError):
            build_graph([(0, 1, 0.0)])

    @pytest.mark.parametrize("edges, index", [
        ([(1,)], 0), ([(1, 2, 3, 4)], 0), ([(1, 2, "x")], 0),
        ([(1, 2, None)], 0), ([([1], 2)], 0), ([(0, 1), 7], 1),
        ([(0, 1), (1, 2, "x"), (2, 3, -1.0)], 1),
        ([(0, 1), (1, 2, -1.0), ([2], 3)], 1),
        ([(0, 1, 2.0), (1, 2), (2, 3), (3, [4])], 3),
        ([(0, 1), (1, 2, 10 ** 400)], 1)])
    def test_malformed_edge_is_named(self, edges, index):
        # all but the eighth used to raise a bare ValueError or TypeError;
        # the first bad edge is named, whatever is wrong with it
        with pytest.raises(GraphInputError, match=f"^edge {index}[ :]"):
            build_graph(edges)

    @pytest.mark.parametrize("exc", [
        KeyError("k"), ValueError("v"), TypeError("t"),
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")])
    def test_iterator_error_propagates_unchanged(self, exc):
        def edges():
            yield (0, 1)
            raise exc
        with pytest.raises(type(exc)) as err:
            build_graph(edges())
        assert err.value is exc

    def test_node_without_coordinates(self):
        with pytest.raises(GraphInputError, match="node 2"):
            build_graph([(1, 2)], coordinates={1: (0, 0)})

    @pytest.mark.parametrize("pair", [("x", 1.0), 5, None])
    def test_non_numeric_coordinates(self, pair):
        with pytest.raises(GraphInputError, match="node 2"):
            build_graph([(1, 2)], coordinates={1: (0, 0), 2: pair})

    def test_unhashable_isolated_label(self):
        with pytest.raises(GraphInputError):
            build_graph([(0, 1)], isolated=[[2]])

    def test_first_appearance_ids(self):
        g = build_graph([("z", "y"), ("y", "x")])
        assert g.label_of(0) == "z" and g.label_of(2) == "x"
        assert g.id_of("x") == 2

    def test_undirected_symmetry(self):
        g = er_graph(12, 0.3, 5)
        for v in range(g.n):
            for u, w in g.adj[v]:
                back = dict(g.adj[u])
                assert back[v] == w

    def test_isolated_nodes_only_when_declared(self):
        g = build_graph([(0, 1)], isolated=[0, 1, 2])
        assert g.n == 3
        assert g.degree(2) == 0


class TestShortestPaths:
    def test_p3(self, p3):
        sp = shortest_paths(p3, 0)
        assert sp.dist == [0.0, 1.0, 2.0]

    def test_c4_sigma(self, c4):
        sp = shortest_paths(c4, 0)
        at1 = sorted(v for v in range(4) if sp.dist[v] == 1.0)
        at2 = [v for v in range(4) if sp.dist[v] == 2.0]
        assert len(at1) == 2 and len(at2) == 1
        assert sp.sigma[at2[0]] == 2

    def test_cap(self, p3):
        sp = shortest_paths(p3, 0, cap=1.0)
        assert sp.dist[2] == math.inf
        assert sp.sigma[2] == 0

    def test_invalid_source(self, p3):
        with pytest.raises(GraphInputError):
            shortest_paths(p3, 9)

    def test_unreachable_marked_infinite(self):
        g = build_graph([(0, 1), (2, 3)])
        sp = shortest_paths(g, 0)
        assert sp.dist[2] == math.inf

    def test_weighted_dijkstra_ties(self):
        # two equal-length weighted routes keep both geodesics
        g = build_graph([(0, 1, 1.0), (1, 3, 1.0), (0, 2, 0.5),
                         (2, 3, 1.5)])
        sp = shortest_paths(g, g.id_of(0))
        t = g.id_of(3)
        assert sp.dist[t] == 2.0
        assert sp.sigma[t] == 2

    def test_tied_geodesics_of_different_hop_counts(self):
        # the direct arc, s-a-t and s-a-b-t all have length 2
        g = build_graph([("s", "t", 2.0), ("s", "a", 1.0), ("a", "t", 1.0),
                         ("a", "b", 0.5), ("b", "t", 0.5)])
        sp = shortest_paths(g, g.id_of("s"))
        assert sp.dist[g.id_of("t")] == 2.0
        assert sp.sigma[g.id_of("t")] == 3

    def test_weight_lost_in_a_path_sum_raises(self):
        # 1e17 + 1 == 1e17 in float64, so b ties a and has no shortest-path
        # predecessor to count its paths from
        g = build_graph([("s", "a", 1e17), ("a", "b", 1.0)])
        sp = shortest_paths(g, g.id_of("s"))
        assert sp.dist[g.id_of("b")] == 1e17
        with pytest.raises(GraphInputError, match="float64 precision"):
            sp.sigma
        with pytest.raises(GraphInputError, match="float64 precision"):
            betweenness_family(g)

    def test_sweep_follows_the_observed_depth(self):
        # the level sweep pays one full-width pass per level, so a block
        # deeper than it goes takes the distance-ordered sweep; so does a
        # lone source
        def sweeps(g, sources):
            return [type(t).__name__ for t in traverse(g, sources)]
        shallow = complete_graph(6)
        deep = build_graph([(v, (v + 1) % 200) for v in range(200)])
        assert set(sweeps(shallow, range(6))) == {"_LevelSweep"}
        assert set(sweeps(deep, range(200))) == {"_OrderedSweep"}
        assert sweeps(shallow, [0]) == ["_OrderedSweep"]

    def test_dijkstra_ties_are_relative(self):
        # route sums that are equal in exact arithmetic tie at weights
        # near 1e6, where they differ by rounding far above 1e-12 ...
        big = build_graph([("s", "a", 1000000.1), ("a", "t", 1000000.2),
                           ("s", "b", 1000000.3), ("b", "t", 1000000.0)])
        # ... and genuinely different sums near 1e-9 do not tie
        small = build_graph([("s", "a", 1e-9), ("a", "t", 1e-9),
                             ("s", "b", 1e-9), ("b", "t", 1.0005e-9)])
        for g, sigma in ((big, 2), (small, 1)):
            sp = shortest_paths(g, g.id_of("s"))
            assert sp.sigma[g.id_of("t")] == sigma

    def test_sigma_matches_path_enumeration(self, atlas_sample):
        for g in atlas_sample:
            dist = oracles.floyd_warshall(g)
            sp = shortest_paths(g, 0)
            for t in range(1, g.n):
                paths = oracles.all_shortest_path_lists(g, 0, t, dist)
                assert sp.sigma[t] == len(paths)

    def test_directed_uses_out_edges(self):
        g = build_graph([(0, 1), (1, 2)], directed=True)
        assert shortest_paths(g, 0).dist == [0.0, 1.0, 2.0]
        assert shortest_paths(g, 2).dist[0] == math.inf
        assert shortest_paths(g, 2, reverse=True).dist == [2.0, 1.0, 0.0]


class TestComponents:
    def test_two_disjoint_edges(self):
        g = build_graph([(0, 1), (2, 3)])
        lab = components(g)
        assert lab.giant_size == 2
        assert sorted(lab.sizes) == [2, 2]

    def test_directed_cycle_strong(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)], directed=True)
        assert components(g, "strong").giant_size == 3

    def test_directed_path_strong_vs_weak(self):
        g = build_graph([(0, 1), (1, 2)], directed=True)
        assert components(g, "weak").giant_size == 3
        assert components(g, "strong").giant_size == 1

    def test_empty(self):
        g = build_graph([], isolated=[])
        assert components(g).giant_size == 0

    def test_strong_on_undirected_same_as_weak(self, p4):
        assert components(p4, "strong").sizes == components(p4, "weak").sizes

    def test_sizes_sum_to_n(self, atlas_sample):
        rng = random.Random(2)
        for g in atlas_sample:
            lab = components(g)
            assert sum(lab.sizes) == g.n
        for seed in range(20):
            n = rng.randint(2, 12)
            edges = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(1, 2 * n))]
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                continue
            g = build_graph(edges, directed=True, isolated=range(n))
            for mode in ("weak", "strong"):
                lab = components(g, mode)
                assert sum(lab.sizes) == g.n

    def test_mask(self, s5):
        lab = components(s5, mask=[False, True, True, True, True])
        assert lab.giant_size == 1

    @pytest.mark.parametrize("length", [4, 6])
    def test_mask_of_wrong_length(self, length):
        g = build_graph([(0, 1), (1, 2), (3, 4)])
        with pytest.raises(GraphInputError, match="mask"):
            components(g, mask=[True] * length)

    def test_mask_types_agree(self, s5):
        want = components(s5, mask=[True, False, True, True, True])
        for mask in (bytearray([1, 0, 1, 1, 1]),
                     np.array([1, 0, 1, 1, 1], dtype=bool)):
            lab = components(s5, mask=mask)
            assert lab.labels.tolist() == want.labels.tolist()
            assert lab.sizes == want.sizes == [4]


class TestMaxFlow:
    def test_p3(self, p3):
        res = max_flow(p3, 0, 2)
        assert res.value == 1
        assert res.throughflow[1] == 1.0

    def test_k4_pairs(self, k4):
        for s in range(4):
            for t in range(4):
                if s != t:
                    assert max_flow(k4, s, t).value == 3

    def test_disconnected_zero(self):
        g = build_graph([(0, 1), (2, 3)])
        res = max_flow(g, 0, 3)
        assert res.value == 0
        assert res.edge_flow == {}
        assert [type(x) for x in res.throughflow] == [float] * 4

    def test_s_equals_t_error(self, p3):
        with pytest.raises(GraphInputError):
            max_flow(p3, 1, 1)

    def test_endpoint_throughflow_equals_value(self, k4):
        res = max_flow(k4, 0, 2)
        assert res.throughflow[0] == res.value
        assert res.throughflow[2] == res.value

    def test_matches_min_cut_on_corpus(self, atlas_sample):
        for g in atlas_sample:
            if g.n < 2:
                continue
            assert max_flow(g, 0, g.n - 1).value == \
                oracles.bf_min_edge_cut(g, 0, g.n - 1)

    def test_min_cut_directed(self):
        rng = random.Random(7)
        for seed in range(15):
            n = rng.randint(3, 7)
            edges = {(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(2, 3 * n))}
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                continue
            g = build_graph(edges, directed=True, isolated=range(n))
            assert max_flow(g, 0, n - 1).value == \
                oracles.bf_min_edge_cut(g, 0, n - 1)

    def test_deterministic(self, k4):
        a = max_flow(k4, 0, 3)
        b = max_flow(k4, 0, 3)
        assert a.throughflow == b.throughflow
        assert a.edge_flow == b.edge_flow


class TestPowerIteration:
    def test_k3_uniform(self, k3):
        a = k3.adjacency_matrix()
        lam, vec = power_iteration(lambda x: a @ x, np.ones(3))
        assert lam == pytest.approx(2.0, abs=1e-8)
        assert np.allclose(vec, np.full(3, 1 / math.sqrt(3)), atol=1e-6)

    def test_c4_regular(self, c4):
        a = c4.adjacency_matrix() + np.eye(4)
        lam, vec = power_iteration(lambda x: a @ x, np.ones(4))
        assert lam - 1 == pytest.approx(2.0, abs=1e-8)
        assert np.allclose(vec, 0.5, atol=1e-6)

    def test_star_against_dense_eigensolve(self, s5):
        a = s5.adjacency_matrix() + np.eye(5)
        lam, vec = power_iteration(lambda x: a @ x, np.ones(5))
        evals, evecs = np.linalg.eigh(s5.adjacency_matrix())
        assert lam - 1 == pytest.approx(evals[-1], abs=1e-8)
        oracle = np.abs(evecs[:, -1])
        assert np.allclose(np.abs(vec), oracle, atol=1e-6)
        assert vec[0] == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_requires_positive_init(self, k3):
        a = k3.adjacency_matrix()
        with pytest.raises(GraphInputError):
            power_iteration(lambda x: a @ x, np.array([1.0, 0.0, 1.0]))

    def test_max_iter_error_carries_residual(self, c4):
        a = c4.adjacency_matrix()   # periodic: oscillates unshifted
        with pytest.raises(ConvergenceError) as err:
            power_iteration(lambda x: a @ x,
                            np.array([1.0, 2.0, 1.0, 2.0]), tol=1e-14,
                            max_iter=7)
        assert err.value.residual is not None

    def test_residual_invariant(self):
        rng = random.Random(11)
        for seed in range(10):
            g = er_graph(rng.randint(4, 10), 0.5, seed + 40)
            a = g.adjacency_matrix() + np.eye(g.n)
            tol = 1e-10
            lam, vec = power_iteration(lambda x, a=a: a @ x,
                                       np.ones(g.n), tol=tol)
            assert np.max(np.abs(a @ vec - lam * vec)) < 10 * tol * max(lam, 1)


class TestSolveLinear:
    def test_identity(self):
        b = np.array([3.0, -1.0, 0.5])
        assert np.allclose(solve_linear(np.eye(3), b), b)

    def test_p3_cmatrix_inverse_multiplies_back(self, p3):
        a = p3.adjacency_matrix()
        c = np.diag(a.sum(axis=1)) - a + np.ones((3, 3))
        inv = solve_linear(c)
        assert np.allclose(c @ inv, np.eye(3), atol=1e-10)

    def test_singular_named_pivot(self):
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(np.zeros((3, 3)), np.ones(3))
        assert err.value.pivot is not None

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(20, 20)) + 20 * np.eye(20)
        b = rng.normal(size=20)
        x = solve_linear(m, b)
        assert np.max(np.abs(m @ x - b)) < 1e-8 * max(np.max(np.abs(b)), 1)


class TestDenseCap:
    """Dense paths refuse n > DENSE_CAP with SizeCapError before they
    allocate an n x n matrix."""

    big = DENSE_CAP + 1

    def test_adjacency_matrix(self):
        with pytest.raises(SizeCapError):
            path_graph(self.big).adjacency_matrix()

    def test_sparse_adjacency_is_uncapped(self):
        a = path_graph(self.big).adjacency()
        assert a.shape == (self.big, self.big) and a.nnz == 2 * self.big - 2

    def test_solve_linear(self):
        m = np.broadcast_to(np.float64(1.0), (self.big, self.big))
        with pytest.raises(SizeCapError):
            solve_linear(m, np.ones(self.big))

    def test_information(self):
        with pytest.raises(SizeCapError):
            information_centrality(path_graph(self.big))

    def test_subgraph(self):
        with pytest.raises(SizeCapError):
            subgraph_centrality(path_graph(self.big))

    def test_katz_before_spectral_radius(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("spectral radius computed past the cap")
        monkeypatch.setattr(iterative, "spectral_radius", fail)
        for directed in (False, True):
            g = build_graph([(i, i + 1) for i in range(self.big - 1)],
                            directed=directed)
            with pytest.raises(SizeCapError):
                eigen_family(g, "katz")

    def test_distances_before_traversal(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("traversed past the cap")
        monkeypatch.setattr(graph, "traverse", fail)
        g = path_graph(self.big)
        with pytest.raises(SizeCapError):
            all_distances(g)
        with pytest.raises(SizeCapError):
            delta_hyperbolicity(g)

    def test_directed_spectral_radius(self):
        g = build_graph([(i, i + 1) for i in range(self.big - 1)],
                        directed=True)
        with pytest.raises(SizeCapError):
            spectral_radius(g)

    def test_undirected_spectral_radius_is_sparse(self):
        assert spectral_radius(star_graph(self.big)) == \
            pytest.approx(math.sqrt(self.big - 1), rel=1e-9)


def test_phone_book_shapes():
    # sanity: named fixture helpers build what they claim
    assert path_graph(5).m == 4
    assert star_graph(5).degree(0) == 4
    assert complete_graph(4).m == 6
