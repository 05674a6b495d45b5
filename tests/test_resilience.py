import math
import random

import pytest

import oracles
from _synth import ba_edges, er_edges, er_graph
from centnet import (
    AttackOutcome,
    AttackPlan,
    GraphInputError,
    build_graph,
    components,
    infectious_attack,
    mean_infected_per_attacker,
    non_infectious_attack,
    rank_targets,
    rgc,
    run_experiment,
)
from centnet.params import score_vector


class TestRankTargets:
    def test_basic(self):
        assert rank_targets(score_vector("x", [3, 1, 2])) == [0, 2, 1]

    def test_ties_by_id(self):
        assert rank_targets(score_vector("x", [1, 1, 1])) == [0, 1, 2]

    def test_star_degree(self, s5):
        from centnet.local import degree_family
        assert rank_targets(degree_family(s5))[0] == 0


class TestNonInfectious:
    def test_phi_zero_always_emitted(self, p5):
        rows = non_infectious_attack(p5, ordering=list(range(5)),
                                     phi_grid=[0.4])
        assert rows[0].phi == 0.0
        assert rows[0].giant_fraction == 1.0

    def test_star_top1(self, s5):
        rows = non_infectious_attack(s5, ordering=[0, 1, 2, 3, 4],
                                     phi_grid=[0.2])
        assert rows[-1].giant_fraction == pytest.approx(0.2)

    def test_phi_one_gives_zero(self, p4):
        rows = non_infectious_attack(p4, ordering=[0, 1, 2, 3],
                                     phi_grid=[1.0])
        assert rows[-1].giant_fraction == 0.0

    def test_monotone_in_phi(self, atlas_sample):
        grid = [0.1, 0.25, 0.5, 0.75, 1.0]
        for g in atlas_sample[:30]:
            if g.n < 3:
                continue
            order = list(range(g.n))
            rows = non_infectious_attack(g, ordering=order, phi_grid=grid)
            fracs = [r.giant_fraction for r in rows]
            assert all(a >= b - 1e-12 for a, b in zip(fracs, fracs[1:]))

    def test_seed_set_mode(self, s5):
        rows = non_infectious_attack(s5, seed_set=[0])
        assert rows[-1].giant_fraction == pytest.approx(0.2)

    def test_bad_ordering(self, p3):
        with pytest.raises(GraphInputError):
            non_infectious_attack(p3, ordering=[0, 1], phi_grid=[0.5])

    @pytest.mark.parametrize("ordering", [
        [0, 0, 0, 0, 0], [1, 0, 2, 3, 3], [-1, 0, 1, 2, 3], [5, 0, 1, 2, 3],
        [0.0, 1, 2, 3, 4]])
    def test_ordering_must_be_a_permutation(self, p5, ordering):
        # [0, 0, 0, 0, 0] at phi 0.6 used to report seeds=3 with only
        # node 0 removed
        with pytest.raises(GraphInputError):
            non_infectious_attack(p5, ordering=ordering, phi_grid=[0.6])

    @pytest.mark.parametrize("seed_set", [{-1}, [5], [0, 0]])
    def test_seed_set_ids_are_checked(self, p5, seed_set):
        # {-1} used to remove node 4 and [5] raised a bare IndexError
        with pytest.raises(GraphInputError):
            non_infectious_attack(p5, seed_set=seed_set)


class TestInfectious:
    def test_k3_beta1(self, k3):
        out = infectious_attack(k3, [0], 1.0, rng_seed=1)
        assert out.giant_fraction == 0.0
        assert out.infected_total == 3

    def test_beta0_removes_only_seeds(self, k3):
        out = infectious_attack(k3, [0], 0.0, rng_seed=1)
        assert out.giant_fraction == pytest.approx(2.0 / 3.0)
        assert out.infected_total == 1

    def test_bit_identical_replay(self):
        g = er_graph(40, 0.1, 2)
        a = infectious_attack(g, [0, 3], 0.3, rng_seed=9)
        b = infectious_attack(g, [0, 3], 0.3, rng_seed=9)
        assert a.node_states == b.node_states
        assert a.giant_fraction == b.giant_fraction
        c = infectious_attack(g, [0, 3], 0.3, rng_seed=10)
        assert (c.node_states != a.node_states or
                c.infected_total == a.infected_total)

    def test_accounting_identity(self):
        g = er_graph(50, 0.08, 5)
        for seed in range(10):
            out = infectious_attack(g, [1, 2, 7], 0.4, rng_seed=seed)
            survivors = sum(1 for s in out.node_states if s == "S")
            assert survivors + out.infected_total == g.n

    def test_single_attempt_immunity(self):
        # beta=1 infects the whole component in waves; a repeat run with
        # beta just below 1 can leave immune survivors but never retries
        g = build_graph([(0, 1), (1, 2), (1, 3)])
        out = infectious_attack(g, [0], 1.0, rng_seed=0)
        assert out.infected_total == 4

    def test_directed_out_edges_only(self):
        g = build_graph([(0, 1), (1, 2), (3, 0)], directed=True)
        out = infectious_attack(g, [0], 1.0, rng_seed=0)
        labels = out.node_states
        assert labels[0] == "R" and labels[1] == "R" and labels[2] == "R"
        assert labels[3] == "S"      # upstream node never reached

    def test_needs_seeds(self, k3):
        with pytest.raises(GraphInputError):
            infectious_attack(k3, [], 0.5)

    @pytest.mark.parametrize("seeds", [[-1], [0, 5], [2.5]])
    def test_seed_ids_are_checked(self, p5, seeds):
        # [-1] used to seed node 4 and [0, 5] raised a bare IndexError
        with pytest.raises(GraphInputError):
            infectious_attack(p5, seeds, 1.0)


class TestInfectedPerAttacker:
    def test_k3_full_cascade(self, k3):
        out = infectious_attack(k3, [0], 1.0, rng_seed=0)
        assert mean_infected_per_attacker(out) == 2.0

    def test_beta0(self, k3):
        out = infectious_attack(k3, [0], 0.0, rng_seed=0)
        assert mean_infected_per_attacker(out) == 0.0

    def test_two_duds(self):
        g = build_graph([(0, 1), (2, 3)])
        out = infectious_attack(g, [0, 2], 0.0, rng_seed=0)
        assert mean_infected_per_attacker(out) == 0.0

    def test_zero_seeds_rejected(self):
        out = AttackOutcome("x", 0.0, 0, 1.0, seeds=0, infected_total=0)
        with pytest.raises(GraphInputError):
            mean_infected_per_attacker(out)

    def test_non_infectious_rejected(self):
        out = AttackOutcome("x", 0.0, 0, 1.0, seeds=3)
        with pytest.raises(GraphInputError):
            mean_infected_per_attacker(out)


class TestRgc:
    def test_no_change(self):
        assert rgc(2.0, 2.0) == 0.0

    def test_total_loss(self):
        assert rgc(5.0, 0.0) == 1.0

    def test_negative_allowed(self):
        assert rgc(2.0, 3.0) == -0.5

    def test_zero_baseline(self):
        with pytest.raises(GraphInputError):
            rgc(0.0, 1.0)


class TestRunExperiment:
    def test_non_infectious_rng_free(self, s5):
        plan_a = AttackPlan("non-infectious", ["degree"], [0.2, 0.4],
                            runs=2, rng_seed=1)
        plan_b = AttackPlan("non-infectious", ["degree"], [0.2, 0.4],
                            runs=2, rng_seed=999)
        ra = run_experiment(plan_a, s5)
        rb = run_experiment(plan_b, s5)
        assert ra.summary == rb.summary

    def test_random_reproducible(self):
        g = er_graph(30, 0.15, 7)
        plan = AttackPlan("random", [], [0.2, 0.5], runs=5, rng_seed=11)
        a = run_experiment(plan, g).summary
        b = run_experiment(AttackPlan("random", [], [0.2, 0.5], runs=5,
                                      rng_seed=11), g).summary
        assert a == b

    def test_metric_failure_recorded_run_continues(self, p4):
        plan = AttackPlan("non-infectious", ["clusterrank", "degree"],
                          [0.5], runs=1)
        res = run_experiment(plan, p4)
        assert len(res.errors) == 1
        assert res.errors[0][0] == "clusterrank"
        assert any(r.metric == "degree" for r in res.rows)

    def test_infectious_replicates(self):
        g = er_graph(40, 0.12, 3)
        plan = AttackPlan("infectious", ["degree"], [0.1], beta=0.3,
                          runs=4, rng_seed=5)
        res = run_experiment(plan, g)
        rows = [r for r in res.rows if r.phi > 0]
        assert len(rows) == 4
        assert len({r.run for r in rows}) == 4
        mean, std = res.summary[("degree", rows[0].phi)]
        assert 0.0 <= mean <= 1.0 and std >= 0.0

    def test_group_strategy_source(self, s5):
        plan = AttackPlan("non-infectious",
                          [{"strategy": "single-discount"}], [0.2], runs=1)
        res = run_experiment(plan, s5)
        row = [r for r in res.rows if r.phi > 0][0]
        assert row.giant_fraction == pytest.approx(0.2)

    def test_padded_strategy_is_reported(self, s5):
        # on a star, t_td 5 keeps every other node too close to the hub:
        # degree-distance stops infeasible after one seed, and the other
        # three of the four budget slots are filled in id order
        plan = AttackPlan("non-infectious",
                          [{"strategy": "degree-distance",
                            "params": {"t_td": 5}}, "degree"], [0.8],
                          runs=1)
        res = run_experiment(plan, s5)
        assert res.selections == [("degree-distance", "infeasible", 3)]

    def test_full_strategy_reports_no_padding(self, s5):
        plan = AttackPlan("infectious", [{"strategy": "single-discount"}],
                          [0.4], runs=2)
        res = run_experiment(plan, s5)
        assert res.selections == [("single-discount", "budget", 0)]

    def test_plan_validation(self):
        with pytest.raises(GraphInputError):
            AttackPlan("bogus", [], [0.1])
        with pytest.raises(GraphInputError):
            AttackPlan("infectious", [], [0.1], beta=1.5)
        with pytest.raises(GraphInputError):
            AttackPlan("infectious", [], [2.0])


def _sir_graphs():
    """Seeded graphs the cascade runs on: Barabasi-Albert edges turned at
    random, a disconnected union of two draws, and a sparse directed
    Erdos-Renyi draw with isolated nodes."""
    rng = random.Random(7)
    turned = [(v, u) if rng.random() < 0.5 else (u, v)
              for u, v in ba_edges(200, 3, 7)]
    union = ba_edges(100, 2, 8) + [(u + 100, v + 100)
                                   for u, v in ba_edges(100, 2, 9)]
    sparse = [(v, u) if rng.random() < 0.5 else (u, v)
              for u, v in er_edges(150, 0.02, 10)]
    return {"directed": build_graph(turned, directed=True),
            "disconnected": build_graph(union),
            "sparse": build_graph(sparse, directed=True,
                                  isolated=range(150))}


SIR_GRAPHS = _sir_graphs()


@pytest.mark.parametrize("kind", sorted(SIR_GRAPHS))
@pytest.mark.parametrize("beta", [0.0, 0.05, 0.5, 1.0])
def test_cascade_matches_the_loop(kind, beta):
    """The frontier rounds over the CSR arrays give the node-by-node
    loop's final states, count and giant exactly."""
    g = SIR_GRAPHS[kind]
    for run in range(5):
        seeds = random.Random(run).sample(range(g.n), 1 + 3 * run)
        out = infectious_attack(g, seeds, beta, rng_seed=run)
        states, ever = oracles.sir_cascade(g, seeds, beta, rng_seed=run)
        assert out.node_states == states
        assert out.infected_total == ever
        alive = [s == "S" for s in states]
        assert out.giant_fraction == \
            components(g, mask=alive).giant_size / g.n
