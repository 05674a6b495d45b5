"""Non-infectious attack rows by block contraction against the per-point
mask loop in oracles.py, on seeded graphs (n = 2000).

The graphs: Barabasi-Albert edges; the same edges randomly oriented,
whose weak components the attack reads; and the disconnected union of
two 900-node draws with 200 isolated nodes. Each runs the degree order,
a seeded random order and seed sets (prefixes of the degree order) on
the 21-point grid, on a grid whose values round to the same removal
count, and on phi = 1.0. A one-node graph runs the same cases.
"""

import random

import pytest

import oracles
from _synth import ba_edges
from centnet import build_graph, non_infectious_attack, rank_targets
from centnet.local import degree_family

N = 2000
SEEDS = range(2)
GRIDS = {
    "21-point": [i / 40 for i in range(21)],
    # at n = 2000: 0.0001 and 0.0004 remove 1 node, 0.0996 to 0.1
    # remove 200, 0.5 and 0.49951 remove 1000
    "repeated-k": [0.0001, 0.0004, 0.0996, 0.0998, 0.1, 0.49951, 0.5],
    "phi-one": [1.0],
}


def _graph(kind, seed):
    if kind == "union":
        half = 900
        edges = ba_edges(half, 3, seed) + [
            (u + half, v + half) for u, v in ba_edges(half, 3, seed + 1)]
        return build_graph(edges, isolated=range(N))
    edges = ba_edges(N, 3, seed)
    if kind == "oriented":
        rng = random.Random(seed)
        return build_graph([(v, u) if rng.random() < 0.5 else (u, v)
                            for u, v in edges], directed=True)
    return build_graph(edges)


def _rows(g, **kwargs):
    return [(r.phi, r.seeds, r.giant_fraction)
            for r in non_infectious_attack(g, **kwargs)]


def _check(g, order):
    for grid in GRIDS.values():
        assert _rows(g, ordering=order, phi_grid=grid) == \
            oracles.non_infectious_rows(g, ordering=order, phi_grid=grid)
    for size in sorted({0, 1, g.n // 10, g.n // 2, g.n}):
        seeds = order[:size]
        assert _rows(g, seed_set=seeds) == \
            oracles.non_infectious_rows(g, seed_set=seeds)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["ba", "oriented", "union"])
@pytest.mark.parametrize("source", ["degree", "random"])
def test_matches_the_mask_loop(kind, seed, source):
    g = _graph(kind, seed)
    assert g.n == N
    if source == "degree":
        order = rank_targets(degree_family(g))
    else:
        order = list(range(N))
        random.Random(seed).shuffle(order)
    _check(g, order)


def test_one_node():
    _check(build_graph([], isolated=[0]), [0])
