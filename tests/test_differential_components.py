"""Masked components on seeded graphs (n = 2000) against the slicing
reference in oracles.py: csgraph on the subgraph that the mask slices out.

The variants: Barabasi-Albert edges; the same edges randomly oriented,
in weak and strong mode; the disconnected union of two 1000-node draws;
and a sparse Erdos-Renyi draw with isolated nodes. Each runs ten masks:
the prefixes of the degree order that a targeted attack removes, and
random masks of three densities.
"""

import random

import numpy as np
import pytest

import oracles
from _synth import ba_edges, er_edges
from centnet import build_graph, components, rank_targets
from centnet.local import degree_family

N = 2000
SEEDS = range(2)
PREFIXES = (0.0, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
DENSITIES = (0.1, 0.5, 0.9)


def _variant(kind, seed):
    """(edge list, directed) of a seeded variant."""
    rng = random.Random(seed)
    if kind == "union":
        half = N // 2
        return ba_edges(half, 3, seed) + [
            (u + half, v + half) for u, v in ba_edges(half, 3, seed + 1)
        ], False
    if kind == "er":
        return er_edges(N, 0.0008, seed), False
    edges = ba_edges(N, 3, seed)
    if kind == "directed":
        return [(v, u) if rng.random() < 0.5 else (u, v)
                for u, v in edges], True
    return edges, False


def _masks(g, seed):
    """Degree-order prefixes removed, then random masks."""
    order = rank_targets(degree_family(g))
    for phi in PREFIXES:
        mask = bytearray(b"\x01") * g.n
        for v in order[:round(phi * g.n)]:
            mask[v] = 0
        yield mask
    rng = np.random.default_rng(seed)
    for density in DENSITIES:
        yield (rng.random(g.n) < density).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind, mode", [
    ("ba", "weak"), ("directed", "weak"), ("directed", "strong"),
    ("union", "weak"), ("er", "weak"),
])
def test_matches_slicing(kind, mode, seed):
    edges, directed = _variant(kind, seed)
    g = build_graph(edges, directed=directed, isolated=range(N))
    assert g.n == N
    for mask in [None, *_masks(g, seed)]:
        labels, sizes, giant = oracles.slice_components(g, mode, mask)
        lab = components(g, mode, mask=mask)
        assert lab.labels.tolist() == labels.tolist()
        assert lab.sizes == sizes
        assert lab.giant_size == giant
