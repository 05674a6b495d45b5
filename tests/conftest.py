import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from centnet import build_graph, graph  # noqa: E402
from centnet import io as cio  # noqa: E402


def _atlas_connected():
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for ag in graph_atlas_g():
        if ag.number_of_nodes() == 0 or not nx.is_connected(ag):
            continue
        edges = sorted(tuple(sorted(e)) for e in ag.edges())
        out.append(build_graph(edges, isolated=range(ag.number_of_nodes())))
    return out


@pytest.fixture(scope="session")
def atlas():
    """All 996 connected undirected graphs with n <= 7."""
    return _atlas_connected()


@pytest.fixture(scope="session")
def atlas_sample(atlas):
    """Deterministic spread of ~120 corpus graphs for mid-cost checks."""
    picks = [g for i, g in enumerate(atlas) if i % 8 == 0]
    return picks


@pytest.fixture(scope="session")
def atlas_weighted(atlas_sample):
    """Corpus graphs re-dressed with seeded random weights."""
    out = []
    for i, g in enumerate(atlas_sample):
        rng = random.Random(1000 + i)
        edges = []
        for v in range(g.n):
            for u, _ in g.adj[v]:
                if v < u:
                    edges.append((v, u, round(rng.uniform(0.5, 3.0), 3)))
        out.append(build_graph(edges, isolated=range(g.n)))
    return out


@pytest.fixture
def small_blocks(monkeypatch):
    """A block budget of 64 entries, so that on a few hundred nodes the
    common-neighbour kernel, the ball sums of collective influence and
    volume, and `traverse` each cut many blocks."""
    monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 64)


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 4 characters and the rest of their last line, so that
    `parse_edge_list` reads a file of a few lines in many chunks."""
    monkeypatch.setattr(cio, "_CHUNK_CHARS", 4)


def path_graph(k):
    return build_graph([(i, i + 1) for i in range(k - 1)])


def cycle_graph(k):
    return build_graph([(i, (i + 1) % k) for i in range(k)])


def star_graph(k):
    """k nodes total: center 0 plus k-1 leaves."""
    return build_graph([(0, i) for i in range(1, k)])


def complete_graph(k):
    return build_graph([(i, j) for i in range(k) for j in range(i + 1, k)])


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def p4():
    return path_graph(4)


@pytest.fixture
def p5():
    return path_graph(5)


@pytest.fixture
def s5():
    return star_graph(5)


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def c4():
    return cycle_graph(4)
