"""Hypothesis properties of the graph substrate, checked against networkx
and the reference loops in oracles.py."""

import json
import os
import re
import threading

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st
from scipy.sparse.csgraph import connected_components

import oracles
from centnet import (
    GraphInputError,
    build_graph,
    components,
    non_infectious_attack,
    rank_targets,
)
from centnet.globalmetrics import betweenness_family, closeness_family
from centnet import io as cio
from centnet.io import ExperimentConfig, load_config, parse_edge_list
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
    # the same mask as a bytearray and as a bool array
    others = [] if mask is None else [
        bytearray(mask), np.array(mask, dtype=bool)]
    for mode, comps in expected.items():
        want = sorted(sorted(c) for c in comps)
        lab = components(g, mode, mask=mask)
        for other in others:
            same = components(g, mode, mask=other)
            assert same.labels.tolist() == lab.labels.tolist()
            assert same.sizes == lab.sizes
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


# Edges that build_graph rejects: a wrong width, a weight that is not a
# positive finite number, an unhashable label, not a sequence at all.
BAD_EDGES = st.sampled_from([
    (1,), (1, 2, 3.0, 4), (1, 2, "x"), (1, 2, None), (1, 2, -1.0),
    (1, 2, 0.0), (1, 2, float("nan")), (1, 2, float("inf")), ([1], 2),
    (1, {2}), 7, (1, 2, 10 ** 400)])


@st.composite
def raw_edges(draw):
    """(edges, directed, isolated): (u, v) and (u, v, w) edges, plus
    reversed copies of some of them with other weights, each placed
    after its original, and sometimes one malformed edge."""
    edge = st.tuples(LABELS, LABELS) | st.tuples(LABELS, LABELS, WEIGHTS)
    edges = draw(st.lists(edge, max_size=40))
    for _ in range(draw(st.integers(0, 8)) if edges else 0):
        i = draw(st.integers(0, len(edges) - 1))
        u, v = edges[i][:2]
        edges.insert(draw(st.integers(i + 1, len(edges))),
                     (v, u, draw(WEIGHTS)))
    bad = draw(st.none() | BAD_EDGES)
    if bad is not None:
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return edges, draw(st.booleans()), draw(st.lists(LABELS, max_size=5))


def _arrays(a):
    return a.indptr.tolist(), a.indices.tolist(), a.data.tolist()


def _assert_same_graph(g, h):
    """Equal labels and ids, counts, and both row sets with their
    dtypes."""
    assert (g.n, g.directed, g.labels, g.coords) == \
        (h.n, h.directed, h.labels, h.coords)
    assert g._label_to_id == h._label_to_id
    assert (g.self_loops_dropped, g.duplicates_collapsed) == \
        (h.self_loops_dropped, h.duplicates_collapsed)
    for a, b in ((g.out_csr, h.out_csr), (g.in_csr, h.in_csr)):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(raw_edges())
def test_build_matches_the_tuple_build(case):
    """The array build equals the per-edge tuple build exactly: ids,
    counts, the tuple views, and the operators it re-read from them. A
    one-shot generator of the same edges builds the same graph, or names
    the same malformed edge."""
    edges, directed, isolated = case
    try:
        g = build_graph(edges, directed=directed, isolated=isolated)
    except GraphInputError as exc:
        with pytest.raises(GraphInputError) as err:
            build_graph((e for e in edges), directed=directed,
                        isolated=isolated)
        assert str(err.value) == str(exc)
        return
    _assert_same_graph(build_graph((e for e in edges), directed=directed,
                                   isolated=isolated), g)
    for rows in (g.out_csr, g.in_csr):
        assert [a.dtype for a in rows] == \
            [np.int32, np.int32, np.float64, np.int64]
    ref = oracles.tuple_build_graph(edges, directed=directed,
                                    isolated=isolated)
    assert (g.labels, g.n) == (ref.labels, ref.n)
    assert g.self_loops_dropped == ref.self_loops_dropped
    assert g.duplicates_collapsed == ref.duplicates_collapsed
    assert g.adj == ref.adj and g.reversed.adj == ref.in_adj
    for weighted in (True, False):
        assert _arrays(g.adjacency(weighted)) == \
            _arrays(ref.adjacency(weighted))
    assert _arrays(g.undirected_adjacency) == \
        _arrays(ref.undirected_adjacency())


# Edge-list text: readline splits only at \n, \r\n and a lone \r, while
# str.splitlines also splits at \x0c, \x1c and \u2028; strip and split
# take all three as whitespace.
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
GAPS = st.sampled_from([" ", "\t", ",", " , ", ",,", "\x0c", "\x1c",
                        "\u2028", "\t "])
PADDING = st.sampled_from(["", " ", "\t", ",", "\x0c", "\u2028"])
TOKENS = st.sampled_from(["1", "2", "3", "a", "#", "%", "1.5"])
TEXT_WEIGHTS = st.sampled_from(["1", "2.5", "0.25", "1e0", "+3"])
BAD_LINES = st.sampled_from([
    "1", "1 2 3 4", "1 2 x", "1 2 -1", "1,2,0", "1 2 nan", "1 2 inf", ",",
    "1\x1c2\x1c3\x1c4", ",#", "1\u20282\u20283\u20284"])


@st.composite
def edge_files(draw):
    """The text of an edge-list file: edge lines of 2 and 3 columns,
    comments, blank lines and mixed line ends, and sometimes one line
    that the parse rejects."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["edge", "edge", "comment", "blank"]))
        if kind == "edge":
            cols = [draw(TOKENS), draw(TOKENS),
                    *draw(st.lists(TEXT_WEIGHTS, max_size=1))]
            text = cols[0]
            for col in cols[1:]:
                text += draw(GAPS) + col
        elif kind == "comment":
            text = draw(st.sampled_from(["#", "%"])) + \
                draw(st.sampled_from(["", " 1 2", "x,y,z", "\x1c1 2"]))
        else:
            text = ""
        lines.append(draw(PADDING) + text + draw(PADDING) +
                     draw(LINE_ENDS))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(BAD_LINES) + draw(LINE_ENDS))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


@settings(derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_files(), st.booleans())
@example("# c\r\n% c\n,#,2\r1,2\t1.5\n\n1\x0c2\r\n2\x1c3\n3\u2028a 2\n"
         "\t a , b \r1 a\r\n", False)
@example("1 2 3 4\n5 6 7 8\n", False)
def test_parse_matches_the_line_parser(tmp_path, text, directed):
    """The streaming parse builds the graph of the edges that the
    readlines parse reads, or raises the same error at the same
    path:lineno."""
    _check_parse_matches(tmp_path, text, directed)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_files(), st.booleans())
@example("# c\r\n% c\n,#,2\r1,2\t1.5\n\n1\x0c2\r\n2\x1c3\n3\u2028a 2\n"
         "\t a , b \r1 a\r\n", False)
@example("1 2\r\n2 3\r\n3,4\r\n#,5 6\r\n%\r\n4 5 6 7\r\n", False)
def test_parse_in_small_chunks_matches_the_line_parser(
        tmp_path, small_chunks, text, directed):
    """The same, reading every file in many chunks: reads that end inside
    a line or between its \r and \n, and refusals after accepted
    chunks."""
    _check_parse_matches(tmp_path, text, directed)


def _check_parse_matches(tmp_path, text, directed):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        edges = oracles.parse_edge_lines(path)
    except GraphInputError as exc:
        with pytest.raises(GraphInputError) as err:
            parse_edge_list(path, directed=directed)
        assert str(err.value) == str(exc)
        return
    _assert_same_graph(parse_edge_list(path, directed=directed),
                       build_graph(edges, directed=directed))


# Byte pieces that st.binary() rarely strings into an edge line: ids,
# separators, line ends, comment marks, weights the parse must refuse,
# and bytes that are not UTF-8 text (a lone continuation byte, an
# encoded surrogate) or are whitespace only to str.split (NEL, U+2028).
BYTE_PIECES = st.sampled_from([
    b"1", b"2", b"a", b" ", b"\t", b",", b"\n", b"\r", b"#", b"%", b"2.5",
    b"-1", b"nan", b"1e400", b"_", b"\x00", b"\x0c", b"\x1c", b"\xc2\x85",
    b"\xe2\x80\xa8", b"\xef\xbb\xbf", b"\xff", b"\x85", b"\xed\xa0\x80"])


@settings(derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary() | st.lists(BYTE_PIECES).map(b"".join), st.booleans())
@example(b"1 2\n\xc2\x85a\xe2\x80\xa8b 3\r# x\n2\x001 1e308\n", False)
@example(b"1\x002 3\n4 5 6\n", False)
def test_parse_takes_any_bytes(tmp_path, data, directed):
    """Whatever the bytes, the streaming parse raises GraphInputError or
    builds the graph of the edges that the readlines parse reads."""
    _check_parse_takes(tmp_path, data, directed)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary() | st.lists(BYTE_PIECES).map(b"".join), st.booleans())
@example(b"1 2\n\xc2\x85a\xe2\x80\xa8b 3\r# x\n2\x001 1e308\n", False)
def test_parse_in_small_chunks_takes_any_bytes(tmp_path, small_chunks,
                                               data, directed):
    """The same, reading every file in many chunks."""
    _check_parse_takes(tmp_path, data, directed)


def _check_parse_takes(tmp_path, data, directed):
    path = tmp_path / "g.bin"
    path.write_bytes(data)
    try:
        g = parse_edge_list(path, directed=directed)
    except GraphInputError:
        return
    _assert_same_graph(g, build_graph(oracles.parse_edge_lines(path),
                                      directed=directed))



def _counting_line_loops(monkeypatch) -> list:
    """The edge streams that parse_edge_list reads with its line loop,
    which reads on from a refused chunk or reads a file that is not
    UTF-8 again."""
    calls = []

    def counted(build):
        def call(edges, *args, **kwargs):
            calls.append(1)
            return build(edges, *args, **kwargs)
        return call

    for name in ("build_graph", "_edge_ids"):
        monkeypatch.setattr(cio, name, counted(getattr(cio, name)))
    return calls


@pytest.mark.parametrize("text, directed", [
    ("# Directed graph (each unordered pair of nodes is saved once)\n"
     "# Nodes: 5 Edges: 6\n# FromNodeId\tToNodeId\n"
     "0\t1\n0\t2\n1\t2\n2\t3\n3\t4\n4\t0\n4\t0\n3\t3\n", True),
    ("% weighted, comma separated\na,b,1.5\n b , c ,2\n\nc,a,0.25\r\n"
     "a,b,7\n", False),
])
def test_chunks_take_common_files(tmp_path, monkeypatch, text, directed):
    """A SNAP-style file (header comments, tab-separated ids) and a
    comma-separated weighted one never reach the line loop, and build
    its graph."""
    path = tmp_path / "g.txt"
    path.write_text(text * 2000)
    calls = _counting_line_loops(monkeypatch)
    g = parse_edge_list(path, directed=directed)
    assert calls == []
    _assert_same_graph(g, build_graph(oracles.parse_edge_lines(path),
                                      directed=directed))
    with pytest.raises(KeyError):       # a read adds no label
        g.id_of("z")


@pytest.mark.parametrize("tail", [
    "\u00fc 1\n",                     # a non-ASCII label
    "",
    "1 2 3 4\n",                       # a bad line
    "1 2 0\n",
    "\u00fc 1\n1,,\n",
])
def test_refused_chunks_go_to_the_line_loop(tmp_path, monkeypatch, tail):
    """A non-ASCII label or a bad line after some 50 000 characters of
    accepted lines sends the rest of the file to the line loop: its
    graph, or its error at its path:lineno."""
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(6000)) + tail +
                    "0 5\n")
    calls = _counting_line_loops(monkeypatch)
    try:
        edges = oracles.parse_edge_lines(path)
    except GraphInputError as exc:
        with pytest.raises(GraphInputError) as err:
            parse_edge_list(path)
        assert str(err.value) == str(exc)
    else:
        _assert_same_graph(parse_edge_list(path), build_graph(edges))
    assert calls == ([] if tail == "" else [1])


@pytest.mark.parametrize("tail", [
    b"", "\u00fc 1\n".encode(), b"1 2 0.5\n", b"1 2 3 4\n", b"1 2\n\xff\n",
])
@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_pipes_are_read_once(tmp_path, tail):
    """A file that cannot be rewound, a pipe here, is read once: a
    chunk refused after some 50 000 characters goes on to the line loop
    with the rest of the stream, which builds the graph of the same file
    on disk or raises its error."""
    data = "".join(f"{i} {i + 1}\n" for i in range(6000)).encode() + tail \
        + b"0 5\n"
    disk = tmp_path / "g.txt"
    disk.write_bytes(data)
    read_end, write_end = os.pipe()
    pipe = f"/dev/fd/{read_end}"

    def write():
        try:
            with open(write_end, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:         # the parse stopped at an error
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        g = parse_edge_list(pipe)
    except GraphInputError as exc:
        with pytest.raises(GraphInputError) as err:
            parse_edge_list(disk)

        def unplaced(msg, path):
            # a decoder names a position in the read that failed, and a
            # pipe reads in other pieces than a file
            return re.sub(r"position \d+", "", msg.replace(str(path), ""))
        assert unplaced(str(exc), pipe) == unplaced(str(err.value), disk)
    else:
        _assert_same_graph(g, parse_edge_list(disk))
    finally:
        os.close(read_end)
    writer.join(10)
    assert not writer.is_alive()


@pytest.mark.parametrize("lines, error", [
    (1000, "is not UTF-8 text"),
    (2046, "g.txt:2047: expected"),    # the bad line ends a decoded block
    (3000, "is not UTF-8 text"),
])
def test_bad_line_before_bad_bytes(tmp_path, lines, error):
    """The error the line loop meets first: bytes that are not UTF-8 in
    the block of 8 KiB it decodes, or a bad line that ends the block
    before them, though the chunk that holds the line reads on into the
    next block."""
    path = tmp_path / "g.txt"
    path.write_bytes(b"1 2\n" * lines + b"1 2 3 4\n\xff\n")
    with pytest.raises(GraphInputError, match=error):
        parse_edge_list(path)

# JSON values for configs: scalars, among them integers too large for a
# float and the NaN and Infinity that json.dump writes, nested in lists
# and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() |
    st.text(max_size=4) | st.sampled_from([10 ** 400, -(2 ** 1024), 0.5]),
    lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
ATTACK_KEYS = st.sampled_from(
    ["kind", "sources", "phi_grid", "beta", "runs", "rng_seed"])
CONFIG_KEYS = st.sampled_from(
    ["input_path", "directed", "metrics", "output_path", "output_format"])
PLAN_VALUES = JSON_VALUES | st.sampled_from(
    ["non-infectious", "infectious", "random", ["degree"], [0.1, 0.5]])


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(JSON_VALUES | st.fixed_dictionaries(
    {"input_path": JSON_VALUES,
     "attack": st.dictionaries(ATTACK_KEYS, PLAN_VALUES)},
    optional={"config": st.dictionaries(CONFIG_KEYS, PLAN_VALUES)}))
@example({"input_path": "x", "attack": {"phi_grid": [10 ** 400]}})
def test_load_config_takes_any_json(tmp_path, data):
    """Whatever JSON value the file holds, load_config returns a config
    or raises GraphInputError."""
    if isinstance(data, dict) and isinstance(data.get("config"), dict):
        data.update(data.pop("config"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    try:
        config = load_config(path)
    except GraphInputError:
        return
    assert isinstance(config, ExperimentConfig)
