import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles

from centnet import AttackPlan, GraphInputError, build_graph
from centnet import cli as cli_mod
from centnet import globalmetrics
from centnet import io as cio
from centnet import registry
from centnet.params import GroupSelectParams, MetricParams
from centnet.resilience import AttackOutcome, run_experiment


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("1 2\n2 3\n")
    return str(f)


class TestParseEdgeList:
    def test_basic(self, p3_file):
        g = cio.parse_edge_list(p3_file)
        assert g.n == 3 and g.m == 2

    def test_comments_and_weights(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("# comment\n% other comment\na b 2.5\n")
        g = cio.parse_edge_list(str(f))
        assert g.n == 2 and g.m == 1
        assert g.adj[0][0][1] == 2.5

    def test_comma_separated(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("1,2\n2,3\n")
        assert cio.parse_edge_list(str(f)).m == 2

    def test_negative_weight_line_number(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 2 -1\n")
        with pytest.raises(GraphInputError) as err:
            cio.parse_edge_list(str(f))
        assert ":1:" in str(err.value)

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 2\n1 2 3 4\n")
        with pytest.raises(GraphInputError) as err:
            cio.parse_edge_list(str(f))
        assert ":2:" in str(err.value)

    def test_empty_rejected(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing\n")
        with pytest.raises(GraphInputError):
            cio.parse_edge_list(str(f))

    def test_duplicates_counted(self, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("1 2\n2 1\n1 2\n1 1\n")
        g = cio.parse_edge_list(str(f))
        assert g.m == 1
        assert g.duplicates_collapsed == 2
        assert g.self_loops_dropped == 1

    def test_directed(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n2 1\n")
        g = cio.parse_edge_list(str(f), directed=True)
        assert g.m == 2

    def test_coords_side_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("a b\nb c\n")
        cf = tmp_path / "g.xy"
        cf.write_text("a 0 0\nb 1 0\nc 2 0\n")
        g = cio.parse_edge_list(str(f), coords_path=str(cf))
        assert g.coords == ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))

    def test_only_self_loops_is_not_empty(self, tmp_path):
        f = tmp_path / "loops.txt"
        f.write_text("1 1\n2 2\n")
        g = cio.parse_edge_list(str(f))
        assert (g.n, g.m, g.self_loops_dropped) == (2, 0, 2)

    def test_non_utf8_names_the_file(self, tmp_path):
        f = tmp_path / "latin.txt"
        f.write_bytes(b"1 2\n\xff\xfe 3\n")
        with pytest.raises(GraphInputError, match="^[^e].*latin.txt") as err:
            cio.parse_edge_list(str(f))
        assert isinstance(err.value.__cause__, UnicodeDecodeError)

    def test_missing_coords_file(self, tmp_path, p3_file):
        with pytest.raises(GraphInputError, match="nope.xy"):
            cio.parse_edge_list(p3_file,
                                coords_path=str(tmp_path / "nope.xy"))

    @pytest.mark.parametrize("text, where", [
        ("1 0 0\n1 x 2\n", "g.xy:2:"), ("1 0 0\n2 0 inf0\n", "g.xy:2:"),
        ("1 0 0\n\xff 1 1\n", "g.xy")])
    def test_bad_coords_line(self, tmp_path, p3_file, text, where):
        cf = tmp_path / "g.xy"
        cf.write_bytes(text.encode("latin-1"))
        with pytest.raises(GraphInputError, match=where):
            cio.parse_edge_list(p3_file, coords_path=str(cf))

    def test_node_without_coords(self, tmp_path, p3_file):
        cf = tmp_path / "g.xy"
        cf.write_text("a 0 0\nb 1 0\nc 2 0\n")
        with pytest.raises(GraphInputError, match="node '1'"):
            cio.parse_edge_list(p3_file, coords_path=str(cf))

    @staticmethod
    def _traced_per_line(tmp_path) -> tuple:
        """Traced bytes per line of parsing the BA n=2e4 file: the peak,
        those held after the parse, and those held after reading the
        label of node 0."""
        from _synth import ba_edges
        f = tmp_path / "ba.txt"
        edges = ba_edges(20000, 3, 1)
        f.write_text("".join(f"{u} {v}\n" for u, v in edges))
        del edges
        tracemalloc.start()
        try:
            g = cio.parse_edge_list(str(f))
            held, peak = tracemalloc.get_traced_memory()
            assert g.label_of(0) == "3"     # the first line's tail
            read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.m + g.duplicates_collapsed == 59991
        return peak / 59991, held / 59991, read / 59991

    def test_parse_peak_memory_per_line(self, tmp_path):
        # the parse holds no line and no edge tuple beyond the one it
        # reads: under 300 traced bytes a line, where holding every line
        # and every edge took over 430
        assert self._traced_per_line(tmp_path)[0] < 300

    def test_build_peak_memory_per_line(self, tmp_path):
        # the build streams int32 ids and frees each temporary once read:
        # under 140 traced bytes a line, about twice what the finished
        # graph holds, where the int64 temporaries peaked at 213
        assert self._traced_per_line(tmp_path)[0] < 140

    def test_held_memory_per_line(self, tmp_path):
        # an integer-labelled file hands the graph its int32 label
        # values: no str per node and no label map, after the parse or
        # after one label is read. Under 40 traced bytes a line, where
        # the labels tuple and map held 66
        _, held, read = self._traced_per_line(tmp_path)
        assert held < 40 and read < 40


def _assert_same_labels(g, h):
    """Equal graphs, and equal labels through every accessor."""
    assert (g.n, g.directed, g.coords) == (h.n, h.directed, h.coords)
    assert (g.self_loops_dropped, g.duplicates_collapsed) == \
        (h.self_loops_dropped, h.duplicates_collapsed)
    for a, b in ((g.out_csr, h.out_csr), (g.in_csr, h.in_csr)):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert [g.label_of(v) for v in range(g.n)] == list(h.labels)
    assert g.labels == h.labels and g._label_to_id == h._label_to_id
    assert [g.id_of(lbl) for lbl in h.labels] == list(range(h.n))


def _int_lines(k: int) -> str:
    """k edge lines of integer labels, over several parse chunks."""
    return "".join(f"{(7 * i) % 500 + 3} {(11 * i) % 300}\n"
                   for i in range(k))


class TestLabelForms:
    """The three label forms of a Graph: ids as labels, a tuple of
    labels, and the integer mode's int32 label values."""

    def test_integer_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(_int_lines(3000))
        _assert_same_labels(cio.parse_edge_list(f),
                            build_graph(oracles.parse_edge_lines(f)))

    def test_integer_then_tokens_then_weights(self, tmp_path):
        # the integer mode hands over to the token chunks, which intern
        # into a label map, and they to the line loop on the weighted line
        f = tmp_path / "g.txt"
        f.write_text(_int_lines(3000) + "a 1\n" * 400 + "5 b 2.5\n7 x\n")
        _assert_same_labels(cio.parse_edge_list(f),
                            build_graph(oracles.parse_edge_lines(f)))

    def test_integer_file_with_coords(self, tmp_path):
        f, cf = tmp_path / "g.txt", tmp_path / "g.xy"
        f.write_text(_int_lines(3000))
        xy = {str(v): (float(v), v / 2) for v in range(600)}
        cf.write_text("".join(f"{v} {x!r} {y!r}\n"
                              for v, (x, y) in xy.items()))
        g = cio.parse_edge_list(f, coords_path=cf)
        h = build_graph(oracles.parse_edge_lines(f), coordinates=xy)
        assert g.coords is not None
        _assert_same_labels(g, h)

    def test_integer_file_directed_reversed(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(_int_lines(3000))
        g = cio.parse_edge_list(f, directed=True)
        h = build_graph(oracles.parse_edge_lines(f), directed=True)
        _assert_same_labels(g.reversed, h.reversed)
        _assert_same_labels(g, h)

    @pytest.fixture(params=["ids", "tuple", "integer-mode"])
    def form(self, request, tmp_path):
        """(graph, labels that name no node) of each label form."""
        if request.param == "ids":
            return build_graph([(0, 1), (1, 2)]), \
                ("5", 2.7, True, 5, 3, -1, "1", None)
        if request.param == "tuple":
            return build_graph([("a", "b"), ("b", "c")]), \
                ("d", 5, -1, True, 0)
        f = tmp_path / "g.txt"
        f.write_text("7 3\n3 9\n")
        return cio.parse_edge_list(f), ("5", 7, "07", 3.0, True, 0, "0")

    def test_id_of_refuses_what_names_no_node(self, form):
        g, absent = form
        for label in absent:
            with pytest.raises(KeyError):
                g.id_of(label)
        assert [g.id_of(g.label_of(v)) for v in range(g.n)] == [0, 1, 2]

    def test_label_of_refuses_ids_outside_the_graph(self, form):
        g, _ = form
        for v in (3, 4, -1, -3, -4):
            with pytest.raises(IndexError):
                g.label_of(v)
        assert [g.label_of(np.int64(v)) for v in range(3)] == \
            [g.label_of(v) for v in range(3)]


class TestDatasetStats:
    def test_undirected(self, p3_file):
        st = cio.dataset_stats(cio.parse_edge_list(p3_file))
        assert st.nodes == 3 and st.edges == 2
        assert st.avg_degree == pytest.approx(4.0 / 3.0)
        assert st.max_degree == 2

    def test_directed(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("a b\na c\nb c\n")
        st = cio.dataset_stats(cio.parse_edge_list(str(f), directed=True))
        assert st.edges == 3
        assert st.max_out == 2 and st.max_in == 2
        assert st.avg_degree == pytest.approx(1.0)

    def test_directed_in_and_out_apart(self, tmp_path):
        f = tmp_path / "star.txt"
        f.write_text("a b\na c\na d\n")
        st = cio.dataset_stats(cio.parse_edge_list(str(f), directed=True))
        assert (st.max_out, st.max_in, st.max_degree) == (3, 1, 3)

    def test_lossless_pipeline(self, tmp_path, atlas_sample):
        for i, g in enumerate(atlas_sample[:25]):
            if g.m == 0:
                continue
            f = tmp_path / f"g{i}.txt"
            lines = [f"{v} {u}" for v in range(g.n)
                     for u, _ in g.adj[v] if v < u]
            f.write_text("\n".join(lines) + "\n")
            st = cio.dataset_stats(cio.parse_edge_list(str(f)))
            # isolated nodes are not representable in a bare edge list
            assert st.edges == g.m
            assert st.nodes == sum(1 for v in range(g.n) if g.degree(v) > 0)


class TestEmitResults:
    def rows(self):
        return [
            AttackOutcome("degree", 0.1, 0, 0.8345121, seeds=1,
                          elapsed_ms=12.2),
            AttackOutcome("degree", 0.0, 0, 1.0, seeds=0, elapsed_ms=1.0),
            AttackOutcome("closeness", 0.1, 1, 0.75, seeds=1,
                          infected_total=3,
                          node_states=["S"] * 7 + ["R"] * 3,
                          elapsed_ms=2.0),
        ]

    def test_csv_schema_and_order(self):
        payload = cio.emit_results(self.rows(), "csv")
        lines = payload.strip().split("\n")
        assert lines[0] == "metric,phi,run,giant_frac,infected_frac,elapsed_ms"
        assert lines[1].startswith("closeness,0.10,1,0.75,0.3,")
        assert lines[2] == "degree,0.00,0,1,,1"
        assert lines[3] == "degree,0.10,0,0.834512,,12"

    def test_byte_identical(self):
        a = cio.emit_results(self.rows(), "csv")
        b = cio.emit_results(self.rows(), "csv")
        assert a == b

    def test_json_round_trip(self):
        payload = cio.emit_results(self.rows(), "json")
        records = json.loads(payload)
        assert len(records) == 3
        assert records[2]["giant_frac"] == 0.834512
        assert records[1]["infected_frac"] is None
        again = cio.emit_results(self.rows(), "json")
        assert payload == again

    def test_sub_millisecond_elapsed(self):
        # JSON keeps the time to the microsecond, so a fast step does not
        # read 0; the CSV column stays whole milliseconds
        rows = [AttackOutcome("degree", 0.1, 0, 0.5, seeds=1,
                              elapsed_ms=0.2346),
                AttackOutcome("degree", 0.2, 0, 0.4, seeds=2,
                              elapsed_ms=12.2)]
        records = json.loads(cio.emit_results(rows, "json"))
        assert [r["elapsed_ms"] for r in records] == [0.235, 12.2]
        lines = cio.emit_results(rows, "csv").strip().split("\n")
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["0", "12"]

    def test_write_and_unwritable(self, tmp_path):
        out = tmp_path / "r.csv"
        cio.emit_results(self.rows(), "csv", str(out))
        assert out.read_text().startswith("metric,")
        with pytest.raises(GraphInputError):
            cio.emit_results(self.rows(), "csv",
                             str(tmp_path / "nodir" / "r.csv"))

    def test_unknown_format(self):
        with pytest.raises(GraphInputError):
            cio.emit_results(self.rows(), "xml")


class TestConfig:
    def test_load(self, tmp_path, p3_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input_path": p3_file,
            "directed": False,
            "metrics": ["degree"],
            "attack": {"kind": "infectious", "phi_grid": [0.34],
                       "beta": 0.5, "runs": 2, "rng_seed": 4},
            "output_format": "json",
        }))
        config = cio.load_config(str(cfg))
        assert config.attack.kind == "infectious"
        assert config.attack.beta == 0.5
        assert config.attack.phi_grid[0] == 0.0

    def test_missing_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"attack": {"phi_grid": [0.1]}}))
        with pytest.raises(GraphInputError):
            cio.load_config(str(cfg))

    @pytest.mark.parametrize("data, field", [
        ([1, 2], "object"),
        ({"input_path": "x", "attack": 5}, "attack"),
        ({"input_path": "x", "attack": {"phi_grid": ["a"]}}, "phi_grid"),
        ({"input_path": "x", "attack": {"runs": "3"}}, "runs"),
        ({"input_path": "x", "attack": {"beta": None}}, "beta"),
        ({"input_path": "x", "attack": {"rng_seed": "x"}}, "rng_seed"),
        ({"input_path": "x", "attack": {"phi_grid": "1"}}, "phi_grid"),
        # an integer too large for a float used to escape as a bare
        # OverflowError; sources that are not a list failed later in
        # run_experiment, or ran one error row per letter of a string
        ({"input_path": "x", "attack": {"phi_grid": [10 ** 400]}},
         "phi_grid"),
        ({"input_path": "x", "metrics": 5, "attack": {}}, "sources"),
        ({"input_path": "x", "attack": {"sources": None}}, "sources"),
        ({"input_path": "x", "metrics": "degree", "attack": {}}, "sources"),
        # bool("false") is True, and an unknown format used to be refused
        # only after the whole experiment had run
        ({"input_path": "x", "directed": "false", "attack": {}}, "directed"),
        ({"input_path": "x", "directed": 0, "attack": {}}, "directed"),
        ({"input_path": "x", "output_format": "jsn", "attack": {}},
         "output_format"),
        ({"input_path": "x", "output_format": ["csv"], "attack": {}},
         "output_format"),
        # rows are keyed by the source's name: two sources of one name
        # ran both and were averaged together as if they were two runs
        ({"input_path": "x", "metrics": ["degree", {"metric": "degree"}],
          "attack": {}}, "sources"),
        ({"input_path": "x", "attack": {"sources": [
            {"metric": "pagerank", "params": {"alpha": 0.5}},
            {"metric": "pagerank", "params": {"alpha": 0.95}}]}},
         "sources"),
    ])
    def test_malformed_field(self, tmp_path, data, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        with pytest.raises(GraphInputError, match=field):
            cio.load_config(str(cfg))

    def test_bad_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        with pytest.raises(GraphInputError):
            cio.load_config(str(cfg))

    def test_integer_past_the_digit_limit(self, tmp_path):
        # json.load refuses an integer literal of more than 4300 digits
        # with a bare ValueError, not a JSONDecodeError
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"input_path": "x", "attack": {"phi_grid": [1%s]}}'
                       % ("0" * 5000))
        with pytest.raises(GraphInputError, match="cfg.json"):
            cio.load_config(str(cfg))

    def test_non_utf8_names_the_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"input_path": "\xff"}')
        with pytest.raises(GraphInputError, match="cfg.json"):
            cio.load_config(str(cfg))


class TestCli:
    def test_stats(self, p3_file, capsys):
        assert cli_mod.main(["stats", p3_file]) == 0
        out = capsys.readouterr().out
        assert "nodes: 3" in out and "edges: 2" in out

    def test_centrality_top1(self, p3_file, capsys):
        rc = cli_mod.main(["centrality", p3_file, "--metric", "closeness",
                           "--top", "1"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.split("\t") == ["2", "0.5"]

    def test_centrality_param_override(self, p3_file, capsys):
        rc = cli_mod.main(["centrality", p3_file, "--metric", "diffusion",
                           "--param", "q=1.0", "--param", "T=1"])
        assert rc == 0
        rows = dict(line.split("\t") for line in
                    capsys.readouterr().out.strip().split("\n"))
        assert rows["2"] == "2"

    def test_unknown_metric_lists_ids(self, p3_file, capsys):
        rc = cli_mod.main(["centrality", p3_file, "--metric", "nope"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "betweenness" in err and "closeness" in err

    @pytest.mark.parametrize("name, value", [("omega", 0.5), ("r", 3)])
    def test_selection_knob_is_not_a_metric_parameter(self, p3_file, capsys,
                                                      name, value):
        # GroupSelectParams owns omega and r; no point metric reads them
        with pytest.raises(GraphInputError,
                           match=rf"unknown metric parameter\(s\): {name}$"):
            registry.compute_point_metric(build_graph([(0, 1)]), "degree",
                                          {name: value})
        rc = cli_mod.main(["centrality", p3_file, "--metric", "degree",
                           "--param", f"{name}={value}"])
        assert rc == 1
        assert name in capsys.readouterr().err

    # a value of the wrong kind, and a selection parameter of unknown
    # name, used to escape as a bare TypeError
    @pytest.mark.parametrize("argv, name", [
        (["centrality", "--metric", "pagerank", "--param", "tol=abc"], "tol"),
        (["centrality", "--metric", "volume", "--param", "h=2.5"], "h"),
        (["centrality", "--metric", "ahp", "--param", "si_runs=1.5"],
         "si_runs"),
        (["centrality", "--metric", "katz", "--param", "alpha=x"], "alpha"),
        (["centrality", "--metric", "percolation", "--param",
          'percolation_states=["a", 1, 1]'], "percolation_states"),
        (["centrality", "--metric", "percolation", "--param",
          "percolation_states=1"], "percolation_states"),
        (["select", "--strategy", "collective-influence", "--budget", "2",
          "--param", "ell=x"], "ell"),
        (["select", "--strategy", "degree-discount", "--budget", "2",
          "--param", "p=[0.5]"], "p"),
        (["select", "--strategy", "degree-discount", "--budget", "2",
          "--param", "zzz=1"], "zzz"),
    ])
    def test_malformed_param_exit1(self, p3_file, capsys, argv, name):
        rc = cli_mod.main([argv[0], p3_file, *argv[1:]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err and name in captured.err

    @pytest.mark.parametrize("cls, field", [
        (MetricParams, "h"), (MetricParams, "rng_seed"), (MetricParams, "p"),
        (GroupSelectParams, "budget"), (GroupSelectParams, "theta")])
    def test_bool_is_not_a_number_param(self, cls, field):
        with pytest.raises(GraphInputError, match=field):
            cls(**{field: True})

    def test_numpy_scalars_are_params(self):
        import numpy as np
        assert MetricParams(h=np.int64(3), p=np.float32(0.5), L=4.5).h == 3
        assert GroupSelectParams(budget=np.int32(2), p=1).budget == 2

    def test_missing_file_exit1(self, capsys):
        assert cli_mod.main(["stats", "/does/not/exist.txt"]) == 1

    def test_non_utf8_file_exit1(self, tmp_path, capsys):
        f = tmp_path / "latin.txt"
        f.write_bytes(b"1 2\n\xff\xfe 3\n")
        assert cli_mod.main(["stats", str(f)]) == 1
        assert "latin.txt" in capsys.readouterr().err

    def test_bad_json_param_exit1(self, p3_file, capsys):
        rc = cli_mod.main(["centrality", p3_file, "--metric", "degree",
                           "--param", "x=[1,"])
        assert rc == 1
        assert "x=[1," in capsys.readouterr().err

    def test_computation_error_exit2(self, tmp_path, capsys):
        f = tmp_path / "disc.txt"
        f.write_text("1 2\n3 4\n")
        rc = cli_mod.main(["centrality", str(f), "--metric", "information"])
        assert rc == 2

    def test_dense_cap_exit2(self, tmp_path, capsys):
        f = tmp_path / "long_path.txt"
        f.write_text("".join(f"{i} {i + 1}\n" for i in range(5000)))
        rc = cli_mod.main(["centrality", str(f), "--metric", "information"])
        assert rc == 2
        assert "dense cap" in capsys.readouterr().err

    def test_graph_metric(self, p3_file, capsys):
        rc = cli_mod.main(["graph-metric", p3_file, "--metric",
                           "global-clustering"])
        assert rc == 0
        assert "global-clustering: 0" in capsys.readouterr().out

    def test_per_node_graph_metric(self, p3_file, capsys):
        # a ScoreVector has a metric_id too, so it used to take the
        # whole-graph branch and crash on `.value`
        rc = cli_mod.main(["graph-metric", p3_file, "--metric",
                           "local-assortativity"])
        assert rc == 0
        rows = [line.split("\t") for line in
                capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert all(len(r) == 2 and math.isfinite(float(r[1])) for r in rows)

    def test_select(self, p3_file, capsys):
        rc = cli_mod.main(["select", p3_file, "--strategy",
                           "degree-discount", "--budget", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["2", "1"]

    @pytest.mark.parametrize("budget", ["0", "-2"])
    @pytest.mark.parametrize("strategy", registry.strategy_ids())
    def test_select_refuses_budget_below_one(self, p3_file, capsys,
                                             strategy, budget):
        rc = cli_mod.main(["select", p3_file, "--strategy", strategy,
                           f"--budget={budget}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: budget must be >= 1" in captured.err

    @pytest.mark.parametrize("repeat", ["0", "-1"])
    def test_bench_refuses_repeat_below_one(self, p3_file, capsys, repeat):
        rc = cli_mod.main(["bench", p3_file, "--metrics", "degree",
                           f"--repeat={repeat}"])
        assert rc == 1
        assert "input error: --repeat" in capsys.readouterr().err

    def test_centrality_refuses_negative_top(self, p3_file, capsys):
        rc = cli_mod.main(["centrality", p3_file, "--metric", "degree",
                           "--top=-1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: --top" in captured.err

    def test_centrality_top0_prints_nothing(self, p3_file, capsys):
        rc = cli_mod.main(["centrality", p3_file, "--metric", "degree",
                           "--top", "0"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_attack_deterministic_outputs(self, tmp_path, p3_file):
        cfg = tmp_path / "cfg.json"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = {
            "input_path": p3_file,
            "directed": False,
            "metrics": ["degree", "random"],
            "attack": {"kind": "infectious", "phi_grid": [0.34, 0.67],
                       "beta": 0.5, "runs": 3},
            "output_format": "csv",
        }
        for out in (out1, out2):
            base["output_path"] = str(out)
            cfg.write_text(json.dumps(base))
            assert cli_mod.main(["attack", "--config", str(cfg),
                                 "--seed", "7"]) == 0
        # every column but the wall-clock one repeats exactly, row by row
        def untimed(out):
            rows = [line.split(",") for line in out.read_text().splitlines()]
            t = rows[0].index("elapsed_ms")
            assert all(int(r[t]) >= 0 for r in rows[1:])
            return [r[:t] + r[t + 1:] for r in rows]
        assert untimed(out1) == untimed(out2)

    def test_attack_reports_padding_on_stderr(self, tmp_path, p3_file,
                                              capsys):
        cfg = tmp_path / "cfg.json"
        base = {
            "input_path": p3_file,
            "directed": False,
            "metrics": [{"strategy": "degree-distance",
                         "params": {"t_td": 5}}],
            "attack": {"kind": "non-infectious", "phi_grid": [1.0]},
            "output_format": "csv",
        }
        cfg.write_text(json.dumps(base))
        assert cli_mod.main(["attack", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert "selection[degree-distance]: stop_reason infeasible, " \
            "2 budget slots padded in id order" in err.splitlines()
        assert "padded" not in out and "infeasible" not in out

    def test_attack_refuses_sources_of_one_name(self, tmp_path, p3_file,
                                                capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input_path": p3_file,
            "metrics": [{"metric": "pagerank", "params": {"alpha": 0.5}},
                        {"metric": "pagerank", "params": {"alpha": 0.95}}],
            "attack": {"kind": "non-infectious", "phi_grid": [0.1]}}))
        assert cli_mod.main(["attack", "--config", str(cfg)]) == \
            cli_mod.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and "'pagerank'" in err

    def test_bench_schema_stable(self, p3_file, capsys):
        for repeat in ("1", "3"):
            rc = cli_mod.main(["bench", p3_file, "--metrics",
                               "degree,closeness", "--repeat", repeat])
            assert rc == 0
            lines = capsys.readouterr().out.strip().split("\n")
            assert lines[0] == "metric,elapsed_ms"
            assert [l.split(",")[0] for l in lines[1:]] == \
                ["degree", "closeness"]

    def test_bench_times_each_sample_cold(self, p3_file, capsys,
                                          monkeypatch):
        # every sample of every id runs its own all-source sweep, none
        # reads the memo of an earlier sample or id
        calls, traverse = [], globalmetrics.traverse

        def counted(g, sources, cap=None):
            calls.append(len(sources))
            return traverse(g, sources, cap)

        monkeypatch.setattr(globalmetrics, "traverse", counted)
        rc = cli_mod.main(["bench", p3_file, "--metrics",
                           "betweenness,closeness,load", "--repeat", "3"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 4
        assert calls == [3] * 9

    def test_centrality_list(self, p3_file, capsys):
        assert cli_mod.main(["centrality", p3_file, "--list"]) == 0
        ids = capsys.readouterr().out.split()
        assert "betweenness" in ids and "salsa-hub" in ids


def test_every_advertised_metric_runs_on_small_corpus(atlas_sample):
    """Each advertised id must run cleanly (or refuse cleanly) on n<=7
    inputs, on at least one of an undirected and a directed graph."""
    from centnet.errors import CentnetError

    base = atlas_sample[30]
    undirected = build_graph(
        [(v, u) for v in range(base.n) for u, _ in base.adj[v] if v < u],
        isolated=range(base.n),
        coordinates={v: (float(v), float(v % 2)) for v in range(base.n)})
    directed = build_graph([(0, 1), (1, 2), (2, 0), (0, 2), (3, 0)],
                           directed=True, isolated=range(4))
    for mid in registry.point_metric_ids():
        succeeded = 0
        for g in (undirected, directed):
            try:
                overrides = {"si_runs": 3} if mid == "ahp" else {}
                scores = registry.compute_point_metric(g, mid, overrides)
                assert len(scores) == g.n
                succeeded += 1
            except CentnetError:
                continue
        assert succeeded >= 1, f"{mid} failed on both graph kinds"


def test_every_advertised_id_runs_through_the_cli(atlas_sample, tmp_path):
    """Every point id, graph-metric id and strategy id, on a small
    undirected and a small directed edge list, ends in an exit code:
    0, or 1/2 for a refusal, never an exception."""
    base = atlas_sample[30]
    undirected = tmp_path / "undirected.txt"
    undirected.write_text("".join(f"{v} {u}\n" for v in range(base.n)
                                  for u, _ in base.adj[v] if v < u))
    directed = tmp_path / "directed.txt"
    directed.write_text("0 1\n1 2\n2 0\n0 2\n3 0\n")
    runs = [["centrality", "--metric", mid]
            + (["--param", "si_runs=3"] if mid == "ahp" else [])
            for mid in registry.point_metric_ids()]
    runs += [["graph-metric", "--metric", mid]
             for mid in registry.graph_metric_ids()]
    runs += [["select", "--strategy", sid, "--budget", "2"]
             for sid in registry.strategy_ids()]
    for path, flags in ((undirected, []), (directed, ["--directed"])):
        for run in runs:
            argv = [run[0], str(path), *flags, *run[1:]]
            assert cli_mod.main(argv) in (0, 1, 2), argv
