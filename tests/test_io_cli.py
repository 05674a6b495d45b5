import json
import math
import tracemalloc

import pytest

from centnet import AttackPlan, GraphInputError, build_graph
from centnet import cli as cli_mod
from centnet import io as cio
from centnet import registry
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
    def _parse_peak_per_line(tmp_path) -> float:
        """Traced peak bytes per line of parsing the BA n=2e4 file."""
        from _synth import ba_edges
        f = tmp_path / "ba.txt"
        edges = ba_edges(20000, 3, 1)
        f.write_text("".join(f"{u} {v}\n" for u, v in edges))
        del edges
        tracemalloc.start()
        try:
            g = cio.parse_edge_list(str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m + g.duplicates_collapsed == 59991
        return peak / 59991

    def test_parse_peak_memory_per_line(self, tmp_path):
        # the parse holds no line and no edge tuple beyond the one it
        # reads: under 300 traced bytes a line, where holding every line
        # and every edge took over 430
        assert self._parse_peak_per_line(tmp_path) < 300

    def test_build_peak_memory_per_line(self, tmp_path):
        # the build streams int32 ids and frees each temporary once read:
        # under 140 traced bytes a line, about twice what the finished
        # graph holds, where the int64 temporaries peaked at 213
        assert self._parse_peak_per_line(tmp_path) < 140


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

    def test_bench_schema_stable(self, p3_file, capsys):
        for repeat in ("1", "3"):
            rc = cli_mod.main(["bench", p3_file, "--metrics",
                               "degree,closeness", "--repeat", repeat])
            assert rc == 0
            lines = capsys.readouterr().out.strip().split("\n")
            assert lines[0] == "metric,elapsed_ms"
            assert [l.split(",")[0] for l in lines[1:]] == \
                ["degree", "closeness"]

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
