import argparse
import ast
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qprank
from graph_oracles import arc_set
from qprank import formats
from qprank.cli import build_parser, load_graph, main, parse_grid
from qprank.graph import benchmark_graph, generate_scale_free, parse_edge_list, to_edge_list
from qprank.szegedy import quantum_rank_series
from test_analysis import _peak_bytes
from test_formats import written


def child_env():
    """Environment for a child interpreter that imports the same package as
    this process, installed or not."""
    src = str(Path(qprank.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


SHARED_FLAGS = {"--input", "--gen", "--benchmark", "--seed", "--format", "--output"}


def offered_flags():
    """Each subcommand's option strings, without --help."""
    subparsers, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in sub._actions for flag in action.option_strings}
            - {"-h", "--help"} for name, sub in subparsers.choices.items()}


def run_cli(args, tmp_path, name="out.txt"):
    """Invoke the CLI in-process, writing to a file; returns (code, bytes)."""
    path = tmp_path / name
    code = main(list(args) + ["--output", str(path)])
    data = path.read_bytes() if path.exists() else b""
    return code, data


class TestParseGrid:
    def test_inclusive_endpoints(self):
        grid = parse_grid("0.01:0.98:20")
        assert len(grid) == 20
        assert grid[0] == 0.01
        assert abs(grid[-1] - 0.98) < 1e-15

    def test_singleton(self):
        assert parse_grid("0.85:0.9:1") == [0.85]

    def test_malformed(self):
        for bad in ("0.1:0.9", "a:b:c", "0.1:0.9:0"):
            with pytest.raises(Exception):
                parse_grid(bad)


class TestExitCodes:
    def test_missing_file_is_2(self, tmp_path, capsys):
        assert main(["rank", "--input", "/no/such/file.txt"]) == 2
        assert "cannot read input" in capsys.readouterr().err
        # an output path in a missing directory, or naming a directory
        for target in (tmp_path / "no" / "such" / "out.csv", tmp_path):
            assert main(["rank", "--benchmark", "fig1a", "--output", str(target)]) == 2
            assert f"qprank: cannot write output: {target}\n" == capsys.readouterr().err

    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 2\n")
        assert main(["rank", "--input", str(bad)]) == 3
        assert "parse error" in capsys.readouterr().err
        # bytes that are not UTF-8; the offset counts raw bytes, before \r\n is read as \n
        for data, offset in ((b"\xff\xfe1 2\n", 0), (b"0 1\r\n1 \xe9\n", 7)):
            bad.write_bytes(data)
            assert main(["rank", "--input", str(bad)]) == 3
            assert f"parse error: {bad}: byte {offset}: not UTF-8" in capsys.readouterr().err

    def test_non_ascii_digits_and_empty_graphs_are_parse_errors(self, tmp_path, capsys):
        for name, text in (("sup.net", "*Vertices \u00b2\n*Arcs\n"),
                           ("arc.net", "*Vertices 2\n*Arcs\n1 \u00b2\n"),
                           ("empty.txt", "# vertices: 0\n"),
                           ("huge.txt", f"# vertices: {'9' * 20}\n0 1\n"),
                           ("huge.net", f"*Vertices {'9' * 20}\n*Arcs\n1 2\n")):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            assert main(["rank", "--input", str(path)]) == 3, text
            assert "parse error" in capsys.readouterr().err

    def test_overlong_numbers_are_parse_errors(self, tmp_path, capsys):
        # beyond Python's 4300-digit limit for int(), which raised ValueError (exit 4)
        big = "9" * 5000
        for name, text, line in (("count.txt", f"# vertices: {big}\n0 1\n", "line 1"),
                                 ("arc.txt", f"# vertices: 3\n0 1\n1 {big}\n", "line 3"),
                                 ("count.net", f"*Vertices {big}\n*Arcs\n1 2\n", "line 1"),
                                 ("vertex.net", f'*Vertices 3\n{big} "x"\n*Arcs\n', "line 2"),
                                 ("arc.net", f"*Vertices 3\n*Arcs\n1 {big}\n", "line 3")):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            assert main(["rank", "--input", str(path)]) == 3, name
            assert f"parse error: {line}:" in capsys.readouterr().err

    def test_conflicting_vertex_counts_are_parse_errors(self, tmp_path, capsys):
        for name, text, line in (("labelled.txt", "# vertices: 5\na b\n", "line 1"),
                                 ("twice.txt", "# vertices: 3\n0 1\n# vertices: 4\n", "line 3"),
                                 ("twice.net", "*Vertices 3\n*Arcs\n1 2\n*Vertices 4\n"
                                               "*Arcs\n3 4\n", "line 4")):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            assert main(["rank", "--input", str(path)]) == 3, text
            assert f"parse error: {line}:" in capsys.readouterr().err

    def test_invalid_parameters_is_4(self, capsys):
        assert main(["rank", "--benchmark", "fig9"]) == 4
        assert main(["rank", "--gen", "wibble:10"]) == 4
        assert main(["rank", "--benchmark", "fig1a", "--alpha", "1.5"]) == 4
        assert main(["sweep", "--benchmark", "fig1a", "--grid", "nope"]) == 4
        assert main(["frobnicate"]) == 4
        assert main(["analyze", "--benchmark", "fig2b", "--delta", "nan"]) == 4
        capsys.readouterr()
        # a misspelt or non-canonical source, a flag the other flags' values
        # leave unread, or a flag for the walk kernel or the tolerance is
        # refused, not ignored
        graph = ["--gen", "scalefree:16"]
        for argv, message in (
                (["rank", "--gen", "sf:64"], "scalefree"),
                (["rank", "--gen", "ScaleFree:64"], "scalefree"),
                (["rank", "--benchmark", "FIG1D"], "unknown benchmark"),
                (["rank", "--gen", "scalefree:x"], "bad generator spec"),
                (["rank", "--gen", "tree: +3"], "bad generator spec"),
                (["rank", "--gen", "scalefree:6_4"], "bad generator spec"),
                (["rank", "--gen", "scalefree:\u0666\u0664"], "bad generator spec"),
                (["rank", "--gen", "scalefree:064"], "bad generator spec"),
                (["gen", "--gen", "tree:" + "1" * 5000],
                 "generator size 11111111111111111111... (5000 digits) is out of range"),
                (["gen", "--gen", "hierarchical:" + "9" * 5000], "(5000 digits) is out of range"),
                (["gen", "--gen", "scalefree:99999999999"],
                 "generator size 99999999999 is out of range"),
                (["gen", "--gen", "tree:32"], "levels must be between 1 and 31"),
                (["rank", "--benchmark", "fig1d", "--seed", "5"], "--seed"),
                (["rank", "--gen", "tree:3", "--seed", "1"], "--seed"),
                (["rank", "--benchmark", "fig1d", "--bare", "--alpha", "0.3"], "--bare"),
                (["rank", "--benchmark", "fig1a", "--bare", "h", "--alpha", "0.85"], "--bare"),
                (["rank", "--benchmark", "fig1a", "--tol", "nan"],
                 "unrecognized arguments: --tol nan"),
                (["sweep", *graph, "--grid", "0.5:0.8:2", "--backend", "direct"],
                 "unrecognized arguments: --backend direct"),
                (["attack", *graph, "--remove", "1", "--ranker", "classical",
                  "--backend", "direct"], "unrecognized arguments: --backend direct"),
                (["qrank", *graph, "--backend", "auto"], "unrecognized arguments: --backend auto"),
                (["analyze", *graph, "--ranker", "classical", "--backend", "spectral"],
                 "unrecognized arguments: --backend spectral")):
            assert main(argv) == 4, argv
            assert message in capsys.readouterr().err
        assert main(["rank", "--benchmark", "fig1d", "--bare", "--alpha", "1"]) == 0
        capsys.readouterr()
        # a flag its subcommand does not read is refused, not ignored; no
        # subcommand reads one for the walk kernel or the tolerance
        required = {"sweep": ["--grid", "0.5:0.8:2"], "attack": ["--remove", "1"]}
        for command, flag, value in (
                ("gen", "--alpha", "7"), ("gen", "--steps", "-5"), ("rank", "--steps", "8"),
                ("sweep", "--alpha", "9"),
                *((command, flag, value) for command in offered_flags()
                  for flag, value in (("--tol", "0.5"), ("--backend", "direct")))):
            argv = [command, "--gen", "scalefree:16", *required.get(command, []), flag, value]
            assert main(argv) == 4, argv
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
            assert main(argv[:-2]) == 0, argv
            capsys.readouterr()

    def test_each_subcommand_offers_exactly_its_flags(self):
        expected = {
            "gen": set(),
            "rank": {"--alpha", "--bare"},
            "qrank": {"--alpha", "--steps"},
            "sweep": {"--steps", "--grid", "--ranker"},
            "attack": {"--alpha", "--steps", "--remove", "--ranker"},
            "analyze": {"--alpha", "--steps", "--ranker", "--delta"},
            "compare": {"--alpha", "--steps"},
        }
        offered = offered_flags()
        assert offered == {name: SHARED_FLAGS | flags for name, flags in expected.items()}
        assert sum(map(len, offered.values())) == 59

    def test_main_parses_with_one_parser_per_process(self):
        import qprank.cli as cli
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()
        args = cli._parser().parse_args(["rank", "--benchmark", "fig1d", "--alpha", "0.5"])
        assert args.alpha == 0.5
        args = cli._parser().parse_args(["rank", "--benchmark", "fig1d"])
        assert args.alpha is None and args.bare is None

    def test_readme_flag_table_matches_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| subcommand | flags besides source and output |\n|---|---|\n")[1]
        rows = {}
        for line in table.splitlines():
            if not line.startswith("| `"):
                break
            command, flags = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
            rows[command] = set(re.findall(r"--[a-z]+", flags))
        assert rows == {name: flags - SHARED_FLAGS for name, flags in offered_flags().items()}

    def test_readme_library_names_resolve(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        names = set(re.findall(r"\bq\.(\w+(?:\.\w+)*)", readme))
        assert {"GoogleMatrix", "DirectedGraph.from_arcs", "szegedy.unit_modes"} <= names
        for name in sorted(names):
            functools.reduce(getattr, name.split("."), qprank)

    def test_non_convergence_is_4(self, monkeypatch, capsys):
        from qprank import pagerank
        monkeypatch.setattr(pagerank, "power_method",
                            functools.partial(pagerank.power_method, max_iter=5))
        assert main(["rank", "--gen", "scalefree:64", "--seed", "1"]) == 4
        assert "did not converge" in capsys.readouterr().err

    def test_out_of_memory_is_4(self, monkeypatch, capsys):
        import qprank.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(cli, "generate", exhausted)
        assert main(["gen", "--gen", "tree:40"]) == 4
        assert "qprank: not enough memory: Unable to allocate" in capsys.readouterr().err
        # qrank's walk runs as its rows are written, so no check refuses a long
        # one up front; this walk runs out of memory at its first block
        def blocks_exhausted(stream):
            exhausted()
            yield

        monkeypatch.setattr(cli.SeriesStream, "blocks", blocks_exhausted)
        assert main(["qrank", "--benchmark", "fig2b", "--steps", "100000000"]) == 4
        assert "not enough memory" in capsys.readouterr().err

    def test_scale_free_beyond_physical_memory_is_4(self, monkeypatch, capsys):
        from qprank import graph
        monkeypatch.setattr(graph, "_physical_memory", lambda: 256 << 20)
        assert main(["gen", "--gen", "scalefree:1000000"]) == 4
        assert ("qprank: not enough memory: a scale-free graph of 1000000 nodes"
                in capsys.readouterr().err)

    def test_tree_beyond_physical_memory_is_4(self, monkeypatch, capsys):
        from qprank import graph
        monkeypatch.setattr(graph, "_physical_memory", lambda: 256 << 20)
        assert main(["gen", "--gen", "tree:23"]) == 4
        assert ("qprank: not enough memory: a binary tree of 8388607 nodes"
                in capsys.readouterr().err)

    def test_requires_exactly_one_source(self, capsys):
        assert main(["rank"]) == 4
        assert main(["rank", "--benchmark", "fig1a", "--gen", "tree:3"]) == 4
        capsys.readouterr()

    def test_success_is_0(self, tmp_path):
        code, data = run_cli(["rank", "--benchmark", "fig1a"], tmp_path)
        assert code == 0
        assert data.startswith(b"#")

    def test_help_is_0(self, capsys):
        for argv in (["--help"], ["qrank", "--help"]):
            assert main(argv) == 0
            assert capsys.readouterr().out.startswith("usage: ")


class TestStreamedOutput:
    """Each handler validates its run and admits its memory, then ``main``
    opens the output and writes the chunks the handler returns, row by row.
    Every handler but ``qrank`` has computed its result by then; ``qrank``'s
    walk runs as its rows are written."""

    def test_failed_runs_leave_no_output_file(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["qrank", "--benchmark", "fig2b", "--steps", "0", "--output", str(out)]) == 4
        assert main(["rank", "--input", str(tmp_path / "missing.txt"),
                     "--output", str(out)]) == 2
        (tmp_path / "bad.txt").write_text("0 1 2\n")
        assert main(["rank", "--input", str(tmp_path / "bad.txt"), "--output", str(out)]) == 3
        capsys.readouterr()
        assert not out.exists()

    def test_qrank_checks_its_steps_before_the_walk_operator(self, monkeypatch, tmp_path,
                                                             capsys):
        # the N x N operator is the run's largest cost; a run of no steps never pays it
        import qprank.cli as cli

        def built(*args, **kwargs):
            pytest.fail("the walk operator was built for a run of no steps")

        monkeypatch.setattr(cli, "walk_operator", built)
        out = tmp_path / "out.csv"
        assert main(["qrank", "--benchmark", "fig2b", "--steps", "0", "--output", str(out)]) == 4
        assert "steps must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_metadata_with_a_line_break_is_refused(self, tmp_path, capsys):
        # the path would split its "# source=" line, leaving read_rank_csv no header
        web = tmp_path / "we\nb.txt"
        web.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["rank", "--input", str(web), "--output", str(out)]) == 4
        assert "line break" in capsys.readouterr().err
        assert not out.exists()
        code, data = run_cli(["rank", "--input", str(web), "--format", "json"], tmp_path)
        assert code == 0 and json.loads(data)["provenance"]["source"] == str(web)

    def test_output_is_opened_only_after_the_walk(self, monkeypatch, tmp_path, capsys):
        # the walk operator is built and admitted before the output is opened
        import qprank.cli as cli
        out = tmp_path / "out.csv"
        walk = cli.walk_operator

        def exhausted(*args, **kwargs):
            assert not out.exists()
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        def checked(*args, **kwargs):
            assert not out.exists()
            return walk(*args, **kwargs)

        monkeypatch.setattr(cli, "walk_operator", exhausted)
        assert main(["qrank", "--benchmark", "fig2b", "--output", str(out)]) == 4
        assert "not enough memory" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "walk_operator", checked)
        assert main(["qrank", "--benchmark", "fig2b", "--steps", "8",
                     "--output", str(out)]) == 0
        assert formats.read_series_csv(out.read_text())[0].steps == 8

    def test_walk_out_of_memory_while_writing_removes_the_partial_file(
            self, monkeypatch, tmp_path, capsys):
        import qprank.cli as cli
        out = tmp_path / "out.csv"
        blocks = cli.SeriesStream.blocks

        def exhausted(stream):
            it = blocks(stream)
            yield next(it)
            assert out.exists()  # the walk runs while its rows are written
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(cli.SeriesStream, "blocks", exhausted)
        assert main(["qrank", "--benchmark", "fig2b", "--steps", "300",
                     "--output", str(out)]) == 4
        assert "qprank: not enough memory: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()

    # A 64-row block readout gives other last bits than one whole-history
    # product at N = 100 and 255; fig1a and fig2b at alpha = 1 deflate unit
    # modes. 300 two-steps end on a short block.
    @pytest.mark.parametrize("flags", [["--gen", "scalefree:100"], ["--gen", "scalefree:255"],
                                       ["--benchmark", "fig1a", "--alpha", "1"],
                                       ["--benchmark", "fig2b", "--alpha", "1"]],
                             ids=["sf100", "sf255", "fig1a", "fig2b"])
    def test_qrank_writes_the_library_series(self, flags, tmp_path):
        args = build_parser().parse_args(["qrank", *flags, "--steps", "300"])
        g, meta = load_graph(args)
        series = quantum_rank_series(g, args.alpha, args.steps)
        meta = dict(meta, alpha=args.alpha, steps=args.steps, backend="direct")
        for fmt, text in (("csv", written(formats.series_csv(series, meta))),
                          ("json", "".join(formats.series_json(series, meta)))):
            argv = ["qrank", *flags, "--steps", "300", "--format", fmt]
            assert run_cli(argv, tmp_path) == (0, text.encode())

    def test_failed_write_removes_the_partial_file(self, monkeypatch, tmp_path, capsys):
        def disk_full(*args, **kwargs):
            yield "# source=benchmark:fig2b\n"
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(formats, "series_csv", disk_full)
        out = tmp_path / "out.csv"
        assert main(["qrank", "--benchmark", "fig2b", "--steps", "8",
                     "--output", str(out)]) == 2
        assert f"cannot write output: {out}" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_gets_the_same_bytes(self, tmp_path, capsysbinary):
        for argv in (["qrank", "--benchmark", "fig2b", "--steps", "8"],
                     ["rank", "--benchmark", "fig1a", "--format", "json"]):
            code, data = run_cli(argv, tmp_path)
            assert code == main(argv) == 0
            assert capsysbinary.readouterr().out == data

    def test_walk_beyond_physical_memory_is_4(self, monkeypatch, tmp_path, capsys):
        from qprank import graph
        # 1 MiB, less than the 1.2 MB of a walk on 256 nodes
        monkeypatch.setattr(graph, "_physical_memory", lambda: 1 << 20)
        out = tmp_path / "out.csv"
        assert main(["qrank", "--gen", "scalefree:256", "--steps", "16",
                     "--output", str(out)]) == 4
        assert ("qprank: not enough memory: a quantum walk on 256 nodes and "
                in capsys.readouterr().err)
        assert not out.exists()

    # tracemalloc peaks of whole runs. The series is 8 * steps * N = 2 MiB;
    # writers that held it as Python strings peaked at 22 MB (CSV) and 41 MB
    # (JSON), and a run that held it as floats, with the registers' history
    # and the whole-history readout product, at 6.4 MB. Streamed, it peaks
    # at 0.40 MB. The rank JSON built as one object peaked at 2.8x its CSV run.
    QRANK = ["qrank", "--gen", "scalefree:64", "--seed", "2", "--steps", "4096"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_series_is_never_held_as_text(self, fmt, tmp_path):
        argv = [*self.QRANK, "--format", fmt, "--output", str(tmp_path / "out")]
        assert main([*argv, "--steps", "16"]) == 0  # warm up lazy imports and caches
        assert _peak_bytes(lambda: main(argv)) <= 0.5 * 4096 * 64 * 8

    # qrank holding its series peaked at 16x compare (6.42 against 0.40 MB)
    # and at 6.1x (13.7 against 2.27 MB); streamed, at 1.00x and, on the
    # sparse kernel at N = 256, 1.26x (1.05 against 0.83 MB)
    @pytest.mark.parametrize("size, steps", [(64, 4096), (256, 2048)])
    def test_qrank_costs_little_more_than_compare(self, size, steps, tmp_path):
        flags = ["--gen", f"scalefree:{size}", "--seed", "2", "--output", str(tmp_path / "out")]
        peaks = []
        for command in ("qrank", "compare"):
            assert main([command, *flags, "--steps", "16"]) == 0  # warm up
            peaks.append(_peak_bytes(lambda: main([command, *flags, "--steps", str(steps)])))
        assert peaks[0] <= 1.5 * peaks[1], peaks

    def test_json_table_costs_little_more_than_csv(self, tmp_path):
        # the graph is read from a file: generating it under tracemalloc is slow
        edges = tmp_path / "web.txt"
        edges.write_text(to_edge_list(generate_scale_free(8192, 0)), encoding="utf-8")
        rank = ["rank", "--input", str(edges), "--output", str(tmp_path / "out")]
        assert main(rank) == main([*rank, "--format", "json"]) == 0
        peaks = [_peak_bytes(lambda argv=argv: main(argv))
                 for argv in (rank, [*rank, "--format", "json"])]
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestPipelines:
    def test_bare_rank_reproduces_published_vector(self, tmp_path):
        code, data = run_cli(["rank", "--benchmark", "fig1d", "--alpha", "1.0", "--bare"],
                             tmp_path)
        assert code == 0
        values, _, meta = formats.read_rank_csv(data.decode())
        assert np.abs(values - np.array([0.0, 0.0, 0.6, 0.4])).max() < 1e-9
        assert meta["bare"] == "e"
        assert (meta["orbit"], meta["converged"]) == ("True", "False")

    def test_bare_rank_tells_exhausted_run_from_orbit(self, tmp_path):
        code, data = run_cli(["rank", "--benchmark", "fig1c", "--bare"], tmp_path)
        assert code == 0
        _, _, meta = formats.read_rank_csv(data.decode())
        assert (meta["orbit"], meta["converged"]) == ("False", "False")

    def test_bare_h_reports_degenerate(self, tmp_path):
        code, data = run_cli(["rank", "--benchmark", "fig1a", "--bare", "h",
                              "--format", "json"], tmp_path)
        assert code == 0
        obj = json.loads(data)
        assert obj["provenance"]["degenerate"] is True
        assert [row["score"] for row in obj["rows"]] == [0.0, 0.0]

    def test_pajek_after_leading_comments_ranks_like_plain_pajek(self, tmp_path):
        plain = tmp_path / "plain.net"
        plain.write_text(TestRecordTables.LABELLED, encoding="utf-8")
        noted = tmp_path / "noted.net"
        noted.write_text("% exported by hand\n\n  %\r\n" + TestRecordTables.LABELLED,
                         encoding="utf-8")
        code, want = run_cli(["rank", "--input", str(plain)], tmp_path, "plain.csv")
        assert code == 0
        code, got = run_cli(["rank", "--input", str(noted)], tmp_path, "noted.csv")
        assert code == 0
        assert got.replace(b"noted.net", b"plain.net") == want
        assert b'"home, page"' in got

    def test_gen_round_trips_through_parser(self, tmp_path):
        code, data = run_cli(["gen", "--gen", "scalefree:32", "--seed", "5"], tmp_path)
        assert code == 0
        from qprank.graph import generate_scale_free
        assert parse_edge_list(data.decode()) == generate_scale_free(32, 5)

    def test_gen_json(self, tmp_path):
        code, data = run_cli(["gen", "--benchmark", "fig1c", "--format", "json"], tmp_path)
        obj = json.loads(data)
        assert obj["node_count"] == 4
        want = sorted(arc_set(benchmark_graph("fig1c")))
        assert sorted(tuple(a) for a in obj["arcs"]) == want

    def test_qrank_csv_parses_back(self, tmp_path):
        code, data = run_cli(["qrank", "--benchmark", "fig1d", "--steps", "32"], tmp_path)
        assert code == 0
        series, meta = formats.read_series_csv(data.decode())
        assert series.steps == 32
        assert meta["alpha"] == "0.85"
        assert np.abs(series.instantaneous.sum(axis=1) - 1.0).max() < 1e-10

    def test_sweep_csv_parses_back(self, tmp_path):
        code, data = run_cli(["sweep", "--benchmark", "fig2b", "--grid", "0.2:0.8:4",
                              "--ranker", "classical"], tmp_path)
        assert code == 0
        grid, matrix, meta = formats.read_sweep_csv(data.decode())
        assert len(grid) == 4
        assert matrix.shape == (4, 4)
        assert 0.0 < float(meta["min_fidelity"]) <= 1.0

    def test_attack_csv_parses_back(self, tmp_path):
        code, data = run_cli(["attack", "--gen", "scalefree:16", "--seed", "2",
                              "--remove", "2"], tmp_path)
        assert code == 0
        pre, post, meta = formats.read_attack_csv(data.decode())
        assert len(pre) == len(post) == 14
        assert meta["ranker"] == "classical"

    def test_compare_tree_root_first_in_both(self, tmp_path):
        code, data = run_cli(["compare", "--gen", "tree:3", "--steps", "256"], tmp_path)
        assert code == 0
        lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
        first = lines[1].split(",")
        assert first[0] == "0"  # root tops the classical ordering
        assert first[4] == "1" and first[5] == "1"

    def test_compare_fig2b_quantum_spread_smaller(self, tmp_path):
        code, data = run_cli(["compare", "--benchmark", "fig2b"], tmp_path)
        classical, quantum, _ = formats.read_compare_csv(data.decode())
        assert quantum.max() - quantum.min() < classical.max() - classical.min()

    def test_compare_scale_free_fixture_keeps_top_hubs(self, tmp_path):
        # regression fixture: the three dominant hubs top both rankings
        code, data = run_cli(["compare", "--gen", "scalefree:128", "--seed", "2",
                              "--steps", "1024"], tmp_path)
        assert code == 0
        classical, quantum, _ = formats.read_compare_csv(data.decode())
        from qprank.analysis import top_nodes
        assert top_nodes(classical, 3) == (0, 1, 2)
        assert set(top_nodes(quantum, 3)) == {0, 1, 2}

    def test_labels_with_csv_delimiters_read_back(self, tmp_path):
        edges = tmp_path / "labels.txt"
        edges.write_text('a,b c\nc q"r\nq"r a,b\nc a,b\n')
        code, data = run_cli(["rank", "--input", str(edges)], tmp_path, "rank.csv")
        assert code == 0
        values, labels, _ = formats.read_rank_csv(data.decode())
        assert labels == ["a,b", "c", 'q"r']
        code, data = run_cli(["compare", "--input", str(edges), "--steps", "64"], tmp_path,
                             "compare.csv")
        assert code == 0
        classical, quantum, _ = formats.read_compare_csv(data.decode())
        assert np.array_equal(classical, values)
        assert abs(quantum.sum() - 1.0) < 1e-10

    # A UTF-8 byte-order mark opening a file marks its encoding. It was read
    # as part of the first label, so "0" and "\ufeff0" made two nodes, and a
    # marked Pajek file was read as an edge list and refused.
    @pytest.mark.parametrize("name, text", [
        ("web.txt", "0 1\n1 2\n2 0\n"),
        ("labels.txt", "a b\nb c\nc a\n"),
        ("web.net", '*Vertices 3\n1 "x"\n*Arcs\n1 2\n2 3\n3 1\n'),
    ], ids=["edges", "labels", "pajek"])
    def test_byte_order_mark_leaves_the_graph_unchanged(self, name, text, tmp_path):
        path = tmp_path / name
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(mark + text.encode())
            outputs.append(run_cli(["rank", "--input", str(path)], tmp_path))
        assert outputs[0][0] == 0 and b"\n# graph=" in outputs[0][1]
        assert outputs[1] == outputs[0]

    def test_analyze_both_rankers(self, tmp_path):
        code, data = run_cli(["analyze", "--gen", "scalefree:32", "--seed", "4",
                              "--steps", "256"], tmp_path)
        assert code == 0
        lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("ranker,ipr,")
        assert lines[1].split(",")[0] == "classical"
        assert lines[2].split(",")[0] == "quantum"
        ipr_classical = float(lines[1].split(",")[1])
        assert 1.0 <= ipr_classical <= 32.0

    def test_analyze_pajek_input_lifts_degeneracy(self, tmp_path):
        # ingestion path for real-world datasets: Pajek file in, analysis out
        from qprank.graph import generate_scale_free, to_pajek
        net = tmp_path / "web.net"
        net.write_text(to_pajek(generate_scale_free(64, 7)))
        code, data = run_cli(["analyze", "--input", str(net), "--steps", "512"], tmp_path)
        assert code == 0
        lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
        classes_classical = int(lines[1].split(",")[5])
        classes_quantum = int(lines[2].split(",")[5])
        assert classes_quantum > classes_classical

    def test_analyze_json(self, tmp_path):
        code, data = run_cli(["analyze", "--benchmark", "fig2b", "--ranker", "classical",
                              "--format", "json"], tmp_path)
        obj = json.loads(data)
        assert obj["rows"][0]["ranker"] == "classical"
        assert obj["provenance"]["graph"]


class TestRecordTables:
    """Every table subcommand builds one metadata record: its JSON
    provenance is its CSV ``# key=value`` block, key for key. ``rank``,
    ``attack``, ``analyze`` and ``compare`` write one table in both formats,
    so their JSON rows are the CSV rows, field for field; ``qrank`` and
    ``sweep`` have matrix-shaped JSON bodies."""

    LABELLED = ('*Vertices 5\n1 "home, page"\n2 "b"\n3 "c d"\n4 "x\'y"\n5 "e"\n'
                "*Arcs\n1 2\n2 3\n3 1\n4 1\n1 4\n5 2\n")

    COMMANDS = {
        "analyze": ["analyze", "--ranker", "both", "--steps", "128"],
        "compare": ["compare", "--steps", "128"],
        "rank": ["rank"],
        "rank-bare-e": ["rank", "--bare", "e"],
        "rank-bare-h": ["rank", "--bare", "h"],
        "attack": ["attack", "--remove", "2", "--ranker", "quantum", "--steps", "128"],
        "qrank": ["qrank", "--steps", "16"],
        "sweep": ["sweep", "--grid", "0.5:0.9:3", "--ranker", "quantum", "--steps", "128"],
    }

    @staticmethod
    def _text(value):
        return repr(value) if isinstance(value, float) else str(value)

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("graph", ["fig2b", "labelled"])
    def test_json_rows_equal_csv_rows(self, command, graph, tmp_path):
        if graph == "labelled":
            (tmp_path / "web.net").write_text(self.LABELLED, encoding="utf-8")
            source = ["--input", str(tmp_path / "web.net")]
        else:
            source = ["--benchmark", graph]
        argv = [*self.COMMANDS[command], *source]
        code, text = run_cli(argv, tmp_path, "out.csv")
        assert code == 0
        code, data = run_cli([*argv, "--format", "json"], tmp_path, "out.json")
        assert code == 0
        meta, rows = formats._split_csv(text.decode())
        obj = json.loads(data)
        assert {key: self._text(value) for key, value in obj["provenance"].items()} == meta
        if command in ("qrank", "sweep"):
            assert "rows" not in obj
            return
        assert len(obj["rows"]) == len(rows) - 1 > 0
        for record, row in zip(obj["rows"], rows[1:]):
            assert list(record) == rows[0]
            assert [self._text(value) for value in record.values()] == row
        if graph == "labelled" and command in ("compare", "rank"):
            assert b'"home, page"' in text


class TestBackendMetadata:
    """Outputs that ran the quantum walk name its backend, always ``direct``."""

    GRAPH = ["--gen", "scalefree:16", "--seed", "3", "--steps", "32"]

    @pytest.mark.parametrize("argv", [
        ["qrank"], ["compare"], ["sweep", "--grid", "0.5:0.8:2", "--ranker", "quantum"],
        ["attack", "--remove", "1", "--ranker", "quantum"], ["analyze"],
        ["analyze", "--ranker", "quantum"]], ids=lambda a: "-".join(a[::2]))
    def test_quantum_outputs_record_backend(self, argv, tmp_path):
        code, data = run_cli([*argv, *self.GRAPH], tmp_path)
        assert code == 0
        assert "# backend=direct\n" in data.decode()
        code, data = run_cli([*argv, *self.GRAPH, "--format", "json"], tmp_path)
        assert json.loads(data)["provenance"]["backend"] == "direct"

    @pytest.mark.parametrize("argv", [
        ["rank"], ["sweep", "--grid", "0.5:0.8:2"], ["attack", "--remove", "1"],
        ["analyze", "--ranker", "classical"]], ids=lambda a: a[0])
    def test_classical_outputs_have_no_backend(self, argv, tmp_path):
        graph = self.GRAPH[:-2] if argv == ["rank"] else self.GRAPH  # rank takes no --steps
        code, data = run_cli([*argv, *graph], tmp_path)
        assert code == 0
        assert b"backend" not in data


class TestColdStart:
    def test_import_does_not_load_scipy_stats(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, qprank, qprank.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
            capture_output=True, text=True, env=child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


def _private_names(tree: ast.Module) -> list[str]:
    """The ``_``-prefixed functions, classes and constants a module defines at
    its top level, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_used_in_the_package():
    """A private name that nothing in the package reads serves only the tests
    or the benchmark: it belongs in ``tests/`` or should go."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(qprank.__file__).parent.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unused = [f"{module}:{name}" for module, tree in sorted(trees.items())
              for name in _private_names(tree) if name not in read]
    assert unused == []


class TestDeterminism:
    PIPELINES = [
        ["gen", "--gen", "scalefree:48", "--seed", "11"],
        ["rank", "--gen", "scalefree:48", "--seed", "11"],
        ["qrank", "--gen", "scalefree:24", "--seed", "11", "--steps", "64"],
        ["sweep", "--gen", "scalefree:24", "--seed", "11", "--grid", "0.2:0.8:3",
         "--ranker", "quantum", "--steps", "64"],
        ["attack", "--gen", "scalefree:24", "--seed", "11", "--remove", "2",
         "--ranker", "quantum", "--steps", "64"],
        ["analyze", "--gen", "scalefree:24", "--seed", "11", "--steps", "64"],
        ["compare", "--gen", "scalefree:24", "--seed", "11", "--steps", "64",
         "--format", "json"],
    ]

    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p[0])
    def test_reruns_are_byte_identical(self, pipeline, tmp_path):
        code1, first = run_cli(pipeline, tmp_path, "a.txt")
        code2, second = run_cli(pipeline, tmp_path, "b.txt")
        assert code1 == code2 == 0
        assert first == second

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "qprank", "rank", "--benchmark", "fig1a"],
            capture_output=True, text=True, env=child_env())
        assert result.returncode == 0
        values, _, _ = formats.read_rank_csv(result.stdout)
        assert abs(values.sum() - 1.0) < 1e-9


# The sparse kernel (N = 300) steps and reads out through CSR products and
# numpy reductions only, so no BLAS product, which OpenBLAS may split across
# threads, touches its bytes. The dense kernel (N = 100) reads out the same way
# but still steps with BLAS matrix-vector products.
THREAD_PIPELINES = {
    "compare": ["compare", "--gen", "scalefree:300"],
    "sweep": ["sweep", "--gen", "scalefree:300", "--ranker", "quantum", "--grid", "0.5:0.9:3"],
    "qrank": ["qrank", "--gen", "scalefree:300"],
    "qrank-dense": ["qrank", "--gen", "scalefree:100"],
}


@pytest.fixture(scope="module")
def outputs_by_threads():
    """Each pipeline's bytes at one and at two BLAS threads, one child process
    each."""
    def run(args, threads):
        return subprocess.run(
            [sys.executable, "-m", "qprank", *args, "--seed", "0", "--steps", "64"],
            capture_output=True, check=True,
            env={**child_env(), "OPENBLAS_NUM_THREADS": str(threads)}).stdout

    return {name: [run(args, threads) for threads in (1, 2)]
            for name, args in THREAD_PIPELINES.items()}


@pytest.mark.parametrize("name", sorted(THREAD_PIPELINES))
def test_bytes_do_not_depend_on_blas_threads(name, outputs_by_threads):
    one, two = outputs_by_threads[name]
    assert one == two
