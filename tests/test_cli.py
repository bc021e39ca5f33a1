import functools
import json
import subprocess
import sys

import numpy as np
import pytest

from qprank import formats
from qprank.cli import main, parse_grid
from qprank.graph import benchmark_graph, parse_edge_list


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
    def test_missing_file_is_2(self, capsys):
        assert main(["rank", "--input", "/no/such/file.txt"]) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 2\n")
        assert main(["rank", "--input", str(bad)]) == 3
        assert "parse error" in capsys.readouterr().err

    def test_invalid_parameters_is_4(self, capsys):
        assert main(["rank", "--benchmark", "fig9"]) == 4
        assert main(["rank", "--gen", "wibble:10"]) == 4
        assert main(["rank", "--benchmark", "fig1a", "--alpha", "1.5"]) == 4
        assert main(["sweep", "--benchmark", "fig1a", "--grid", "nope"]) == 4
        assert main(["frobnicate"]) == 4
        capsys.readouterr()

    def test_non_convergence_is_4(self, monkeypatch, capsys):
        import qprank.cli as cli
        monkeypatch.setattr(cli, "classical_pagerank",
                            functools.partial(cli.classical_pagerank, max_iter=5))
        assert main(["rank", "--gen", "scalefree:64", "--seed", "1"]) == 4
        assert "did not converge" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, capsys):
        assert main(["rank"]) == 4
        assert main(["rank", "--benchmark", "fig1a", "--gen", "tree:3"]) == 4
        capsys.readouterr()

    def test_success_is_0(self, tmp_path):
        code, data = run_cli(["rank", "--benchmark", "fig1a"], tmp_path)
        assert code == 0
        assert data.startswith(b"#")


class TestPipelines:
    def test_bare_rank_reproduces_published_vector(self, tmp_path):
        code, data = run_cli(["rank", "--benchmark", "fig1d", "--alpha", "1.0", "--bare"],
                             tmp_path)
        assert code == 0
        values, _, meta = formats.read_rank_csv(data.decode())
        assert np.abs(values - np.array([0.0, 0.0, 0.6, 0.4])).max() < 1e-9
        assert meta["bare"] == "e"

    def test_bare_h_reports_degenerate(self, tmp_path):
        code, data = run_cli(["rank", "--benchmark", "fig1a", "--bare", "h",
                              "--format", "json"], tmp_path)
        assert code == 0
        obj = json.loads(data)
        assert obj["degenerate"] is True
        assert obj["values"] == [0.0, 0.0]

    def test_gen_round_trips_through_parser(self, tmp_path):
        code, data = run_cli(["gen", "--gen", "scalefree:32", "--seed", "5"], tmp_path)
        assert code == 0
        from qprank.graph import generate_scale_free
        assert parse_edge_list(data.decode()) == generate_scale_free(32, 5)

    def test_gen_json(self, tmp_path):
        code, data = run_cli(["gen", "--benchmark", "fig1c", "--format", "json"], tmp_path)
        obj = json.loads(data)
        assert obj["node_count"] == 4
        assert sorted(tuple(a) for a in obj["arcs"]) == sorted(benchmark_graph("fig1c").arcs)

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
            capture_output=True, text=True)
        assert result.returncode == 0
        values, _, _ = formats.read_rank_csv(result.stdout)
        assert abs(values.sum() - 1.0) < 1e-9
