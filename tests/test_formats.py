import json

import numpy as np
import pytest

from qprank import formats
from qprank.analysis import attack_sensitivity, damping_sweep
from qprank.graph import benchmark_graph, generate_scale_free
from qprank.szegedy import quantum_rank_series


class TestRankCsv:
    def test_round_trip(self):
        values = np.array([0.1, 0.4, 0.25, 0.25])
        text = formats.write_rank_csv(values, ["a", "b", "c", "d"], {"alpha": 0.85})
        loaded, labels, meta = formats.read_rank_csv(text)
        assert np.array_equal(loaded, values)
        assert labels == ["a", "b", "c", "d"]
        assert meta["alpha"] == "0.85"

    def test_sorted_by_descending_score_with_tie_break(self):
        values = np.array([0.25, 0.4, 0.25, 0.1])
        text = formats.write_rank_csv(values)
        rows = [line.split(",") for line in text.splitlines() if "," in line][1:]
        assert [int(r[0]) for r in rows] == [1, 0, 2, 3]

    def test_exact_float_round_trip(self):
        values = np.array([1 / 3, 2 / 3, 1e-17])
        loaded, _, _ = formats.read_rank_csv(formats.write_rank_csv(values))
        assert np.array_equal(loaded, values)

    def test_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            formats.read_rank_csv("hello,world\n1,2\n")


class TestSeriesCsv:
    def test_round_trip(self):
        series = quantum_rank_series(benchmark_graph("fig1d"), 0.85, 16)
        text = formats.write_series_csv(series, {"steps": 16})
        loaded, meta = formats.read_series_csv(text)
        assert np.array_equal(loaded.instantaneous, series.instantaneous)
        assert np.array_equal(loaded.average, series.average)
        assert meta["steps"] == "16"

    def test_header_names_nodes(self):
        series = quantum_rank_series(benchmark_graph("fig1a"), 0.85, 2)
        text = formats.write_series_csv(series)
        header = text.splitlines()[0]
        assert header == "m,node_0,node_1"
        assert text.splitlines()[-1].startswith("avg,")

    def test_json_fields(self):
        series = quantum_rank_series(benchmark_graph("fig1a"), 0.85, 3)
        obj = formats.series_json(series, {"alpha": 0.85})
        assert obj["steps"] == 3
        assert len(obj["instantaneous"]) == 3
        assert len(obj["average"]) == 2
        json.dumps(obj)


class TestSweepCsv:
    def test_round_trip(self):
        sweep = damping_sweep(benchmark_graph("fig2b"), [0.3, 0.6, 0.9])
        text = formats.write_sweep_csv(sweep, {"ranker": "classical"})
        grid, matrix, meta = formats.read_sweep_csv(text)
        assert grid == sweep.alpha_grid
        assert np.array_equal(matrix, sweep.pairwise)
        assert float(meta["min_fidelity"]) == sweep.min_fidelity

    def test_grid_is_header_and_column(self):
        sweep = damping_sweep(benchmark_graph("fig1d"), [0.25, 0.75])
        lines = [l for l in formats.write_sweep_csv(sweep).splitlines()
                 if not l.startswith("#")]
        assert lines[0].split(",")[1:] == ["0.25", "0.75"]
        assert lines[1].split(",")[0] == "0.25"
        assert lines[2].split(",")[0] == "0.75"


class TestAttackCsv:
    def test_round_trip(self):
        g = generate_scale_free(12, 3)
        report = attack_sensitivity(g, 2, "classical")
        text = formats.write_csv(formats.attack_table(report, {"seed": 3}))
        pre, post, meta = formats.read_attack_csv(text)
        assert np.array_equal(pre, report.pre_ranking)
        assert np.array_equal(post, report.post_ranking)
        assert meta["removed"] == ";".join(str(i) for i in report.removed)
        assert float(meta["correlation"]) == report.correlation

    def test_json_fields(self):
        g = generate_scale_free(10, 4)
        report = attack_sensitivity(g, 1, "classical")
        obj = formats.records_json(formats.attack_table(report))
        assert obj["provenance"]["removed"] == ";".join(str(i) for i in report.removed)
        assert obj["provenance"]["mean_displacement"] == report.mean_displacement
        assert [row["original_index"] for row in obj["rows"]] == list(report.survivors)
        assert [row["post_value"] for row in obj["rows"]] == report.post_ranking.tolist()
        assert len(obj["rows"]) == 9
        json.dumps(obj)


class TestCompareCsv:
    def test_round_trip(self):
        classical = np.array([0.5, 0.3, 0.2])
        quantum = np.array([0.4, 0.35, 0.25])
        text = formats.write_csv(formats.compare_table(["", "", ""], classical, quantum))
        c, q, _ = formats.read_compare_csv(text)
        assert np.array_equal(c, classical)
        assert np.array_equal(q, quantum)

    def test_sorted_by_classical_rank(self):
        classical = np.array([0.2, 0.5, 0.3])
        quantum = np.array([0.3, 0.3, 0.4])
        rows = [line.split(",") for line in
                formats.write_csv(formats.compare_table(["x", "y", "z"], classical,
                                                        quantum)).splitlines()][1:]
        assert [r[0] for r in rows] == ["1", "2", "0"]
        assert [int(r[4]) for r in rows] == [1, 2, 3]
