import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qprank import formats
from qprank.analysis import attack_sensitivity, damping_sweep
from qprank.graph import benchmark_graph, generate_scale_free
from qprank.szegedy import quantum_rank_series


def written(chunks) -> str:
    """The text of a file a writer writes: its chunks, joined."""
    return "".join(chunks)


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

    def test_rejects_metadata_without_rows(self):
        with pytest.raises(ValueError, match="not a rank csv: missing header"):
            formats.read_rank_csv("# alpha=0.85\n# source=fig1a\n")

    def test_labels_with_line_breaks_round_trip(self):
        # The reader split the text into lines before the csv module saw it,
        # which broke "x\ny" apart, and the writer left a bare "\r" unquoted.
        labels = ["x\ny", "a\rb", "c\r\nd", "e\x85f", "g\u2028h", ""]
        values = np.arange(len(labels), 0.0, -1.0)
        text = formats.write_rank_csv(values, labels, {"alpha": 0.85})
        assert '\n1,"a\rb",' in text
        loaded, loaded_labels, meta = formats.read_rank_csv(text)
        assert np.array_equal(loaded, values) and loaded_labels == labels
        assert meta == {"alpha": "0.85"}
        compared = formats.read_compare_csv(written(formats.table_csv(
            formats.compare_table(labels, values, values[::-1]))))
        assert np.array_equal(compared[0], values)


class TestSeriesCsv:
    def test_round_trip(self):
        series = quantum_rank_series(benchmark_graph("fig1d"), 0.85, 16)
        text = written(formats.series_csv(series, {"steps": 16}))
        loaded, meta = formats.read_series_csv(text)
        assert np.array_equal(loaded.instantaneous, series.instantaneous)
        assert np.array_equal(loaded.average, series.average)
        assert meta["steps"] == "16"

    def test_header_names_nodes(self):
        series = quantum_rank_series(benchmark_graph("fig1a"), 0.85, 2)
        text = written(formats.series_csv(series))
        header = text.splitlines()[0]
        assert header == "m,node_0,node_1"
        assert text.splitlines()[-1].startswith("avg,")

    def test_missing_avg_row_rejected(self):
        text = written(formats.series_csv(quantum_rank_series(benchmark_graph("fig1a"), 0.85, 2)))
        with pytest.raises(ValueError, match="series csv missing avg row"):
            formats.read_series_csv(text[:text.rindex("avg,")])

    def test_json_fields(self):
        series = quantum_rank_series(benchmark_graph("fig1a"), 0.85, 3)
        obj = json.loads("".join(formats.series_json(series, {"alpha": 0.85})))
        assert obj["steps"] == 3
        assert obj["instantaneous"] == series.instantaneous.tolist()
        assert obj["average"] == series.average.tolist()


class TestSweepCsv:
    def test_round_trip(self):
        sweep = damping_sweep(benchmark_graph("fig2b"), [0.3, 0.6, 0.9])
        text = written(formats.sweep_csv(sweep, {"ranker": "classical"}))
        grid, matrix, meta = formats.read_sweep_csv(text)
        assert grid == sweep.alpha_grid
        assert np.array_equal(matrix, sweep.pairwise)
        assert float(meta["min_fidelity"]) == sweep.min_fidelity

    def test_grid_is_header_and_column(self):
        sweep = damping_sweep(benchmark_graph("fig1d"), [0.25, 0.75])
        lines = [l for l in written(formats.sweep_csv(sweep)).splitlines()
                 if not l.startswith("#")]
        assert lines[0].split(",")[1:] == ["0.25", "0.75"]
        assert lines[1].split(",")[0] == "0.25"
        assert lines[2].split(",")[0] == "0.75"


class TestAttackCsv:
    def test_round_trip(self):
        g = generate_scale_free(12, 3)
        report = attack_sensitivity(g, 2, "classical")
        text = written(formats.table_csv(formats.attack_table(report, {"seed": 3})))
        pre, post, meta = formats.read_attack_csv(text)
        assert np.array_equal(pre, report.pre_ranking)
        assert np.array_equal(post, report.post_ranking)
        assert meta["removed"] == ";".join(str(i) for i in report.removed)
        assert float(meta["correlation"]) == report.correlation

    def test_json_fields(self):
        g = generate_scale_free(10, 4)
        report = attack_sensitivity(g, 1, "classical")
        obj = json.loads("".join(formats.table_json(formats.attack_table(report))))
        assert obj["provenance"]["removed"] == ";".join(str(i) for i in report.removed)
        assert obj["provenance"]["mean_displacement"] == report.mean_displacement
        assert [row["original_index"] for row in obj["rows"]] == list(report.survivors)
        assert [row["post_value"] for row in obj["rows"]] == report.post_ranking.tolist()
        assert len(obj["rows"]) == 9


class TestCompareCsv:
    def test_round_trip(self):
        classical = np.array([0.5, 0.3, 0.2])
        quantum = np.array([0.4, 0.35, 0.25])
        text = written(formats.table_csv(formats.compare_table(["", "", ""], classical, quantum)))
        c, q, _ = formats.read_compare_csv(text)
        assert np.array_equal(c, classical)
        assert np.array_equal(q, quantum)

    def test_sorted_by_classical_rank(self):
        classical = np.array([0.2, 0.5, 0.3])
        quantum = np.array([0.3, 0.3, 0.4])
        rows = [line.split(",") for line in
                written(formats.table_csv(formats.compare_table(
                    ["x", "y", "z"], classical, quantum))).splitlines()][1:]
        assert [r[0] for r in rows] == ["1", "2", "0"]
        assert [int(r[4]) for r in rows] == [1, 2, 3]


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


# Bit patterns that must keep their own texts or share one: -0.0 next to 0.0,
# NaNs with other payloads and signs, the infinities, subnormals and the
# smallest normal.
SPECIAL_BITS = st.sampled_from([_bits(x) for x in (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 0.1, 1 / 3)] + [0x7FF8000000000001, 0x7FF0000000000001,
                                             -0x0008000000000000])
FLOAT_BITS = st.floats().map(_bits) | SPECIAL_BITS | st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def float_arrays(draw):
    """A 1-D or 2-D float array drawn from a few bit patterns, so values repeat."""
    pool = draw(st.lists(SPECIAL_BITS, max_size=4)) + draw(st.lists(FLOAT_BITS, min_size=1,
                                                                    max_size=4))
    bits = draw(st.lists(st.sampled_from(pool), max_size=40))
    values = np.array(bits, dtype=np.int64).view(np.float64)
    cols = draw(st.integers(1, 4))
    if draw(st.booleans()):
        values = values[:len(values) // cols * cols].reshape(-1, cols)
    return values


@example(np.array([0.0, -0.0, math.nan, -0.0, math.inf, -math.inf, 5e-324, 0.0, 0.1]))
@example(np.array([[-0.0, 0.0], [0.0, -0.0], [-math.inf, 1e-310]]))
@given(float_arrays())
def test_float_texts_are_repr_and_json_spellings(values):
    want = [list(map(repr, row)) if values.ndim == 2 else repr(row)
            for row in values.tolist()]
    assert formats._float_texts(values) == want
    want = [list(map(json.dumps, row)) if values.ndim == 2 else json.dumps(row)
            for row in values.tolist()]
    assert formats._float_texts(values, json_spelling=True) == want


class TestMetadataLines:
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x85", "\u2028"])
    def test_value_with_a_line_break_is_refused_when_the_writer_is_called(self, brk):
        # a line break would split the "# key=value" line, and the reader would
        # take the rest of the value for the header row
        meta = {"source": f"we{brk}b.txt"}
        with pytest.raises(ValueError, match="line break"):
            formats.table_csv(formats.rank_table(np.ones(2), meta=meta))
        with pytest.raises(ValueError, match="line break"):
            formats.series_csv(quantum_rank_series(benchmark_graph("fig1a"), 0.85, 2), meta)
        obj = json.loads("".join(formats.table_json(formats.rank_table(np.ones(2), meta=meta))))
        assert obj["provenance"] == meta
