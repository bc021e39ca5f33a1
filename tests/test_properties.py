"""Round-trip properties of the graph and rank-vector file formats."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qprank import formats
from qprank.graph import (DirectedGraph, generate_scale_free, parse_edge_list,
                          parse_pajek, to_edge_list, to_pajek)
from test_graph import _reference_scale_free

# Labels as the parsers can produce them: any printable text on one line.
# Rank CSV labels may hold the CSV delimiter and quote character.
LINE_TEXT = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp")),
                    max_size=8)
CSV_LABELS = st.text(st.sampled_from(['a', 'b', ' ', ',', '"', "'", '#', '\\']), max_size=6)
PAJEK_LABELS = LINE_TEXT.filter(lambda s: '"' not in s)


@st.composite
def graphs(draw, labels=None):
    n = draw(st.integers(1, 12))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda a: a[0] != a[1]), max_size=30)) if n > 1 else []
    node_labels = None if labels is None else draw(
        st.none() | st.lists(labels, min_size=n, max_size=n))
    return DirectedGraph.from_arcs(n, arcs, node_labels)


@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(to_edge_list(g)) == g


@given(graphs(labels=PAJEK_LABELS))
def test_pajek_round_trip(g):
    assert parse_pajek(to_pajek(g)) == g


@st.composite
def rank_vectors(draw):
    n = draw(st.integers(1, 10))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n, max_size=n))
    labels = draw(st.lists(LINE_TEXT | CSV_LABELS, min_size=n, max_size=n))
    return np.array(values), labels


@given(rank_vectors())
def test_rank_csv_round_trip(case):
    values, labels = case
    loaded, loaded_labels, _ = formats.read_rank_csv(formats.write_rank_csv(values, labels))
    assert np.array_equal(loaded, values)
    assert loaded_labels == labels


@st.composite
def scale_free_params(draw):
    p_internal = draw(st.floats(0.0, 0.8))
    p_new_out = draw(st.floats(0.0, 1.0)) * (1.0 - p_internal)
    mix = (p_new_out, p_internal, max(0.0, 1.0 - p_new_out - p_internal))
    return (draw(st.integers(3, 256)), draw(st.integers(0, 2 ** 64 - 1)), mix,
            draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0)))


@settings(deadline=None)
@given(scale_free_params())
def test_scale_free_matches_rng_choice_reference(params):
    assert generate_scale_free(*params) == _reference_scale_free(*params)
