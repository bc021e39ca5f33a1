"""Round-trip properties of the graph files and of the rank, series, sweep,
attack and compare CSVs, the array-backed graph model against its
tuple-based reference, the in-package Kendall tau-b against
``scipy.stats.kendalltau``, the degeneracy classes against a per-node
loop, the dense and sparse quantum walks against the edge-space oracle,
and the unit modes read off the graph against ``eigh``."""

import csv
import hashlib
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from graph_oracles import (arc_set, reference_arc_set, reference_degrees,
                           reference_hyperlink, reference_remove_nodes)
from qprank import formats, szegedy
from qprank import graph as graph_module
from qprank.analysis import (AttackReport, FidelitySweep, _kendall_tau_b, _tau_b_counts,
                             degeneracy_profile, rank_correlation, rank_positions,
                             ranking_order)
from qprank.graph import (DirectedGraph, edge_list_lines, generate_scale_free, graph_digest,
                          parse_edge_list, parse_pajek, remove_nodes, to_edge_list, to_pajek)
from qprank.pagerank import hyperlink_matrix, patch_dangling
from qprank.szegedy import (QuantumRankSeries, SeriesStream, quantum_pagerank,
                            quantum_pageranks, unit_modes, walk_operator)
from szegedy_oracles import initial_state, instantaneous_qpr, two_step
from test_formats import written
from test_graph import _reference_scale_free

# Labels as the parsers can produce them: any printable text on one line.
# Rank CSV labels may hold the CSV delimiter and quote character.
LINE_TEXT = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp")),
                    max_size=8)
CSV_LABELS = st.text(st.sampled_from(['a', 'b', ' ', ',', '"', "'", '#', '\\']), max_size=6)
# Rank and compare CSV labels may hold any line break str.splitlines knows
# (all of them below U+3000), and "\r\n".
LINE_BREAKS = ["\r\n", *(c for c in map(chr, range(0x3000)) if len(f"a{c}b".splitlines()) == 2)]
BREAK_LABELS = st.lists(st.sampled_from(["a", ",", '"', *LINE_BREAKS]), max_size=6).map("".join)
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


@given(graphs(labels=PAJEK_LABELS), st.integers(1, 5))
def test_arc_chunks_match_per_arc_rendering(g, chunk):
    """Arc lines made many per % call, in chunks of ``chunk`` arcs, and the
    digest fed those chunks, against one ``format`` call per arc; graphs
    with isolated nodes, one node or no arcs included."""
    arcs = list(zip(g.sources().tolist(), g.targets.tolist()))
    edges = f"# vertices: {g.node_count}\n" + "".join("{} {}\n".format(s, d) for s, d in arcs)
    labels = [] if g.labels is None else g.labels
    pajek = (f"*Vertices {g.node_count}\n"
             + "".join('{} "{}"\n'.format(i + 1, label) for i, label in enumerate(labels))
             + "*Arcs\n" + "".join("{} {}\n".format(s + 1, d + 1) for s, d in arcs))
    with mock.patch.object(graph_module, "_ARC_CHUNK", chunk):
        assert "".join(edge_list_lines(g)) == to_edge_list(g) == edges
        assert to_pajek(g) == pajek
        assert graph_digest(g) == hashlib.sha256(edges.encode()).hexdigest()[:16]


@st.composite
def arc_lists(draw, max_nodes=10):
    """A node count and an arc list with repeats, in any order."""
    n = draw(st.integers(2, max_nodes))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda a: a[0] != a[1])
    distinct = draw(st.lists(pairs, max_size=25))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=10)) if distinct else []
    return n, draw(st.permutations(distinct + repeats))


@given(arc_lists())
def test_arrays_match_tuple_reference(case):
    n, arcs = case
    g = DirectedGraph.from_arcs(n, arcs)
    assert list(zip(g.sources().tolist(), g.targets.tolist())) == sorted(set(arcs))
    assert arc_set(g) == reference_arc_set(n, arcs)
    assert np.array_equal(g.indptr, np.searchsorted(g.sources(), np.arange(n + 1)))
    out_deg, in_deg = reference_degrees(g)
    assert np.array_equal(g.out_degrees(), out_deg)
    assert np.array_equal(g.in_degrees(), in_deg)
    links, want = hyperlink_matrix(g).links, reference_hyperlink(g)
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(links, field), getattr(want, field)), field
    assert not hyperlink_matrix(g).patched.any()
    assert np.array_equal(patch_dangling(hyperlink_matrix(g)).patched, g.out_degrees() == 0)


# Each case runs 256 edge-space two-steps in Python; 60 cases keep the test
# near 2 s on 2 vCPU.
@settings(deadline=None, max_examples=60)
@given(arc_lists(max_nodes=12), st.booleans(), st.sampled_from([0.5, 0.85, 1.0]))
def test_direct_walk_matches_edge_space_oracle(case, symmetrise, alpha):
    """The streamed dense and sparse kernels, alone and batched, against the
    N^2-entry edge-space walk. Symmetric graphs and alpha = 1 give D
    eigenvalues +-1, so many cases run the deflated walk."""
    n, arcs = case
    if symmetrise:
        arcs = arcs + [(d, s) for s, d in arcs]
    g = DirectedGraph.from_arcs(n, arcs)
    steps = 256
    op = walk_operator(g, alpha)
    psi, total = initial_state(op), np.zeros(n)
    for _ in range(steps):
        total += instantaneous_qpr(psi)
        psi = two_step(psi, op)
    for threshold in (szegedy.SPARSE_NODES, 0):  # the dense kernel, then the sparse one
        with mock.patch.object(szegedy, "SPARSE_NODES", threshold):
            average = quantum_pagerank(g, alpha, steps)
            stacked = quantum_pageranks([(g, alpha), (g, alpha)], steps)
        assert np.array_equal(stacked, [average, average])
        assert np.abs(average - total / steps).max() <= 1e-11


@settings(deadline=None, max_examples=200)
@given(arc_lists(max_nodes=12), st.lists(st.booleans(), max_size=35),
       st.sampled_from([0.5, 0.85, 1.0]))
def test_unit_modes_span_the_unit_eigenvectors(case, mirrored, alpha):
    """``unit_modes``, read off the graph, against ``eigh`` of the dense D on
    graphs where some or all arcs are reciprocal: the same projector onto
    the eigenspace at +1 and at -1."""
    n, arcs = case
    arcs = arcs + [(d, s) for (s, d), back in zip(arcs, mirrored) if back]
    op = walk_operator(DirectedGraph.from_arcs(n, arcs), alpha)
    basis, signs = unit_modes(op)
    assert basis.shape == (n, len(signs)) and set(signs) <= {-1.0, 1.0}
    lam, vecs = np.linalg.eigh(op.discriminant)
    for sign in (1.0, -1.0):
        ours = basis.toarray()[:, signs == sign]
        theirs = vecs[:, np.abs(lam - sign) <= szegedy.UNIT_EIGEN_TOL]
        assert ours.shape == theirs.shape
        assert np.abs(ours @ ours.T - theirs @ theirs.T).max() <= 1e-12


@given(arc_lists(), st.data())
def test_remove_nodes_matches_tuple_reference(case, data):
    n, arcs = case
    g = DirectedGraph.from_arcs(n, arcs)
    victims = data.draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    reduced, survivors = remove_nodes(g, victims)
    assert (reduced.node_count, arc_set(reduced), reduced.labels, survivors) == \
        reference_remove_nodes(g, victims)


@given(st.integers(1, 6), st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)),
                                   min_size=1, max_size=12))
def test_invalid_arcs_raise_like_reference(n, arcs):
    """Same outcome as the tuple reference; the message names the first bad arc."""
    try:
        reference_arc_set(n, arcs)
    except ValueError:
        s, d = next((s, d) for s, d in arcs if not (0 <= s < n and 0 <= d < n) or s == d)
        expected = (f"arc ({s}, {d}) out of range" if not (0 <= s < n and 0 <= d < n)
                    else f"self-loop on node {s} ")
        with pytest.raises(ValueError, match=re.escape(expected)):
            DirectedGraph.from_arcs(n, arcs)
    else:
        assert arc_set(DirectedGraph.from_arcs(n, arcs)) == reference_arc_set(n, arcs)


@st.composite
def rank_vectors(draw):
    n = draw(st.integers(1, 10))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n, max_size=n))
    labels = draw(st.lists(LINE_TEXT | CSV_LABELS | BREAK_LABELS, min_size=n, max_size=n))
    return np.array(values), labels


@given(rank_vectors())
def test_rank_csv_round_trip(case):
    values, labels = case
    loaded, loaded_labels, _ = formats.read_rank_csv(formats.write_rank_csv(values, labels))
    assert np.array_equal(loaded, values)
    assert loaded_labels == labels


# Finite or infinite, with -0.0: every float the writers write and read back
# bit for bit (a NaN reads back as some NaN, not as the same bits).
EXACT_FLOATS = st.floats(allow_nan=False) | st.sampled_from([-0.0, 5e-324, 0.1])


def _same_bits(got, want):
    return (np.asarray(got, dtype=np.float64).tobytes()
            == np.asarray(want, dtype=np.float64).tobytes())


@st.composite
def float_tables(draw):
    """A rows x n matrix and two more length-n vectors."""
    n, rows = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cells = draw(st.lists(EXACT_FLOATS, min_size=(rows + 2) * n, max_size=(rows + 2) * n))
    values = np.array(cells).reshape(rows + 2, n)
    return values[:rows], values[rows], values[rows + 1]


@given(float_tables())
def test_series_csv_round_trip(case):
    matrix, average, _ = case
    series, meta = formats.read_series_csv(
        written(formats.series_csv(QuantumRankSeries(matrix, average), {"steps": len(matrix)})))
    assert _same_bits(series.instantaneous, matrix) and _same_bits(series.average, average)
    assert meta == {"steps": str(len(matrix))}


@given(float_tables(), EXACT_FLOATS)
def test_sweep_csv_round_trip(case, min_fidelity):
    vectors, grid, _ = case
    pairwise = np.resize(vectors, (len(grid), len(grid)))
    sweep = FidelitySweep(tuple(grid.tolist()), vectors, pairwise, min_fidelity)
    loaded_grid, loaded, meta = formats.read_sweep_csv(
        written(formats.sweep_csv(sweep, {"ranker": "classical"})))
    assert _same_bits(loaded_grid, grid) and _same_bits(loaded, pairwise)
    assert meta["ranker"] == "classical"
    assert _same_bits(float(meta["min_fidelity"]), min_fidelity)


@given(float_tables(), EXACT_FLOATS, EXACT_FLOATS)
def test_attack_csv_round_trip(case, correlation, displacement):
    _, pre, post = case
    removed = tuple(range(len(pre), len(pre) + 2))
    report = AttackReport(removed, tuple(range(len(pre))), pre, post, correlation, displacement)
    loaded_pre, loaded_post, meta = formats.read_attack_csv(
        written(formats.table_csv(formats.attack_table(report, {"seed": 3}))))
    assert _same_bits(loaded_pre, pre) and _same_bits(loaded_post, post)
    assert meta["removed"] == ";".join(map(str, removed))
    assert _same_bits([float(meta["correlation"]), float(meta["mean_displacement"])],
                      [correlation, displacement])


@given(float_tables(), st.data())
def test_compare_csv_round_trip(case, data):
    _, classical, quantum = case
    labels = data.draw(st.lists(LINE_TEXT | CSV_LABELS | BREAK_LABELS, min_size=len(classical),
                                max_size=len(classical)))
    text = written(formats.table_csv(
        formats.compare_table(labels, classical, quantum, {"alpha": 0.85})))
    loaded_classical, loaded_quantum, meta = formats.read_compare_csv(text)
    assert _same_bits(loaded_classical, classical) and _same_bits(loaded_quantum, quantum)
    assert meta == {"alpha": "0.85"}
    rows = formats._split_csv(text)[1][1:]
    assert [row[1] for row in rows] == [labels[int(row[0])] for row in rows]


@settings(deadline=None)
@given(st.integers(3, 256), st.integers(0, 2 ** 64 - 1))
def test_scale_free_matches_rng_choice_reference(n, seed):
    assert generate_scale_free(n, seed) == _reference_scale_free(n, seed)


def fmt(x):
    """A float's text in the writers' output: its shortest round-trip repr."""
    return repr(float(x))


def _csv_module(meta, header, rows):
    """The writers' text as the csv module writes it, one ``fmt`` per float."""
    out = io.StringIO()
    for key, value in (meta or {}).items():
        out.write(f"# {key}={value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 1e-300, 0.1])


@st.composite
def tables(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 4))
    values = np.array(draw(st.lists(FLOATS, min_size=n * rows, max_size=n * rows)))
    # the csv module quotes a label with "\n", but leaves a bare "\r" unquoted,
    # which the writers quote (test_formats.py)
    labels = draw(st.lists(LINE_TEXT | CSV_LABELS | st.sampled_from(["a\r\nb", "x\ny"]),
                           min_size=n, max_size=n))
    return values.reshape(rows, n), labels


@given(tables())
def test_writers_match_csv_module(case):
    matrix, labels = case
    meta = {"alpha": 0.85, "source": "web.txt"}
    values, other = matrix[0], matrix[-1]
    order = ranking_order(values)
    assert formats.write_rank_csv(values, labels, meta) == _csv_module(
        meta, ["node_index", "label", "score"],
        ([i, labels[i], fmt(values[i])] for i in order))
    assert formats.write_rank_csv(values) == _csv_module(
        None, ["node_index", "label", "score"], ([i, "", fmt(values[i])] for i in order))

    positions = rank_positions(values) + 1, rank_positions(other) + 1
    compare = formats.compare_table(labels, values, other, meta)
    assert written(formats.table_csv(compare)) == _csv_module(
        meta, ["node", "label", "classical", "quantum_avg", "classical_rank", "quantum_rank"],
        ([i, labels[i], fmt(values[i]), fmt(other[i]), positions[0][i], positions[1][i]]
         for i in order))

    series = QuantumRankSeries(matrix, other)
    rows = [[m, *map(fmt, row)] for m, row in enumerate(matrix)] + [["avg", *map(fmt, other)]]
    assert written(formats.series_csv(series, meta)) == _csv_module(
        meta, ["m", *(f"node_{i}" for i in range(len(values)))], rows)

    grid = tuple(float(a) for a in values)
    sweep = FidelitySweep(alpha_grid=grid, rank_vectors=matrix,
                          pairwise=np.tile(values, (len(grid), 1)), min_fidelity=0.5)
    assert written(formats.sweep_csv(sweep, meta)) == _csv_module(
        {**meta, "min_fidelity": "0.5"}, ["alpha", *map(fmt, grid)],
        ([fmt(a), *map(fmt, row)] for a, row in zip(grid, sweep.pairwise)))

    survivors = tuple(range(2, 2 + len(values)))
    report = AttackReport((0, 1), survivors, values, other, 0.25, 1.5)
    assert written(formats.table_csv(formats.attack_table(report, meta))) == _csv_module(
        {**meta, "removed": "0;1", "correlation": "0.25", "mean_displacement": "1.5"},
        ["survivor", "original_index", "pre_value", "post_value"],
        ([new, old, fmt(values[new]), fmt(other[new])] for new, old in enumerate(survivors)))


def _json_module(obj):
    """An output's JSON as ``json.dumps`` writes the whole object at once."""
    return json.dumps(obj, indent=2) + "\n"


@given(tables(), graphs(labels=LINE_TEXT | CSV_LABELS | st.sampled_from(["a\rb", "x\ny"])),
       st.integers(0, 3))
def test_json_writers_match_json_module(case, g, row_count):
    matrix, labels = case
    meta = {"alpha": 0.85, "source": 'w "1".txt', "converged": False, "gap": float("nan")}
    values, other = matrix[0], matrix[-1]
    for table in (formats.rank_table(values, labels, meta),
                  formats.compare_table(None, values, other, meta),
                  formats.Table(meta, ("ranker", "ipr"),
                                (["classical"] * row_count, np.full(row_count, 1.5)))):
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.columns]
        rows = [dict(zip(table.header, row)) for row in zip(*columns)]
        assert "".join(formats.table_json(table)) == _json_module(
            {"provenance": table.meta, "rows": rows})

    series = QuantumRankSeries(matrix, other)
    assert "".join(formats.series_json(series, meta)) == _json_module(
        {"provenance": meta, "steps": len(matrix), "instantaneous": matrix.tolist(),
         "average": other.tolist()})

    grid = tuple(float(a) for a in values)
    sweep = FidelitySweep(alpha_grid=grid, rank_vectors=matrix,
                          pairwise=np.tile(values, (len(grid), 1)), min_fidelity=0.5)
    assert "".join(formats.sweep_json(sweep, meta)) == _json_module(
        {"provenance": {**meta, "min_fidelity": 0.5}, "alpha_grid": list(grid),
         "pairwise_fidelity": sweep.pairwise.tolist(), "rank_vectors": matrix.tolist()})

    assert "".join(formats.graph_json(g, meta)) == _json_module(
        {"provenance": meta, "node_count": g.node_count,
         "arcs": [[int(s), int(t)] for s, t in zip(g.sources(), g.targets)],
         "labels": None if g.labels is None else list(g.labels)})


@given(tables(), graphs(labels=LINE_TEXT | CSV_LABELS), st.integers(1, 7))
def test_writers_do_not_depend_on_the_chunk_size(case, g, chunk):
    """Every writer gives the same bytes in chunks of ``chunk`` values as in
    one chunk, so chunks split rows, tables and series at any point, and
    a streamed series' rows across its 64-step blocks."""
    matrix, labels = case
    meta = {"alpha": 0.85}
    values, other = matrix[0], matrix[-1]
    series = QuantumRankSeries(matrix, other)
    grid = tuple(float(a) for a in values)
    sweep = FidelitySweep(alpha_grid=grid, rank_vectors=matrix,
                          pairwise=np.tile(values, (len(grid), 1)), min_fidelity=0.5)
    report = AttackReport((0, 1), tuple(range(2, 2 + len(values))), values, other, 0.25, 1.5)
    tables = (formats.rank_table(values, labels, meta),
              formats.compare_table(labels, values, other, meta),
              formats.attack_table(report, meta))
    op = walk_operator(generate_scale_free(8, 1), 0.85)
    streams = [SeriesStream(op, steps) for steps in (65, 130)]

    def outputs():
        return ([written(formats.table_csv(t)) for t in tables]
                + ["".join(formats.table_json(t)) for t in tables]
                + ["".join(formats.series_csv(series, meta)),
                   "".join(formats.series_json(series, meta)),
                   "".join(formats.sweep_csv(sweep, meta)),
                   "".join(formats.sweep_json(sweep, meta)),
                   "".join(formats.graph_json(g, meta))]
                + ["".join(writer(stream, meta)) for stream in streams
                   for writer in (formats.series_csv, formats.series_json)])

    whole = outputs()
    with mock.patch.object(formats, "_CHUNK_VALUES", chunk):
        assert outputs() == whole


def _scipy_rank_correlation(a, b):
    """rank_correlation on ``scipy.stats.kendalltau``: the test-only oracle
    for the in-package tau-b, with the same guards. Tau-b is exactly +-1
    when the dense ranks of a and b are equal or reversed."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_const = bool(np.all(a == a[0]))
    b_const = bool(np.all(b == b[0]))
    if a_const or b_const:
        return 1.0 if a_const and b_const else 0.0
    tau = stats.kendalltau(a, b).statistic
    if not np.isfinite(tau):
        return 0.0
    ra, rb = stats.rankdata(a, method="dense"), stats.rankdata(b, method="dense")
    if np.array_equal(ra, rb):
        return 1.0
    if np.array_equal(ra, rb.max() + 1 - rb):
        return -1.0
    return float(np.clip(tau, -1.0, 1.0))


def _brute_force_tau_b(a, b):
    """Tau-b from an O(n^2) pass over all pairs, in scipy's float expression."""
    a, b, n = a.tolist(), b.tolist(), len(a)
    discordant = x_ties = y_ties = joint_ties = 0
    for i in range(n):
        for j in range(i + 1, n):
            sx = (a[i] > a[j]) - (a[i] < a[j])
            sy = (b[i] > b[j]) - (b[i] < b[j])
            x_ties += sx == 0
            y_ties += sy == 0
            joint_ties += sx == sy == 0
            discordant += sx * sy < 0
    total = n * (n - 1) // 2
    return float((total - x_ties - y_ties + joint_ties - 2 * discordant)
                 / np.sqrt(total - x_ties) / np.sqrt(total - y_ties))


# A few distinct levels per vector give heavy ties; the infinities and -0.0
# are among them.
TAU_LEVELS = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.inf]) | st.floats(
    -4.0, 4.0, allow_nan=False)


@st.composite
def tied_vectors(draw, max_size=300):
    n = draw(st.integers(2, max_size))

    def vector():
        levels = draw(st.lists(TAU_LEVELS, min_size=1, max_size=draw(st.sampled_from([2, 5, n]))))
        picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))
        return np.array([levels[i] for i in picks])

    return vector(), vector()


@settings(deadline=None, max_examples=300)
@given(tied_vectors())
def test_rank_correlation_matches_scipy_bit_for_bit(case):
    a, b = case
    ours, oracle = rank_correlation(a, b), _scipy_rank_correlation(a, b)
    assert np.float64(ours).tobytes() == np.float64(oracle).tobytes(), (ours, oracle)


@settings(deadline=None)
@given(tied_vectors(max_size=40))
def test_tau_b_matches_brute_force(case):
    a, b = case
    if np.all(a == a[0]) or np.all(b == b[0]):  # tau-b is undefined
        return
    assert _kendall_tau_b(*_tau_b_counts(a, b)) == _brute_force_tau_b(a, b)


def test_one_swap_in_a_long_ranking_is_not_rounded_to_one():
    # one discordant pair among n = 100 000: 1 - tau is 4e-10, which a snap
    # to +-1 within 1e-9 of it would erase
    a = np.arange(100_000.0)
    b = a.copy()
    b[:2] = b[1::-1]
    tau = rank_correlation(a, b)
    assert tau == _scipy_rank_correlation(a, b) == stats.kendalltau(a, b).statistic < 1.0
    assert rank_correlation(a, a[::-1]) == -1.0


def test_nan_input_gives_zero():
    values = np.array([0.3, np.nan, 0.1, 0.6])
    assert rank_correlation(values, np.arange(4.0)) == 0.0
    assert rank_correlation(np.arange(4.0), values) == 0.0
    assert rank_correlation(values, values) == 0.0
    assert _scipy_rank_correlation(values, np.arange(4.0)) == 0.0


def _loop_degeneracy(p, delta):
    """Class sizes walking down the sorted values one node at a time."""
    values = np.sort(np.asarray(p, dtype=np.float64))[::-1]
    class_sizes = [1]
    for prev, cur in zip(values[:-1], values[1:]):
        if prev != cur and prev - cur >= delta * abs(prev):
            class_sizes.append(1)
        else:
            class_sizes[-1] += 1
    return len(class_sizes), tuple(class_sizes)


# Rank-like values: a few levels give exact ties, and spacings near delta
# sit on both sides of the class boundary.
RANK_LEVELS = st.sampled_from([0.0, 1e-300, 0.1, 0.1 * (1 - 1e-4), 0.5]) | st.floats(0.0, 1.0)


@settings(deadline=None)
@given(st.data(), st.sampled_from([1e-12, 1e-4, 0.05, 1.0]))
def test_degeneracy_profile_matches_loop(data, delta):
    n = data.draw(st.integers(1, 200))
    distinct = data.draw(st.sampled_from([2, 5, n]))
    levels = data.draw(st.lists(RANK_LEVELS, min_size=1, max_size=distinct))
    picks = data.draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))
    p = np.array([levels[i] for i in picks])
    profile = degeneracy_profile(p, delta)
    assert (profile.class_count, profile.class_sizes) == _loop_degeneracy(p, delta)
