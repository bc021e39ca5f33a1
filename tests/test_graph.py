import pickle
import tracemalloc

import numpy as np
import pytest

from graph_oracles import (arc_set, reference_arc_set, reference_hierarchical_arcs,
                           reference_remove_nodes)
from qprank import graph
from qprank.graph import (DirectedGraph, GraphFormatError,
                          benchmark_graph, generate, generate_binary_tree,
                          generate_hierarchical, generate_scale_free,
                          parse_edge_list, parse_graph, parse_pajek,
                          remove_nodes, to_edge_list, to_pajek)


class TestDirectedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph.from_arcs(2, [(0, 0)])

    def test_rejects_too_few_labels(self):
        with pytest.raises(ValueError, match="labels must cover every node"):
            DirectedGraph.from_arcs(3, [(0, 1)], labels=["a", "b"])

    def test_rejects_out_of_range_arc(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph.from_arcs(2, [(0, 2)])

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_arcs(0, [])

    def test_duplicate_arcs_collapse(self):
        g = DirectedGraph.from_arcs(2, [(0, 1), (0, 1)])
        assert len(g.targets) == 1 and arc_set(g) == {(0, 1)}

    def test_degree_vectors(self):
        g = benchmark_graph("fig1d")
        assert g.out_degrees().tolist() == [3, 2, 1, 1]
        assert g.in_degrees().tolist() == [1, 1, 2, 3]

    def test_repr_prints_counts(self):
        g = generate_scale_free(8192, 0)  # the size of the cli-ingest benchmark graph
        assert repr(g) == (f"DirectedGraph(node_count=8192, arc_count={len(g.targets)}, "
                           "labelled=False)")
        labelled = DirectedGraph.from_arcs(2, [(0, 1)], ["a", "b"])
        assert repr(labelled) == "DirectedGraph(node_count=2, arc_count=1, labelled=True)"

    def test_arrays_are_sorted_distinct_and_read_only(self):
        g = DirectedGraph(4, [3, 0, 0, 2, 0, 3], [2, 3, 1, 3, 3, 2])
        assert g.indptr.tolist() == [0, 2, 2, 3, 4]
        assert g.targets.tolist() == [1, 3, 3, 2]
        assert g.sources().tolist() == [0, 0, 2, 3]
        assert arc_set(g) == {(0, 1), (0, 3), (2, 3), (3, 2)}
        assert g.indptr.dtype == g.targets.dtype == np.int64
        for values in (g.indptr, g.targets):
            with pytest.raises(ValueError):
                values[0] = 1
        with pytest.raises(AttributeError, match="immutable"):
            g.node_count = 5
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and not copy.targets.flags.writeable

    def test_arcs_view_matches_tuple_reference(self):
        arcs = [(2, 0), (0, 1), (2, 0), (1, 2), (0, 2)]
        g = DirectedGraph.from_arcs(3, arcs)
        assert arc_set(g) == reference_arc_set(3, arcs)

    def test_error_names_first_offending_arc_in_input_order(self):
        with pytest.raises(ValueError, match=r"arc \(5, 1\) out of range"):
            DirectedGraph.from_arcs(3, [(0, 1), (5, 1), (2, 2), (1, 7)])
        with pytest.raises(ValueError, match="self-loop on node 2"):
            DirectedGraph.from_arcs(3, [(0, 1), (2, 2), (5, 1)])

    def test_indices_beyond_int64_are_out_of_range(self):
        huge = 10 ** 20
        with pytest.raises(ValueError, match=rf"arc \({huge}, 1\) out of range for 3 nodes"):
            DirectedGraph.from_arcs(3, [(0, 1), (huge, 1)])
        with pytest.raises(ValueError, match="self-loop on node 2"):
            DirectedGraph.from_arcs(3, [(2, 2), (huge, 1)])
        with pytest.raises(ValueError, match=rf"arc \(0, {huge}\) out of range"):
            DirectedGraph(3, [0, 1], [huge, 2])

    def test_node_count_limit(self):
        assert graph.MAX_NODES ** 2 <= np.iinfo(np.int64).max < (graph.MAX_NODES + 1) ** 2
        for n in (graph.MAX_NODES + 1, 10 ** 20):
            with pytest.raises(ValueError, match=f"graph of {n} nodes exceeds the limit"):
                DirectedGraph(n, [], [])

    def test_equality_and_hash(self):
        a = DirectedGraph.from_arcs(3, [(0, 1), (1, 2)])
        b = DirectedGraph(3, [1, 0, 0], [2, 1, 1])
        assert a == b and hash(a) == hash(b)
        assert a != DirectedGraph.from_arcs(4, [(0, 1), (1, 2)])
        assert a != DirectedGraph.from_arcs(3, [(0, 1), (1, 2)], labels=("x", "y", "z"))
        assert a != DirectedGraph.from_arcs(3, [(0, 1), (2, 1)])
        assert len({a, b}) == 1

    def test_rejects_mismatched_or_unpaired_arcs(self):
        with pytest.raises(ValueError, match="same length"):
            DirectedGraph(3, [0, 1], [1])
        with pytest.raises(ValueError, match="pairs"):
            DirectedGraph.from_arcs(3, [(0, 1, 2)])


class TestEdgeList:
    def test_single_arc(self):
        g = parse_edge_list("0 1\n")
        assert g.node_count == 2
        assert arc_set(g) == {(0, 1)}

    def test_empty_input_is_error(self):
        with pytest.raises(GraphFormatError, match="no nodes"):
            parse_edge_list("")

    def test_labelled_pair(self):
        g = parse_edge_list("a b\nb a\n")
        assert g.node_count == 2
        assert arc_set(g) == {(0, 1), (1, 0)}
        assert g.labels == ("a", "b")

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a comment\n\n0 1\n1 2  # trailing\n")
        assert g.node_count == 3
        assert arc_set(g) == {(0, 1), (1, 2)}

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n0 1 2\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_edge_list("3 3\n")

    def test_non_contiguous_integers_rejected(self):
        with pytest.raises(GraphFormatError, match="contiguous"):
            parse_edge_list("0 5\n")

    def test_vertex_directive_allows_isolated_nodes(self):
        g = parse_edge_list("# vertices: 4\n0 1\n")
        assert g.node_count == 4

    def test_directive_conflict_is_error(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("# vertices: 2\n0 3\n")

    def test_round_trip_unlabelled(self):
        for name in ("fig1a", "fig1c", "fig1d", "fig2b"):
            g = benchmark_graph(name)
            assert parse_edge_list(to_edge_list(g)) == g

    def test_round_trip_with_isolated_node(self):
        g = DirectedGraph.from_arcs(5, [(0, 1), (2, 3)])
        assert parse_edge_list(to_edge_list(g)) == g

    def test_duplicate_arcs_collapse(self):
        assert arc_set(parse_edge_list("0 1\n0 1\n1 0\n")) == {(0, 1), (1, 0)}
        assert arc_set(parse_edge_list("a b\na b\n")) == {(0, 1)}

    def test_non_ascii_digits_are_labels(self):
        # str.isdigit() accepts superscripts that int() rejects
        g = parse_edge_list("\u00b9 2\n")
        assert g.labels == ("\u00b9", "2")
        assert parse_edge_list("\u0663 \u0664\n").labels == ("\u0663", "\u0664")

    def test_zero_declared_vertices_is_format_error(self):
        with pytest.raises(GraphFormatError, match="at least one vertex"):
            parse_edge_list("# vertices: 0\n")

    def test_vertex_count_beyond_limit_is_format_error(self):
        for count in (graph.MAX_NODES + 1, 10 ** 20):
            with pytest.raises(GraphFormatError, match=f"line 1: vertex count {count} exceeds"):
                parse_edge_list(f"# vertices: {count}\n")
            with pytest.raises(GraphFormatError, match=f"line 2: vertex count {count} exceeds"):
                parse_edge_list(f"0 1\n# vertices: {count}\n")

    def test_overlong_tokens_name_their_line(self):
        big = "9" * 5000
        with pytest.raises(GraphFormatError, match=r"line 2: vertex count 9{20}\.\.\. "
                                                   r"\(5000 digits\) exceeds"):
            parse_edge_list(f"0 1\n# vertices: {big}\n")
        with pytest.raises(GraphFormatError, match=r"line 3: arc references node 9{20}\.\.\. "
                                                   r"\(5000 digits\) but only 3"):
            parse_edge_list(f"# vertices: 3\n0 1\n2 {big}\n")
        assert parse_edge_list(f"# vertices: {'0' * 5000}2\n0 1\n").node_count == 2

    def test_directive_in_labelled_list_is_error(self):
        with pytest.raises(GraphFormatError, match="line 1: '# vertices:' directive in a labelled"):
            parse_edge_list("# vertices: 5\na b\n")
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_edge_list("a b\nb c\n# vertices: 3\n")

    def test_second_directive_is_error(self):
        with pytest.raises(GraphFormatError, match=r"line 3: second .*first is on line 1"):
            parse_edge_list("# vertices: 5\n0 1\n# vertices: 6\n")
        with pytest.raises(GraphFormatError, match="line 2: second"):
            parse_edge_list("# vertices: 2\n#vertices: 2\n0 1\n")

    def test_integer_self_loop_names_line(self):
        with pytest.raises(GraphFormatError, match="line 3: self-loop on 01"):
            parse_edge_list("0 1\n1 0\n01 1\n")

    def test_index_beyond_int64(self):
        huge = "99999999999999999999"
        with pytest.raises(GraphFormatError, match=f"node {huge} but only 3"):
            parse_edge_list(f"# vertices: 3\n0 {huge}\n")
        with pytest.raises(GraphFormatError, match="contiguous"):
            parse_edge_list(f"0 {huge}\n")
        with pytest.raises(GraphFormatError, match="contiguous"):  # both saturate: no self-loop
            parse_edge_list(f"0 1\n{huge} {huge[:-1]}8\n")

    def test_missing_indices_listed_up_to_ten(self):
        with pytest.raises(GraphFormatError, match=r"missing \[1, 3\]$"):
            parse_edge_list("0 2\n2 4\n")
        with pytest.raises(GraphFormatError,
                           match=r"missing \[0, 1, 2, 4, 5, 6, 7, 8, 9, 10\] and more$"):
            parse_edge_list("3 12\n12 40\n")


class TestPajek:
    MINIMAL = '*Vertices 2\n1 "home"\n2 "page"\n*Arcs\n1 2\n'

    def test_minimal_file(self):
        g = parse_pajek(self.MINIMAL)
        assert g.node_count == 2
        assert arc_set(g) == {(0, 1)}
        assert g.labels == ("home", "page")

    def test_undeclared_vertex_in_arc(self):
        with pytest.raises(GraphFormatError, match="undeclared"):
            parse_pajek('*Vertices 2\n*Arcs\n3 1\n')

    def test_duplicate_vertex_id(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_pajek('*Vertices 2\n1 "a"\n1 "b"\n*Arcs\n')

    def test_missing_vertices_header(self):
        with pytest.raises(GraphFormatError, match=r"\*Vertices"):
            parse_pajek('*Arcs\n1 2\n')
        with pytest.raises(GraphFormatError, match=r"line 1: content before \*Vertices header"):
            parse_pajek('1 2\n*Vertices 2\n')
        for text in ("", "% only a comment\n"):
            with pytest.raises(GraphFormatError, match=r"^missing \*Vertices header$"):
                parse_pajek(text)

    def test_vertex_lines_optional(self):
        g = parse_pajek('*Vertices 3\n*Arcs\n1 2\n2 3\n')
        assert g.node_count == 3
        assert g.labels is None

    def test_round_trip_labelled(self):
        g = DirectedGraph.from_arcs(3, [(0, 1), (2, 0)], labels=("x", "y", "z"))
        assert parse_pajek(to_pajek(g)) == g

    def test_round_trip_unlabelled(self):
        g = generate_binary_tree(3)
        assert parse_pajek(to_pajek(g)) == g

    def test_round_trip_isolated_vertex(self):
        g = DirectedGraph.from_arcs(4, [(0, 1)], labels=("a", "b", "c", "d"))
        assert parse_pajek(to_pajek(g)) == g

    def test_writer_refuses_quote_in_label(self):
        g = parse_edge_list('a"b c\n')
        with pytest.raises(ValueError, match="cannot be written to Pajek"):
            to_pajek(g)

    def test_writer_refuses_line_break_in_label(self):
        g = DirectedGraph.from_arcs(2, [(0, 1)], labels=("x\ny", "z"))
        with pytest.raises(ValueError, match="line breaks"):
            to_pajek(g)

    def test_round_trip_label_with_spaces(self):
        g = DirectedGraph.from_arcs(2, [(0, 1)], labels=("home page", ""))
        assert parse_pajek(to_pajek(g)) == g

    def test_duplicate_arcs_collapse(self):
        g = parse_pajek('*Vertices 2\n*Arcs\n1 2\n1 2\n')
        assert arc_set(g) == {(0, 1)}

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(GraphFormatError, match=r"\*Vertices header"):
            parse_pajek("*Vertices \u00b2\n*Arcs\n")
        with pytest.raises(GraphFormatError, match="malformed arc line"):
            parse_pajek("*Vertices 2\n*Arcs\n1 \u00b2\n")
        with pytest.raises(GraphFormatError, match="malformed vertex line"):
            parse_pajek("*Vertices 2\n\u0662\n*Arcs\n")

    def test_zero_vertices_is_format_error(self):
        with pytest.raises(GraphFormatError, match="at least one vertex"):
            parse_pajek("*Vertices 0\n*Arcs\n")

    def test_vertex_count_beyond_limit_is_format_error(self):
        for count in (graph.MAX_NODES + 1, 10 ** 20):
            with pytest.raises(GraphFormatError, match=f"line 1: vertex count {count} exceeds"):
                parse_pajek(f"*Vertices {count}\n*Arcs\n1 2\n")

    def test_overlong_tokens_name_their_line(self):
        big = "9" * 5000
        for text, message in ((f"*Vertices {big}\n", r"line 1: vertex count 9{20}\.\.\. "),
                              (f'*Vertices 3\n{big} "x"\n', r"line 2: vertex id 9{20}\.\.\. "),
                              (f"*Vertices 3\n*Arcs\n1 2\n{big} 1\n",
                               r"line 4: arc 9{20}\.\.\. \(5000 digits\)->1 references")):
            with pytest.raises(GraphFormatError, match=message):
                parse_pajek(text)
        assert parse_pajek(f"*Vertices {'0' * 5000}2\n*Arcs\n1 2\n").node_count == 2

    def test_second_vertices_header_is_error(self):
        with pytest.raises(GraphFormatError, match=r"line 4: second \*Vertices.*line 1"):
            parse_pajek("*Vertices 3\n*Arcs\n1 2\n*Vertices 4\n*Arcs\n3 4\n")

    def test_first_bad_arc_line_is_reported(self):
        cases = {"1 2\n2 x\n3 3\n1 9\n": "line 5: malformed arc line '2 x'",
                 "1 2\n3 3\n2 x\n": "line 5: self-loop on vertex 3",
                 "1 2\n1 9\n3 3\n": "line 5: arc 1->9 references undeclared",
                 "1 2\n1 9\n*Edges\n": "line 5: arc 1->9 references undeclared",
                 "1 2\n2 1 3\n1 9\n": "line 5: malformed arc line '2 1 3'",
                 f"1 2\n{'9' * 20} {'9' * 19}8\n": f"line 5: arc {'9' * 20}->{'9' * 19}8 refer"}
        for arcs, message in cases.items():
            with pytest.raises(GraphFormatError, match=message):
                parse_pajek("*Vertices 3\n% comment\n*Arcs\n" + arcs)


class TestParseGraph:
    def test_picks_the_parser_by_the_first_statement(self):
        g = DirectedGraph.from_arcs(3, [(0, 1), (2, 0)], labels=("x", "y", "z"))
        pajek = to_pajek(g)
        assert parse_graph(pajek) == g
        assert parse_graph("% exported\n\n  %\r\n\u2028" + pajek) == g
        assert parse_graph(pajek.lower()) == g
        assert parse_graph(to_edge_list(g)) == parse_edge_list(to_edge_list(g))
        # a '*Vertices' after a line parse_pajek does not skip is an edge-list token
        with pytest.raises(GraphFormatError, match="expected 'src dst', got '\\*Arcs'"):
            parse_graph("# note\n" + pajek)


class TestBenchmarks:
    def test_fig1a(self):
        g = benchmark_graph("fig1a")
        assert g.node_count == 2
        assert arc_set(g) == {(0, 1)}

    def test_fig1b_is_matrix_level_alias(self):
        assert benchmark_graph("fig1b") == benchmark_graph("fig1a")

    def test_fig1c_cycle(self):
        g = benchmark_graph("fig1c")
        assert g.node_count == 4
        assert arc_set(g) == {(0, 1), (1, 2), (2, 3), (3, 0)}

    def test_fig1d_arcs(self):
        g = benchmark_graph("fig1d")
        assert g.node_count == 4
        assert arc_set(g) == {(0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 3), (3, 2)}

    def test_fig2b_shape(self):
        g = benchmark_graph("fig2b")
        assert g.node_count == 7
        assert (g.out_degrees() + g.in_degrees() > 0).all()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            benchmark_graph("fig9z")


class TestRemoveNodes:
    def test_cycle_minus_one_node(self):
        g = benchmark_graph("fig1c")
        reduced, survivors = remove_nodes(g, {0})
        assert survivors == (1, 2, 3)
        assert reduced.node_count == 3
        assert arc_set(reduced) == {(0, 1), (1, 2)}

    def test_empty_victims_is_identity(self):
        g = benchmark_graph("fig2b")
        reduced, survivors = remove_nodes(g, set())
        assert reduced == g
        assert survivors == tuple(range(7))

    def test_victim_out_of_range(self):
        with pytest.raises(IndexError):
            remove_nodes(benchmark_graph("fig1a"), {5})

    def test_cannot_remove_all(self):
        with pytest.raises(ValueError):
            remove_nodes(benchmark_graph("fig1a"), {0, 1})

    def test_matches_tuple_reference(self):
        rng = np.random.default_rng(8)
        labelled = DirectedGraph.from_arcs(5, [(0, 1), (1, 2), (3, 4), (4, 0), (2, 4)],
                                           labels="abcde")
        cases = [(labelled, [2]), (labelled, [0, 4]), (generate_scale_free(300, 3), [])]
        cases += [(generate_scale_free(64, s), rng.choice(64, size=7, replace=False))
                  for s in range(5)]
        for g, victims in cases:
            reduced, survivors = remove_nodes(g, victims)
            n, arcs, labels, expected = reference_remove_nodes(g, victims)
            assert (reduced.node_count, arc_set(reduced), reduced.labels, survivors) == \
                (n, arcs, labels, expected)

    def test_surviving_arcs_preserved_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = generate_scale_free(24, int(rng.integers(1 << 30)))
            victims = set(int(v) for v in rng.choice(24, size=5, replace=False))
            reduced, survivors = remove_nodes(g, victims)
            # brute-force comparison through the index map
            expected = {(s, d) for s, d in arc_set(g) if s in survivors and d in survivors}
            mapped = {(survivors[s], survivors[d]) for s, d in arc_set(reduced)}
            assert mapped == expected

    def test_labels_follow_survivors(self):
        g = DirectedGraph.from_arcs(3, [(0, 1), (1, 2)], labels=("a", "b", "c"))
        reduced, _ = remove_nodes(g, {1})
        assert reduced.labels == ("a", "c")


class TestGenerators:
    def test_scale_free_deterministic(self):
        a = generate_scale_free(64, 9)
        b = generate_scale_free(64, 9)
        assert to_edge_list(a) == to_edge_list(b)
        assert generate_scale_free(64, 10) != a

    def test_scale_free_minimum_size(self):
        g = generate_scale_free(3, 0)
        assert g.node_count == 3
        assert all(s != d for s, d in arc_set(g))

    def test_scale_free_sizes(self):
        for n in (128, 256):
            g = generate_scale_free(n, 1)
            assert g.node_count == n

    def test_scale_free_has_hubs(self):
        g = generate_scale_free(128, 2)
        total = g.out_degrees() + g.in_degrees()
        assert total.max() >= 5 * np.median(total)

    def test_scale_free_too_small(self):
        with pytest.raises(ValueError):
            generate_scale_free(2, 0)

    def test_scale_free_too_large_refused_up_front(self):
        for n in (graph.MAX_NODES + 1, 10 ** 5000):
            with pytest.raises(ValueError, match=f"between 3 and {graph.MAX_NODES} nodes"):
                generate_scale_free(n, 0)

    def test_scale_free_beyond_physical_memory_refused_up_front(self, monkeypatch):
        # at 320 bytes a node, 10**6 nodes need 320 MB, more than a 256 MiB
        # machine has; the 8192 nodes of the CLI ingest benchmark need 2.6 MB
        monkeypatch.setattr(graph, "_physical_memory", lambda: 256 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="of 1000000 nodes takes about 320000000 "
                                                  "bytes .* 268435456 bytes of physical"):
                generate_scale_free(10 ** 6, 0)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        assert generate_scale_free(8192, 0).node_count == 8192
        # where the platform reports no memory figure, nothing is refused
        monkeypatch.setattr(graph, "_physical_memory", lambda: None)
        monkeypatch.setattr(graph, "_SCALE_FREE_NODE_BYTES", 1 << 62)
        assert generate_scale_free(16, 0).node_count == 16

    def test_tree_beyond_physical_memory_refused_up_front(self, monkeypatch):
        # at 64 bytes a node, 2**23 - 1 nodes need 537 MB, more than a 256 MiB
        # machine has; the 2**16 - 1 nodes of tree:16 need 4.2 MB
        monkeypatch.setattr(graph, "_physical_memory", lambda: 256 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="tree of 8388607 nodes takes about 536870848 "
                                                  "bytes .* 268435456 bytes of physical"):
                generate_binary_tree(23)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        assert generate_binary_tree(16).node_count == 2 ** 16 - 1
        monkeypatch.setattr(graph, "_physical_memory", lambda: None)
        monkeypatch.setattr(graph, "_TREE_NODE_BYTES", 1 << 62)
        assert generate_binary_tree(4).node_count == 15

    def test_hierarchical_node_counts(self):
        for n in range(1, 7):
            assert generate_hierarchical(n).node_count == 3 ** n

    def test_hierarchical_base_is_3_cycle(self):
        assert arc_set(generate_hierarchical(1)) == {(0, 1), (1, 2), (2, 0)}

    def test_hierarchical_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_hierarchical(0)

    def test_hierarchical_deterministic(self):
        assert to_edge_list(generate_hierarchical(4)) == to_edge_list(generate_hierarchical(4))

    def test_hierarchical_replica_arcs_point_to_root(self):
        g = generate_hierarchical(2)
        # copies of the 3-cycle at offsets 3 and 6 plus bottom nodes wired to 0
        assert {(4, 0), (5, 0), (7, 0), (8, 0)} <= arc_set(g)

    def test_hierarchical_matches_copy_by_copy_reference(self):
        for generation in range(1, 7):
            assert arc_set(generate_hierarchical(generation)) == reference_hierarchical_arcs(generation)

    def test_binary_tree_sizes(self):
        for levels in (1, 2, 3, 6):
            assert generate_binary_tree(levels).node_count == 2 ** levels - 1

    def test_binary_tree_three_levels(self):
        g = generate_binary_tree(3)
        assert arc_set(g) == {(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)}

    def test_binary_tree_degenerate(self):
        g = generate_binary_tree(1)
        assert g.node_count == 1
        assert not arc_set(g)

    def test_binary_tree_smallest_branching(self):
        g = generate_binary_tree(2)
        assert g.node_count == 3
        assert arc_set(g) == {(1, 0), (2, 0)}

    def test_binary_tree_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_binary_tree(0)

    def test_binary_tree_too_deep_refused_before_the_power(self):
        # 31 levels are the deepest within MAX_NODES; 2 ** (10 ** 11) alone
        # would take 12 GB, so the refusal must come before the power
        assert 2 ** 31 - 1 <= graph.MAX_NODES < 2 ** 32 - 1
        tracemalloc.start()
        try:
            for levels in (32, 10 ** 11):
                with pytest.raises(ValueError, match=f"between 1 and 31: .* limit of "
                                                     f"{graph.MAX_NODES} nodes"):
                    generate_binary_tree(levels)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_generator_params_dispatch(self):
        assert generate("tree", 3) == generate_binary_tree(3)
        assert generate("hierarchical", 2) == generate_hierarchical(2)
        assert generate("scalefree", 16, seed=4) == generate_scale_free(16, 4)

    def test_scalefree_seed_defaults_to_zero(self):
        assert generate("scalefree", 16, seed=None) == generate_scale_free(16, 0)

    @pytest.mark.parametrize("model, size", [("tree", 3), ("hierarchical", 2)])
    def test_deterministic_families_refuse_a_seed(self, model, size):
        for seed in (0, 5):
            with pytest.raises(ValueError, match=f"the {model} family .* takes no seed"):
                generate(model, size, seed=seed)

    def test_generator_params_validation(self):
        with pytest.raises(ValueError, match="unknown model"):
            generate("mystery", 8)
        with pytest.raises(ValueError):
            generate("scalefree", 2)


def _reference_scale_free(n, seed):
    """The generator as one ``rng.choice`` per attachment, O(n) per event.

    ``generate_scale_free`` must reproduce its arc sets exactly. The model's
    constants are written out here rather than imported, so an edit to the
    generator's constants fails the comparison.
    """
    rng = np.random.default_rng(seed)
    p_new_out, p_internal = 0.41, 0.54
    delta_in, delta_out = 0.2, 0.0

    multi_arcs: list[tuple[int, int]] = [(0, 1), (1, 2), (2, 0)]
    in_deg = np.zeros(n, dtype=np.float64)
    out_deg = np.zeros(n, dtype=np.float64)
    in_deg[:3] = out_deg[:3] = 1.0
    node_count = 3

    def pick_by_in() -> int:
        w = in_deg[:node_count] + delta_in
        return int(rng.choice(node_count, p=w / w.sum()))

    def pick_by_out() -> int:
        w = out_deg[:node_count] + delta_out
        return int(rng.choice(node_count, p=w / w.sum()))

    while node_count < n:
        r = rng.random()
        if r < p_new_out:
            dst = pick_by_in()
            src = node_count
            node_count += 1
        elif r < p_new_out + p_internal:
            src = pick_by_out()
            dst = pick_by_in()
        else:
            src = pick_by_out()
            dst = node_count
            node_count += 1
        multi_arcs.append((src, dst))
        out_deg[src] += 1.0
        in_deg[dst] += 1.0

    arcs = {(s, d) for s, d in multi_arcs if s != d}
    return DirectedGraph.from_arcs(n, arcs)


def _uint64_seeds(count, master):
    return [int(s) for s in np.random.SeedSequence(master).generate_state(count, dtype=np.uint64)]


class TestScaleFreeMatchesReference:
    def test_sizes_and_seeds(self):
        for n in (3, 4, 5, 8, 16, 64, 256, 1024):
            for seed in range(6):
                assert generate_scale_free(n, seed) == _reference_scale_free(n, seed), (n, seed)

    def test_acceptance_ensembles(self):
        # criterion 3, the CLI seeds, criteria 4 and 10 (master 777),
        # criteria 7 and 8 (master 12345), and criterion 9's ipr_scaling draws
        cases = [(64, 101), (128, 102), (256, 103), (32, 11), (64, 11), (32, 5)]
        cases += [(64, s) for s in _uint64_seeds(10, 777)]
        cases += [(32, s) for s in _uint64_seeds(20, 777)]
        cases += [(128, s) for s in _uint64_seeds(20, 12345)]
        ipr_seeds = _uint64_seeds(20, 12345)
        cases += [(n, ipr_seeds[5 * i + j]) for i, n in enumerate((32, 64, 128, 256))
                  for j in range(5)]
        for n, seed in cases:
            assert generate_scale_free(n, seed) == _reference_scale_free(n, seed), (n, seed)

    def test_exact_fallback_on_cdf_boundaries(self, monkeypatch):
        numpy_pick = graph._numpy_pick
        calls = []

        def spy(weights, u):
            calls.append(u)
            return numpy_pick(weights, u)

        monkeypatch.setattr(graph, "_numpy_pick", spy)
        for delta, degrees in ((0.0, [0, 1, 1, 2, 0]), (0.2, [3, 0, 1, 1, 4, 2])):
            sampler = graph._DegreeSampler(len(degrees) + 2, delta)
            for node, d in enumerate(degrees):
                for _ in range(d):
                    sampler.add(node)
            w = np.array(degrees, dtype=np.float64) + delta
            cdf = (w / w.sum()).cumsum()
            cdf /= cdf[-1]
            for u in [0.0, *cdf[cdf < 1.0]]:  # draws lie in [0, 1)
                calls.clear()
                picked = sampler.pick(float(u), len(degrees))
                assert picked == cdf.searchsorted(u, side="right")
                assert w[picked] > 0
                assert calls == [u]

