import numpy as np
import pytest

from qprank.graph import (DirectedGraph, GeneratorParams, GraphFormatError,
                          benchmark_graph, generate, generate_binary_tree,
                          generate_hierarchical, generate_scale_free,
                          out_degree, parse_edge_list, parse_pajek,
                          remove_nodes, to_edge_list, to_pajek)


class TestDirectedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph.from_arcs(2, [(0, 0)])

    def test_rejects_out_of_range_arc(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph.from_arcs(2, [(0, 2)])

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_arcs(0, [])

    def test_duplicate_arcs_collapse(self):
        g = DirectedGraph.from_arcs(2, [(0, 1), (0, 1)])
        assert len(g.arcs) == 1

    def test_degree_vectors(self):
        g = benchmark_graph("fig1d")
        assert g.out_degrees().tolist() == [3, 2, 1, 1]
        assert g.in_degrees().tolist() == [1, 1, 2, 3]


class TestEdgeList:
    def test_single_arc(self):
        g = parse_edge_list("0 1\n")
        assert g.node_count == 2
        assert g.arcs == {(0, 1)}

    def test_empty_input_is_error(self):
        with pytest.raises(GraphFormatError, match="no nodes"):
            parse_edge_list("")

    def test_labelled_pair(self):
        g = parse_edge_list("a b\nb a\n")
        assert g.node_count == 2
        assert g.arcs == {(0, 1), (1, 0)}
        assert g.labels == ("a", "b")

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a comment\n\n0 1\n1 2  # trailing\n")
        assert g.node_count == 3
        assert g.arcs == {(0, 1), (1, 2)}

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
        assert parse_edge_list("0 1\n0 1\n1 0\n").arcs == {(0, 1), (1, 0)}
        assert parse_edge_list("a b\na b\n").arcs == {(0, 1)}


class TestPajek:
    MINIMAL = '*Vertices 2\n1 "home"\n2 "page"\n*Arcs\n1 2\n'

    def test_minimal_file(self):
        g = parse_pajek(self.MINIMAL)
        assert g.node_count == 2
        assert g.arcs == {(0, 1)}
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
        assert g.arcs == {(0, 1)}


class TestBenchmarks:
    def test_fig1a(self):
        g = benchmark_graph("fig1a")
        assert g.node_count == 2
        assert g.arcs == {(0, 1)}

    def test_fig1b_is_matrix_level_alias(self):
        assert benchmark_graph("fig1b") == benchmark_graph("fig1a")

    def test_fig1c_cycle(self):
        g = benchmark_graph("fig1c")
        assert g.node_count == 4
        assert g.arcs == {(0, 1), (1, 2), (2, 3), (3, 0)}

    def test_fig1d_arcs(self):
        g = benchmark_graph("fig1d")
        assert g.node_count == 4
        assert g.arcs == {(0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 3), (3, 2)}

    def test_fig2b_shape(self):
        g = benchmark_graph("fig2b")
        assert g.node_count == 7
        assert (g.out_degrees() + g.in_degrees() > 0).all()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            benchmark_graph("fig9z")


class TestOutDegree:
    def test_fig1a_values(self):
        g = benchmark_graph("fig1a")
        assert out_degree(g, 0) == 1
        assert out_degree(g, 1) == 0  # dangling

    def test_fig1d_hub(self):
        assert out_degree(benchmark_graph("fig1d"), 0) == 3

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            out_degree(benchmark_graph("fig1a"), 2)


class TestRemoveNodes:
    def test_cycle_minus_one_node(self):
        g = benchmark_graph("fig1c")
        reduced, survivors = remove_nodes(g, {0})
        assert survivors == (1, 2, 3)
        assert reduced.node_count == 3
        assert reduced.arcs == {(0, 1), (1, 2)}

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

    def test_surviving_arcs_preserved_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = generate_scale_free(24, int(rng.integers(1 << 30)))
            victims = set(int(v) for v in rng.choice(24, size=5, replace=False))
            reduced, survivors = remove_nodes(g, victims)
            # brute-force comparison through the index map
            expected = {(s, d) for s, d in g.arcs if s in survivors and d in survivors}
            mapped = {(survivors[s], survivors[d]) for s, d in reduced.arcs}
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
        assert all(s != d for s, d in g.arcs)

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

    def test_scale_free_bad_mix(self):
        with pytest.raises(ValueError, match="mix"):
            generate_scale_free(10, 0, mix=(0.5, 0.6, 0.1))

    def test_hierarchical_node_counts(self):
        for n in range(1, 7):
            assert generate_hierarchical(n).node_count == 3 ** n

    def test_hierarchical_base_is_3_cycle(self):
        assert generate_hierarchical(1).arcs == {(0, 1), (1, 2), (2, 0)}

    def test_hierarchical_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_hierarchical(0)

    def test_hierarchical_deterministic(self):
        assert to_edge_list(generate_hierarchical(4)) == to_edge_list(generate_hierarchical(4))

    def test_hierarchical_replica_arcs_point_to_root(self):
        g = generate_hierarchical(2)
        # copies of the 3-cycle at offsets 3 and 6 plus bottom nodes wired to 0
        assert {(4, 0), (5, 0), (7, 0), (8, 0)} <= g.arcs
        flipped = generate_hierarchical(2, toward_root=False)
        assert {(0, 4), (0, 5), (0, 7), (0, 8)} <= flipped.arcs

    def test_binary_tree_sizes(self):
        for levels in (1, 2, 3, 6):
            assert generate_binary_tree(levels).node_count == 2 ** levels - 1

    def test_binary_tree_three_levels(self):
        g = generate_binary_tree(3)
        assert g.arcs == {(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)}

    def test_binary_tree_degenerate(self):
        g = generate_binary_tree(1)
        assert g.node_count == 1
        assert not g.arcs

    def test_binary_tree_smallest_branching(self):
        g = generate_binary_tree(2)
        assert g.node_count == 3
        assert g.arcs == {(1, 0), (2, 0)}

    def test_binary_tree_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_binary_tree(0)

    def test_generator_params_dispatch(self):
        g = generate(GeneratorParams("tree", 3))
        assert g == generate_binary_tree(3)
        g = generate(GeneratorParams("scalefree", 16, seed=4))
        assert g == generate_scale_free(16, 4)

    def test_generator_params_validation(self):
        with pytest.raises(ValueError):
            GeneratorParams("mystery", 8)
        with pytest.raises(ValueError):
            GeneratorParams("scalefree", 8, mix=(1.0, 1.0, 0.0))
