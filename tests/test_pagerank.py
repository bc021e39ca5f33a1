import functools

import numpy as np
import pytest

from graph_oracles import second_eigenvalue_modulus
from qprank import pagerank
from qprank.graph import DirectedGraph, benchmark_graph, generate_scale_free
from qprank.pagerank import (classical_pagerank, google_matrix,
                             hyperlink_matrix, patch_dangling, power_method)

FIG1D_E = np.array([
    [0, 1/2, 0, 0],
    [1/3, 0, 0, 0],
    [1/3, 0, 0, 1],
    [1/3, 1/2, 1, 0],
])


def random_digraph(rng, max_nodes=64):
    n = int(rng.integers(2, max_nodes + 1))
    p = rng.uniform(0.05, 0.5)
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return DirectedGraph.from_arcs(n, arcs)


class TestHyperlinkMatrix:
    def test_fig1a(self):
        h = hyperlink_matrix(benchmark_graph("fig1a"))
        assert h.dense().tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert patch_dangling(h).patched.tolist() == [False, True]

    def test_fig1d_matches_printed_matrix(self):
        h = hyperlink_matrix(benchmark_graph("fig1d"))
        assert np.allclose(h.dense(), FIG1D_E, atol=1e-15)
        assert not patch_dangling(h).patched.any()

    def test_single_dangling_node(self):
        h = hyperlink_matrix(DirectedGraph.from_arcs(1, []))
        assert h.dense().tolist() == [[0.0]]
        assert patch_dangling(h).patched.tolist() == [True]

    def test_column_sums_one_or_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_digraph(rng)
            h = hyperlink_matrix(g)
            sums = h.dense().sum(axis=0)
            expected = np.where(g.out_degrees() == 0, 0.0, 1.0)
            assert np.abs(sums - expected).max() < 1e-12


class TestPatchDangling:
    def test_fig1a(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1a")))
        assert e.dense().tolist() == [[0.0, 0.5], [1.0, 0.5]]

    def test_identity_when_no_dangling(self):
        h = hyperlink_matrix(benchmark_graph("fig1d"))
        e = patch_dangling(h)
        assert np.array_equal(e.dense(), h.dense())

    def test_single_node(self):
        e = patch_dangling(hyperlink_matrix(DirectedGraph.from_arcs(1, [])))
        assert e.dense().tolist() == [[1.0]]

    def test_column_stochastic(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            e = patch_dangling(hyperlink_matrix(random_digraph(rng)))
            assert np.abs(e.dense().sum(axis=0) - 1.0).max() < 1e-12


class TestGoogleMatrix:
    def test_fig1a_085(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1a")))
        g = google_matrix(e, 0.85)
        assert np.allclose(g.dense(), [[0.075, 0.5], [0.925, 0.5]], atol=1e-15)

    def test_alpha_one_is_e(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1d")))
        assert np.allclose(google_matrix(e, 1.0).dense(), e.dense(), atol=1e-15)

    def test_e_is_alpha_one_and_damping_composes(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig2b")))
        assert e.alpha == 1.0
        v = np.random.default_rng(15).random(7)
        assert np.abs(e.matvec(v) - e.dense() @ v).max() < 1e-15
        twice = google_matrix(google_matrix(e, 0.5), 0.5)
        assert twice.alpha == 0.25
        want = 0.5 * google_matrix(e, 0.5).dense() + 0.5 / 7
        assert np.allclose(twice.dense(), want, atol=1e-15)

    def test_alpha_zero_is_uniform(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig2b")))
        assert np.allclose(google_matrix(e, 0.0).dense(), 1.0 / 7, atol=1e-15)

    def test_alpha_range_checked(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1a")))
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                google_matrix(e, bad)

    def test_entries_floor_and_columns(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_digraph(rng)
            gm = google_matrix(patch_dangling(hyperlink_matrix(g)), 0.85)
            dense = gm.dense()
            assert dense.min() >= (1 - 0.85) / g.node_count - 1e-15
            assert np.abs(dense.sum(axis=0) - 1.0).max() < 1e-12

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(14)
        g = random_digraph(rng)
        gm = google_matrix(patch_dangling(hyperlink_matrix(g)), 0.85)
        v = rng.random(g.node_count)
        assert np.abs(gm.matvec(v) - gm.dense() @ v).max() < 1e-12


class TestPowerMethod:
    def test_bare_h_drains_to_zero(self):
        h = hyperlink_matrix(benchmark_graph("fig1a"))
        r = power_method(h, np.array([1.0, 0.0]))
        assert r.degenerate
        assert np.array_equal(r.values, [0.0, 0.0])

    def test_fig1d_bare_e(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1d")))
        r = power_method(e, np.array([1.0, 0, 0, 0]))
        assert np.abs(r.values - np.array([0, 0, 0.6, 0.4])).max() < 1e-9
        assert not r.degenerate
        assert r.orbit and not r.converged

    def test_fig1c_never_converges(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1c")))
        r = power_method(e, np.array([1.0, 0, 0, 0]), max_iter=2000)
        assert not r.converged
        assert not r.orbit
        assert r.iterations == 2000

    def test_zero_start_rejected(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1a")))
        with pytest.raises(ValueError, match="nonzero"):
            power_method(e, np.zeros(2))

    def test_start_of_wrong_shape_rejected(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1a")))
        for start in (np.ones(3), np.ones((2, 1))):
            with pytest.raises(ValueError, match=r"initial vector must have shape \(2,\)"):
                power_method(e, start)

    def test_result_normalized(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig2b")))
        r = power_method(google_matrix(e, 0.85), np.array([5.0, 0, 0, 0, 0, 0, 0]))
        assert r.converged and not r.orbit
        assert abs(r.values.sum() - 1.0) < 1e-12


class TestClassicalPagerank:
    def test_fig1a_085(self):
        pr = classical_pagerank(benchmark_graph("fig1a"), 0.85)
        assert np.abs(pr - np.array([0.5 / 1.425, 0.925 / 1.425])).max() < 1e-6

    def test_fig1a_undamped_limit_with_brute_force(self):
        # iterate E explicitly as the independent oracle
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1a"))).dense()
        v = np.array([1.0, 0.0])
        for _ in range(10_000):
            v = e @ v
        assert np.abs(v - np.array([1 / 3, 2 / 3])).max() < 1e-12
        r = power_method(patch_dangling(hyperlink_matrix(benchmark_graph("fig1a"))),
                         np.array([1.0, 0.0]))
        assert np.abs(r.values - np.array([1 / 3, 2 / 3])).max() < 1e-10

    def test_complete_digraph_uniform(self):
        k3 = DirectedGraph.from_arcs(3, [(i, j) for i in range(3) for j in range(3) if i != j])
        for alpha in (0.0, 0.5, 0.85):
            assert np.abs(classical_pagerank(k3, alpha) - 1 / 3).max() < 1e-12

    def test_fixed_point_residual(self):
        g = generate_scale_free(64, 21)
        pr = classical_pagerank(g, 0.85)
        gm = google_matrix(patch_dangling(hyperlink_matrix(g)), 0.85)
        assert np.abs(gm.matvec(pr) - pr).sum() < 10 * 1e-12

    def test_independent_of_start(self):
        g = generate_scale_free(32, 22)
        gm = google_matrix(patch_dangling(hyperlink_matrix(g)), 0.85)
        rng = np.random.default_rng(0)
        a = power_method(gm, rng.random(32)).values
        b = power_method(gm, rng.random(32)).values
        assert np.abs(a - b).sum() < 1e-8

    def test_eigenvector_oracle_small_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_digraph(rng, max_nodes=6)
            dense = google_matrix(patch_dangling(hyperlink_matrix(g)), 0.85).dense()
            w, vecs = np.linalg.eig(dense)
            lead = np.argmin(np.abs(w - 1.0))
            stationary = np.real(vecs[:, lead])
            stationary = stationary / stationary.sum()
            assert np.abs(classical_pagerank(g, 0.85) - stationary).max() < 1e-8

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            classical_pagerank(benchmark_graph("fig1a"), 1.0)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(pagerank, "power_method",
                            functools.partial(pagerank.power_method, max_iter=5))
        with pytest.raises(ValueError, match=r"tol=1e-12 in 5 iterations"):
            classical_pagerank(generate_scale_free(64, 1), 0.85)


class TestSecondEigenvalue:
    def test_bounded_by_alpha(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            g = random_digraph(rng)
            e = patch_dangling(hyperlink_matrix(g))
            for alpha in (0.5, 0.85):
                assert second_eigenvalue_modulus(google_matrix(e, alpha)) <= alpha + 1e-9

    def test_cycle_has_closed_gap(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig1c")))
        assert abs(second_eigenvalue_modulus(e) - 1.0) < 1e-12

    def test_teleport_only_is_rank_one(self):
        e = patch_dangling(hyperlink_matrix(benchmark_graph("fig2b")))
        assert second_eigenvalue_modulus(google_matrix(e, 0.0)) < 1e-12
