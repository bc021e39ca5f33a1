import tracemalloc

import numpy as np
import pytest

from qprank.analysis import (attack_sensitivity, damping_sweep,
                             degeneracy_profile, fidelity, ipr, ipr_scaling,
                             loglog_slope, power_law_fit, rank_correlation,
                             rank_vector, top_nodes)
from qprank.graph import DirectedGraph, benchmark_graph, generate_scale_free
from qprank.szegedy import (STACK_BYTES, build_dynamical_subspace, evolve_spectral,
                            quantum_pagerank, walk_operator)


class TestIpr:
    def test_uniform_gives_n(self):
        for n in (4, 11, 64):
            assert abs(ipr(np.full(n, 1.0 / n)) - n) < 1e-9

    def test_point_mass_gives_one(self):
        p = np.zeros(8)
        p[3] = 1.0
        assert ipr(p) == 1.0

    def test_two_thirds_case(self):
        assert abs(ipr(np.array([1 / 3, 2 / 3])) - 1.8) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            ipr(np.array([0.5, 0.2]))

    def test_two_dimensional_or_negative_rejected(self):
        with pytest.raises(ValueError, match="distribution must be one-dimensional"):
            ipr(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="distribution has negative entries"):
            ipr(np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="q has negative entries"):
            fidelity(np.array([0.5, 0.5]), np.array([1.5, -0.5]))

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            p = rng.random(n)
            p /= p.sum()
            value = ipr(p)
            assert 1.0 - 1e-9 <= value <= n + 1e-9


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(2)
        p = rng.random(12)
        p /= p.sum()
        assert abs(fidelity(p, p) - 1.0) < 1e-12

    def test_point_mass_vs_even_split(self):
        value = fidelity(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert abs(value - np.sqrt(0.5)) < 1e-12

    def test_disjoint_support(self):
        assert fidelity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        p, q = rng.random(9), rng.random(9)
        p /= p.sum()
        q /= q.sum()
        assert abs(fidelity(p, q) - fidelity(q, p)) < 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        p, q = rng.random(9), rng.random(9)
        p /= p.sum()
        q /= q.sum()
        perm = rng.permutation(9)
        assert abs(fidelity(p, q) - fidelity(p[perm], q[perm])) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.array([1.0]), np.array([0.5, 0.5]))

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p, q = rng.random(7), rng.random(7)
            p /= p.sum()
            q /= q.sum()
            assert -1e-12 <= fidelity(p, q) <= 1.0 + 1e-12


def _peak_bytes(run):
    """Peak traced allocation while ``run`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDampingSweep:
    def test_singleton_grid(self):
        sweep = damping_sweep(benchmark_graph("fig1d"), [0.85])
        assert sweep.min_fidelity == 1.0

    def test_duplicate_alpha(self):
        sweep = damping_sweep(benchmark_graph("fig1d"), [0.85, 0.85])
        assert abs(sweep.min_fidelity - 1.0) < 1e-12

    def test_diagonal_is_one(self):
        sweep = damping_sweep(benchmark_graph("fig2b"), [0.3, 0.6, 0.9])
        assert np.abs(np.diag(sweep.pairwise) - 1.0).max() < 1e-12
        assert np.abs(sweep.pairwise - sweep.pairwise.T).max() == 0.0
        assert 0.0 <= sweep.min_fidelity <= 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            damping_sweep(benchmark_graph("fig1d"), [])
        with pytest.raises(ValueError):
            damping_sweep(benchmark_graph("fig1d"), [0.5, 1.0])

    def test_quantum_ranker_runs(self):
        sweep = damping_sweep(benchmark_graph("fig2b"), [0.4, 0.85], "quantum", steps=128)
        assert sweep.rank_vectors.shape == (2, 7)
        assert np.abs(sweep.rank_vectors.sum(axis=1) - 1.0).max() < 1e-9

    def test_quantum_sweep_across_stack_chunks_matches_single_walks(self):
        # two walks of N = 160 fill one chunk, so five run as chunks of 2, 2 and 1
        assert STACK_BYTES // (8 * 160 * 160) == 2
        g = generate_scale_free(160, 11)
        grid = (0.55, 0.65, 0.75, 0.85, 0.95)
        sweep = damping_sweep(g, grid, "quantum", steps=512)
        for row, alpha in zip(sweep.rank_vectors, grid):
            assert np.abs(row - quantum_pagerank(g, alpha, 512)).max() <= 1e-15

    def test_direct_and_spectral_quantum_sweeps_agree(self):
        # the sweep runs the direct kernel; the spectral one is its reference
        g = generate_scale_free(64, 12)
        grid = (0.3, 0.6, 0.85, 0.9)
        sweep = damping_sweep(g, grid, "quantum", steps=512)
        spectral = [evolve_spectral(build_dynamical_subspace(walk_operator(g, a)), 512).average
                    for a in grid]
        assert np.abs(sweep.rank_vectors - spectral).max() <= 1e-11

    def test_quantum_sweep_memory_is_one_walk(self):
        # at N = 512 every walk runs alone; a sweep that built all ten
        # operators up front would hold ten pairs of dense N x N arrays
        g = generate_scale_free(512, 13)
        quantum_pagerank(g, 0.85, 4)  # warm up lazy imports and caches
        single = _peak_bytes(lambda: quantum_pagerank(g, 0.85, 4))
        grid = np.linspace(0.5, 0.95, 10)
        sweep = _peak_bytes(lambda: damping_sweep(g, grid, "quantum", steps=4))
        assert sweep <= 1.2 * single, (sweep, single)


class TestPowerLawFit:
    @pytest.mark.parametrize("beta", [0.5, 0.9, 2.0])
    def test_recovers_planted_exponent(self, beta):
        k = np.arange(1, 101, dtype=float)
        p = k ** -beta
        p /= p.sum()
        fit = power_law_fit(p)
        assert abs(fit.exponent - beta) < 1e-6
        assert fit.r_squared > 0.999999

    def test_explicit_range(self):
        k = np.arange(1, 51, dtype=float)
        p = k ** -1.3
        p /= p.sum()
        fit = power_law_fit(p, (0, 50))
        assert abs(fit.exponent - 1.3) < 1e-6
        assert fit.fitted_range == (0, 50)

    def test_too_few_positive_values(self):
        with pytest.raises(ValueError):
            power_law_fit(np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]))

    def test_zero_inside_requested_range(self):
        p = np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-positive"):
            power_law_fit(p, (0, 6))

    def test_default_range_excludes_tail(self):
        k = np.arange(1, 101, dtype=float)
        p = k ** -1.0
        p /= p.sum()
        fit = power_law_fit(p)
        assert fit.fitted_range == (0, 95)


class TestDegeneracyProfile:
    def test_uniform_is_single_class(self):
        profile = degeneracy_profile(np.full(10, 0.1), 1e-4)
        assert profile.class_count == 1
        assert profile.class_sizes == (10,)

    def test_distinct_values_all_separate(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        profile = degeneracy_profile(p, 1e-4)
        assert profile.class_count == 4

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(6)
        p = rng.random(40)
        p /= p.sum()
        counts = [degeneracy_profile(p, d).class_count
                  for d in (1e-6, 1e-4, 1e-2, 1e-1, 1.0)]
        assert counts == sorted(counts, reverse=True)

    def test_delta_positive_required(self):
        for delta in (0.0, -1e-4, float("nan")):
            with pytest.raises(ValueError, match="delta"):
                degeneracy_profile(np.array([0.5, 0.5]), delta)

    def test_empty_ranking_rejected(self):
        # the per-node loop reported one class of size 1 for no nodes
        with pytest.raises(ValueError, match="empty"):
            degeneracy_profile(np.array([]), 1e-4)

    def test_sizes_sum_to_n(self):
        rng = np.random.default_rng(7)
        p = rng.random(25)
        profile = degeneracy_profile(p, 0.05)
        assert sum(profile.class_sizes) == 25


class TestRankCorrelation:
    def test_identical_orderings(self):
        a = np.array([0.5, 0.3, 0.2])
        assert rank_correlation(a, a) == 1.0

    def test_reversed_orderings(self):
        a = np.array([4.0, 3.0, 2.0, 1.0])
        assert rank_correlation(a, a[::-1]) == -1.0

    def test_scaling_invariance(self):
        a = np.array([0.1, 0.4, 0.3, 0.2])
        assert rank_correlation(a, 2 * a) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.random(20)
        b = rng.random(20)
        base = rank_correlation(a, b)
        assert abs(rank_correlation(np.exp(a), b) - base) < 1e-12
        assert abs(rank_correlation(a ** 3, b) - base) < 1e-12

    def test_both_constant(self):
        assert rank_correlation(np.full(5, 0.2), np.full(5, 0.7)) == 1.0

    def test_one_constant(self):
        assert rank_correlation(np.full(5, 0.2), np.arange(5.0)) == 0.0

    def test_signed_zeros_tie(self):
        # -0.0 == 0.0, so the first two values share a rank: of the three
        # pairs one is tied in a and two are concordant
        tau = rank_correlation(np.array([-0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
        assert tau == 2 / np.sqrt(2) / np.sqrt(3)

    def test_dimension_mismatch(self):
        for a, b in (([1.0, 2.0], [1.0]), ([], [])):
            with pytest.raises(ValueError, match="one-dimensional"):
                rank_correlation(np.array(a), np.array(b))


class TestTopNodes:
    def test_descending_with_tie_break(self):
        values = np.array([0.2, 0.5, 0.2, 0.1])
        assert top_nodes(values, 3) == (1, 0, 2)


class TestAttack:
    def test_no_attack_is_identity(self):
        g = generate_scale_free(16, 9)
        report = attack_sensitivity(g, 0, "classical")
        assert report.correlation == 1.0
        assert report.mean_displacement == 0.0
        assert report.removed == ()

    def test_complete_digraph_symmetric(self):
        k5 = DirectedGraph.from_arcs(5, [(i, j) for i in range(5) for j in range(5) if i != j])
        report = attack_sensitivity(k5, 1, "classical")
        assert report.correlation == 1.0

    def test_k_out_of_range(self):
        g = generate_scale_free(8, 10)
        with pytest.raises(ValueError):
            attack_sensitivity(g, 8, "classical")

    def test_fewer_than_three_nodes_rejected(self):
        with pytest.raises(ValueError, match="needs at least 3 nodes"):
            attack_sensitivity(benchmark_graph("fig1a"), 0, "classical")

    def test_survivor_bookkeeping(self):
        g = generate_scale_free(16, 11)
        report = attack_sensitivity(g, 2, "classical")
        assert len(report.survivors) == 14
        assert len(report.pre_ranking) == 14
        assert len(report.post_ranking) == 14
        assert set(report.removed).isdisjoint(report.survivors)

    def test_quantum_ranker_runs(self):
        g = generate_scale_free(12, 12)
        report = attack_sensitivity(g, 1, "quantum", steps=128)
        assert -1.0 <= report.correlation <= 1.0


class TestIprScaling:
    def test_uniform_control_slope(self):
        result = ipr_scaling([16, 32, 64], 5, "uniform", seed=1)
        assert abs(result.slope - 1.0) < 1e-6
        assert not result.localized

    def test_requires_enough_sizes_and_instances(self):
        with pytest.raises(ValueError):
            ipr_scaling([16, 32], 5, "uniform")
        with pytest.raises(ValueError):
            ipr_scaling([16, 32, 64], 2, "uniform")

    def test_points_recorded(self):
        result = ipr_scaling([8, 16, 32], 5, "classical", seed=3)
        assert [p.size for p in result.points] == [8, 16, 32]
        assert all(p.std_ipr >= 0 for p in result.points)

    def test_classical_walker_localizes_on_scale_free(self):
        result = ipr_scaling([32, 64, 128, 256], 5, "classical", seed=5)
        assert result.localized

    def test_quantum_ensemble_matches_single_walks(self):
        sizes, instances, seed = [16, 24, 32], 5, 4
        result = ipr_scaling(sizes, instances, "quantum", seed=seed, steps=256)
        seeds = np.random.SeedSequence(seed).generate_state(len(sizes) * instances,
                                                            dtype=np.uint64)
        for si, (n, point) in enumerate(zip(sizes, result.points)):
            values = [ipr(quantum_pagerank(generate_scale_free(n, int(s)), 0.85, 256))
                      for s in seeds[si * instances:(si + 1) * instances]]
            assert abs(point.mean_ipr - np.mean(values)) <= 1e-12 * n
            assert abs(point.std_ipr - np.std(values)) <= 1e-12 * n

    def test_loglog_slope_exact_line(self):
        xs = np.array([10.0, 100.0, 1000.0])
        assert abs(loglog_slope(xs, 5 * xs ** 0.7) - 0.7) < 1e-12


class TestRankVector:
    def test_unknown_ranker(self):
        with pytest.raises(ValueError):
            rank_vector(benchmark_graph("fig1a"), "psychic")

    def test_classical_and_quantum_normalized(self):
        g = benchmark_graph("fig2b")
        for ranker in ("classical", "quantum", "uniform"):
            values = rank_vector(g, ranker, steps=128)
            assert abs(values.sum() - 1.0) < 1e-9
