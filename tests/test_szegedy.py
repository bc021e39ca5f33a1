import re
from unittest import mock

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import pytest

import qprank
from qprank import szegedy
from qprank.graph import (DirectedGraph, benchmark_graph, generate_binary_tree,
                          generate_scale_free)
from qprank.pagerank import GoogleMatrix, classical_pagerank
from qprank.analysis import damping_sweep
from qprank.szegedy import (SeriesStream, average_drift, build_dynamical_subspace, evolve,
                            evolve_spectral, quantum_pagerank, quantum_pageranks,
                            quantum_rank_series, unit_modes, walk_operator)
from szegedy_oracles import (amps, apply_reflection, apply_swap, cesaro_limit, initial_state,
                             instantaneous_qpr, two_step)
from test_analysis import _peak_bytes

BENCHMARKS = ("fig1a", "fig1c", "fig1d", "fig2b")
# The direct kernel the pipelines run at each size, the dense and the sparse
# kernel run at any size, and their spectral reference.
KERNELS = ("direct", "dense", "sparse", "spectral")


def dense_swap(n):
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[i * n + j, j * n + i] = 1.0
    return s


def dense_projector(op):
    n = op.dim
    cols = np.zeros((n * n, n))
    for j in range(n):
        cols[j * n:(j + 1) * n, j] = amps(op)[j]
    return cols @ cols.T


def psi_vector(op, j):
    n = op.dim
    vec = np.zeros(n * n, dtype=complex)
    vec[j * n:(j + 1) * n] = amps(op)[j]
    return vec


class TestOperator:
    def test_fig1a_psi_amplitudes(self):
        op = walk_operator(benchmark_graph("fig1a"), 0.85)
        assert np.allclose(amps(op)[0], [np.sqrt(0.075), np.sqrt(0.925)], atol=1e-15)
        assert np.allclose(amps(op)[1], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)

    def test_uniform_columns_at_alpha_zero(self):
        op = walk_operator(benchmark_graph("fig2b"), 0.0)
        assert np.allclose(amps(op), 1 / np.sqrt(7), atol=1e-15)

    def test_psi_vectors_orthonormal(self):
        for name in BENCHMARKS:
            op = walk_operator(benchmark_graph(name), 0.85)
            n = op.dim
            cols = np.array([psi_vector(op, j) for j in range(n)]).T
            gram = cols.conj().T @ cols
            assert np.abs(gram - np.eye(n)).max() < 1e-10

    def test_edge_space_left_the_package(self):
        for name in ("SzegedyOperator", "build_operator", "initial_state", "apply_reflection",
                     "apply_swap", "two_step", "instantaneous_qpr"):
            assert not hasattr(qprank, name), name
            assert name == "initial_state" or not hasattr(szegedy, name), name

    def test_initial_state_is_the_register_start(self, monkeypatch):
        op = walk_operator(benchmark_graph("fig2b"), 0.85)
        a = szegedy.initial_state(op)
        assert np.array_equal(a, np.full(op.dim, 1 / np.sqrt(op.dim)))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-15
        # both kernels start from it: the walk from node 0 alone first reads out G e_0
        start = np.eye(op.dim)[0]
        monkeypatch.setattr(szegedy, "initial_state", lambda op: start)
        for kernel in KERNELS:
            first = series(op, 1, kernel).instantaneous[0]
            assert np.abs(first - op.google[:, 0]).max() < 1e-12, kernel


class TestInitialState:
    def test_fig1a_amplitudes(self):
        op = walk_operator(benchmark_graph("fig1a"), 0.85)
        expected = np.array([np.sqrt(0.075), np.sqrt(0.925),
                             np.sqrt(0.5), np.sqrt(0.5)]) / np.sqrt(2)
        assert np.abs(initial_state(op) - expected).max() < 1e-15

    def test_normalized(self):
        for name in BENCHMARKS:
            psi = initial_state(walk_operator(benchmark_graph(name), 0.85))
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

    def test_lies_in_psi_span(self):
        op = walk_operator(benchmark_graph("fig1d"), 0.85)
        psi = initial_state(op)
        projected = dense_projector(op) @ psi
        assert np.abs(projected - psi).max() < 1e-10


class TestReflection:
    def test_fixes_psi_vectors(self):
        op = walk_operator(benchmark_graph("fig1d"), 0.85)
        for j in range(op.dim):
            vec = psi_vector(op, j)
            assert np.abs(apply_reflection(vec, op) - vec).max() < 1e-12

    def test_negates_orthogonal_complement(self):
        op = walk_operator(benchmark_graph("fig1a"), 0.85)
        # orthogonal to both psi blocks: within block 0, perpendicular to amps[0]
        vec = np.zeros(4, dtype=complex)
        vec[0], vec[1] = amps(op)[0][1], -amps(op)[0][0]
        out = apply_reflection(vec, op)
        assert np.abs(out + vec).max() < 1e-12

    def test_involution(self):
        op = walk_operator(benchmark_graph("fig2b"), 0.85)
        rng = np.random.default_rng(3)
        vec = rng.normal(size=49) + 1j * rng.normal(size=49)
        vec /= np.linalg.norm(vec)
        twice = apply_reflection(apply_reflection(vec, op), op)
        assert np.abs(twice - vec).max() < 1e-10


class TestSwap:
    def test_basis_pair(self):
        n = 3
        vec = np.zeros(9, dtype=complex)
        vec[0 * n + 1] = 1.0  # |0,1>
        out = apply_swap(vec)
        assert out[1 * n + 0] == 1.0 and np.abs(out).sum() == 1.0

    def test_involution_exact(self):
        rng = np.random.default_rng(4)
        vec = rng.normal(size=25) + 1j * rng.normal(size=25)
        assert np.array_equal(apply_swap(apply_swap(vec)), vec)

    def test_diagonal_fixed(self):
        vec = np.zeros(16, dtype=complex)
        vec[2 * 4 + 2] = 1.0
        assert np.array_equal(apply_swap(vec), vec)


class TestTwoStep:
    def test_norm_preserved_over_many_applications(self):
        op = walk_operator(benchmark_graph("fig2b"), 0.85)
        psi = initial_state(op)
        for _ in range(1000):
            psi = two_step(psi, op)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-8

    def test_norm_preserved_on_random_states(self):
        op = walk_operator(benchmark_graph("fig1d"), 0.85)
        rng = np.random.default_rng(9)
        for _ in range(20):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            assert abs(np.linalg.norm(two_step(psi, op)) - 1.0) < 1e-10

    def test_matches_dense_operator(self):
        for name in ("fig1a", "fig1c", "fig1d"):
            op = walk_operator(benchmark_graph(name), 0.85)
            n = op.dim
            u = dense_swap(n) @ (2 * dense_projector(op) - np.eye(n * n))
            u2 = u @ u
            for col in range(n * n):
                basis = np.zeros(n * n, dtype=complex)
                basis[col] = 1.0
                assert np.abs(two_step(basis, op) - u2[:, col]).max() < 1e-10

    def test_single_step_matches_dense(self):
        op = walk_operator(benchmark_graph("fig1d"), 0.85)
        n = op.dim
        u = dense_swap(n) @ (2 * dense_projector(op) - np.eye(n * n))
        for col in range(n * n):
            basis = np.zeros(n * n, dtype=complex)
            basis[col] = 1.0
            composed = apply_swap(apply_reflection(basis, op))
            assert np.abs(composed - u[:, col]).max() < 1e-12


class TestInstantaneous:
    def test_initial_distribution_fig1a(self):
        op = walk_operator(benchmark_graph("fig1a"), 0.85)
        dist = instantaneous_qpr(initial_state(op))
        assert np.abs(dist - np.array([0.2875, 0.7125])).max() < 1e-12

    def test_initial_distribution_is_row_sums(self):
        op = walk_operator(benchmark_graph("fig2b"), 0.85)
        dist = instantaneous_qpr(initial_state(op))
        assert np.abs(dist - op.google.sum(axis=1) / op.dim).max() < 1e-12

    def test_sums_to_one_along_trajectory(self):
        op = walk_operator(benchmark_graph("fig1d"), 0.85)
        psi = initial_state(op)
        for _ in range(50):
            assert abs(instantaneous_qpr(psi).sum() - 1.0) < 1e-10
            psi = two_step(psi, op)

    def test_basis_state_is_indicator(self):
        vec = np.zeros(9, dtype=complex)
        vec[2 * 3 + 1] = 1.0  # |2,1>: walker measured on node 1
        assert instantaneous_qpr(vec).tolist() == [0.0, 1.0, 0.0]


class TestEvolve:
    def test_single_step_average(self):
        op = walk_operator(benchmark_graph("fig1a"), 0.85)
        series = evolve(op, steps=1)
        assert np.array_equal(series.average, series.instantaneous[0])

    def test_rows_normalized(self):
        op = walk_operator(benchmark_graph("fig2b"), 0.85)
        series = evolve(op, steps=300)
        assert np.abs(series.instantaneous.sum(axis=1) - 1.0).max() < 1e-10
        assert abs(series.average.sum() - 1.0) < 1e-10

    def test_offset_shifts_series(self):
        # fig1a and undamped fig2b have a deflated +-1 eigenspace, whose
        # readout sign depends on the absolute step count; on the sparse
        # kernel, offset 60 keeps rows on both sides of the first 64-row block
        cases = [(benchmark_graph(name), alpha, 12, (1, 4, 7))
                 for name, alpha in (("fig1d", 0.85), ("fig1a", 0.85), ("fig2b", 1.0))]
        cases.append((generate_scale_free(130, 0), 0.85, 70, (60,)))
        for g, alpha, total, offsets in cases:
            op = walk_operator(g, alpha)
            base = evolve(op, steps=total)
            for offset in offsets:
                shifted = evolve(op, steps=total - offset, offset=offset)
                assert np.array_equal(shifted.instantaneous, base.instantaneous[offset:])
                assert np.array_equal(shifted.average, base.instantaneous[offset:].mean(axis=0))

    # fig1a and fig2b at alpha = 1 deflate unit modes; 63, 64 and 65 two-steps
    # end just short of, on and just past a block of rows, and 300 on a short one
    @pytest.mark.parametrize("make, alpha", [
        (lambda: benchmark_graph("fig1a"), 0.85), (lambda: benchmark_graph("fig2b"), 1.0),
        (lambda: generate_scale_free(100, 0), 0.85), (lambda: generate_scale_free(255, 0), 0.85),
    ], ids=["fig1a", "fig2b-undamped", "scalefree100", "scalefree255"])
    def test_stream_average_is_the_mean_of_its_rows(self, make, alpha):
        # the stream adds its rows one after another, as mean(axis=0) does;
        # adding each block's own sum rounds differently
        op = walk_operator(make(), alpha)
        for steps in (1, 63, 64, 65, 300):
            series = evolve(op, steps)
            mean = series.instantaneous.mean(axis=0)
            stream = SeriesStream(op, steps)
            rows = np.concatenate(list(stream.blocks()))
            assert rows.tobytes() == series.instantaneous.tobytes(), steps
            assert stream.average.tobytes() == series.average.tobytes() == mean.tobytes(), steps

    def test_stream_average_needs_a_full_pass(self):
        # before the last row is read, the running sum is a partial one
        stream = SeriesStream(walk_operator(generate_scale_free(16, 0), 0.85), 200)
        with pytest.raises(ValueError, match="full pass: 0 of 200 rows read"):
            stream.average
        blocks = stream.blocks()
        next(blocks)  # the first of four
        with pytest.raises(ValueError, match="full pass: 64 of 200 rows read"):
            stream.average
        assert len(list(blocks)) == 3
        assert abs(stream.average.sum() - 1.0) < 1e-10

    def test_drift_needs_two_steps(self):
        with pytest.raises(ValueError, match="need at least 2 recorded steps"):
            average_drift(evolve(walk_operator(benchmark_graph("fig1a"), 0.85), 1))

    def test_holds_no_register_history(self):
        # the registers are read out one block of two-steps at a time, so the
        # run peaks near its 2 MiB series; holding the registers' history and
        # the whole-history readout product, it peaked at 3.0x
        op = walk_operator(generate_scale_free(64, 2), 0.85)
        evolve(op, 16)  # warm up lazy imports and caches
        assert _peak_bytes(lambda: evolve(op, 4096)) <= 1.25 * 8 * 4096 * 64

    def test_tree_root_ranked_first(self):
        tree = generate_binary_tree(3)
        series = quantum_rank_series(tree, 0.85, 2048)
        avg = series.average
        assert np.argmax(avg) == 0
        assert avg[0] > np.max(avg[1:])
        # instantaneous outperformance of the root
        classical_root = classical_pagerank(tree, 0.85)[0]
        assert series.instantaneous[:, 0].max() > classical_root

    def test_fig2b_quantum_spread_narrower(self):
        g = benchmark_graph("fig2b")
        quantum = quantum_pagerank(g, 0.85, 2048)
        classical = classical_pagerank(g, 0.85)
        assert quantum.max() - quantum.min() < classical.max() - classical.min()


def edge_space_series(op, steps, offset=0):
    """Oracle: iterate the N^2 edge-space two-step and read register 2."""
    psi = initial_state(op)
    for _ in range(offset):
        psi = two_step(psi, op)
    rows = []
    for _ in range(steps):
        rows.append(instantaneous_qpr(psi))
        psi = two_step(psi, op)
    return np.array(rows)


ORACLE_CASES = [
    ("fig1a", lambda: benchmark_graph("fig1a"), 0.85),
    ("fig1b", lambda: benchmark_graph("fig1b"), 0.85),
    ("fig1d-undamped", lambda: benchmark_graph("fig1d"), 1.0),
    ("fig2b-undamped", lambda: benchmark_graph("fig2b"), 1.0),
    ("tree3", lambda: generate_binary_tree(3), 0.85),
    ("scalefree64", lambda: generate_scale_free(64, 5), 0.85),
]


def series(op, steps, kernel, offset=0):
    if kernel == "spectral":
        return evolve_spectral(build_dynamical_subspace(op), steps)
    threshold = {"direct": szegedy.SPARSE_NODES, "dense": 1 << 62, "sparse": 0}[kernel]
    with mock.patch.object(szegedy, "SPARSE_NODES", threshold):
        return evolve(op, steps, offset)


class TestTwoRegisterKernel:
    # Both kernels run through each test body, so the test ids name graphs only.
    @pytest.mark.parametrize("make,alpha", [c[1:] for c in ORACLE_CASES],
                             ids=[c[0] for c in ORACLE_CASES])
    def test_matches_edge_space_oracle(self, make, alpha):
        op = walk_operator(make(), alpha)
        oracle = edge_space_series(op, 2048)
        for kernel in KERNELS:
            err = np.abs(series(op, 2048, kernel).instantaneous - oracle).max()
            assert err < 1e-10, kernel
        # the edge space rounds more than either kernel: 1.5e-12 from the dense one on fig1a
        sparse, dense = (series(op, 2048, kernel).instantaneous for kernel in ("sparse", "dense"))
        assert np.abs(sparse - dense).max() <= 1e-12

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_sparse_kernel_matches_dense_on_scale_free_graphs(self, n):
        # alpha = 0.01 puts an eigenvalue of D near 1, where the walk is least
        # well conditioned; alpha = 1 lets the dangling nodes alone teleport
        g = generate_scale_free(n, 0)
        for alpha in (0.01, 0.5, 0.85, 0.98, 1.0):
            op = walk_operator(g, alpha)
            sparse, dense = (series(op, 2048, kernel).instantaneous for kernel in ("sparse", "dense"))
            assert np.abs(sparse - dense).max() <= 1e-12, alpha

    def test_unit_eigenvalues_present_where_deflation_matters(self):
        for name, make, alpha in ORACLE_CASES[:4]:
            op = walk_operator(make(), alpha)
            lam = np.linalg.eigvalsh(amps(op) * amps(op).T)
            assert np.abs(np.abs(lam) - 1.0).min() < 1e-9, name

    def test_offset_matches_edge_space_oracle(self):
        for name, make, alpha in ORACLE_CASES:
            op = walk_operator(make(), alpha)
            oracle = edge_space_series(op, 10, offset=7)
            for kernel in ("dense", "sparse"):
                err = np.abs(series(op, 10, kernel, offset=7).instantaneous - oracle).max()
                assert err < 1e-12, (name, kernel)

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.85, 0.98])
    def test_streamed_average_matches_series(self, alpha):
        for g in (generate_scale_free(48, 4), benchmark_graph("fig1a")):
            op = walk_operator(g, alpha)
            average = evolve(op, 512).average
            streamed = quantum_pagerank(g, alpha, 512)
            assert np.abs(streamed - average).max() < 1e-12
            assert np.abs(series(op, 512, "spectral").average - average).max() < 1e-12

    @pytest.mark.parametrize("make,alpha", [c[1:] for c in ORACLE_CASES],
                             ids=[c[0] for c in ORACLE_CASES])
    def test_discriminant_is_the_oracle_product(self, make, alpha):
        op = walk_operator(make(), alpha)
        a = amps(op)
        assert np.array_equal(op.discriminant, a * a.T)
        assert np.array_equal(op.discriminant, op.discriminant.T)

    def test_rejects_bad_horizon(self):
        g = benchmark_graph("fig1a")
        with pytest.raises(ValueError, match="steps"):
            quantum_pagerank(g, 0.85, 0, backend="direct")
        with pytest.raises(ValueError, match="offset"):
            evolve(walk_operator(g, 0.85), 4, offset=-1)


def bidirected_path(n):
    return DirectedGraph.from_arcs(n, [(i, i + 1) for i in range(n - 1)]
                                   + [(i + 1, i) for i in range(n - 1)])


class TestCesaroLimit:
    # fig1a holds one unit mode; undamped, a bidirected path has both, and
    # each of its other eigenvalues pairs with its negative, so the terms in
    # p_K o p_-K count. The nearest distinct frequencies lie far enough apart
    # for 20000 two-steps to come close.
    @pytest.mark.parametrize("make, alpha", [
        (lambda: benchmark_graph("fig1a"), 0.85), (lambda: benchmark_graph("fig1d"), 0.85),
        (lambda: benchmark_graph("fig2b"), 0.85), (lambda: generate_binary_tree(3), 0.85),
        (lambda: generate_binary_tree(4), 0.85), (lambda: bidirected_path(4), 1.0),
        (lambda: bidirected_path(5), 1.0),
    ], ids=["fig1a", "fig1d", "fig2b", "tree3", "tree4", "path4-undamped", "path5-undamped"])
    def test_long_walk_average_approaches_the_limit(self, make, alpha):
        g = make()
        limit = cesaro_limit(walk_operator(g, alpha))
        assert abs(limit.sum() - 1.0) < 1e-13
        assert np.abs(quantum_pagerank(g, alpha, 20000) - limit).max() < 1e-4


class TestDynamicalSubspace:
    def test_dimension_bound(self):
        for name in BENCHMARKS:
            op = walk_operator(benchmark_graph(name), 0.85)
            sub = build_dynamical_subspace(op)
            assert sub.dim <= 2 * op.dim

    def test_dimension_is_edge_space_rank(self):
        # oracle: the rank of [psi_j | S psi_j], built in edge space
        for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig2b"):
            for alpha in (0.85, 1.0):
                op = walk_operator(benchmark_graph(name), alpha)
                psis = [psi_vector(op, j) for j in range(op.dim)]
                span = np.column_stack(psis + [apply_swap(v) for v in psis])
                dim = build_dynamical_subspace(op).dim
                assert dim == np.linalg.matrix_rank(span), (name, alpha)
                if (name, alpha) == ("fig1a", 0.85):
                    assert dim < 2 * op.dim


class TestSpectralBackend:
    def test_matches_direct_on_benchmarks(self):
        for name in BENCHMARKS:
            op = walk_operator(benchmark_graph(name), 0.85)
            direct = evolve(op, 100)
            spectral = evolve_spectral(build_dynamical_subspace(op), 100)
            assert np.abs(direct.instantaneous - spectral.instantaneous).max() < 1e-8

    def test_matches_direct_small_graphs_long_horizon(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            n = int(rng.integers(3, 9))
            arcs = [(i, j) for i in range(n) for j in range(n)
                    if i != j and rng.random() < 0.4]
            if not arcs:
                continue
            g = DirectedGraph.from_arcs(n, arcs)
            op = walk_operator(g, 0.85)
            direct = evolve(op, 50)
            spectral = evolve_spectral(build_dynamical_subspace(op), 50)
            assert np.abs(direct.instantaneous - spectral.instantaneous).max() < 1e-8

    def test_average_stabilizes_at_default_horizon(self):
        # drift between the default horizon and twice the default horizon
        for g in (generate_binary_tree(3), benchmark_graph("fig2b")):
            series = quantum_rank_series(g, 0.85, 2 * 2048)
            assert average_drift(series) < 1e-3

    def test_backend_selection(self):
        # the pipelines run the direct kernel only; ``backend="direct"`` is
        # still accepted, and any other kernel is refused with the reference call
        g = generate_scale_free(16, 8)
        default = quantum_rank_series(g, 0.85, 128)
        direct = quantum_rank_series(g, 0.85, 128, backend="direct")
        assert np.array_equal(default.instantaneous, direct.instantaneous)
        assert np.array_equal(quantum_pagerank(g, 0.85, 128),
                              quantum_pagerank(g, 0.85, 128, backend="direct"))
        reference = re.escape("evolve_spectral(build_dynamical_subspace(walk_operator(g, alpha)), "
                              "steps)")
        for name in ("spectral", "auto", "mystery"):
            for run in (quantum_rank_series, quantum_pagerank):
                with pytest.raises(ValueError, match=f"backend '{name}' .*{reference}"):
                    run(g, 0.85, 16, backend=name)
            with pytest.raises(TypeError, match="backend"):
                quantum_pageranks([(g, 0.85)], 16, backend=name)


def bidirected_ring(n):
    return DirectedGraph.from_arcs(n, [(i, (i + 1) % n) for i in range(n)]
                                   + [((i + 1) % n, i) for i in range(n)])


def eigh_unit_modes(g, alpha):
    op = walk_operator(g, alpha)
    return int((np.abs(np.abs(np.linalg.eigvalsh(amps(op) * amps(op).T)) - 1.0) < 1e-9).sum())


class TestStackedWalks:
    """Walks of one call: one at a time below SPARSE_NODES, block-diagonal
    batches from there on."""

    def test_mixed_stack_matches_single_walks(self):
        # the ring's symmetric G has the unit mode lambda = 1; the scale-free graph has none
        ring, sf = bidirected_ring(64), generate_scale_free(64, 9)
        assert (eigh_unit_modes(ring, 0.85), eigh_unit_modes(sf, 0.85)) == (1, 0)
        walks = [(ring, 0.85), (sf, 0.85), (sf, 0.5)]
        stacked = quantum_pageranks(walks, 512)
        assert stacked.shape == (3, 64)
        for row, (g, alpha) in zip(stacked, walks):
            assert np.abs(row - quantum_pagerank(g, alpha, 512)).max() <= 1e-15

    def test_mixed_unit_mode_batch_matches_single_walks(self):
        # undamped, the even ring is bipartite and holds the modes +1 and -1
        ring, sf = bidirected_ring(128), generate_scale_free(128, 9)
        assert [sorted(unit_modes(walk_operator(g, a))[1]) for g, a in
                ((ring, 0.85), (ring, 1.0), (sf, 0.85))] == [[1.0], [-1.0, 1.0], []]
        walks = [(ring, 0.85), (sf, 0.85), (ring, 1.0), (sf, 0.5)]
        batch = quantum_pageranks(walks, 512)
        for row, (g, alpha) in zip(batch, walks):
            assert row.tobytes() == quantum_pagerank(g, alpha, 512).tobytes()
            dense = series(walk_operator(g, alpha), 512, "dense").average
            assert np.abs(row - dense).max() <= 1e-13

    @pytest.mark.parametrize("n, batches", [(64, [1] * 5), (128, [4, 1]), (256, [2, 2, 1]),
                                            (513, [1] * 5)])
    def test_batch_holds_at_most_512_nodes(self, n, batches, monkeypatch):
        seen = []
        run = szegedy._averages
        monkeypatch.setattr(szegedy, "_averages",
                            lambda ops, steps: seen.append(len(ops)) or run(ops, steps))
        g = generate_scale_free(n, 5)
        assert quantum_pageranks([(g, a) for a in (0.5, 0.6, 0.7, 0.8, 0.9)], 2).shape == (5, n)
        assert seen == batches

    def test_rejects_unequal_sizes_and_empty_input(self):
        walks = [(generate_scale_free(16, 1), 0.85), (generate_scale_free(17, 1), 0.85)]
        with pytest.raises(ValueError, match="node count"):
            quantum_pageranks(walks, 8)
        with pytest.raises(ValueError, match="non-empty"):
            quantum_pageranks([], 8)
        with pytest.raises(ValueError, match="steps"):
            quantum_pageranks(walks[:1], 0)


class TestMemoryAdmission:
    """Each walk estimates its bytes (4400 per node, 160 per arc, 8 per
    recorded two-step and node) and refuses, before allocating, a run beyond
    the physical memory figure, here monkeypatched. Every refused run is
    small, so a missing check costs no memory."""

    LIMIT = 1 << 20  # 1 MiB: N = 64 (91 arcs) needs 296 160 bytes, N = 256 (407 arcs) 1 191 520

    @staticmethod
    def _refused(run, match):
        """Peak traced bytes of ``run``, which must raise MemoryError."""
        def refused():
            with pytest.raises(MemoryError, match=match):
                run()
        return _peak_bytes(refused)

    def test_walks_beyond_physical_memory_refused_up_front(self, monkeypatch):
        from qprank import graph
        small, big = generate_scale_free(64, 1), generate_scale_free(256, 1)
        op = walk_operator(small, 0.85)
        monkeypatch.setattr(graph, "_physical_memory", lambda: self.LIMIT)
        walk = ("a quantum walk on 256 nodes and 407 arcs takes about {} bytes to run, "
                "more than the 1048576 bytes of physical memory")
        for run in (lambda: walk_operator(big, 0.85),
                    lambda: quantum_pagerank(big, 0.85, 16),
                    lambda: quantum_rank_series(big, 0.85, 16)):
            assert self._refused(run, walk.format(1191520)) < 1 << 16
        # two walks of N = 256 share a batch
        assert self._refused(lambda: quantum_pageranks([(big, 0.5), (big, 0.85)], 16),
                             walk.format(2 * 1191520)) < 1 << 16
        # the series is counted too: 296 160 + 8 * 64 * 4096 bytes
        assert self._refused(lambda: evolve(op, 4096),
                             "on 64 nodes and 91 arcs over 4096 two-steps takes about 2393312 "
                             "bytes") < 1 << 16
        assert evolve(op, 256).steps == 256
        assert quantum_pagerank(small, 0.85, 256).shape == (64,)

    def test_nothing_refused_without_a_memory_figure(self, monkeypatch):
        from qprank import graph
        monkeypatch.setattr(graph, "_physical_memory", lambda: None)
        monkeypatch.setattr(szegedy, "_NODE_BYTES", 1 << 62)
        assert quantum_rank_series(benchmark_graph("fig2b"), 0.85, 8).steps == 8

    def test_sparse_walk_admitted_by_arcs_and_nodes(self):
        # 10^4 nodes: the dense estimate was 34 bytes per node pair, 3.4 GB
        g = generate_scale_free(10000, 0)
        rank = []
        assert _peak_bytes(lambda: rank.append(quantum_pagerank(g, 0.85, 256))) < 200 << 20
        assert abs(rank[0].sum() - 1.0) < 1e-12


class TestSparseKernel:
    def test_accumulate_adds_the_product_in_place(self):
        # the private routine of scipy.sparse behind A @ x; a scipy that changes it fails here
        rng = np.random.default_rng(3)
        for index in (np.int32, np.int64):
            for rows, cols in ((1, 1), (6, 3), (40, 70)):
                dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.2)
                dense[::3] = 0.0  # empty rows
                x, y = rng.normal(size=cols), rng.normal(size=rows)
                for exact in (False, True):  # integers below 2^53 add exactly in any order
                    a = sp.csr_matrix(np.round(dense * 2 ** 10) if exact else dense)
                    a.indices, a.indptr = a.indices.astype(index), a.indptr.astype(index)
                    x, y = (np.round(v * 2 ** 10) if exact else v for v in (x, y))
                    want, bound = y + a @ x, np.abs(y) + np.abs(a) @ np.abs(x)
                    szegedy._accumulate(a)(x, y)
                    assert np.all(np.abs(y - want) <= np.spacing(bound)), (index, rows)
                    assert np.array_equal(y, want) or not exact

    def test_no_dense_step_on_the_sparse_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense step")
        monkeypatch.setattr(GoogleMatrix, "dense", refuse)
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        g = generate_scale_free(128, 3)
        assert abs(quantum_pagerank(g, 0.85, 256).sum() - 1.0) < 1e-12
        assert damping_sweep(g, (0.5, 0.85), "quantum", 256).rank_vectors.shape == (2, 128)
        assert evolve(walk_operator(bidirected_ring(128), 1.0), 256).steps == 256
        with pytest.raises(AssertionError, match="dense step"):
            walk_operator(g, 0.85).google
