"""Szegedy quantization of the Google matrix and the quantum rank series.

The walk lives on ordered node pairs, the N^2-dimensional edge space with
amplitude(i, j) at i*N + j (register 1 first). Column j of the Google
matrix G defines

    psi_j = |j>_1 (x) sum_k sqrt(G[k, j]) |k>_2,

an orthonormal family because the psi_j occupy disjoint register-1 blocks.
One walk step is the reflection through span{psi_j} followed by the swap S
of the two registers; evolution always uses the two-step operator so arcs
are swapped an even number of times and directedness survives. The node
distribution reads out register 2.

The walk starts at (1/sqrt(N)) sum_j psi_j and never leaves the span of
{psi_j} and {S psi_j}, of dimension at most 2N, so no edge-space state is
ever built: the walk runs on two real registers a, b in R^N with state
A a + S A b, where A e_j = psi_j. The walk operator is the two N x N
matrices that drive them, G and the discriminant D = sqrt(G o G^T)
(entrywise). One two-step is

    c = a + 2 D b,   (a, b) -> (-c, 2 D c - b),

from a = 1/sqrt(N), b = 0, and the node distribution is

    P = G (a o a) + b o (b + 2 D a).

On the eigenspace of D with eigenvalue +-1 the state is a fixed point of
the two-step while a and b grow linearly; that eigenspace is deflated
exactly (split off at the start, held constant, and removed from the D
the registers iterate with), so rounding cannot grow along it. Walks of
one size (a damping sweep, an ensemble) step together as one stack of
registers, so the loop's per-step cost is paid once per stack. The edge
space itself (the N^2-entry state, reflection, swap and two-step) lives in
``tests/szegedy_oracles.py``, as the independent oracle for both kernels.

The pipelines run this direct kernel only. Its spectral reference reads the
same series off the eigenpairs of D in closed form: with D = V diag(lambda) V^T
and lambda = cos(theta), mode k of a and b after m two-steps is

    a_m = -a_0 sin((2m-1) theta) / sin(theta),   b_m = a_0 sin(2m theta) / sin(theta),

with the +-1 modes held at a = a_0, b = 0, as the direct kernel does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .graph import DirectedGraph
from .pagerank import DEFAULT_ALPHA, google_matrix, hyperlink_matrix, patch_dangling

DEFAULT_STEPS = 2048
# Eigenvalues of D within this distance of modulus 1 are deflated exactly.
UNIT_EIGEN_TOL = 1e-9
# Equal-size direct walks run as stacks whose discriminants take at most
# this many bytes (8 N^2 per walk), or one walk alone. A stack that fills
# the L2 cache runs slower than its walks one by one: on 2 vCPU with 1 MiB
# of L2 per core, two N = 256 walks (1 MiB) took 1.03x their sequential
# time, three N = 192 walks (864 KiB) 0.76x.
STACK_BYTES = 1 << 19


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """The two N x N matrices the walk reads: the Google matrix ``google``,
    for the readout, and the discriminant D = sqrt(G o G^T), for the
    registers and the spectral factorization."""

    google: np.ndarray
    discriminant: np.ndarray

    @property
    def dim(self) -> int:
        return self.google.shape[0]


def walk_operator(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> WalkOperator:
    """Google matrix at damping ``alpha`` and its discriminant."""
    google = google_matrix(patch_dangling(hyperlink_matrix(g)), alpha).dense()
    amps = np.sqrt(google).T
    return WalkOperator(google, amps * amps.T)


def initial_state(op: WalkOperator) -> np.ndarray:
    """The register start a_0 = 1/sqrt(N) of the walk from (1/sqrt(N)) sum_j psi_j."""
    n = op.dim
    return np.full(n, 1.0 / np.sqrt(n))


@dataclass(frozen=True, eq=False)
class QuantumRankSeries:
    """Instantaneous node distributions for m = 0..M-1 plus their mean.

    Row m of ``instantaneous`` is the distribution after m two-steps; every
    row sums to 1 and ``average`` is the plain arithmetic mean of the rows.
    """

    instantaneous: np.ndarray
    average: np.ndarray

    @property
    def steps(self) -> int:
        return self.instantaneous.shape[0]

    @property
    def node_count(self) -> int:
        return self.instantaneous.shape[1]


def _check_horizon(steps: int, offset: int) -> None:
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if offset < 0:
        raise ValueError("offset must be nonnegative")


def _discriminant_modes(op: WalkOperator):
    """The eigenpairs of D and the mask of modes with |lambda| = 1; both
    kernels factor D here, once per call."""
    lam, vecs = scipy.linalg.eigh(op.discriminant)
    return lam, vecs, np.abs(np.abs(lam) - 1.0) <= UNIT_EIGEN_TOL


def _deflated(op: WalkOperator):
    """2D with the +-1 eigenspace of D removed, the initial alpha, and that
    eigenspace's share of the initial a with its image under 2D (both None
    when D has no unit modes)."""
    d = op.discriminant
    lam, vecs, unit = _discriminant_modes(op)
    alpha = initial_state(op)
    if not unit.any():
        return 2.0 * d, alpha, None, None
    v1, lam1 = vecs[:, unit], lam[unit]
    coeff = v1.T @ alpha
    fixed = v1 @ coeff
    d_fixed = 2.0 * (v1 @ (lam1 * coeff))
    return 2.0 * (d - (v1 * lam1) @ v1.T), alpha - fixed, fixed, d_fixed


def _stack(arrays):
    """One walk's array as it is; several walks' arrays as one stack, vectors
    as (N, 1) columns. None marks a walk without unit modes: it stays None if
    every walk has it, and stacks as zeros otherwise."""
    present = [a for a in arrays if a is not None]
    if not present:
        return None
    if len(arrays) == 1:
        return arrays[0]
    stack = np.stack([np.zeros_like(present[0]) if a is None else a for a in arrays])
    return stack[:, :, None] if stack.ndim == 2 else stack


def _register_walk(ops: Sequence[WalkOperator], steps: int, offset: int):
    """Yield ``(x, q)`` for two-steps m = offset .. offset+steps-1.

    The distribution after m two-steps is P_m = G(x*x) + q. The registers
    are iterated in the sign-alternating frame alpha = (-1)^m a,
    beta = (-1)^m b, where the two-step reads alpha += 2D beta,
    beta -= 2D alpha, and q = beta_m * beta_{m-1} because
    beta_m + 2D alpha_m = beta_{m-1}. The +-1 eigenspace of D is deflated:
    its share of the initial a is a fixed point of the walk, kept aside and
    added back at readout (with the frame's sign), while the rest iterates
    under D with that eigenspace removed.

    One operator runs on an (N, N) discriminant and (N,) registers. Several
    of one ``dim`` run as one stack of B walks in the same loop: a
    (B, N, N) discriminant and (B, N, 1) registers, so each product is one
    batched matmul (one matrix-vector product per walk) and the per-step
    cost of the loop is paid once for the stack. Each walk deflates its own
    unit modes; one without any carries zero fixed parts.
    """
    d2, alpha, fixed, d_fixed = (_stack(a) for a in zip(*map(_deflated, ops)))
    beta = prev = np.zeros_like(alpha)
    for m in range(offset + steps):
        if m:
            alpha = alpha + d2 @ beta
            beta, prev = beta - d2 @ alpha, beta
        if m < offset:
            continue
        if fixed is None:
            yield alpha, beta * prev
        else:
            sign = -1.0 if m % 2 else 1.0
            yield alpha + sign * fixed, beta * (prev + sign * d_fixed)


def evolve(op: WalkOperator, steps: int = DEFAULT_STEPS, offset: int = 0) -> QuantumRankSeries:
    """Direct kernel: record the distribution at each two-step.

    ``offset`` discards that many leading two-steps before recording, for
    experiments that want the average to start later than m = 0.
    """
    _check_horizon(steps, offset)
    xs = np.empty((steps, op.dim))
    inst = np.empty((steps, op.dim))
    for m, (x, q) in enumerate(_register_walk([op], steps, offset)):
        xs[m] = x
        inst[m] = q
    np.square(xs, out=xs)
    inst += xs @ op.google.T
    return QuantumRankSeries(inst, inst.mean(axis=0))


def _stack_average(ops: Sequence[WalkOperator], steps: int) -> np.ndarray:
    """Mean distribution over m = 0..steps-1 of each walk in one stack,
    streamed without a history; one row per walk."""
    sx = _stack([np.zeros(op.dim) for op in ops])
    sq = np.zeros_like(sx)
    for x, q in _register_walk(ops, steps, 0):
        sx += x * x
        sq += q
    return ((_stack([op.google for op in ops]) @ sx + sq) / steps).reshape(len(ops), -1)


# ---------------------------------------------------------------------------
# spectral reference

@dataclass(frozen=True, eq=False)
class DynamicalSubspace:
    """Eigenpairs of the discriminant, D = V diag(lam) V^T, which fix the walk.

    The trajectory lies in span{psi_j} + span{S psi_j}, whose Gram matrix
    [[I, D], [D, I]] has eigenvalues 1 +- lam; ``dim`` is its rank, 2N less
    one for each ``unit`` mode (|lam| = 1).
    """

    op: WalkOperator
    lam: np.ndarray
    vecs: np.ndarray
    unit: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.op.dim - int(self.unit.sum())


def build_dynamical_subspace(op: WalkOperator) -> DynamicalSubspace:
    """Factor the discriminant of ``op`` for the spectral reference."""
    return DynamicalSubspace(op, *_discriminant_modes(op))


def evolve_spectral(sub: DynamicalSubspace, steps: int = DEFAULT_STEPS) -> QuantumRankSeries:
    """Spectral reference: the distribution at each two-step in closed form.

    Each mode of the registers a, b is a sine of its angle theta = arccos(lam)
    (module docstring); the node basis is one product with V per register.
    It divides by sin(theta), so it loses accuracy as |lam| -> 1.
    """
    _check_horizon(steps, 0)
    a0 = sub.vecs.T @ initial_state(sub.op)
    theta = np.arccos(np.clip(sub.lam, -1.0, 1.0))
    scale = np.divide(a0, np.sin(theta), out=np.zeros_like(a0), where=~sub.unit)
    m = np.arange(steps)[:, None]
    a = np.where(sub.unit, a0, -scale * np.sin((2 * m - 1) * theta))
    b = scale * np.sin(2 * m * theta)
    a_nodes, b_nodes, da_nodes = (c @ sub.vecs.T for c in (a, b, a * sub.lam))
    inst = np.square(a_nodes) @ sub.op.google.T + b_nodes * (b_nodes + 2.0 * da_nodes)
    return QuantumRankSeries(inst, inst.mean(axis=0))


# ---------------------------------------------------------------------------
# convenience pipeline

def _check_backend(backend: str) -> None:
    """Refuse every kernel but the direct one, which the benchmark harness names."""
    if backend != "direct":
        raise ValueError(f"backend {backend!r} is not offered; the spectral reference is "
                         "evolve_spectral(build_dynamical_subspace(walk_operator(g, alpha)), "
                         "steps)")


def quantum_rank_series(g: DirectedGraph, alpha: float = DEFAULT_ALPHA,
                        steps: int = DEFAULT_STEPS, backend: str = "direct") -> QuantumRankSeries:
    """Full rank series for a graph, from the direct kernel."""
    _check_backend(backend)
    return evolve(walk_operator(g, alpha), steps)


def quantum_pageranks(walks: Sequence[tuple[DirectedGraph, float]],
                      steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Time-averaged quantum rank vectors of ``(graph, alpha)`` pairs, one row each.

    Every graph must have the same node count N. The walks step as stacks
    of at most max(1, STACK_BYTES // (8 N^2)), and each stack's operators
    are built only when it runs, so a long sweep never holds more than one
    stack of dense N x N arrays.
    """
    walks = list(walks)
    sizes = {g.node_count for g, _ in walks}
    if len(sizes) != 1:
        raise ValueError("walks must be non-empty and share one node count, "
                         f"got {sorted(sizes)}")
    _check_horizon(steps, 0)
    n = sizes.pop()
    chunk = max(1, STACK_BYTES // (8 * n * n))
    return np.concatenate([_stack_average([walk_operator(g, a) for g, a in walks[i:i + chunk]],
                                          steps)
                           for i in range(0, len(walks), chunk)])


def quantum_pagerank(g: DirectedGraph, alpha: float = DEFAULT_ALPHA,
                     steps: int = DEFAULT_STEPS, backend: str = "direct") -> np.ndarray:
    """Time-averaged quantum rank vector (the quantum ranking object)."""
    _check_backend(backend)
    return quantum_pageranks([(g, alpha)], steps)[0]


def average_drift(series: QuantumRankSeries) -> float:
    """Stabilization diagnostic: how much the running average still moves.

    Compares the average over the first half of the recorded steps with the
    average over all of them and returns the largest per-node change; small
    values mean the Cesaro average has settled at this horizon.
    """
    m = series.steps // 2
    if m < 1:
        raise ValueError("need at least 2 recorded steps")
    half = series.instantaneous[:m].mean(axis=0)
    return float(np.abs(series.average - half).max())
