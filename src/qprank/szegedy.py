"""Szegedy quantization of the Google matrix and the quantum rank series.

The walk lives on ordered node pairs: an edge-space state is a complex
vector of length N*N with amplitude(i, j) stored at i*N + j (register 1
first). Column j of the Google matrix G defines

    psi_j = |j>_1 (x) sum_k sqrt(G[k, j]) |k>_2,

an orthonormal family because the psi_j occupy disjoint register-1 blocks.
One walk step is the reflection through span{psi_j} followed by the swap S
of the two registers; evolution always uses the two-step operator so arcs
are swapped an even number of times and directedness survives. The node
distribution reads out register 2.

The walk starts at (1/sqrt(N)) sum_j psi_j and never leaves the span of
{psi_j} and {S psi_j}, so the direct backend works on two real registers
a, b in R^N with state A a + S A b, where A e_j = psi_j. The discriminant
D = sqrt(G o G^T) (entrywise) drives them: one two-step is

    c = a + 2 D b,   (a, b) -> (-c, 2 D c - b),

from a = 1/sqrt(N), b = 0, and the node distribution is

    P = G (a o a) + b o (b + 2 D a).

On the eigenspace of D with eigenvalue +-1 the state is a fixed point of
the two-step while a and b grow linearly; that eigenspace is deflated
exactly (split off at the start, held constant, and removed from the D
the registers iterate with), so rounding cannot grow along it. The
edge-space functions (``initial_state``, ``two_step``, ``apply_reflection``,
``apply_swap``, ``instantaneous_qpr``) remain as the independent oracle.

The spectral backend restricts the edge-space two-step to its invariant
subspace of dimension at most 2N and advances eigenphases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import DirectedGraph
from .pagerank import (DEFAULT_ALPHA, GoogleMatrix, google_matrix,
                       hyperlink_matrix, patch_dangling)

DEFAULT_STEPS = 2048
STOCHASTIC_TOL = 1e-12
ORTHO_TOL = 1e-10
# Eigenvalues of D within this distance of modulus 1 are deflated exactly.
UNIT_EIGEN_TOL = 1e-9
# Above this size the spectral basis (N^2 x 2N complex) stops paying for
# itself in either time or memory; plain iteration is exact anyway.
SPECTRAL_MAX_NODES = 64


@dataclass(frozen=True, eq=False)
class SzegedyOperator:
    """Edge-space walk operator data for one Google matrix.

    ``amps[j, k]`` = sqrt(G[k, j]) is the register-2 amplitude profile of
    psi_j; each row has unit norm because G is column-stochastic.
    """

    google: np.ndarray
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


def build_operator(gm: GoogleMatrix | np.ndarray) -> SzegedyOperator:
    """Prepare the psi-vector amplitudes for a column-stochastic matrix."""
    g = gm.dense() if hasattr(gm, "dense") else np.asarray(gm, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("operator requires a square matrix")
    if np.any(g < -STOCHASTIC_TOL):
        raise ValueError("matrix has negative entries")
    col_err = np.abs(g.sum(axis=0) - 1.0).max()
    if col_err > 1e-9:
        raise ValueError(f"matrix is not column-stochastic (max column error {col_err:.2e})")
    return SzegedyOperator(google=g, amps=np.sqrt(np.clip(g, 0.0, None)).T)


def initial_state(op: SzegedyOperator) -> np.ndarray:
    """Uniform superposition (1/sqrt(N)) sum_j psi_j, a unit vector."""
    n = op.dim
    return (op.amps / np.sqrt(n)).astype(np.complex128).reshape(n * n)


def apply_reflection(state: np.ndarray, op: SzegedyOperator) -> np.ndarray:
    """Reflect through span{psi_j}: state -> 2 sum_j <psi_j|state> psi_j - state."""
    n = op.dim
    mat = state.reshape(n, n)
    coeff = np.einsum("jk,jk->j", op.amps, mat)
    return (2.0 * coeff[:, None] * op.amps - mat).reshape(n * n)


def apply_swap(state: np.ndarray) -> np.ndarray:
    """Exchange the two registers: amplitude(i, j) <-> amplitude(j, i)."""
    n = int(round(np.sqrt(state.shape[0])))
    return state.reshape(n, n).T.reshape(n * n).copy()


def _two_step_blocks(mats: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Apply the two-step operator to a stack of (N, N) state blocks."""
    def reflect(block):
        coeff = np.einsum("jk,...jk->...j", amps, block)
        return 2.0 * coeff[..., :, None] * amps - block

    out = np.swapaxes(reflect(mats), -1, -2)
    out = np.swapaxes(reflect(out), -1, -2)
    return np.ascontiguousarray(out)


def two_step(state: np.ndarray, op: SzegedyOperator) -> np.ndarray:
    """One application of the squared walk operator (reflection, swap, twice)."""
    n = op.dim
    return _two_step_blocks(state.reshape(n, n), op.amps).reshape(n * n)


def instantaneous_qpr(state: np.ndarray) -> np.ndarray:
    """Node occupation probabilities from register 2: sum_j |amp(j, i)|^2."""
    n = int(round(np.sqrt(state.shape[0])))
    mat = state.reshape(n, n)
    return (mat.real ** 2 + mat.imag ** 2).sum(axis=0)


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


def _register_walk(op: SzegedyOperator, steps: int, offset: int):
    """Yield ``(x, q)`` for two-steps m = offset .. offset+steps-1.

    The distribution after m two-steps is P_m = G(x*x) + q. The registers
    are iterated in the sign-alternating frame alpha = (-1)^m a,
    beta = (-1)^m b, where the two-step reads alpha += 2D beta,
    beta -= 2D alpha, and q = beta_m * beta_{m-1} because
    beta_m + 2D alpha_m = beta_{m-1}. The +-1 eigenspace of D is deflated:
    its share of the initial a is a fixed point of the walk, kept aside and
    added back at readout (with the frame's sign), while the rest iterates
    under D with that eigenspace removed.
    """
    n = op.dim
    d = op.amps * op.amps.T
    alpha = np.full(n, 1.0 / np.sqrt(n))
    lam, vecs = scipy.linalg.eigh(d)
    unit = np.abs(np.abs(lam) - 1.0) <= UNIT_EIGEN_TOL
    fixed = d_fixed = None
    if unit.any():
        v1, lam1 = vecs[:, unit], lam[unit]
        coeff = v1.T @ alpha
        fixed = v1 @ coeff
        d_fixed = 2.0 * (v1 @ (lam1 * coeff))
        alpha = alpha - fixed
        d = d - (v1 * lam1) @ v1.T
    d2 = 2.0 * d
    beta = prev = np.zeros(n)
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


def evolve(op: SzegedyOperator, steps: int = DEFAULT_STEPS, offset: int = 0) -> QuantumRankSeries:
    """Direct backend: record the distribution at each two-step.

    ``offset`` discards that many leading two-steps before recording, for
    experiments that want the average to start later than m = 0.
    """
    _check_horizon(steps, offset)
    xs = np.empty((steps, op.dim))
    inst = np.empty((steps, op.dim))
    for m, (x, q) in enumerate(_register_walk(op, steps, offset)):
        xs[m] = x
        inst[m] = q
    np.square(xs, out=xs)
    inst += xs @ op.google.T
    return QuantumRankSeries(inst, inst.mean(axis=0))


def _evolve_average(op: SzegedyOperator, steps: int) -> np.ndarray:
    """Mean distribution over m = 0..steps-1, streamed without a history."""
    _check_horizon(steps, 0)
    sx = np.zeros(op.dim)
    sq = np.zeros(op.dim)
    for x, q in _register_walk(op, steps, 0):
        sx += x * x
        sq += q
    return (op.google @ sx + sq) / steps


# ---------------------------------------------------------------------------
# spectral backend

@dataclass(frozen=True, eq=False)
class DynamicalSubspace:
    """Invariant subspace of the two-step operator containing the trajectory.

    ``basis`` has orthonormal columns spanning span{psi_j} + span{S psi_j}
    (dimension D <= 2N); ``restricted`` is the D x D unitary representing
    the two-step operator there, with eigenvalues ``phases`` and the
    orthonormal eigenvector matrix ``modes`` from a complex Schur form.
    """

    op: SzegedyOperator
    basis: np.ndarray
    restricted: np.ndarray
    phases: np.ndarray
    modes: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def build_dynamical_subspace(op: SzegedyOperator) -> DynamicalSubspace:
    """Orthonormalize {psi_j} u {S psi_j} and restrict the two-step operator.

    The psi_j block structure makes the first N vectors orthonormal for
    free; the swapped vectors are added by Gram-Schmidt with one
    reorthogonalization pass, dropping anything with residual below the
    rank tolerance. Raises if the basis still fails the orthogonality or
    unitarity checks, which signals ill-conditioned amplitudes.
    """
    n = op.dim
    basis = np.zeros((n * n, 2 * n), dtype=np.complex128)
    for j in range(n):
        basis[j * n:(j + 1) * n, j] = op.amps[j]
    count = n
    for j in range(n):
        vec = np.zeros(n * n, dtype=np.complex128)
        vec[j::n] = op.amps[j]  # S psi_j: column j of the pair matrix
        for _ in range(2):  # one reorthogonalization pass
            vec -= basis[:, :count] @ (basis[:, :count].conj().T @ vec)
        norm = np.linalg.norm(vec)
        if norm > ORTHO_TOL:
            basis[:, count] = vec / norm
            count += 1
    basis = basis[:, :count]

    gram_err = np.abs(basis.conj().T @ basis - np.eye(count)).max()
    if gram_err > ORTHO_TOL:
        raise ValueError(f"basis lost orthogonality (max deviation {gram_err:.2e})")

    blocks = basis.T.reshape(count, n, n)
    advanced = _two_step_blocks(blocks, op.amps).reshape(count, n * n).T
    restricted = basis.conj().T @ advanced
    unitary_err = np.abs(restricted.conj().T @ restricted - np.eye(count)).max()
    if unitary_err > 1e-9:
        raise ValueError(f"restricted operator not unitary (max deviation {unitary_err:.2e})")

    # Unitary matrices are normal, so the complex Schur form is diagonal and
    # its Z factor is an orthonormal eigenbasis.
    tri, modes = scipy.linalg.schur(restricted, output="complex")
    return DynamicalSubspace(op, basis, restricted, np.diag(tri).copy(), modes)


def evolve_spectral(sub: DynamicalSubspace, steps: int = DEFAULT_STEPS,
                    offset: int = 0, chunk: int = 0) -> QuantumRankSeries:
    """Spectral backend: advance eigenphases instead of iterating the walk.

    Expands the initial state in the eigenbasis of the restricted two-step
    operator and reconstructs the node distribution for each m from phase
    factors, chunking the reconstruction to bound memory.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    op = sub.op
    n = op.dim
    psi0 = initial_state(op)
    coeffs = sub.basis.conj().T @ psi0
    residual = np.linalg.norm(sub.basis @ coeffs - psi0)
    if residual > ORTHO_TOL:
        raise ValueError(f"initial state escapes the invariant subspace ({residual:.2e})")
    weights = sub.modes.conj().T @ coeffs
    frame = sub.basis @ sub.modes  # orthonormal columns, one per eigenmode

    if chunk <= 0:
        chunk = max(1, (1 << 22) // (n * n))
    inst = np.empty((steps, n))
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        ms = np.arange(offset + start, offset + stop)
        phase_pow = sub.phases[:, None] ** ms[None, :]
        states = frame @ (weights[:, None] * phase_pow)
        probs = (states.real ** 2 + states.imag ** 2).reshape(n, n, stop - start)
        inst[start:stop] = probs.sum(axis=0).T
    return QuantumRankSeries(inst, inst.mean(axis=0))


# ---------------------------------------------------------------------------
# convenience pipeline

def walk_operator(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> SzegedyOperator:
    """Google matrix at damping ``alpha``, quantized."""
    return build_operator(google_matrix(patch_dangling(hyperlink_matrix(g)), alpha))


def _resolve_backend(op: SzegedyOperator, steps: int, backend: str) -> str:
    if backend == "auto":
        return "spectral" if op.dim <= SPECTRAL_MAX_NODES and steps > 4 * op.dim else "direct"
    if backend in ("direct", "spectral"):
        return backend
    raise ValueError(f"unknown backend {backend!r}")


def quantum_rank_series(g: DirectedGraph, alpha: float = DEFAULT_ALPHA,
                        steps: int = DEFAULT_STEPS, backend: str = "auto",
                        offset: int = 0) -> QuantumRankSeries:
    """Full rank series for a graph; backend is auto, direct, or spectral."""
    op = walk_operator(g, alpha)
    if _resolve_backend(op, steps, backend) == "direct":
        return evolve(op, steps, offset=offset)
    return evolve_spectral(build_dynamical_subspace(op), steps, offset=offset)


def quantum_pagerank(g: DirectedGraph, alpha: float = DEFAULT_ALPHA,
                     steps: int = DEFAULT_STEPS, backend: str = "auto") -> np.ndarray:
    """Time-averaged quantum rank vector (the quantum ranking object)."""
    op = walk_operator(g, alpha)
    if _resolve_backend(op, steps, backend) == "direct":
        return _evolve_average(op, steps)
    return evolve_spectral(build_dynamical_subspace(op), steps).average


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
