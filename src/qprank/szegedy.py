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

The spectral backend reads the same series off the eigenpairs of D in
closed form: with D = V diag(lambda) V^T and lambda = cos(theta), mode k
of a and b after m two-steps is

    a_m = -a_0 sin((2m-1) theta) / sin(theta),   b_m = a_0 sin(2m theta) / sin(theta),

with the +-1 modes held at a = a_0, b = 0, as the direct backend does.
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
# Eigenvalues of D within this distance of modulus 1 are deflated exactly.
UNIT_EIGEN_TOL = 1e-9


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


def two_step(state: np.ndarray, op: SzegedyOperator) -> np.ndarray:
    """One application of the squared walk operator (reflection, swap, twice)."""
    n = op.dim
    mat = state.reshape(n, n)
    for _ in range(2):
        coeff = np.einsum("jk,jk->j", op.amps, mat)
        mat = (2.0 * coeff[:, None] * op.amps - mat).T
    return np.ascontiguousarray(mat).reshape(n * n)


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


def _discriminant_modes(op: SzegedyOperator):
    """D = sqrt(G o G^T), its eigenpairs, and the mask of modes with |lambda| = 1.

    Both backends factor D here, once per call.
    """
    d = op.amps * op.amps.T
    lam, vecs = scipy.linalg.eigh(d)
    return d, lam, vecs, np.abs(np.abs(lam) - 1.0) <= UNIT_EIGEN_TOL


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
    d, lam, vecs, unit = _discriminant_modes(op)
    alpha = np.full(n, 1.0 / np.sqrt(n))
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
    """Eigenpairs of the discriminant, D = V diag(lam) V^T, which fix the walk.

    The trajectory lies in span{psi_j} + span{S psi_j}, whose Gram matrix
    [[I, D], [D, I]] has eigenvalues 1 +- lam; ``dim`` is its rank, 2N less
    one for each ``unit`` mode (|lam| = 1).
    """

    op: SzegedyOperator
    lam: np.ndarray
    vecs: np.ndarray
    unit: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.op.dim - int(self.unit.sum())


def build_dynamical_subspace(op: SzegedyOperator) -> DynamicalSubspace:
    """Factor the discriminant of ``op`` for the spectral backend."""
    _, lam, vecs, unit = _discriminant_modes(op)
    return DynamicalSubspace(op, lam, vecs, unit)


def evolve_spectral(sub: DynamicalSubspace, steps: int = DEFAULT_STEPS,
                    offset: int = 0) -> QuantumRankSeries:
    """Spectral backend: the distribution at each two-step in closed form.

    Each mode of the registers a, b is a sine of its angle theta = arccos(lam)
    (module docstring); the node basis is one product with V per register.
    """
    _check_horizon(steps, offset)
    op = sub.op
    a0 = sub.vecs.T @ np.full(op.dim, 1.0 / np.sqrt(op.dim))
    theta = np.arccos(np.clip(sub.lam, -1.0, 1.0))
    scale = np.divide(a0, np.sin(theta), out=np.zeros_like(a0), where=~sub.unit)
    m = np.arange(offset, offset + steps)[:, None]
    a = np.where(sub.unit, a0, -scale * np.sin((2 * m - 1) * theta))
    b = scale * np.sin(2 * m * theta)
    a_nodes, b_nodes, da_nodes = (c @ sub.vecs.T for c in (a, b, a * sub.lam))
    inst = np.square(a_nodes) @ op.google.T + b_nodes * (b_nodes + 2.0 * da_nodes)
    return QuantumRankSeries(inst, inst.mean(axis=0))


# ---------------------------------------------------------------------------
# convenience pipeline

def walk_operator(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> SzegedyOperator:
    """Google matrix at damping ``alpha``, quantized."""
    return build_operator(google_matrix(patch_dangling(hyperlink_matrix(g)), alpha))


def resolve_backend(backend: str) -> str:
    """The backend that runs: ``auto`` is the direct kernel, which streams
    the average with no history."""
    if backend not in ("auto", "direct", "spectral"):
        raise ValueError(f"unknown backend {backend!r}")
    return "direct" if backend == "auto" else backend


def quantum_rank_series(g: DirectedGraph, alpha: float = DEFAULT_ALPHA,
                        steps: int = DEFAULT_STEPS, backend: str = "auto",
                        offset: int = 0) -> QuantumRankSeries:
    """Full rank series for a graph; backend is auto, direct, or spectral."""
    op = walk_operator(g, alpha)
    if resolve_backend(backend) == "spectral":
        return evolve_spectral(build_dynamical_subspace(op), steps, offset=offset)
    return evolve(op, steps, offset=offset)


def quantum_pagerank(g: DirectedGraph, alpha: float = DEFAULT_ALPHA,
                     steps: int = DEFAULT_STEPS, backend: str = "auto") -> np.ndarray:
    """Time-averaged quantum rank vector (the quantum ranking object)."""
    op = walk_operator(g, alpha)
    if resolve_backend(backend) == "spectral":
        return evolve_spectral(build_dynamical_subspace(op), steps).average
    return _evolve_average(op, steps)


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
