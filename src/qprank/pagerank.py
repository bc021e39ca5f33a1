"""Classical PageRank: hyperlink matrix, dangling patch, Google matrix, solver.

The chain of constructions is hyperlink_matrix -> patch_dangling ->
google_matrix; each stage is column-stochastic enough for the next. The
Google matrix is never materialised densely for the solver: it is applied
as alpha * E @ v plus a uniform teleport term, so a matrix-vector product
costs O(arcs + N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp

from .graph import DirectedGraph

DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class HyperlinkMatrix:
    """Column j holds 1/outdeg(j) on the rows j links to; dangling columns are zero."""

    links: sp.csr_matrix
    dangling: np.ndarray

    @property
    def dim(self) -> int:
        return self.links.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.links @ v

    def dense(self) -> np.ndarray:
        return self.links.toarray()


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Dangling-patched link matrix: zero columns replaced by uniform 1/N."""

    links: sp.csr_matrix
    dangling: np.ndarray

    @property
    def dim(self) -> int:
        return self.links.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.links @ v
        if self.dangling.any():
            out = out + v[self.dangling].sum() / self.dim
        return out

    def dense(self) -> np.ndarray:
        e = self.links.toarray()
        e[:, self.dangling] = 1.0 / self.dim
        return e


@dataclass(frozen=True, eq=False)
class GoogleMatrix:
    """alpha * E plus uniform teleportation with weight (1 - alpha)."""

    e: StochasticMatrix
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @property
    def dim(self) -> int:
        return self.e.dim

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.alpha * self.e.matvec(v) + (1.0 - self.alpha) / self.dim * v.sum()

    def dense(self) -> np.ndarray:
        n = self.dim
        return self.alpha * self.e.dense() + (1.0 - self.alpha) / n


LinearOperator = Union[HyperlinkMatrix, StochasticMatrix, GoogleMatrix]


def hyperlink_matrix(g: DirectedGraph) -> HyperlinkMatrix:
    """Build H with H[i, j] = 1/outdeg(j) for every arc j -> i."""
    n = g.node_count
    out_deg = g.out_degrees()
    arcs = g.sorted_arcs()
    rows = np.array([d for _, d in arcs], dtype=np.int64)
    cols = np.array([s for s, _ in arcs], dtype=np.int64)
    data = 1.0 / out_deg[cols] if len(arcs) else np.zeros(0)
    links = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return HyperlinkMatrix(links, out_deg == 0)


def patch_dangling(h: HyperlinkMatrix) -> StochasticMatrix:
    """Replace dangling (all-zero) columns by the uniform column 1/N."""
    return StochasticMatrix(h.links, h.dangling)


def google_matrix(e: StochasticMatrix, alpha: float) -> GoogleMatrix:
    """Damped matrix alpha * E + (1 - alpha)/N * ones."""
    return GoogleMatrix(e, alpha)


@dataclass(frozen=True)
class PowerResult:
    """Outcome of a power-method run.

    ``degenerate`` marks a vanishing limit (all mass drained away, as on a
    bare hyperlink matrix with dangling nodes); the vector is then returned
    unnormalized since there is nothing to normalize.
    """

    values: np.ndarray
    iterations: int
    converged: bool
    degenerate: bool = False


def power_method(m: LinearOperator, i0: np.ndarray,
                 tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> PowerResult:
    """Iterate v <- M v until the L1 change drops below ``tol``.

    Non-convergent inputs are returned as observations rather than errors:
    the last iterate comes back with ``converged=False``. Reducible
    stochastic matrices whose recurrent part is 2-periodic settle into a
    two-point orbit; that orbit is detected and the iterate reached after
    an odd number of applications is returned, which is the branch the
    classical literature quotes for the standard reducible examples.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.asarray(i0, dtype=np.float64).copy()
    if v.shape != (m.dim,):
        raise ValueError(f"initial vector must have shape ({m.dim},)")
    if not np.any(v):
        raise ValueError("initial vector must be nonzero")

    # A true period-2 orbit keeps an O(1) step-to-step change while the
    # two-step change vanishes; a decaying oscillation (negative subdominant
    # eigenvalue) sends both to zero, so demand a macroscopic step change
    # before declaring an orbit.
    orbit_floor = np.sqrt(tol)
    prev = None  # iterate two applications back
    converged = False
    iterations = 0
    for k in range(1, max_iter + 1):
        w = m.matvec(v)
        iterations = k
        step_change = np.abs(w - v).sum()
        if step_change < tol:
            v = w
            converged = True
            break
        if prev is not None and step_change > orbit_floor and np.abs(w - prev).sum() < tol:
            v = w if k % 2 == 1 else v  # keep the odd-application point
            break
        prev = v
        v = w

    # a drained limit carries orders of magnitude less mass than the start;
    # surviving limits keep a constant fraction of it
    initial_mass = np.abs(np.asarray(i0, dtype=np.float64)).sum()
    total = v.sum()
    if total <= 1e-6 * initial_mass:
        return PowerResult(v, iterations, converged, degenerate=True)
    return PowerResult(v / total, iterations, converged)


def classical_pagerank(g: DirectedGraph, alpha: float = DEFAULT_ALPHA,
                       tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Stationary distribution of the Google matrix at damping ``alpha``.

    Requires alpha < 1 so the matrix is primitive and the fixed point
    unique; the result sums to 1 and does not depend on the start vector.
    Raises ValueError if the power method has not converged to ``tol``
    within ``max_iter`` iterations.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    gm = google_matrix(patch_dangling(hyperlink_matrix(g)), alpha)
    i0 = np.full(g.node_count, 1.0 / g.node_count)
    result = power_method(gm, i0, tol=tol, max_iter=max_iter)
    if not result.converged:
        raise ValueError(f"power method did not converge to tol={tol:g} "
                         f"in {result.iterations} iterations")
    return result.values


def second_eigenvalue_modulus(gm: LinearOperator) -> float:
    """|lambda_2| of the (densified) operator, via the full small spectrum."""
    if gm.dim < 2:
        raise ValueError("need at least 2 nodes for a second eigenvalue")
    eigvals = np.linalg.eigvals(gm.dense())
    moduli = np.sort(np.abs(eigvals))[::-1]
    return float(moduli[1])
