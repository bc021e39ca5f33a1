"""Classical PageRank: hyperlink matrix, dangling patch, Google matrix, solver.

The chain of constructions is hyperlink_matrix -> patch_dangling ->
google_matrix. H, E and G are one class, GoogleMatrix: H patches no
column, E patches the dangling ones, and both are G at alpha = 1. The
operator is never materialised densely for the solver: it is applied as
alpha * E @ v plus a uniform teleport term, so a matrix-vector product
costs O(arcs + N). The power method runs to an L1 change of 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import DirectedGraph

DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class GoogleMatrix:
    """alpha * E + (1 - alpha)/N * ones, where E is the link matrix with each
    ``patched`` column replaced by 1/N. H patches no column, E patches the
    dangling (all-zero) ones, and both are alpha = 1."""

    links: sp.csr_matrix
    patched: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @property
    def dim(self) -> int:
        return self.links.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M v for an (N,) vector, or M V for an (N, k) block, column by column."""
        out = self.links @ v
        if self.patched.any():
            out += v[self.patched].sum(axis=0) / self.dim
        if self.alpha == 1.0:  # H or E: skip the scaling and teleport passes
            return out
        out *= self.alpha
        out += (1.0 - self.alpha) / self.dim * v.sum(axis=0)
        return out

    @property
    def teleport(self) -> np.ndarray:
        """b_j, the value of column j off the arcs of j: (1 - alpha)/N, plus
        alpha/N where the column is patched."""
        n = self.dim
        return self.alpha * (self.patched / n) + (1.0 - self.alpha) / n

    def dense(self) -> np.ndarray:
        n = self.dim
        e = self.links.toarray()
        e[:, self.patched] = 1.0 / n
        return self.alpha * e + (1.0 - self.alpha) / n


def hyperlink_matrix(g: DirectedGraph) -> GoogleMatrix:
    """H with H[i, j] = 1/outdeg(j) for every arc j -> i; no column patched."""
    n = g.node_count
    out_deg = g.out_degrees()
    src = g.sources()
    links = sp.csr_matrix((1.0 / out_deg[src], (g.targets, src)), shape=(n, n))
    return GoogleMatrix(links, np.zeros(n, dtype=bool))


def patch_dangling(h: GoogleMatrix) -> GoogleMatrix:
    """E: dangling (all-zero) columns replaced by the uniform column 1/N."""
    return GoogleMatrix(h.links, np.bincount(h.links.indices, minlength=h.dim) == 0)


def google_matrix(e: GoogleMatrix, alpha: float) -> GoogleMatrix:
    """Damped matrix alpha * E + (1 - alpha)/N * ones. Damping a damped
    matrix multiplies the two alphas, which is exact algebra."""
    return GoogleMatrix(e.links, e.patched, alpha * e.alpha)


@dataclass(frozen=True)
class PowerResult:
    """Outcome of a power-method run.

    ``degenerate`` marks a vanishing limit (all mass drained away, as on a
    bare hyperlink matrix with dangling nodes); the vector is then returned
    unnormalized since there is nothing to normalize. ``orbit`` marks a run
    stopped on a detected two-point orbit, which is not converged either but,
    unlike a run that used up its iterations, reached its limit set.
    """

    values: np.ndarray
    iterations: int
    converged: bool
    degenerate: bool = False
    orbit: bool = False


def power_method(m: GoogleMatrix, i0: np.ndarray,
                 max_iter: int = DEFAULT_MAX_ITER) -> PowerResult:
    """Iterate v <- M v until the L1 change drops below ``DEFAULT_TOL``.

    Non-convergent inputs are returned as observations rather than errors:
    the last iterate comes back with ``converged=False``. Reducible
    stochastic matrices whose recurrent part is 2-periodic settle into a
    two-point orbit; that orbit is detected and the iterate reached after
    an odd number of applications is returned, which is the branch the
    classical literature quotes for the standard reducible examples.
    """
    v = np.asarray(i0, dtype=np.float64).copy()
    if v.shape != (m.dim,):
        raise ValueError(f"initial vector must have shape ({m.dim},)")
    if not np.any(v):
        raise ValueError("initial vector must be nonzero")

    # A true period-2 orbit keeps an O(1) step-to-step change while the
    # two-step change vanishes; a decaying oscillation (negative subdominant
    # eigenvalue) sends both to zero, so demand a macroscopic step change
    # before declaring an orbit.
    orbit_floor = np.sqrt(DEFAULT_TOL)
    prev = None  # iterate two applications back
    converged = orbit = False
    iterations = 0
    for k in range(1, max_iter + 1):
        w = m.matvec(v)
        iterations = k
        step_change = np.abs(w - v).sum()
        if step_change < DEFAULT_TOL:
            v = w
            converged = True
            break
        if prev is not None and step_change > orbit_floor and np.abs(w - prev).sum() < DEFAULT_TOL:
            v = w if k % 2 == 1 else v  # keep the odd-application point
            orbit = True
            break
        prev = v
        v = w

    # a drained limit carries orders of magnitude less mass than the start;
    # surviving limits keep a constant fraction of it
    initial_mass = np.abs(np.asarray(i0, dtype=np.float64)).sum()
    total = v.sum()
    if total <= 1e-6 * initial_mass:
        return PowerResult(v, iterations, converged, degenerate=True, orbit=orbit)
    return PowerResult(v / total, iterations, converged, orbit=orbit)


def classical_pagerank(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Stationary distribution of the Google matrix at damping ``alpha``.

    Requires alpha < 1 so the matrix is primitive and the fixed point
    unique; the result sums to 1 and does not depend on the start vector.
    Raises ValueError if the power method has not converged to
    ``DEFAULT_TOL`` within ``DEFAULT_MAX_ITER`` iterations.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    gm = google_matrix(patch_dangling(hyperlink_matrix(g)), alpha)
    i0 = np.full(g.node_count, 1.0 / g.node_count)
    result = power_method(gm, i0)
    if not result.converged:
        raise ValueError(f"power method did not converge to tol={DEFAULT_TOL:g} "
                         f"in {result.iterations} iterations")
    return result.values
