"""The N^2-entry edge space of Szegedy's walk, the oracle for both backends.

An edge-space state is a complex vector of length N*N with amplitude(i, j)
stored at i*N + j (register 1 first); the package itself runs the walk on
two real N-vectors (``qprank.szegedy``). Every function here builds the
amplitudes sqrt(G)^T from the operator's dense Google matrix itself, so
the oracle stays independent of how the package builds the discriminant.
``cesaro_limit`` gives the exact M -> infinity average of the walk, the
oracle for long horizons.
"""

import numpy as np

from qprank import szegedy


def amps(op):
    """``amps(op)[j, k]`` = sqrt(G[k, j]), the register-2 amplitude profile
    of psi_j; each row has unit norm because G is column-stochastic."""
    return np.sqrt(op.google).T


class EdgeSpaceOperator(szegedy.WalkOperator):
    """The package's walk operator, with its amplitudes readable as ``.amps``
    for tests that build the dense edge-space matrices from them."""

    amps = property(amps)


def walk_operator(g, alpha=szegedy.DEFAULT_ALPHA):
    """``szegedy.walk_operator(g, alpha)`` as an ``EdgeSpaceOperator``."""
    op = szegedy.walk_operator(g, alpha)
    return EdgeSpaceOperator(op.matrix)


def initial_state(op):
    """Uniform superposition (1/sqrt(N)) sum_j psi_j, a unit vector."""
    n = op.dim
    return (amps(op) / np.sqrt(n)).astype(np.complex128).reshape(n * n)


def apply_reflection(state, op):
    """Reflect through span{psi_j}: state -> 2 sum_j <psi_j|state> psi_j - state."""
    n = op.dim
    a = amps(op)
    mat = state.reshape(n, n)
    coeff = np.einsum("jk,jk->j", a, mat)
    return (2.0 * coeff[:, None] * a - mat).reshape(n * n)


def apply_swap(state):
    """Exchange the two registers: amplitude(i, j) <-> amplitude(j, i)."""
    n = int(round(np.sqrt(state.shape[0])))
    return state.reshape(n, n).T.reshape(n * n).copy()


def two_step(state, op):
    """One application of the squared walk operator (reflection, swap, twice)."""
    n = op.dim
    a = amps(op)
    mat = state.reshape(n, n)
    for _ in range(2):
        coeff = np.einsum("jk,jk->j", a, mat)
        mat = (2.0 * coeff[:, None] * a - mat).T
    return np.ascontiguousarray(mat).reshape(n * n)


def instantaneous_qpr(state):
    """Node occupation probabilities from register 2: sum_j |amp(j, i)|^2."""
    n = int(round(np.sqrt(state.shape[0])))
    mat = state.reshape(n, n)
    return (mat.real ** 2 + mat.imag ** 2).sum(axis=0)


def cesaro_limit(op):
    """The limit of the walk's mean distribution over m = 0..M-1 as M -> infinity.

    Built from D = sqrt(G o G^T) = V diag(lam) V^T and the register start a_0:
    equal eigenvalues (within 1e-9) form clusters K, p_K is the share of
    a_0 in cluster K, p_-K that in the cluster at -lam_K (zero if there is
    none; K itself at lam = 0), s_K^2 = 1 - lam_K^2, and f the share in the
    modes with |lam| = 1, which the walk holds fixed. Only pairs of modes at
    equal or opposite angles keep a nonzero mean, which gives

        <a o a>  = f o f + sum_K (p_K o p_K + p_K o p_-K) / (2 s_K^2)
        <b o b>  = sum_K (p_K o p_K - p_K o p_-K) / (2 s_K^2)
        <b o Da> = sum_K lam_K^2 (p_K o p_-K - p_K o p_K) / (2 s_K^2)

    and the limit G<a o a> + <b o b> + 2<b o Da>.
    """
    g = op.google
    n = g.shape[0]
    tol = 1e-9  # far above eigh's rounding, far below the gaps of the graphs tested
    lam, vecs = np.linalg.eigh(np.sqrt(g * g.T))
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > tol)
    lam = lam[starts]
    p = np.add.reduceat(vecs * (vecs.sum(axis=0) / np.sqrt(n)), starts, axis=1)
    p_neg = p @ (np.abs(lam[:, None] + lam[None, :]) <= tol)  # the cluster at -lam, if any
    unit = np.abs(np.abs(lam) - 1.0) <= tol
    f = p[:, unit].sum(axis=1)
    p, p_neg, lam = p[:, ~unit], p_neg[:, ~unit], lam[~unit]
    same, opposite = p * p / (2 * (1 - lam ** 2)), p * p_neg / (2 * (1 - lam ** 2))
    aa = f * f + (same + opposite).sum(axis=1)
    bb = (same - opposite).sum(axis=1)
    b_da = (lam ** 2 * (opposite - same)).sum(axis=1)
    return g @ aa + bb + 2 * b_da
