"""The N^2-entry edge space of Szegedy's walk, the oracle for both backends.

An edge-space state is a complex vector of length N*N with amplitude(i, j)
stored at i*N + j (register 1 first); the package itself runs the walk on
two real N-vectors (``qprank.szegedy``). Every function here builds the
amplitudes sqrt(G)^T from the operator's dense Google matrix itself, so
the oracle stays independent of how the package builds the discriminant.
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
    return EdgeSpaceOperator(op.google, op.discriminant)


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
