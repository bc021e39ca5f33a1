"""The N^2-entry edge space of Szegedy's walk, the oracle for both backends.

An edge-space state is a complex vector of length N*N with amplitude(i, j)
stored at i*N + j (register 1 first); the package itself runs the walk on
two real N-vectors (``qprank.szegedy``). Every function here builds the
amplitudes sqrt(G)^T from the operator's dense Google matrix itself, so
the oracle stays independent of how the package builds the discriminant.
``cesaro_limit`` gives the exact M -> infinity average of the walk, the
oracle for long horizons. ``augmented_operators`` assembles the sparse
kernel's half-step operators from scipy's block and stack constructors,
the reference for the CSR arrays the kernel writes itself.
``half_step_walk`` steps those operators one CSR product per half-step, the
reference for the strips of half-steps the kernel runs in one product.
"""

import math

import numpy as np
import scipy.sparse as sp

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


def augmented_operators(ops):
    """The sparse kernel's half-step operators [I, A] and [I, -A] for the
    batch ``ops``, as CSR matrices, and the register start, assembled block
    by block with scipy's constructors: each walk's operator over 2 is
    [[C, W Sigma], [(C W)^T, W^T W Sigma]] with W = [s, V] and
    Sigma = diag(1, -lambda/2) (``qprank.szegedy``'s module docstring), and
    A is twice their block-diagonal sum, every walk's nodes first."""
    blocks, starts, extras = [], [], []
    for op in ops:
        modes, signs = szegedy.unit_modes(op)
        w = sp.hstack([sp.csr_matrix(op.scale[:, None]), modes], format="csr")
        hold = sp.diags(np.concatenate(([1.0], -0.5 * signs)))
        gram = (w.T @ w).tolil()
        if op.scale.any():
            gram[0, 0] = math.fsum(op.scale * op.scale)
        c = op.correction
        start = szegedy._unit_split(modes, signs, szegedy.initial_state(op))[0]
        blocks.append([[c, w @ hold], [(c @ w).T, gram @ hold]])
        starts.append(start)
        extras.append(w.T @ start)
    a = 2.0 * sp.bmat([[sp.block_diag([b[i][j] for b in blocks]) for j in (0, 1)]
                       for i in (0, 1)], format="csr")
    a.eliminate_zeros()
    a.sort_indices()
    eye = sp.identity(a.shape[0], format="csr")
    return ([sp.hstack([eye, sign * a], format="csr") for sign in (1.0, -1.0)],
            np.concatenate(starts + extras))


def half_step_walk(ops, steps):
    """``szegedy._sparse_walk``'s ``(x, q)`` blocks, from one CSR product per
    half-step: alpha_m = [I, A] [alpha_{m-1}; beta_{m-1}] and
    beta_m = [I, -A] [beta_{m-1}; alpha_m], each into a zeroed row of a
    buffer of ``szegedy._BLOCK_STEPS`` two-steps."""
    (indptr, indices, *data), start, (fixed, d_fixed) = szegedy._half_steps(ops)
    width, nodes = len(start), sum(op.dim for op in ops)
    even, odd = (szegedy._accumulate(indptr, indices, d, 2 * width) for d in data)
    held = fixed.any() or d_fixed.any()
    seq = np.zeros((2 * szegedy._BLOCK_STEPS + 2, width))
    seq[2] = start  # alpha_0; beta_0 = 0 and the rows of m = -1 are 0
    for m in range(0, steps, szegedy._BLOCK_STEPS):
        k = min(szegedy._BLOCK_STEPS, steps - m)
        for r in range(2 if m else 4, 2 * k + 2):
            (odd if r % 2 else even)(seq[r - 2:r].reshape(-1), seq[r])
        alphas = seq[2:2 * k + 2:2, :nodes]
        betas, prevs = seq[3:2 * k + 3:2, :nodes], seq[1:2 * k + 1:2, :nodes]
        if held:
            sign = np.where(np.arange(m, m + k) % 2, -1.0, 1.0)[:, None]
            yield alphas + sign * fixed, betas * (prevs + sign * d_fixed)
        else:
            yield alphas, betas * prevs
        seq[:2] = seq[2 * k:2 * k + 2]
        seq[2:] = 0.0
