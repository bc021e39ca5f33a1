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

On the eigenspace of D with eigenvalue +-1 the state is a fixed point of the
two-step while a and b grow linearly; that eigenspace is deflated exactly
(split off at the start, held constant, and removed from the D the registers
iterate with), so rounding cannot grow along it. Every walk starts at
m = 0, and a series and its average come from one ``SeriesStream``, 64
two-steps at a time: ``evolve`` keeps its rows (past ``offset``, which only
it takes), and the CLI's ``qrank`` writes them as they come. The edge space
itself (the N^2-entry state, reflection, swap and two-step) lives in
``tests/szegedy_oracles.py``, as the independent oracle for the kernels.

Walks of ``SPARSE_NODES`` = 128 nodes or more run on the sparse kernel,
which builds no N^2 array. Off the arcs of j, column j of G takes one value
b_j (``GoogleMatrix.teleport``), so with s = sqrt(b)

    D = s s^T + C,

where C is nonzero only on pairs joined by an arc either way. ``unit_modes``
reads D's +-1 eigenspace, k vectors V with eigenvalues lambda, off the graph
in O(N + arcs). With W = [s, V] and Sigma = diag(1, -lambda/2), each walk
runs on the (N + 1 + k)-coordinate operator

    2 [[C, W Sigma], [W^T C, W^T W Sigma]],

whose extra coordinates carry W^T v: one product applies 2D with each unit
mode moved from lambda to lambda/2 and keeps those coordinates current. The
walk's start has no share in the unit modes, so where they sit moves only
rounding. At 0, where the dense kernel puts them, they would meet the extra
coordinates' own eigenvalue 0 in a Jordan block, and the rounding of the
carried coordinates would grow along them: 1.0e-12 from the dense kernel on
fig1a after 2048 two-steps, against 3.2e-14 at lambda/2. The walks of one call
run as one block-diagonal operator, at most ``_BATCH_NODES`` nodes at a
time, and each row of a CSR product reads only its own walk, so a batched
walk's results equal its single run bit for bit. The half-step operators
are CSR arrays (``_half_steps``), equal bit for bit to scipy's block assembly
in ``tests/szegedy_oracles.py``. One in-place CSR product runs a strip of up
to 128 half-steps in a buffer of 64 two-steps, so no BLAS product touches the
walk and its bytes do not depend on the thread count: at N = 128 a 2048-step
walk's kernel took 7.3 ms as 4096 products and 4.2 ms as 128 (best of 31).

Walks below 128 nodes run on the dense kernel, which builds D from G as
N x N arrays, deflates with ``eigh`` and steps with D one two-step at a
time; its steps are gathered into the same blocks. Both kernels' blocks
are read out through ``GoogleMatrix``, one sparse product per block. The
threshold stays because the benchmark's small-spectral workload (N <= 64)
keeps the series of every round until its final check, so a faster small
walk there reads as a larger peak memory: with every walk on the sparse
kernel it ran 22-26% faster and peaked 23-24% higher (2 vCPU, shared host).

The pipelines run these direct kernels only. Their spectral reference reads
the same series off the eigenpairs of D in closed form: with
D = V diag(lambda) V^T and lambda = cos(theta), mode k of a and b after m
two-steps is

    a_m = -a_0 sin((2m-1) theta) / sin(theta),   b_m = a_0 sin(2m theta) / sin(theta),

with the +-1 modes held at a = a_0, b = 0, as the direct kernels do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .graph import DirectedGraph, _admit
from .pagerank import DEFAULT_ALPHA, GoogleMatrix, google_matrix, hyperlink_matrix, patch_dangling

DEFAULT_STEPS = 2048
# Eigenvalues of D within this distance of modulus 1 are deflated exactly by
# the dense kernel; ``unit_modes`` keeps a mode whose residual |D v -+ v| is
# within it.
UNIT_EIGEN_TOL = 1e-9
# Walks of this many nodes or more run on the sparse kernel (module docstring).
SPARSE_NODES = 128
# The sparse walks of one call run as block-diagonal batches of at most this
# many nodes, or one walk alone; each batch holds its own block buffers.
_BATCH_NODES = 512
# Peak bytes of one walk per node and per arc, and of a recorded series per
# two-step and node. tracemalloc, sparse kernel: quantum_pagerank took 2920-
# 3090 per node on scale-free graphs of 1000 to 30000 nodes (the strip adds
# 20-150), and beyond 3050 a node 100-196 per arc on random graphs of 20 to
# 150 arcs a node; evolve's readout adds about 1300 per node, and its series
# 7.8 per two-step and node (N = 2000, 256 against 1024 two-steps). Below
# SPARSE_NODES the dense kernel's 34 bytes per node pair stay under the node term.
_NODE_BYTES = 4400
_ARC_BYTES = 200
_SERIES_BYTES = 8
# Two-steps per block of a series: the walk holds one block of registers at a
# time and reads each block out with one product.
_BLOCK_STEPS = 64
# Entries of the sparse kernel's strip operator, h half-steps in one CSR call:
# h is the largest even count within it, at least 2 and at most 2 _BLOCK_STEPS.
_STRIP_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """The walk's Google matrix G and the parts of the discriminant
    D = sqrt(G o G^T) that each kernel reads, built on first use: the dense
    kernel steps with D as an N x N array (``discriminant``, built from
    ``google``), the spectral reference reads D and G, the sparse kernel
    D = s s^T + C (``scale`` s, ``correction`` C). Every walk is read out
    through ``matrix``."""

    matrix: GoogleMatrix

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @cached_property
    def google(self) -> np.ndarray:
        return self.matrix.dense()

    @cached_property
    def discriminant(self) -> np.ndarray:
        amps = np.sqrt(self.google).T
        return amps * amps.T

    @cached_property
    def scale(self) -> np.ndarray:
        """s = sqrt(b): D_ij = s_i s_j on every pair that no arc joins."""
        return np.sqrt(self.matrix.teleport)

    @cached_property
    def flows(self) -> sp.csr_matrix:
        """G_ij + 1j G_ji on the pairs (i, j) joined by an arc either way, in
        canonical CSR order: each entry holds both directions of its pair."""
        m, b = self.matrix, self.matrix.teleport
        flows = (m.links + 1j * m.links.T).tocsr()  # L_ij + 1j L_ji, never cancelling
        flows.sort_indices()
        rows = np.repeat(np.arange(self.dim), np.diff(flows.indptr))
        g = m.alpha * flows.data.real + b[flows.indices]
        flows.data = g + 1j * (m.alpha * flows.data.imag + b[rows])
        return flows

    @cached_property
    def correction(self) -> sp.csr_matrix:
        """C = D - s s^T, symmetric, with at most 2 entries per arc."""
        f, s = self.flows, self.scale
        rows = np.repeat(np.arange(self.dim), np.diff(f.indptr))
        d = np.sqrt(f.data.real) * np.sqrt(f.data.imag)
        return sp.csr_matrix((d - s[rows] * s[f.indices], f.indices, f.indptr), shape=f.shape)


def _admit_walk(n: int, arcs: int, steps: int = 0, walks: int = 1) -> None:
    """MemoryError, before anything is allocated, when ``walks`` walks on
    ``n`` nodes and ``arcs`` arcs, recording ``steps`` two-steps, need more
    than physical memory."""
    _admit(walks * (_NODE_BYTES * n + _ARC_BYTES * arcs + _SERIES_BYTES * steps * n),
           f"a quantum walk on {n} nodes and {arcs} arcs"
           + (f" over {steps} two-steps" if steps else ""), "run")


def walk_operator(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> WalkOperator:
    """The walk at damping ``alpha``: its Google matrix, whose discriminant
    each kernel builds as it needs it."""
    _admit_walk(g.node_count, len(g.targets))
    return WalkOperator(google_matrix(patch_dangling(hyperlink_matrix(g)), alpha))


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

    def blocks(self) -> Iterator[np.ndarray]:
        """The rows as ``SeriesStream.blocks`` gives them: here one block."""
        return iter([self.instantaneous])


def _check_horizon(steps: int) -> None:
    if steps < 1:
        raise ValueError("steps must be at least 1")


def unit_modes(op: WalkOperator) -> tuple[sp.csr_matrix, np.ndarray]:
    """An orthonormal basis of D's eigenspace at +-1, as the columns of an
    N x k CSR matrix, and their k eigenvalues, read off the graph in
    O(N + arcs).

    A unit vector with D v = +-v satisfies G_ij v_j^2 = G_ji v_i^2 on every
    pair (the equality case of Cauchy-Schwarz), so v^2 is a stationary
    distribution in detailed balance on a closed class, and the pairs with
    D_ij > 0 join that class up. Each component of those pairs gives one
    candidate: pi from the Kolmogorov ratios pi_i / pi_j = G_ij / G_ji
    along a spanning tree of its arcs, and b_i pi_i = b_j pi_j between the
    components of its arcs, which meet only through the nodes with b > 0
    (D_ij >= s_i s_j > 0 between any two of them). v = sqrt(pi) is a +1
    mode, and v with signs alternating along the tree a -1 mode, where its
    residual |D v -+ v| is within ``UNIT_EIGEN_TOL``. At alpha < 1 all
    nodes form one component; at alpha = 1 only the dangling nodes have
    b > 0, and the other components are joined by reciprocal arcs alone.
    """
    # imported here: it loads scipy.sparse.linalg, about 20 ms and 3 MB that
    # walks below SPARSE_NODES never need
    from scipy.sparse import csgraph

    n, f, b = op.dim, op.flows, op.matrix.teleport
    hub, root = n, n + 1  # joins the components of the arcs through b > 0; roots the tree
    rows = np.repeat(np.arange(n), np.diff(f.indptr))
    linked = (f.data.real > 0) & (f.data.imag > 0)
    src, dst = rows[linked], f.indices[linked]

    def graph(src, dst, size):  # canonical CSR of arcs held both ways: csgraph needs no transpose
        indptr = np.append(0, np.cumsum(np.bincount(src, minlength=size)))
        order = np.argsort(src * size + dst, kind="stable")  # timsort: nearly sorted already
        return sp.csr_matrix((np.ones(len(src)), dst[order], indptr), (size, size))

    shared = np.flatnonzero(b > 0)
    parts = csgraph.connected_components(graph(src, dst, n), connection="strong")[1]
    reps = shared[np.unique(parts[shared], return_index=True)[1]]
    # the hub joins the parts of the nodes with b > 0, into components numbered by
    # first node, as csgraph numbers them; the tree adds hub and root arcs both ways
    joined = np.bincount(parts[shared], minlength=n)[parts] > 0
    first, label = np.unique(np.append(np.where(joined, -1, parts), -1), return_index=True,
                             return_inverse=True)[1:]
    count, entries, label = len(first), np.sort(first), np.argsort(np.argsort(first))[label]
    ends = np.concatenate((reps, entries)), np.append(np.full(len(reps), hub), np.full(count, root))
    src, dst = np.concatenate((src, *ends)), np.concatenate((dst, *ends[::-1]))
    up = csgraph.breadth_first_order(graph(src, dst, n + 2), root, return_predecessors=True)[1]
    up[root] = root

    # log pi of each node over its parent, and arcs on the way up, then summed to the root
    node = np.arange(n + 2)
    step, hops = np.zeros(n + 2), np.zeros(n + 2, dtype=np.int64)
    arc = (node < n) & (up < n)
    at = np.searchsorted(rows * n + f.indices, node[arc] * n + up[arc])
    step[arc] = np.log(f.data.real[at]) - np.log(f.data.imag[at])
    hops[arc] = 1
    below = (node < n) & (up == hub)
    step[below] = -np.log(b[node[below]])
    if up[hub] < n:
        step[hub] = np.log(b[up[hub]])
    while (up != root).any():
        step += step[up]
        hops += hops[up]
        up = up[up]

    label, step = label[:n], step[:n]
    top = np.full(count, -np.inf)
    np.maximum.at(top, label, step)
    pi = np.exp(step - top[label])
    v = np.sqrt(pi / np.bincount(label, pi, minlength=count)[label])
    held = np.bincount(label, minlength=count) > 0
    columns, values, signs = [], [], []
    for sign, u in ((1.0, v), (-1.0, np.where(hops[:n] % 2, -v, v))):
        r = op.scale * (op.scale * u).sum() + op.correction @ u - sign * u
        kept = held & (np.sqrt(np.bincount(label, r * r, minlength=count)) <= UNIT_EIGEN_TOL)
        columns.append(np.where(kept, len(signs) + np.cumsum(kept) - 1, -1)[label])
        values.append(u)
        signs += [sign] * int(kept.sum())
    columns, values = np.stack(columns, axis=1), np.stack(values, axis=1)  # +1 mode, then -1
    at = columns >= 0
    indptr = np.append(0, np.cumsum(at.sum(axis=1)))
    return sp.csr_matrix((values[at], columns[at], indptr), (n, len(signs))), np.array(signs)


def _discriminant_modes(op: WalkOperator):
    """The eigenpairs of D and the mask of modes with |lambda| = 1; the dense
    kernel and the spectral reference factor D here, once per call."""
    lam, vecs = scipy.linalg.eigh(op.discriminant)
    return lam, vecs, np.abs(np.abs(lam) - 1.0) <= UNIT_EIGEN_TOL


def _unit_split(modes, lam, a0: np.ndarray):
    """The register start a0 without its share in the unit modes (the
    columns of ``modes``, dense or CSR, with eigenvalues ``lam``), and that
    share with its image under 2D: a fixed point of the walk, which each
    kernel adds back at readout with the frame's sign. Without unit modes
    the share is exactly 0, and a0 comes back as it is."""
    if not modes.shape[1]:
        return a0, (np.zeros_like(a0), np.zeros_like(a0))
    share = modes.T @ a0
    fixed = modes @ share
    return a0 - fixed, (fixed, 2.0 * (modes @ (lam * share)))


def _deflated(op: WalkOperator):
    """2D with the +-1 eigenspace of D removed, and ``_unit_split``'s start
    and fixed share."""
    lam, vecs, unit = _discriminant_modes(op)
    v1, lam1 = vecs[:, unit], lam[unit]
    return (2.0 * (op.discriminant - (v1 * lam1) @ v1.T),
            *_unit_split(v1, lam1, initial_state(op)))


def _register_walk(op: WalkOperator, steps: int):
    """Dense kernel: yield ``(x, q)`` for two-steps m = 0 .. steps-1.

    The distribution after m two-steps is P_m = G(x*x) + q. The registers
    are iterated in the sign-alternating frame alpha = (-1)^m a,
    beta = (-1)^m b, where the two-step reads alpha += 2D beta,
    beta -= 2D alpha, and q = beta_m * beta_{m-1} because
    beta_m + 2D alpha_m = beta_{m-1}. The +-1 eigenspace of D is deflated:
    its share of the initial a is a fixed point of the walk, kept aside and
    added back at readout (with the frame's sign), while the rest iterates
    under D with that eigenspace removed.
    """
    d2, alpha, (fixed, d_fixed) = _deflated(op)
    held = fixed.any() or d_fixed.any()  # a zero share adds nothing: skip its adds
    beta = prev = np.zeros_like(alpha)
    for m in range(steps):
        if m:
            alpha = alpha + d2 @ beta
            beta, prev = beta - d2 @ alpha, beta
        if held:
            sign = -1.0 if m % 2 else 1.0
            yield alpha + sign * fixed, beta * (prev + sign * d_fixed)
        else:
            yield alpha, beta * prev


def _accumulate(indptr, indices, data, cols: int):
    """The call f(x, y) that adds A x to y in place, for the CSR matrix A of
    ``cols`` columns held in ``indptr``, ``indices`` and ``data``: scipy's
    compiled CSR product, the routine ``A @ x`` itself calls, without a
    sparse container, the argument checks and the output array of ``@``."""
    return partial(csr_matvec, len(indptr) - 1, cols, indptr, indices, data)


def _augmented(op: WalkOperator):
    """The walk ``op`` on N + 1 + k coordinates (module docstring), nodes
    first: the (row, column) pairs and values of its operator over 2, block
    by block (C, W Sigma, W^T C, W^T W Sigma), each by row, then column;
    ``_unit_split``'s start a_0' and W^T a_0'; and its fixed share. C W and
    W^T W add their terms in the order scipy's sparse product adds them."""
    modes, signs = unit_modes(op)
    n, k, c = op.dim, len(signs), op.correction
    hold, layer = np.append(1.0, -0.5 * signs), np.append(0, np.where(signs > 0, 1, 2))
    # W = [s, V] in three layers of columns: s, the +1 modes, the -1 modes. The modes of
    # one sign lie on distinct components, between which C holds only exact zeros, so
    # one product per layer x gives all its columns of C W and W^T W
    col, x = np.full((3, n), -1), np.zeros((3, n))
    col[0], x[0] = 0, op.scale
    at = layer[modes.indices + 1], np.repeat(np.arange(n), np.diff(modes.indptr))
    col[at], x[at] = modes.indices + 1, modes.data
    on = col >= 0
    w_nodes, w_cols = np.nonzero(on)[1], col[on]  # W's entries, by layer and node
    by_col = np.argsort(w_cols, kind="stable")
    wt = (np.append(0, np.cumsum(np.bincount(w_cols, minlength=k + 1))), w_nodes[by_col],
          x[on][by_col])  # W^T as CSR arrays
    cw, gram = np.zeros((3, n)), np.zeros((3, k + 1))
    for i in range(3):
        _accumulate(c.indptr, c.indices, c.data, n)(x[i], cw[i])
        _accumulate(*wt, n)(x[i], gram[i])
    # s^T s adds N terms, and its rounding shifts the walk's frequencies: summed
    # by the CSR product, the walk on scalefree:128 at alpha = 0.01 strayed
    # 2.9e-11 from a long-double walk after 2048 two-steps; exactly rounded, 2.2e-12
    gram[0, 0] = math.fsum(op.scale * op.scale)
    # W^T W pairs the columns that share a node; row 0 by symmetry, as s spans them all
    p, q = np.divmod(np.unique((col[:, None] * (k + 1) + col)[on[:, None] & on]), k + 1)
    c_rows = np.repeat(np.arange(n), np.diff(c.indptr))
    entries = np.hstack(([c_rows, c.indices], [w_nodes, n + w_cols], [n + w_cols, w_nodes],
                         [n + p, n + q]))
    vals = np.concatenate((c.data, x[on] * hold[w_cols], cw[on],
                           np.where(p > 0, gram[layer[q], p], gram[0, q]) * hold[q]))
    start, fixed = _unit_split(modes, signs, initial_state(op))
    extras = np.zeros(k + 1)
    _accumulate(*wt, n)(start, extras)
    return entries, vals, start, extras, fixed


def _half_steps(ops: Sequence[WalkOperator]):
    """The walks ``ops`` as one block-diagonal operator A, every walk's nodes
    first, then every walk's extra coordinates: [I, A] and [I, -A] as CSR
    arrays (indptr, indices and the two data arrays; each row the identity's
    entry, then A's nonzero ones by column), the start and the fixed share."""
    entries, vals, starts, extras, fixed = zip(*map(_augmented, ops))
    at = np.cumsum([(0, 0)] + [(len(s), len(e)) for s, e in zip(starts, extras)], axis=0)
    nodes, width = at[-1, 0], at[-1].sum()
    rows, cols = np.hstack([np.tile(np.arange(width), (2, 1))] + [
        np.where(rc < n, rc + i, rc - n + nodes + j)[:, v != 0.0]
        for rc, v, (i, j), n in zip(entries, vals, at, np.diff(at[:, 0]))])
    cols[width:] += width  # A's columns, after the identity's
    order = np.argsort(rows, kind="stable")  # each row's entries in the order listed
    # 32-bit indices where they fit, as scipy picks them: 5% faster half-steps at N = 10^5
    index = np.int32 if max(len(rows), 2 * width) < 2 ** 31 else np.int64
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=width))).astype(index)
    even = np.concatenate([np.ones(width)] + [2.0 * v[v != 0.0] for v in vals])[order]
    odd = -even
    odd[indptr[:-1]] = 1.0
    return ((indptr, cols[order].astype(index), even, odd), np.concatenate(starts + extras),
            [np.concatenate(f) for f in zip(*fixed)])


def _sparse_walk(ops: Sequence[WalkOperator], steps: int):
    """Sparse kernel: yield ``(x, q)`` blocks of the two-steps
    m = 0 .. steps-1, at most ``_BLOCK_STEPS`` rows each, with
    the walks' node columns side by side: P_m = G(x*x) + q walk by walk,
    in the frame of ``_register_walk``.

    The walks run as ``_half_steps``' block-diagonal A. A block buffer
    holds alpha_{m-1}, beta_{m-1}, alpha_m, beta_m, ... row after row, so
    alpha_m = [I, A] [alpha_{m-1}; beta_{m-1}] and
    beta_m = [I, -A] [beta_{m-1}; alpha_m] each read the two rows before
    their own. One CSR product runs a strip of h half-steps: the operators
    alternate, each copy's columns one row on, and y is later rows of x.
    scipy's product sums row after row into the zeroed y, each as a single
    half-step would, so every row reads rows already final. The yielded
    arrays are views of the buffer, valid until the next block.
    """
    (indptr, indices, *data), start, (fixed, d_fixed) = _half_steps(ops)
    width, nodes, nnz = len(start), sum(op.dim for op in ops), len(indices)
    held = fixed.any() or d_fixed.any()
    h = 2 * max(1, min(_BLOCK_STEPS, _STRIP_ENTRIES // (2 * nnz)))
    index = indices.dtype if (h + 1) * max(nnz, width) < 2 ** 31 else np.int64
    shift = np.arange(h, dtype=index)[:, None]
    strip = (np.append(indptr[:-1] + nnz * shift, h * nnz).astype(index),
             (indices + width * shift).ravel(), np.concatenate(data * (h // 2)))
    del indptr, indices, data  # the strip holds them h times over

    seq = np.zeros((2 * min(_BLOCK_STEPS, steps) + 2, width))
    flat = seq.reshape(-1)
    seq[2] = start  # alpha_0, and beta_0 = 0 in row 3: the first block's strips start at row 4
    for m in range(0, steps, _BLOCK_STEPS):
        k = min(_BLOCK_STEPS, steps - m)
        for lo in range((2 if m else 4) * width, (2 * k + 2) * width, h * width):
            n = min(h, 2 * k + 2 - lo // width) * width  # a row prefix of the strip
            csr_matvec(n, n + width, *strip, flat[lo - 2 * width:lo + n - width], flat[lo:lo + n])
        alphas = seq[2:2 * k + 2:2, :nodes]
        betas, prevs = seq[3:2 * k + 3:2, :nodes], seq[1:2 * k + 1:2, :nodes]
        if held:
            sign = np.where(np.arange(m, m + k) % 2, -1.0, 1.0)[:, None]
            yield alphas + sign * fixed, betas * (prevs + sign * d_fixed)
        else:
            yield alphas, betas * prevs
        seq[:2] = seq[2 * k:2 * k + 2]
        seq[2:] = 0.0


def _dense_blocks(op: WalkOperator, steps: int):
    """Dense kernel in blocks: ``_register_walk``'s ``(x, q)`` gathered into
    blocks of at most ``_BLOCK_STEPS`` rows, as ``_sparse_walk`` yields them.
    The yielded arrays are the block buffers, valid until the next block."""
    xs = np.empty((min(steps, _BLOCK_STEPS), op.dim))
    qs = np.empty_like(xs)
    walk = _register_walk(op, steps)
    for start in range(0, steps, _BLOCK_STEPS):
        x, q = xs[:steps - start], qs[:steps - start]
        for i, (xm, qm) in zip(range(len(x)), walk):
            x[i] = xm
            q[i] = qm
        yield x, q


def _walk(ops: Sequence[WalkOperator], steps: int):
    """The ``(x, q)`` blocks of the walks ``ops``: one walk below
    ``SPARSE_NODES`` on the dense kernel, any other batch on the sparse one."""
    if len(ops) == 1 and ops[0].dim < SPARSE_NODES:
        return _dense_blocks(ops[0], steps)
    return _sparse_walk(ops, steps)


class SeriesStream:
    """The distributions after two-steps m = 0 .. steps-1, made as they are
    read: ``blocks()`` yields (k, N) blocks of k = _BLOCK_STEPS rows, read
    out with one product each, and ``average``, once a pass has read every
    row, their running sum over ``steps``, which is their ``mean(axis=0)``
    bit for bit."""

    def __init__(self, op: WalkOperator, steps: int):
        _check_horizon(steps)
        self.op, self.steps, self.node_count, self._rows = op, steps, op.dim, 0

    def blocks(self) -> Iterator[np.ndarray]:
        self._total, self._rows = np.zeros(self.node_count), 0
        for x, q in _walk([self.op], self.steps):
            block = q + self.op.matrix.matvec(np.square(x.T, order="C")).T
            # row after row, as mean(axis=0) adds them; a block's own sum rounds otherwise
            self._total = np.concatenate((self._total[None], block)).sum(axis=0)
            self._rows += len(block)
            yield block

    @property
    def average(self) -> np.ndarray:
        if self._rows < self.steps:
            raise ValueError(f"average needs a full pass: {self._rows} of {self.steps} rows read")
        return self._total / self.steps


def evolve(op: WalkOperator, steps: int = DEFAULT_STEPS, offset: int = 0) -> QuantumRankSeries:
    """Direct kernel: record the distribution at each two-step.

    The walk starts at m = 0. ``offset``, kept because the benchmark's
    tracer reads it, runs that many leading two-steps and drops their rows:
    row 0 is the distribution after ``offset`` two-steps, and ``average``
    is the mean of the rows kept.
    """
    _check_horizon(steps)
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    total = offset + steps
    stream = SeriesStream(op, total)
    _admit_walk(op.dim, op.matrix.links.nnz, total)
    inst = np.empty((total, op.dim))
    for start, block in zip(range(0, total, _BLOCK_STEPS), stream.blocks()):
        inst[start:start + len(block)] = block
    inst = inst[offset:]
    return QuantumRankSeries(inst, inst.mean(axis=0))


def _averages(ops: Sequence[WalkOperator], steps: int) -> list[np.ndarray]:
    """Mean distribution over m = 0..steps-1 of each walk of one batch,
    streamed without a history."""
    sx = sq = np.zeros(sum(op.dim for op in ops))
    for x, q in _walk(ops, steps):
        sx = np.concatenate((sx[None], x * x)).sum(axis=0)
        sq = np.concatenate((sq[None], q)).sum(axis=0)
    ends = np.cumsum([op.dim for op in ops])[:-1]
    return [(op.matrix.matvec(x) + q) / steps
            for op, x, q in zip(ops, np.split(sx, ends), np.split(sq, ends))]


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
    _check_horizon(steps)
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

    Every graph must have the same node count N. Below ``SPARSE_NODES`` the
    walks run one at a time on the dense kernel; from there on as
    block-diagonal batches of max(1, _BATCH_NODES // N) walks, whose
    operators are built only when the batch runs. A batched walk's row
    equals its single run bit for bit.
    """
    walks = list(walks)
    sizes = {g.node_count for g, _ in walks}
    if len(sizes) != 1:
        raise ValueError("walks must be non-empty and share one node count, "
                         f"got {sorted(sizes)}")
    _check_horizon(steps)
    n = sizes.pop()
    batch = 1 if n < SPARSE_NODES else max(1, _BATCH_NODES // n)
    _admit_walk(n, max(len(g.targets) for g, _ in walks), walks=min(batch, len(walks)))
    return np.array([row for i in range(0, len(walks), batch)
                     for row in _averages([walk_operator(g, a) for g, a in walks[i:i + batch]],
                                          steps)])


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
