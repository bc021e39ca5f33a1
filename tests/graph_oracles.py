"""Tuple-based references for the array-backed graph model.

These are the set-of-pairs constructions the package used before
``DirectedGraph`` held sorted int arrays: one Python step per arc, read
through ``arc_set``. The array code must reproduce them exactly. Also the
dense second eigenvalue of the Google matrix, which the package does not use.
"""

import numpy as np
import scipy.sparse as sp


def arc_set(g):
    """The arcs of ``g`` as a frozenset of (src, dst) pairs."""
    return frozenset(zip(g.sources().tolist(), g.targets.tolist()))


def reference_arc_set(node_count, arcs):
    """The validated, deduplicated arc set, checking arcs one at a time."""
    if node_count < 1:
        raise ValueError("graph needs at least one node")
    arc_set = frozenset((int(s), int(d)) for s, d in arcs)
    for src, dst in arc_set:
        if not (0 <= src < node_count and 0 <= dst < node_count):
            raise ValueError(f"arc ({src}, {dst}) out of range for {node_count} nodes")
        if src == dst:
            raise ValueError(f"self-loop on node {src} not allowed")
    return arc_set


def reference_degrees(g):
    out_deg = np.zeros(g.node_count, dtype=np.int64)
    in_deg = np.zeros(g.node_count, dtype=np.int64)
    for src, dst in arc_set(g):
        out_deg[src] += 1
        in_deg[dst] += 1
    return out_deg, in_deg


def reference_hyperlink(g):
    """H[i, j] = 1/outdeg(j) for every arc j -> i, built from sorted tuples."""
    n = g.node_count
    out_deg, _ = reference_degrees(g)
    arcs = sorted(arc_set(g))
    rows = np.array([d for _, d in arcs], dtype=np.int64)
    cols = np.array([s for s, _ in arcs], dtype=np.int64)
    data = 1.0 / out_deg[cols] if len(arcs) else np.zeros(0)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def second_eigenvalue_modulus(gm):
    """|lambda_2| of a ``GoogleMatrix``, densified, via the full small spectrum."""
    if gm.dim < 2:
        raise ValueError("need at least 2 nodes for a second eigenvalue")
    eigvals = np.linalg.eigvals(gm.dense())
    moduli = np.sort(np.abs(eigvals))[::-1]
    return float(moduli[1])


def reference_remove_nodes(g, victims):
    """(node count, arc set, labels, survivors) of the induced subgraph."""
    victim_set = set(int(v) for v in victims)
    survivors = [i for i in range(g.node_count) if i not in victim_set]
    new_index = {old: new for new, old in enumerate(survivors)}
    arcs = frozenset((new_index[s], new_index[d]) for s, d in arc_set(g)
                     if s in new_index and d in new_index)
    labels = None if g.labels is None else tuple(g.labels[i] for i in survivors)
    return len(survivors), arcs, labels, tuple(survivors)


def reference_hierarchical_arcs(generation):
    """The hierarchical graph's arc set, built copy by copy: the deepest nodes
    of each generation are those of the one before, moved into its two new
    copies, and each new generation links them to node 0."""
    arcs, deepest = {(0, 1), (1, 2), (2, 0)}, [1, 2]
    for level in range(1, generation):
        size = 3 ** level
        deepest = [c * size + b for c in (1, 2) for b in deepest]
        arcs = {(s + c * size, t + c * size) for c in range(3) for s, t in arcs}
        arcs |= {(b, 0) for b in deepest}
    return arcs
