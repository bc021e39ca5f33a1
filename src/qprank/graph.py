"""Directed-graph model, file formats, and network generators.

Graphs are simple digraphs: no self-loops, no parallel arcs, nodes indexed
0..N-1. Two text formats are supported (plain edge lists and a Pajek
subset), plus generators for the network families used in the experiments:
directed preferential-attachment scale-free graphs, a recursive hierarchical
family built from a directed 3-cycle, directed binary trees, and a handful
of fixed benchmark graphs.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed."""


@dataclass(frozen=True)
class DirectedGraph:
    """A simple directed graph with contiguous node indices.

    ``arcs`` is a frozenset of (src, dst) pairs; ``labels``, when present,
    gives one string per node (real-world datasets keep their identifiers).
    """

    node_count: int
    arcs: frozenset[tuple[int, int]]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        for src, dst in self.arcs:
            if not (0 <= src < self.node_count and 0 <= dst < self.node_count):
                raise ValueError(f"arc ({src}, {dst}) out of range for {self.node_count} nodes")
            if src == dst:
                raise ValueError(f"self-loop on node {src} not allowed")
        if self.labels is not None and len(self.labels) != self.node_count:
            raise ValueError("labels must cover every node")

    @classmethod
    def from_arcs(cls, node_count: int, arcs: Iterable[tuple[int, int]],
                  labels: Optional[Iterable[str]] = None) -> "DirectedGraph":
        return cls(node_count, frozenset((int(s), int(d)) for s, d in arcs),
                   None if labels is None else tuple(labels))

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def out_degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count, dtype=np.int64)
        for src, _ in self.arcs:
            deg[src] += 1
        return deg

    def in_degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count, dtype=np.int64)
        for _, dst in self.arcs:
            deg[dst] += 1
        return deg


def out_degree(g: DirectedGraph, node: int) -> int:
    """Number of arcs leaving ``node``."""
    if not 0 <= node < g.node_count:
        raise IndexError(f"node {node} out of range for {g.node_count} nodes")
    return sum(1 for src, _ in g.arcs if src == node)


def remove_nodes(g: DirectedGraph, victims: Iterable[int]) -> tuple[DirectedGraph, tuple[int, ...]]:
    """Induced subgraph on the non-victim nodes.

    Returns the reindexed subgraph and the survivor map: entry i is the
    original index of new node i.
    """
    victim_set = set(int(v) for v in victims)
    for v in victim_set:
        if not 0 <= v < g.node_count:
            raise IndexError(f"victim {v} out of range")
    survivors = [i for i in range(g.node_count) if i not in victim_set]
    if not survivors:
        raise ValueError("cannot remove every node")
    new_index = {old: new for new, old in enumerate(survivors)}
    arcs = [(new_index[s], new_index[d]) for s, d in g.arcs
            if s in new_index and d in new_index]
    labels = None if g.labels is None else tuple(g.labels[i] for i in survivors)
    return DirectedGraph.from_arcs(len(survivors), arcs, labels), tuple(survivors)


def graph_digest(g: DirectedGraph) -> str:
    """Short content hash of the arc structure, for provenance records."""
    return hashlib.sha256(to_edge_list(g).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# file formats

def _is_index(token: str) -> bool:
    """True for a token of ASCII digits only (``str.isdigit`` also accepts
    characters such as superscripts that ``int`` rejects)."""
    return token.isascii() and token.isdigit()


_VERTEX_DIRECTIVE = re.compile(r"#\s*vertices:\s*(\d+)\s*$", re.IGNORECASE | re.ASCII)


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse a whitespace-separated ``src dst`` edge list.

    Lines starting with ``#`` are comments; a ``# vertices: N`` comment
    (written by :func:`to_edge_list`) pins the node count so graphs with
    isolated nodes survive a round trip. Tokens are either all integers,
    used directly as node indices, or arbitrary strings mapped to indices
    in order of first appearance.
    """
    declared = None
    pairs: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _VERTEX_DIRECTIVE.match(raw.strip())
        if m:
            declared = int(m.group(1))
            if declared < 1:
                raise GraphFormatError(f"line {lineno}: graph needs at least one vertex")
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'src dst', got {raw.strip()!r}")
        if tokens[0] == tokens[1]:
            raise GraphFormatError(f"line {lineno}: self-loop on {tokens[0]!r} not allowed")
        pairs.append((tokens[0], tokens[1], lineno))

    if not pairs:
        if declared is not None:
            return DirectedGraph.from_arcs(declared, [])
        raise GraphFormatError("no nodes: input contains no arcs")

    all_integer = all(_is_index(tok) for s, d, _ in pairs for tok in (s, d))
    if all_integer:
        arcs = []
        for s, d, lineno in pairs:
            if int(s) == int(d):
                raise GraphFormatError(f"line {lineno}: self-loop on {s} not allowed")
            arcs.append((int(s), int(d)))
        seen = {i for arc in arcs for i in arc}
        n = declared if declared is not None else max(seen) + 1
        if max(seen) >= n:
            raise GraphFormatError(
                f"arc references node {max(seen)} but only {n} vertices are declared")
        if declared is None and seen != set(range(n)):
            missing = sorted(set(range(n)) - seen)
            raise GraphFormatError(f"node indices not contiguous, missing {missing}")
        return DirectedGraph.from_arcs(n, arcs)

    index: dict[str, int] = {}
    arcs = []
    for s, d, _ in pairs:
        for tok in (s, d):
            if tok not in index:
                index[tok] = len(index)
        arcs.append((index[s], index[d]))
    labels = tuple(index)  # insertion order = first appearance
    return DirectedGraph.from_arcs(len(index), arcs, labels)


def to_edge_list(g: DirectedGraph) -> str:
    """Canonical edge list: vertex-count comment plus arcs sorted by (src, dst).

    Labels are not representable here; use the Pajek format to keep them.
    """
    lines = [f"# vertices: {g.node_count}"]
    lines.extend(f"{s} {d}" for s, d in g.sorted_arcs())
    return "\n".join(lines) + "\n"


_PAJEK_VERTEX = re.compile(r'^(\d+)(?:\s+"([^"]*)")?\s*$', re.ASCII)


def parse_pajek(text: str) -> DirectedGraph:
    """Parse the ``*Vertices`` / ``*Arcs`` subset of the Pajek format.

    Vertex ids are 1-based on disk and shifted to 0-based. Vertex label
    lines are optional; when only some vertices carry labels the rest
    default to their 1-based id.
    """
    n = None
    labels: dict[int, str] = {}
    seen_vertices: set[int] = set()
    arcs: list[tuple[int, int]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        low = line.lower()
        if low.startswith("*vertices"):
            parts = line.split()
            if len(parts) < 2 or not _is_index(parts[1]):
                raise GraphFormatError(f"line {lineno}: malformed *Vertices header")
            n = int(parts[1])
            section = "vertices"
            continue
        if low.startswith("*arcs"):
            if n is None:
                raise GraphFormatError(f"line {lineno}: *Arcs before *Vertices")
            section = "arcs"
            continue
        if line.startswith("*"):
            raise GraphFormatError(f"line {lineno}: unsupported section {line!r}")
        if section == "vertices":
            m = _PAJEK_VERTEX.match(line)
            if not m:
                raise GraphFormatError(f"line {lineno}: malformed vertex line {raw.strip()!r}")
            vid = int(m.group(1))
            if not 1 <= vid <= n:
                raise GraphFormatError(f"line {lineno}: vertex id {vid} outside 1..{n}")
            if vid in seen_vertices:
                raise GraphFormatError(f"line {lineno}: duplicate vertex id {vid}")
            seen_vertices.add(vid)
            if m.group(2) is not None:
                labels[vid] = m.group(2)
        elif section == "arcs":
            parts = line.split()
            if len(parts) != 2 or not all(_is_index(p) for p in parts):
                raise GraphFormatError(f"line {lineno}: malformed arc line {raw.strip()!r}")
            s, d = int(parts[0]), int(parts[1])
            if not (1 <= s <= n and 1 <= d <= n):
                raise GraphFormatError(f"line {lineno}: arc {s}->{d} references undeclared vertex")
            if s == d:
                raise GraphFormatError(f"line {lineno}: self-loop on vertex {s} not allowed")
            arcs.append((s - 1, d - 1))
        else:
            raise GraphFormatError(f"line {lineno}: content before *Vertices header")
    if n is None:
        raise GraphFormatError("missing *Vertices header")
    if n < 1:
        raise GraphFormatError("graph needs at least one vertex")
    label_tuple = None
    if labels:
        label_tuple = tuple(labels.get(i + 1, str(i + 1)) for i in range(n))
    return DirectedGraph.from_arcs(n, arcs, label_tuple)


def to_pajek(g: DirectedGraph) -> str:
    """Emit the Pajek subset understood by :func:`parse_pajek` (keeps labels).

    Raises ValueError for a label that a quoted vertex line cannot hold: one
    containing a double quote or a line break.
    """
    lines = [f"*Vertices {g.node_count}"]
    if g.labels is not None:
        for i, label in enumerate(g.labels):
            if '"' in label or "".join(label.splitlines()) != label:
                raise ValueError(f"vertex {i + 1} label {label!r} cannot be written to Pajek: "
                                 "labels may not contain '\"' or line breaks")
        lines.extend(f'{i + 1} "{label}"' for i, label in enumerate(g.labels))
    lines.append("*Arcs")
    lines.extend(f"{s + 1} {d + 1}" for s, d in g.sorted_arcs())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators

def _check_delta(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class GeneratorParams:
    """Parameters selecting one deterministic network instance.

    ``model`` is one of ``scalefree``, ``hierarchical``, ``tree``. The
    scale-free mix gives the probabilities of the three growth events
    (new node with out-arc, arc between existing nodes, new node with
    in-arc) plus the degree smoothing offsets.
    """

    model: str
    size: int
    seed: int = 0
    mix: tuple[float, float, float] = (0.41, 0.54, 0.05)
    delta_in: float = 0.2
    delta_out: float = 0.0
    toward_root: bool = True

    def __post_init__(self):
        if self.model not in ("scalefree", "hierarchical", "tree"):
            raise ValueError(f"unknown model {self.model!r}")
        if len(self.mix) != 3 or any(p < 0 for p in self.mix) or abs(sum(self.mix) - 1.0) > 1e-12:
            raise ValueError("mix probabilities must be nonnegative and sum to 1")
        _check_delta("delta_in", self.delta_in)
        _check_delta("delta_out", self.delta_out)


def generate(params: GeneratorParams) -> DirectedGraph:
    """Dispatch to the generator named by ``params.model``."""
    if params.model == "scalefree":
        return generate_scale_free(params.size, params.seed, mix=params.mix,
                                   delta_in=params.delta_in, delta_out=params.delta_out)
    if params.model == "hierarchical":
        return generate_hierarchical(params.size, toward_root=params.toward_root)
    return generate_binary_tree(params.size)


_EPS = float(np.finfo(np.float64).eps)
_SAFE_TOTAL = 2.0 ** 1022  # numpy's weight sum cannot overflow below this
_UNIFORM_BLOCK = 8192


def _numpy_pick(weights: np.ndarray, u: float) -> int:
    """The index ``Generator.choice(len(weights), p=weights / weights.sum())``
    returns when its one uniform draw is ``u``."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


class _DegreeSampler:
    """Picks a node with probability proportional to degree + delta in O(log N).

    Degrees are exact integers in a Fenwick tree and the delta of each
    active node is added analytically, so every prefix weight is within a
    few roundings of exact. numpy's cdf (``w / w.sum()``, ``cumsum``,
    ``/ cdf[-1]``) lies within (k + 3) eps of the exact prefix ratios for k
    active nodes, whatever its summation order. A pick whose scaled draw is
    farther than four times that from both cdf boundaries around it is
    therefore the node ``rng.choice`` returns; any other draw is recomputed
    with numpy's own formula.
    """

    def __init__(self, capacity: int, delta: float):
        self.delta = delta
        self.degree = [0] * capacity
        self.tree = [0] * (capacity + 1)  # 1-based: tree[i] sums degree[i - (i & -i):i]
        self.top = 1 << (capacity.bit_length() - 1)
        self.total = 0

    def add(self, node: int) -> None:
        self.degree[node] += 1
        self.total += 1
        tree, size = self.tree, len(self.tree)
        i = node + 1
        while i < size:
            tree[i] += 1
            i += i & -i

    def pick(self, u: float, k: int) -> int:
        """The node ``rng.choice`` picks among the first ``k`` for draw ``u``."""
        delta, tree = self.delta, self.tree
        total = self.total + k * delta
        target = u * total
        pos = below = 0  # the first pos nodes weigh at most target; below is their degree sum
        step = self.top
        while step:
            nxt = pos + step
            if nxt <= k and below + tree[nxt] + nxt * delta <= target:
                pos = nxt
                below += tree[nxt]
            step >>= 1
        lower = below + pos * delta
        margin = 4 * (k + 8) * _EPS * total
        if (total < _SAFE_TOTAL and pos < k and target - lower > margin
                and lower + self.degree[pos] + delta - target > margin):
            return pos
        weights = np.array(self.degree[:k], dtype=np.float64) + delta
        if not np.isfinite(weights.sum()):
            raise ValueError("attachment weights overflow float64")
        return _numpy_pick(weights, u)


def _uniforms(rng: np.random.Generator):
    """rng.random() values in call order, drawn in blocks."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def generate_scale_free(n: int, seed: int,
                        mix: tuple[float, float, float] = (0.41, 0.54, 0.05),
                        delta_in: float = 0.2,
                        delta_out: float = 0.0) -> DirectedGraph:
    """Directed preferential-attachment graph with ``n`` nodes.

    Growth process: starting from a directed 3-cycle, each event is, with
    probability mix[0], a new node with an arc to an existing node chosen
    by in-degree; with mix[1], an arc between existing nodes chosen by
    out-degree and in-degree; with mix[2], a new node receiving an arc
    from an existing node chosen by out-degree. ``delta_in``/``delta_out``
    smooth the attachment weights and must be finite and nonnegative.
    Parallel arcs are collapsed and self-loops dropped, so the result is a
    simple digraph. The same (n, seed, mix) always yields the same arc set.

    Each event costs O(log n), and the random stream is consumed exactly as
    one ``rng.random()`` for the event type followed by one
    ``rng.choice(k, p=w / w.sum())`` per attachment would consume it, with
    the same picks.
    """
    if n < 3:
        raise ValueError("scale-free generator needs at least 3 nodes")
    if len(mix) != 3 or any(p < 0 for p in mix) or abs(sum(mix) - 1.0) > 1e-12:
        raise ValueError("mix probabilities must be nonnegative and sum to 1")
    _check_delta("delta_in", delta_in)
    _check_delta("delta_out", delta_out)
    draw = _uniforms(np.random.default_rng(seed)).__next__
    p_new_out, p_internal, _ = mix

    multi_arcs: list[tuple[int, int]] = [(0, 1), (1, 2), (2, 0)]
    by_in = _DegreeSampler(n, delta_in)
    by_out = _DegreeSampler(n, delta_out)
    for node in range(3):
        by_in.add(node)
        by_out.add(node)
    node_count = 3

    while node_count < n:
        r = draw()
        if r < p_new_out:
            dst = by_in.pick(draw(), node_count)
            src = node_count
            node_count += 1
        elif r < p_new_out + p_internal:
            src = by_out.pick(draw(), node_count)
            dst = by_in.pick(draw(), node_count)
        else:
            src = by_out.pick(draw(), node_count)
            dst = node_count
            node_count += 1
        multi_arcs.append((src, dst))
        by_out.add(src)
        by_in.add(dst)

    arcs = {(s, d) for s, d in multi_arcs if s != d}
    return DirectedGraph.from_arcs(n, arcs)


def _bottom_layer(generation: int) -> list[int]:
    """Deepest-level nodes of the hierarchical graph of a given generation."""
    if generation == 1:
        return [1, 2]
    size = 3 ** (generation - 1)
    inner = _bottom_layer(generation - 1)
    return [size + b for b in inner] + [2 * size + b for b in inner]


def generate_hierarchical(generation: int, toward_root: bool = True) -> DirectedGraph:
    """Recursive modular digraph with 3**generation nodes.

    Generation 1 is the directed 3-cycle 0->1->2->0. Each later generation
    takes three copies of the previous one and wires the deepest-layer
    nodes of the two new copies to the global root (node 0), toward the
    root by default; ``toward_root=False`` reverses those connecting arcs.
    """
    if not 1 <= generation <= 6:
        raise ValueError("generation must be between 1 and 6")
    arcs: set[tuple[int, int]] = {(0, 1), (1, 2), (2, 0)}
    for level in range(1, generation):
        size = 3 ** level
        copies = {(s + off, d + off) for off in (size, 2 * size) for s, d in arcs}
        arcs |= copies
        for b in _bottom_layer(level):
            for off in (size, 2 * size):
                node = b + off
                arcs.add((node, 0) if toward_root else (0, node))
    return DirectedGraph.from_arcs(3 ** generation, arcs)


def generate_binary_tree(levels: int) -> DirectedGraph:
    """Directed binary tree with 2**levels - 1 nodes, arcs child -> parent.

    Node 0 is the root, children of node i are 2i+1 and 2i+2; every
    internal page links up toward the home page, so the root collects
    the inlinks and the root itself is dangling.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    n = 2 ** levels - 1
    arcs = [(child, (child - 1) // 2) for child in range(1, n)]
    return DirectedGraph.from_arcs(n, arcs)


# Fixed small graphs used as ground truth in the tests. fig1b is the two-node
# web again: its dangling patch lives at matrix level, not in the arc set.
_BENCHMARKS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "fig1a": (2, ((0, 1),)),
    "fig1b": (2, ((0, 1),)),
    "fig1c": (4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    "fig1d": (4, ((0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 3), (3, 2))),
    "fig2b": (7, ((0, 5), (1, 3), (1, 5), (2, 0), (2, 4), (2, 5), (3, 0),
                  (4, 0), (4, 2), (4, 3), (4, 5), (5, 0), (6, 1))),
}


def benchmark_graph(name: str) -> DirectedGraph:
    """One of the fixed benchmark graphs: fig1a, fig1b, fig1c, fig1d, fig2b."""
    key = name.lower()
    if key not in _BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {sorted(_BENCHMARKS)}")
    n, arcs = _BENCHMARKS[key]
    return DirectedGraph.from_arcs(n, arcs)
