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
import os
import re
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed."""


# Largest node count whose arc keys src * n + dst fit in int64.
MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _raise_first_bad_arc(n: int, arcs) -> None:
    """ValueError naming the first of ``arcs`` out of range or a self-loop.
    Indices may be Python ints of any size."""
    for s, d in arcs:
        s, d = int(s), int(d)
        if not (0 <= s < n and 0 <= d < n):
            raise ValueError(f"arc ({s}, {d}) out of range for {n} nodes")
        if s == d:
            raise ValueError(f"self-loop on node {s} not allowed")


class DirectedGraph:
    """A simple directed graph with contiguous node indices.

    The arcs are held in compressed sparse rows by source, as read-only
    int64 arrays: the targets of node ``i`` are
    ``targets[indptr[i]:indptr[i + 1]]`` in ascending order, so the arcs
    run sorted by (src, dst) with no duplicates. ``labels``, when present,
    gives one string per node (real-world datasets keep their identifiers).

    The constructor takes the arcs as two parallel index sequences in any
    order; parallel arcs collapse to one, and an arc out of range or a
    self-loop is a ValueError naming the first such arc. Two graphs are
    equal when node count, arcs and labels agree.
    """

    __slots__ = ("node_count", "indptr", "targets", "labels")

    def __init__(self, node_count: int, sources, targets,
                 labels: Optional[Iterable[str]] = None):
        n = int(node_count)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if n > MAX_NODES:
            raise ValueError(f"graph of {n} nodes exceeds the limit of {MAX_NODES}")
        try:
            src = np.asarray(sources, dtype=np.int64).reshape(-1)
            dst = np.asarray(targets, dtype=np.int64).reshape(-1)
        except OverflowError:
            _raise_first_bad_arc(n, zip(sources, targets))
            raise
        if src.shape != dst.shape:
            raise ValueError("sources and targets must have the same length")
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n) | (src == dst)
        if bad.any():
            first = int(bad.argmax())
            _raise_first_bad_arc(n, [(src[first], dst[first])])
        labels = None if labels is None else tuple(labels)
        if labels is not None and len(labels) != n:
            raise ValueError("labels must cover every node")
        keys = np.unique(src * n + dst)  # below n * n, which fits in int64
        src = keys // n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        for name, value in (("node_count", n), ("indptr", _frozen(indptr)),
                            ("targets", _frozen(keys - src * n)), ("labels", labels)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: DirectedGraph is immutable")

    def __reduce__(self):
        return DirectedGraph, (self.node_count, self.sources(), self.targets, self.labels)

    @classmethod
    def from_arcs(cls, node_count: int, arcs: Iterable[tuple[int, int]],
                  labels: Optional[Iterable[str]] = None) -> "DirectedGraph":
        """Graph from an iterable of (src, dst) pairs."""
        arcs = list(arcs)
        try:
            pairs = np.array(arcs, dtype=np.int64)
        except OverflowError:
            _raise_first_bad_arc(int(node_count), arcs)
            raise
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("arcs must be (src, dst) pairs")
        return cls(node_count, pairs[:, 0], pairs[:, 1], labels)

    def sources(self) -> np.ndarray:
        """Source of each arc, aligned with ``targets``."""
        return np.repeat(np.arange(self.node_count, dtype=np.int64), self.out_degrees())

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.targets, minlength=self.node_count).astype(np.int64, copy=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (self.node_count == other.node_count and self.labels == other.labels
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.targets, other.targets))

    def __hash__(self) -> int:
        return hash((self.node_count, self.labels, self.indptr.tobytes(),
                     self.targets.tobytes()))

    def __repr__(self) -> str:
        return (f"DirectedGraph(node_count={self.node_count}, arc_count={len(self.targets)}, "
                f"labelled={self.labels is not None})")


def remove_nodes(g: DirectedGraph, victims: Iterable[int]) -> tuple[DirectedGraph, tuple[int, ...]]:
    """Induced subgraph on the non-victim nodes.

    Returns the reindexed subgraph and the survivor map: entry i is the
    original index of new node i.
    """
    victim_list = [int(v) for v in victims]
    for v in victim_list:
        if not 0 <= v < g.node_count:
            raise IndexError(f"victim {v} out of range")
    alive = np.ones(g.node_count, dtype=bool)
    alive[victim_list] = False
    survivors = np.flatnonzero(alive)
    if not len(survivors):
        raise ValueError("cannot remove every node")
    new_index = np.cumsum(alive) - 1
    src, dst = g.sources(), g.targets
    kept = alive[src] & alive[dst]
    labels = None if g.labels is None else [g.labels[i] for i in survivors.tolist()]
    return (DirectedGraph(len(survivors), new_index[src[kept]], new_index[dst[kept]], labels),
            tuple(survivors.tolist()))


def graph_digest(g: DirectedGraph) -> str:
    """Short content hash of the arc structure, for provenance records: the
    sha256 of :func:`to_edge_list`, fed its chunks of lines as they are made,
    so the edge list is never joined."""
    digest = hashlib.sha256()
    for chunk in edge_list_lines(g):
        digest.update(chunk.encode())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# file formats

def _is_index(token: str) -> bool:
    """True for a token of ASCII digits only (``str.isdigit`` also accepts
    characters such as superscripts that ``int`` rejects)."""
    return token.isascii() and token.isdigit()


_SATURATED = np.iinfo(np.int64).max


def _indices(tokens: list[str]) -> np.ndarray:
    """ASCII-digit tokens as int64, converted in bulk. A value too large for
    int64 saturates at ``_SATURATED``, out of range for every graph."""
    return np.fromstring(" ".join(tokens), dtype=np.int64, sep=" ")


def _missing_text(present: np.ndarray) -> str:
    """The first ten indices below ``present[-1]`` absent from the sorted,
    distinct, nonnegative ``present``. The k-th missing index is below
    ``len(present) + k``, so a short range holds all ten."""
    missing = np.setdiff1d(np.arange(len(present) + 10), present)
    missing = missing[missing < present[-1]][:10].tolist()
    more = int(present[-1]) + 1 - len(present) > 10
    return f"{missing} and more" if more else str(missing)


_MAX_DIGITS = len(str(MAX_NODES))


def _number(token: str) -> int:
    """An ASCII-digit token as an int, or ``MAX_NODES + 1`` when it has more
    significant digits than ``MAX_NODES``: such a number is out of range for
    every graph, and ``int`` refuses tokens beyond 4300 digits, leading
    zeros included."""
    digits = token.lstrip("0")
    return MAX_NODES + 1 if len(digits) > _MAX_DIGITS else int(digits or "0")


def _shown(token: str) -> str:
    """An ASCII-digit token as its number's text for a message, cut short
    past 40 digits."""
    digits = token.lstrip("0") or "0"
    return digits if len(digits) <= 40 else f"{digits[:20]}... ({len(digits)} digits)"


def _vertex_count(lineno: int, token: str) -> int:
    count = _number(token)
    if count < 1:
        raise GraphFormatError(f"line {lineno}: graph needs at least one vertex")
    if count > MAX_NODES:
        raise GraphFormatError(f"line {lineno}: vertex count {_shown(token)} exceeds the limit "
                               f"of {MAX_NODES}")
    return count


_VERTEX_DIRECTIVE = re.compile(r"#\s*vertices:\s*(\d+)\s*$", re.IGNORECASE | re.ASCII)


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse a whitespace-separated ``src dst`` edge list.

    Lines starting with ``#`` are comments; a ``# vertices: N`` comment
    (written by :func:`to_edge_list`) pins the node count so graphs with
    isolated nodes survive a round trip. Tokens are either all integers,
    used directly as node indices, or arbitrary strings mapped to indices
    in order of first appearance. The vertex-count comment may appear at
    most once, and only in an integer list: a labelled list takes its nodes
    from the arcs.
    """
    declared = directive_line = None
    tokens: list[str] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw
        if "#" in raw:
            m = _VERTEX_DIRECTIVE.match(raw.strip())
            if m:
                if directive_line is not None:
                    raise GraphFormatError(f"line {lineno}: second '# vertices:' directive "
                                           f"(the first is on line {directive_line})")
                declared, directive_line = _vertex_count(lineno, m.group(1)), lineno
                continue
            body = raw.split("#", 1)[0]
        pair = body.split()
        if not pair:
            continue
        if len(pair) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'src dst', got {raw.strip()!r}")
        if pair[0] == pair[1]:
            raise GraphFormatError(f"line {lineno}: self-loop on {pair[0]!r} not allowed")
        tokens += pair
        linenos.append(lineno)

    if not linenos:
        if declared is not None:
            return DirectedGraph(declared, [], [])
        raise GraphFormatError("no nodes: input contains no arcs")

    if _is_index("".join(tokens)):
        ends = _indices(tokens)
        loops = np.flatnonzero((ends[0::2] == ends[1::2]) & (ends[0::2] != _SATURATED))
        if len(loops):
            first = int(loops[0])
            raise GraphFormatError(
                f"line {linenos[first]}: self-loop on {tokens[2 * first]} not allowed")
        if declared is None:
            present = np.unique(ends)
            if len(present) != int(present[-1]) + 1:
                raise GraphFormatError(
                    f"node indices not contiguous, missing {_missing_text(present)}")
            declared = len(present)
        top = int(ends.argmax())
        if ends[top] >= declared:
            raise GraphFormatError(f"line {linenos[top // 2]}: arc references node "
                                   f"{_shown(tokens[top])} but only {declared} vertices "
                                   "are declared")
        return DirectedGraph(declared, ends[0::2], ends[1::2])

    if directive_line is not None:
        raise GraphFormatError(f"line {directive_line}: '# vertices:' directive in a labelled "
                               "edge list, whose nodes come from its arcs")
    index: dict[str, int] = {}
    ends = np.fromiter((index.setdefault(tok, len(index)) for tok in tokens),
                       dtype=np.int64, count=len(tokens))
    labels = tuple(index)  # insertion order = first appearance
    return DirectedGraph(len(index), ends[0::2], ends[1::2], labels)


# Arc lines the graph writers render with one % call.
_ARC_CHUNK = 4096


def _arc_lines(g: DirectedGraph, base: int) -> Iterator[str]:
    """The arcs sorted by (src, dst) as ``"src dst\n"`` lines, ends counted
    from ``base``, in chunks of ``_ARC_CHUNK`` lines made by one % call each."""
    src, dst = g.sources(), g.targets
    for start in range(0, len(dst), _ARC_CHUNK):
        ends = np.column_stack((src[start:start + _ARC_CHUNK], dst[start:start + _ARC_CHUNK]))
        yield ("%d %d\n" * len(ends)) % tuple((ends + base).ravel().tolist())


def edge_list_lines(g: DirectedGraph) -> Iterator[str]:
    """Canonical edge list in chunks of lines: the vertex-count comment, then
    the arcs sorted by (src, dst), ``_ARC_CHUNK`` lines per chunk.

    Labels are not representable here; use the Pajek format to keep them.
    """
    return chain([f"# vertices: {g.node_count}\n"], _arc_lines(g, 0))


def to_edge_list(g: DirectedGraph) -> str:
    """The lines of :func:`edge_list_lines` as one string."""
    return "".join(edge_list_lines(g))


_PAJEK_VERTEX = re.compile(r'^(\d+)(?:\s+"([^"]*)")?\s*$', re.ASCII)


def _pajek_arcs(tokens: list[str], linenos: list[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based ends of the Pajek arc lines read so far (ASCII-digit tokens),
    or the GraphFormatError of the first arc out of range or a self-loop."""
    ends = _indices(tokens)
    src, dst = ends[0::2], ends[1::2]
    bad = (src < 1) | (src > n) | (dst < 1) | (dst > n) | (src == dst)
    if bad.any():
        first = int(bad.argmax())
        lineno = linenos[first]
        s, d = tokens[2 * first], tokens[2 * first + 1]
        if not (1 <= _number(s) <= n and 1 <= _number(d) <= n):
            raise GraphFormatError(f"line {lineno}: arc {_shown(s)}->{_shown(d)} references "
                                   "undeclared vertex")
        raise GraphFormatError(f"line {lineno}: self-loop on vertex {_shown(s)} not allowed")
    return src - 1, dst - 1


def parse_pajek(text: str) -> DirectedGraph:
    """Parse the ``*Vertices`` / ``*Arcs`` subset of the Pajek format.

    Vertex ids are 1-based on disk and shifted to 0-based. Vertex label
    lines are optional; when only some vertices carry labels the rest
    default to their 1-based id. There is exactly one ``*Vertices`` header.
    """
    n = vertices_line = None
    labels: dict[int, str] = {}
    seen_vertices: set[int] = set()
    tokens: list[str] = []
    linenos: list[int] = []
    section = None
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line[0] == "%":
                continue
            if section == "arcs" and line[0] != "*":
                pair = line.split()
                if len(pair) != 2 or not _is_index(pair[0] + pair[1]):
                    raise GraphFormatError(f"line {lineno}: malformed arc line {line!r}")
                tokens += pair
                linenos.append(lineno)
                continue
            low = line.lower()
            if low.startswith("*vertices"):
                if vertices_line is not None:
                    raise GraphFormatError(f"line {lineno}: second *Vertices header "
                                           f"(the first is on line {vertices_line})")
                parts = line.split()
                if len(parts) < 2 or not _is_index(parts[1]):
                    raise GraphFormatError(f"line {lineno}: malformed *Vertices header")
                n, vertices_line = _vertex_count(lineno, parts[1]), lineno
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
                    raise GraphFormatError(f"line {lineno}: malformed vertex line {line!r}")
                vid = _number(m.group(1))
                if not 1 <= vid <= n:
                    raise GraphFormatError(f"line {lineno}: vertex id {_shown(m.group(1))} "
                                           f"outside 1..{n}")
                if vid in seen_vertices:
                    raise GraphFormatError(f"line {lineno}: duplicate vertex id {vid}")
                seen_vertices.add(vid)
                if m.group(2) is not None:
                    labels[vid] = m.group(2)
            else:
                raise GraphFormatError(f"line {lineno}: content before *Vertices header")
    except GraphFormatError:
        # Arc ranges and self-loops are checked in bulk, after the loop; an
        # arc line before the one that failed may be bad too, and it wins.
        if n is not None:
            _pajek_arcs(tokens, linenos, n)
        raise
    if n is None:
        raise GraphFormatError("missing *Vertices header")
    src, dst = _pajek_arcs(tokens, linenos, n)
    label_tuple = None
    if labels:
        label_tuple = tuple(labels.get(i + 1, str(i + 1)) for i in range(n))
    return DirectedGraph(n, src, dst, label_tuple)


# Blank lines and % comment lines, which parse_pajek skips before *Vertices;
# the character class holds every line break str.splitlines knows.
_PAJEK_PREAMBLE = re.compile(r"(?:\s+|%[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)*")


def parse_graph(text: str) -> DirectedGraph:
    """Parse Pajek when the first line :func:`parse_pajek` does not skip
    opens ``*Vertices``, and an edge list otherwise, after a leading
    byte-order mark (U+FEFF), which is no part of the graph, is dropped."""
    text = text.removeprefix("\ufeff")
    head = _PAJEK_PREAMBLE.match(text).end()
    if text[head:head + 9].lower() == "*vertices":
        return parse_pajek(text)
    return parse_edge_list(text)


def to_pajek(g: DirectedGraph) -> str:
    """Emit the Pajek subset understood by :func:`parse_pajek` (keeps labels).

    Raises ValueError for a label that a quoted vertex line cannot hold: one
    containing a double quote or a line break.
    """
    lines = [f"*Vertices {g.node_count}\n"]
    if g.labels is not None:
        for i, label in enumerate(g.labels):
            if '"' in label or "".join(label.splitlines()) != label:
                raise ValueError(f"vertex {i + 1} label {label!r} cannot be written to Pajek: "
                                 "labels may not contain '\"' or line breaks")
        lines.extend(f'{i + 1} "{label}"\n' for i, label in enumerate(g.labels))
    lines.append("*Arcs\n")
    lines.extend(_arc_lines(g, 1))
    return "".join(lines)


# ---------------------------------------------------------------------------
# generators

def generate(model: str, size: int, seed: Optional[int] = None) -> DirectedGraph:
    """The ``model`` network of the given size: ``scalefree`` (``size``
    nodes, from ``seed``, 0 when None), ``hierarchical`` (generation
    ``size``) or ``tree`` (``size`` levels). The last two are not random,
    so they refuse a seed rather than ignore it."""
    if model == "scalefree":
        return generate_scale_free(size, 0 if seed is None else seed)
    build = {"hierarchical": generate_hierarchical, "tree": generate_binary_tree}.get(model)
    if build is None:
        raise ValueError(f"unknown model {model!r}; expected one of "
                         "['hierarchical', 'scalefree', 'tree']")
    if seed is not None:
        raise ValueError(f"the {model} family is not random and takes no seed")
    return build(size)


_EPS = float(np.finfo(np.float64).eps)
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
        if (pos < k and target - lower > margin
                and lower + self.degree[pos] + delta - target > margin):
            return pos
        return _numpy_pick(np.array(self.degree[:k], dtype=np.float64) + delta, u)


def _uniforms(rng: np.random.Generator):
    """rng.random() values in call order, drawn in blocks."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


# Directed preferential attachment of Bollobas, Borgs, Chayes & Riordan (2003)
# with the constants of Paparo et al. (2013): event mix and degree offsets.
_MIX = (0.41, 0.54, 0.05)
_DELTA_IN = 0.2
_DELTA_OUT = 0.0
# Peak bytes per node of generate_scale_free (tracemalloc: 315 at 10**5, 319 at 2 * 10**5).
_SCALE_FREE_NODE_BYTES = 320


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _admit(need: int, what: str, verb: str) -> None:
    """MemoryError, before anything is allocated, when ``what`` takes about
    ``need`` bytes to ``verb``, more than physical memory; nothing is refused
    where the platform reports no memory figure."""
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise MemoryError(f"{what} takes about {need} bytes to {verb}, "
                          f"more than the {memory} bytes of physical memory")


def generate_scale_free(n: int, seed: int) -> DirectedGraph:
    """Directed preferential-attachment graph with ``n`` nodes.

    Growth process: starting from a directed 3-cycle, each event is, with
    probability 0.41, a new node with an arc to an existing node chosen by
    in-degree + 0.2; with 0.54, an arc between existing nodes chosen by
    out-degree and by in-degree + 0.2; with 0.05, a new node receiving an
    arc from an existing node chosen by out-degree. Parallel arcs are
    collapsed and self-loops dropped, so the result is a simple digraph.
    The same (n, seed) always yields the same arc set.

    Each event costs O(log n), and the random stream is consumed exactly as
    one ``rng.random()`` for the event type followed by one
    ``rng.choice(k, p=w / w.sum())`` per attachment would consume it, with
    the same picks.
    """
    if not 3 <= n <= MAX_NODES:
        raise ValueError(f"scale-free generator needs between 3 and {MAX_NODES} nodes")
    _admit(n * _SCALE_FREE_NODE_BYTES, f"a scale-free graph of {n} nodes", "generate")
    draw = _uniforms(np.random.default_rng(seed)).__next__
    p_new_out, p_internal, _ = _MIX

    sources, targets = [0, 1, 2], [1, 2, 0]
    by_in = _DegreeSampler(n, _DELTA_IN)
    by_out = _DegreeSampler(n, _DELTA_OUT)
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
        sources.append(src)
        targets.append(dst)
        by_out.add(src)
        by_in.add(dst)

    src, dst = np.array(sources), np.array(targets)
    simple = src != dst
    return DirectedGraph(n, src[simple], dst[simple])


def generate_hierarchical(generation: int) -> DirectedGraph:
    """Recursive modular digraph with 3**generation nodes.

    Generation 1 is the directed 3-cycle 0->1->2->0. Each later generation
    takes three copies of the previous one and links the deepest-layer
    nodes of the two new copies to the global root (node 0).
    """
    if not 1 <= generation <= 6:
        raise ValueError("generation must be between 1 and 6")
    src, dst, hubs = np.array([0, 1, 2]), np.array([1, 2, 0]), np.array([1, 2])
    for level in range(1, generation):
        size = 3 ** level
        hubs = np.concatenate([hubs + size, hubs + 2 * size])
        src = np.concatenate([src, src + size, src + 2 * size, hubs])
        dst = np.concatenate([dst, dst + size, dst + 2 * size, np.zeros_like(hubs)])
    return DirectedGraph(3 ** generation, src, dst)


# Deepest tree whose 2**levels - 1 nodes stay within MAX_NODES.
_MAX_LEVELS = (MAX_NODES + 1).bit_length() - 1


def generate_binary_tree(levels: int) -> DirectedGraph:
    """Directed binary tree with 2**levels - 1 nodes, arcs child -> parent.

    Node 0 is the root, children of node i are 2i+1 and 2i+2; every
    internal page links up toward the home page, so the root collects
    the inlinks and the root itself is dangling.
    """
    if not 1 <= levels <= _MAX_LEVELS:  # before the power, which could be huge
        raise ValueError(f"levels must be between 1 and {_MAX_LEVELS}: a deeper tree "
                         f"exceeds the limit of {MAX_NODES} nodes")
    n = 2 ** levels - 1
    child = np.arange(1, n)
    return DirectedGraph(n, child, (child - 1) // 2)


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
    if name not in _BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {sorted(_BENCHMARKS)}")
    n, arcs = _BENCHMARKS[name]
    return DirectedGraph.from_arcs(n, arcs)
