"""Ranking analysis: localization, damping stability, scaling, attacks.

Every function here treats a ranking as a probability vector over nodes and
works identically for classical and quantum rank vectors. The ensemble
helpers generate their own seeded scale-free instances so experiments are
replayable from a single seed.

Rank correlation is Kendall's tau-b, computed as Knight (JASA 61:436, 1966)
does and as ``scipy.stats.kendalltau`` does: sort the pairs by (x, y), count
the discordant pairs as the inversions of the y sequence, and correct for
ties from exact integer counts. The inversions are counted by a
most-significant-bit-first radix sort in numpy, so the module needs
nothing from ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import DirectedGraph, generate_scale_free, remove_nodes
from .pagerank import DEFAULT_ALPHA, classical_pagerank
from .szegedy import DEFAULT_STEPS, quantum_pageranks

NORMALIZATION_TOL = 1e-8


def _checked(p: np.ndarray, name: str = "distribution") -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if np.any(p < -NORMALIZATION_TOL):
        raise ValueError(f"{name} has negative entries")
    if not abs(p.sum() - 1.0) <= NORMALIZATION_TOL:  # NaN fails it too
        raise ValueError(f"{name} is not normalized (sum {float(p.sum())!r})")
    return p


def _rank_vectors(walks: Sequence[tuple[DirectedGraph, float]], ranker: str,
                  steps: int) -> np.ndarray:
    """The named ranker's vector of each ``(graph, alpha)`` pair of one node
    count, one row each: classical, quantum (the walks run as batches), or
    uniform (control)."""
    if ranker == "classical":
        return np.array([classical_pagerank(g, a) for g, a in walks])
    if ranker == "quantum":
        return quantum_pageranks(walks, steps)
    if ranker == "uniform":
        return np.array([np.full(g.node_count, 1.0 / g.node_count) for g, _ in walks])
    raise ValueError(f"unknown ranker {ranker!r}")


def rank_vector(g: DirectedGraph, ranker: str, alpha: float = DEFAULT_ALPHA,
                steps: int = DEFAULT_STEPS) -> np.ndarray:
    """The named ranker's vector of one graph at damping ``alpha``."""
    return _rank_vectors([(g, alpha)], ranker, steps)[0]


def ipr(p: np.ndarray) -> float:
    """Inverse participation ratio 1 / sum(p_i^2).

    Ranges from 1 (all mass on one node) to N (uniform); read it as the
    effective number of occupied nodes.
    """
    p = _checked(p)
    return float(1.0 / np.square(p).sum())


def fidelity(p: np.ndarray, q: np.ndarray) -> float:
    """Bhattacharyya overlap sum_i sqrt(p_i q_i) between two distributions."""
    p = _checked(p, "p")
    q = _checked(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return float(np.sqrt(np.clip(p, 0, None) * np.clip(q, 0, None)).sum())


@dataclass(frozen=True, eq=False)
class FidelitySweep:
    """Rankings over a damping grid and their pairwise fidelities."""

    alpha_grid: tuple[float, ...]
    rank_vectors: np.ndarray  # one row per alpha
    pairwise: np.ndarray
    min_fidelity: float


def damping_sweep(g: DirectedGraph, alpha_grid: Sequence[float], ranker: str = "classical",
                  steps: int = DEFAULT_STEPS) -> FidelitySweep:
    """Rank at every damping value and compare all pairs of rankings.

    The quantum walks of the grid run as batches (``quantum_pageranks``).
    """
    grid = tuple(float(a) for a in alpha_grid)
    if not grid:
        raise ValueError("alpha grid is empty")
    if any(not 0.0 < a < 1.0 for a in grid):
        raise ValueError("alpha grid values must lie in (0, 1)")
    vectors = _rank_vectors([(g, a) for a in grid], ranker, steps)
    k = len(grid)
    pairwise = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            pairwise[i, j] = pairwise[j, i] = fidelity(vectors[i], vectors[j])
    return FidelitySweep(grid, vectors, pairwise, float(pairwise.min()))


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line through (log rank, log value) on the sorted ranks."""

    exponent: float
    intercept: float
    r_squared: float
    fitted_range: tuple[int, int]


def power_law_fit(p: np.ndarray, fit_range: Optional[tuple[int, int]] = None) -> PowerLawFit:
    """Fit value ~ rank^(-beta) to the descending-sorted entries of ``p``.

    Without an explicit ``fit_range`` the fit uses the strictly positive
    values minus the final 5%, where discreteness bends the curve.
    ``fit_range`` is a half-open index interval into the sorted list; zeros
    inside it are an error since their log is undefined.
    """
    values = np.sort(np.asarray(p, dtype=np.float64))[::-1]
    if fit_range is None:
        positive = int((values > 0).sum())
        end = max(5, int(np.floor(positive * 0.95)))
        fit_range = (0, min(end, positive))
    start, end = fit_range
    if not 0 <= start < end <= len(values):
        raise ValueError(f"invalid fit range {fit_range}")
    window = values[start:end]
    if len(window) < 5:
        raise ValueError("need at least 5 values to fit")
    if np.any(window <= 0):
        raise ValueError("fit range contains non-positive values")
    log_rank = np.log(np.arange(start + 1, end + 1, dtype=np.float64))
    log_val = np.log(window)
    slope, intercept = np.polyfit(log_rank, log_val, 1)
    predicted = slope * log_rank + intercept
    ss_res = float(np.square(log_val - predicted).sum())
    ss_tot = float(np.square(log_val - log_val.mean()).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(float(-slope), float(intercept), r_squared, (start, end))


@dataclass(frozen=True)
class DegeneracyProfile:
    """Groups of near-equal values in a ranking, in descending value order."""

    class_count: int
    class_sizes: tuple[int, ...]


def degeneracy_profile(p: np.ndarray, delta: float) -> DegeneracyProfile:
    """Partition the sorted values into classes of relative spacing < delta.

    Walking down the sorted list, a new class starts whenever the drop to
    the next value is at least ``delta`` relative to the current one. More
    classes mean the ranking distinguishes more nodes; ties collapse into
    large classes.
    """
    if not delta > 0:  # also rejects NaN
        raise ValueError(f"delta must be positive, got {delta!r}")
    values = np.sort(np.asarray(p, dtype=np.float64))[::-1]
    if not values.size:
        raise ValueError("ranking is empty")
    prev, cur = values[:-1], values[1:]
    starts = np.flatnonzero((prev != cur) & (prev - cur >= delta * np.abs(prev))) + 1
    class_sizes = np.diff(np.concatenate(([0], starts, [len(values)])))
    return DegeneracyProfile(len(class_sizes), tuple(class_sizes.tolist()))


def _inversions(y: np.ndarray) -> int:
    """Pairs i < j with y[i] > y[j], for a sequence of nonnegative ints.

    A pair is decided at the highest bit where its two values differ. Going
    down from the top bit, ``y`` is kept stably sorted by the bits above the
    current one, so each group of values sharing those bits is one run in
    input order, and the pairs decided at this bit are a 1 before a 0 within
    a run. A stable partition of every run on the bit, placed with cumulative
    sums, then sorts ``y`` by one more bit.
    """
    index = np.arange(len(y))
    count = 0
    for shift in range(int(y.max()).bit_length() - 1, -1, -1):
        key = y >> shift  # run * 2 + bit
        bit = key & 1
        sizes = np.bincount(key)
        ones_in_earlier_runs = np.concatenate(([0], np.cumsum(sizes[1::2])))
        ones_before = np.cumsum(bit) - bit - ones_in_earlier_runs[key >> 1]  # within the run
        zero = bit == 0
        count += int(ones_before[zero].sum())
        block_start = np.cumsum(sizes) - sizes
        moved = np.empty_like(y)
        moved[np.where(zero, index - ones_before, block_start[key] + ones_before)] = y
        y = moved
    return count


def _tied_pairs(counts: np.ndarray) -> int:
    """Pairs within groups of the given sizes."""
    return int((counts * (counts - 1) // 2).sum())


def _tau_b_counts(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    """Kendall tau-b of two non-constant vectors without NaN as exact integer
    counts: concordant less discordant pairs, over the geometric mean of the
    pairs untied in ``a`` and the pairs untied in ``b``."""
    # dense 0-based ranks, equal values sharing one, and the size of each tie group
    _, x, x_counts = np.unique(a, return_inverse=True, return_counts=True)
    _, y, y_counts = np.unique(b, return_inverse=True, return_counts=True)
    y_levels = len(y_counts)
    pairs = np.sort(x * y_levels + y)  # (x, y) order; below n * n
    discordant = _inversions(pairs % y_levels)
    total = len(x) * (len(x) - 1) // 2
    x_ties, y_ties = _tied_pairs(x_counts), _tied_pairs(y_counts)
    joint_ties = _tied_pairs(np.unique(pairs, return_counts=True)[1])
    return total - x_ties - y_ties + joint_ties - 2 * discordant, total - x_ties, total - y_ties


def _kendall_tau_b(concordance: int, untied_a: int, untied_b: int) -> float:
    """Kendall tau-b from the counts of ``_tau_b_counts``, unclipped, in the
    float expression ``scipy.stats.kendalltau`` evaluates on them, so the
    result matches it bit for bit."""
    return float(concordance / np.sqrt(untied_a) / np.sqrt(untied_b))


def rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Kendall tau-b between the orderings induced by two value vectors.

    Constant vectors make tau-b undefined (no discriminating pairs); two
    constant vectors count as perfectly agreeing orderings, a constant
    against a non-constant one as uninformative (0). A NaN entry has no
    place in an ordering, so it makes the result uninformative (0) too.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("inputs must be one-dimensional, non-empty and of equal length")
    a_const = bool(np.all(a == a[0]))
    b_const = bool(np.all(b == b[0]))
    if a_const or b_const:
        return 1.0 if a_const and b_const else 0.0
    if np.isnan(a).any() or np.isnan(b).any():
        return 0.0
    concordance, untied_a, untied_b = _tau_b_counts(a, b)
    # every untied pair concordant, or every one discordant (equal or reversed
    # dense ranks): tau-b is exactly +-1, which the float expression can miss
    if abs(concordance) == untied_a == untied_b:
        return float(np.sign(concordance))
    return float(np.clip(_kendall_tau_b(concordance, untied_a, untied_b), -1.0, 1.0))


def ranking_order(values: np.ndarray) -> np.ndarray:
    """Node indices sorted by descending value, ties broken by node index."""
    return np.lexsort((np.arange(len(values)), -np.asarray(values)))


def rank_positions(values: np.ndarray) -> np.ndarray:
    """Position of each node in :func:`ranking_order`, 0 for the top node."""
    order = ranking_order(values)
    positions = np.empty(len(order), dtype=np.int64)
    positions[order] = np.arange(len(order))
    return positions


def top_nodes(values: np.ndarray, k: int) -> tuple[int, ...]:
    """Indices of the k largest values, descending, ties broken by index."""
    return tuple(int(i) for i in ranking_order(values)[:k])


@dataclass(frozen=True, eq=False)
class AttackReport:
    """Effect of removing the top-ranked hubs on the surviving order."""

    removed: tuple[int, ...]
    survivors: tuple[int, ...]
    pre_ranking: np.ndarray  # full-graph values restricted to survivors
    post_ranking: np.ndarray  # reduced-graph values
    correlation: float
    mean_displacement: float


def attack_sensitivity(g: DirectedGraph, k: int, ranker: str = "classical",
                       alpha: float = DEFAULT_ALPHA,
                       steps: int = DEFAULT_STEPS) -> AttackReport:
    """Remove the k top-ranked nodes and compare survivor orderings.

    Ranks the full graph, deletes the k most important nodes, re-ranks the
    reduced graph, and reports Kendall correlation plus the mean absolute
    shift in rank position across survivors.
    """
    if g.node_count < 3:
        raise ValueError("attack analysis needs at least 3 nodes")
    if not 0 <= k < g.node_count:
        raise ValueError(f"k must lie in [0, {g.node_count})")
    full = rank_vector(g, ranker, alpha, steps)
    removed = top_nodes(full, k)
    reduced, survivors = remove_nodes(g, removed)
    post = rank_vector(reduced, ranker, alpha, steps)
    pre = full[list(survivors)]
    correlation = rank_correlation(pre, post)
    displacement = float(np.abs(rank_positions(pre) - rank_positions(post)).mean())
    return AttackReport(removed, survivors, pre, post, correlation, displacement)


@dataclass(frozen=True)
class IprScalingPoint:
    size: int
    mean_ipr: float
    std_ipr: float


@dataclass(frozen=True)
class IprScaling:
    """IPR growth against network size over seeded scale-free ensembles."""

    points: tuple[IprScalingPoint, ...]
    slope: float
    localized: bool


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    slope, _ = np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)
    return float(slope)


def ipr_scaling(sizes: Sequence[int], instances: int, ranker: str,
                alpha: float = DEFAULT_ALPHA, seed: int = 0,
                steps: int = DEFAULT_STEPS) -> IprScaling:
    """Mean IPR per network size, with a sublinear-growth diagnosis.

    Generates ``instances`` scale-free graphs per size from a single seed,
    ranks each (the quantum walks of one size as batches), and fits the
    log-log slope of mean IPR against size. A slope below 0.9 is read as a
    localized walker.
    """
    sizes = [int(n) for n in sizes]
    if len(sizes) < 3:
        raise ValueError("need at least 3 sizes")
    if instances < 5:
        raise ValueError("need at least 5 instances per size")
    instance_seeds = np.random.SeedSequence(seed).generate_state(
        len(sizes) * instances, dtype=np.uint64)
    points = []
    for si, n in enumerate(sizes):
        seeds = instance_seeds[si * instances:(si + 1) * instances]
        walks = [(generate_scale_free(n, int(s)), alpha) for s in seeds]
        values = [ipr(v) for v in _rank_vectors(walks, ranker, steps)]
        points.append(IprScalingPoint(n, float(np.mean(values)), float(np.std(values))))
    slope = loglog_slope([pt.size for pt in points], [pt.mean_ipr for pt in points])
    return IprScaling(tuple(points), slope, slope < 0.9)
