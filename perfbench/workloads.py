"""The benchmark's workloads: inputs made from a seed, the timed items, and
the correctness gate that checks what the items returned.

Every workload is a fixed mix of items run in rounds, in one process by one
caller in a closed loop. Items call the package through module attributes
at call time (``szegedy.quantum_pagerank(...)``), so the tracer's wrappers
see them when installed.

Output values carry a kind that fixes how they are compared: ``digest`` and
``exact`` must be equal, ``classical`` and ``quantum`` rank vectors within
their absolute tolerances, ``derived`` values within a relative tolerance.
Only the first four kinds go into the reference files. Entries whose name
starts with ``_`` hold data for the checks and are never compared.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qprank import analysis, cli, formats, graph, pagerank, szegedy

DEFAULT_SEED = 0
ALPHA = 0.85
STEPS = 2048
DELTA = 1e-4          # relative spacing of degeneracy classes
TOP_K = 10
SWEEP_GRID = (0.65, 0.75, 0.85, 0.95)

TOLERANCE = {"classical": 1e-12, "quantum": 1e-9, "derived": 1e-9}
REFERENCE_KINDS = ("digest", "exact", "classical", "quantum")
SUM_TOL = 1e-9        # every rank vector sums to 1 within this
BACKEND_TOL = 1e-8    # direct against spectral series, acceptance criterion 4
ORACLE_TOL = 1e-10    # power method against a sparse direct solve


def graph_seeds(seed: int, count: int) -> list[int]:
    """Per-graph generator seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class Item:
    """One timed call of a round: ``run`` returns what the gate checks."""

    key: str      # unique within a round
    kind: str     # timing group
    graphs: int   # graphs this item completes
    run: Callable[[], object]


class Checks:
    """Failed checks per operation; every operation attempted is counted."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def op(self, name: str) -> str:
        self.attempted += 1
        return name

    def expect(self, op: str, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.setdefault(op, []).append(message)
        return ok

    def distribution(self, op: str, label: str, v, n: int) -> None:
        v = np.asarray(v, dtype=np.float64)
        if not self.expect(op, v.shape == (n,), f"{label}: shape {v.shape}, expected ({n},)"):
            return
        self.expect(op, bool(np.all(np.isfinite(v))) and v.min() >= 0.0,
                    f"{label}: negative or non-finite entries")
        self.expect(op, abs(v.sum() - 1.0) <= SUM_TOL, f"{label}: sums to {v.sum()!r}")

    def close(self, op: str, label: str, kind: str, got, want) -> None:
        problem = mismatch(kind, got, want)
        self.expect(op, problem is None, f"{label}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def to_plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def mismatch(kind: str, got, want) -> Optional[str]:
    """Why ``got`` fails to match ``want`` under ``kind``'s rule, or None."""
    if kind in ("digest", "exact"):
        got, want = to_plain(got), to_plain(want)
        return None if got == want else f"{got!r} != {want!r}"
    a = np.asarray(got, dtype=np.float64)
    b = np.asarray(want, dtype=np.float64)
    if a.shape != b.shape:
        return f"shape {a.shape} != {b.shape}"
    if not a.size:
        return None
    diff = np.abs(a - b)
    if kind == "derived":
        diff = diff / np.maximum(np.abs(b), 1.0)
    err = float(diff.max())
    tol = TOLERANCE[kind]
    return None if err <= tol else f"deviation {err:.3e} exceeds {tol:.0e}"


def top_consistent(v: np.ndarray, top, tol: float) -> bool:
    """``top`` lists the largest entries of ``v`` in descending order, up to ties within tol."""
    top = list(top)
    vals = v[top]
    rest = np.delete(v, top)
    descending = bool(np.all(np.diff(vals) <= tol))
    return descending and (not rest.size or vals.min() >= rest.max() - tol)


def classical_oracle(g) -> np.ndarray:
    """PageRank from a sparse direct solve, independent of the power method.

    With H the hyperlink matrix, the damped fixed point satisfies
    (I - alpha H) p = c 1 for a scalar c, so p is the normalized solution
    of (I - alpha H) x = 1.
    """
    links = pagerank.hyperlink_matrix(g).links.tocsc()
    n = g.node_count
    x = spla.spsolve(sp.identity(n, format="csc") - ALPHA * links, np.ones(n))
    return x / x.sum()


class Workload:
    """A fixed mix of items plus the checks of their outputs."""

    name = ""

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.steps = 64 if smoke else STEPS

    def setup(self) -> None:
        """Make the inputs from the seed and warm up every code path."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One round of the smoke-size mix, so lazy imports and caches settle."""
        small = type(self)(self.seed, True, self.work_dir / "warm-up")
        small.setup()
        for item in small.items(0):
            item.run()

    def items(self, round_index: int) -> list[Item]:
        raise NotImplementedError

    def inputs(self) -> dict:
        """Digests of the generated input graphs, checked against the reference."""
        return {}

    def outputs(self, item: Item, raw) -> dict:
        """Named, kinded values of one item's result."""
        raise NotImplementedError

    def check(self, op: str, item: Item, raw, out: dict, round_raw: dict,
              round_out: dict, checks: Checks) -> None:
        """Invariants of one item's result, and its consistency with the round."""
        raise NotImplementedError

    def cross_check(self, round_raw: dict, round_out: dict, checks: Checks) -> None:
        """Checks against another backend or solver, run outside the timed phase."""
        raise NotImplementedError

    def named_timings(self, by_kind: dict[str, list[float]]) -> dict:
        """Workload-specific timings from per-item times, grouped by kind."""
        raise NotImplementedError


def _median(xs):
    return float(np.median(xs)) if xs else 0.0


def tail_percentile(samples: list[float]) -> Optional[tuple[int, float]]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    xs = sorted(samples)
    for p in (99, 95, 90, 75):
        rank = int(np.ceil(p / 100 * len(xs)))
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


def _digests(labelled) -> dict:
    return {f"{label}.digest": ("digest", graph.graph_digest(g)) for label, g in labelled}


def _series_outputs(series) -> dict:
    return {"average": ("quantum", series.average),
            "first": ("quantum", series.instantaneous[min(1, series.steps - 1)]),
            "last": ("quantum", series.instantaneous[-1])}


def _check_series(checks: Checks, op: str, series, n: int, steps: int) -> None:
    inst = np.asarray(series.instantaneous)
    if not checks.expect(op, inst.shape == (steps, n), f"series shape {inst.shape}"):
        return
    checks.expect(op, bool(np.all(np.isfinite(inst))) and inst.min() >= 0.0,
                  "series has negative or non-finite entries")
    row_err = float(np.abs(inst.sum(axis=1) - 1.0).max())
    checks.expect(op, row_err <= SUM_TOL, f"series rows sum to 1 only within {row_err:.2e}")
    checks.close(op, "average", "classical", series.average, inst.mean(axis=0))
    checks.distribution(op, "average", series.average, n)


# ---------------------------------------------------------------------------

class EnsembleDirect(Workload):
    """Scale-free ensemble ranked classically and by the direct quantum walk."""

    name = "ensemble-direct"

    def __init__(self, seed, smoke, work_dir):
        super().__init__(seed, smoke, work_dir)
        self.sizes = (16, 16, 16, 24) if smoke else (128, 128, 128, 256)
        self.seeds = graph_seeds(seed, len(self.sizes))
        self.labels = [f"g{i}.n{n}" for i, n in enumerate(self.sizes)]

    def setup(self):
        self.graphs = [graph.generate_scale_free(n, s) for n, s in zip(self.sizes, self.seeds)]
        if not self.smoke:
            self.warm_up()

    def _rank(self, g) -> dict:
        c = pagerank.classical_pagerank(g, ALPHA)
        q = szegedy.quantum_pagerank(g, ALPHA, self.steps)
        result = {"classical": c, "quantum": q}
        for tag, v in (("classical", c), ("quantum", q)):
            fit = analysis.power_law_fit(v)
            result[tag + ".ipr"] = analysis.ipr(v)
            result[tag + ".fit"] = (fit.exponent, fit.r_squared)
            result[tag + ".classes"] = analysis.degeneracy_profile(v, DELTA).class_count
            result[tag + ".top"] = analysis.top_nodes(v, TOP_K)
        return result

    def _sweep(self):
        return analysis.damping_sweep(self.graphs[0], SWEEP_GRID, "quantum", self.steps)

    def items(self, round_index):
        items = [Item(label, "graph", 1, lambda g=g: self._rank(g))
                 for label, g in zip(self.labels, self.graphs)]
        items.append(Item("sweep", "sweep", 0, self._sweep))
        return items

    def inputs(self):
        return _digests(zip(self.labels, self.graphs))

    def outputs(self, item, raw):
        if item.kind == "sweep":
            return {"rank_vectors": ("quantum", raw.rank_vectors),
                    "pairwise": ("derived", raw.pairwise)}
        out = {"classical": ("classical", raw["classical"]), "quantum": ("quantum", raw["quantum"])}
        for tag in ("classical", "quantum"):
            out[tag + ".ipr"] = ("derived", raw[tag + ".ipr"])
            out[tag + ".fit"] = ("derived", raw[tag + ".fit"])
            out[tag + ".classes"] = ("exact", raw[tag + ".classes"])
        return out

    def check(self, op, item, raw, out, round_raw, round_out, checks):
        if item.kind == "sweep":
            pw = np.asarray(raw.pairwise)
            checks.expect(op, np.array_equal(pw, pw.T) and np.all(np.diag(pw) == 1.0),
                          "fidelity matrix not symmetric with unit diagonal")
            checks.expect(op, pw.min() >= 0.0 and pw.max() <= 1.0 + 1e-12,
                          "fidelity outside [0, 1]")
            checks.expect(op, raw.min_fidelity == pw.min(),
                          "min_fidelity is not the matrix minimum")
            n = self.graphs[0].node_count
            for a, row in zip(SWEEP_GRID, raw.rank_vectors):
                checks.distribution(op, f"sweep alpha={a}", row, n)
            at_alpha = raw.rank_vectors[SWEEP_GRID.index(ALPHA)]
            checks.close(op, "sweep row at the default alpha against the graph's rank",
                         "quantum", at_alpha, round_raw[self.labels[0]]["quantum"])
            return
        n = self.graphs[self.labels.index(item.key)].node_count
        for tag in ("classical", "quantum"):
            v = raw[tag]
            checks.distribution(op, tag, v, n)
            checks.expect(op, 1.0 - 1e-9 <= raw[tag + ".ipr"] <= n + 1e-9,
                          f"{tag}: ipr out of [1, N]")
            checks.expect(op, 1 <= raw[tag + ".classes"] <= n, f"{tag}: class count out of [1, N]")
            checks.expect(op, bool(np.all(np.isfinite(raw[tag + ".fit"]))),
                          f"{tag}: fit not finite")
            checks.expect(op, top_consistent(np.asarray(v), raw[tag + ".top"], 0.0),
                          f"{tag}: top_nodes is not the descending top {TOP_K}")

    def cross_check(self, round_raw, round_out, checks):
        for label, g in zip(self.labels, self.graphs):
            op = checks.op(f"cross.{label}.classical-oracle")
            got = classical_oracle(g)
            err = float(np.abs(got - round_raw[label]["classical"]).max())
            checks.expect(op, err <= ORACLE_TOL, f"power method vs sparse solve: {err:.2e}")
        # The spectral backend builds a dense N^2 x 2N basis, so one graph
        # and a short horizon keep this cross-check to seconds.
        g = self.graphs[0]
        op = checks.op(f"cross.{self.labels[0]}.spectral")
        walk = szegedy.walk_operator(g, ALPHA)
        steps = min(self.steps, 64)
        spectral = szegedy.evolve_spectral(szegedy.build_dynamical_subspace(walk), steps)
        direct = szegedy.evolve(walk, steps)
        err = float(np.abs(spectral.instantaneous - direct.instantaneous).max())
        checks.expect(op, err <= BACKEND_TOL, f"direct vs spectral over {steps} steps: {err:.2e}")

    def named_timings(self, by_kind):
        return {"sweep_s": (_median(by_kind.get("sweep", [])), "s")}


class SmallSpectral(Workload):
    """Graphs with N <= 64, where ``auto`` runs the spectral backend."""

    name = "small-spectral"

    def __init__(self, seed, smoke, work_dir):
        super().__init__(seed, smoke, work_dir)
        self.seeds = graph_seeds(seed, 2)

    def setup(self):
        if self.smoke:
            fixed = ("fig1a", "fig1c", "fig2b")
            built = [("tree3", graph.generate_binary_tree(3)),
                     ("sf12", graph.generate_scale_free(12, self.seeds[0]))]
        else:
            fixed = ("fig1a", "fig1c", "fig1d", "fig2b")
            built = [("hier3", graph.generate_hierarchical(3)),
                     ("tree5", graph.generate_binary_tree(5)),
                     ("sf32", graph.generate_scale_free(32, self.seeds[0])),
                     ("sf64", graph.generate_scale_free(64, self.seeds[1]))]
        self.graphs = dict([(name, graph.benchmark_graph(name)) for name in fixed] + built)
        if not self.smoke:
            self.warm_up()

    def _series(self, g):
        return szegedy.quantum_rank_series(g, ALPHA, self.steps)

    def _attack(self, g, k):
        return analysis.attack_sensitivity(g, k, "quantum", ALPHA, self.steps)

    def items(self, round_index):
        items = []
        for label, g in self.graphs.items():
            items.append(Item(f"{label}.series", "series", 1, lambda g=g: self._series(g)))
            if g.node_count >= 3:
                for k in range(1, min(3, g.node_count - 1) + 1):
                    items.append(Item(f"{label}.attack{k}", "attack", 0,
                                      lambda g=g, k=k: self._attack(g, k)))
        return items

    def inputs(self):
        return _digests(self.graphs.items())

    def outputs(self, item, raw):
        if item.kind == "series":
            return _series_outputs(raw)
        return {"removed": ("derived", raw.removed), "post": ("derived", raw.post_ranking),
                "summary": ("derived", (raw.correlation, raw.mean_displacement))}

    def check(self, op, item, raw, out, round_raw, round_out, checks):
        label = item.key.split(".")[0]
        n = self.graphs[label].node_count
        if item.kind == "series":
            _check_series(checks, op, raw, n, self.steps)
            return
        k = int(item.key.rsplit("attack", 1)[1])
        full = np.asarray(round_raw[f"{label}.series"].average)
        removed = list(raw.removed)
        checks.expect(op, len(removed) == k and top_consistent(full, removed, TOLERANCE["quantum"]),
                      f"removed {removed} are not the top {k} of the full ranking")
        survivors = [i for i in range(n) if i not in set(removed)]
        checks.expect(op, list(raw.survivors) == survivors, "survivor map is wrong")
        checks.close(op, "pre-attack values", "quantum", raw.pre_ranking, full[survivors])
        checks.distribution(op, "post-attack ranking", raw.post_ranking, n - k)
        checks.expect(op, -1.0 <= raw.correlation <= 1.0, "correlation outside [-1, 1]")
        checks.expect(op, np.isfinite(raw.mean_displacement) and raw.mean_displacement >= 0,
                      "mean displacement negative or not finite")

    def cross_check(self, round_raw, round_out, checks):
        for label, g in self.graphs.items():
            op = checks.op(f"cross.{label}.direct")
            direct = szegedy.quantum_rank_series(g, ALPHA, self.steps, backend="direct")
            auto = round_raw[f"{label}.series"]
            err = float(np.abs(direct.instantaneous - auto.instantaneous).max())
            checks.expect(op, err <= BACKEND_TOL, f"auto vs direct backend: {err:.2e}")
        label = list(self.graphs)[-1]
        op = checks.op(f"cross.{label}.attack1.direct")
        report = round_raw[f"{label}.attack1"]
        reduced, _ = graph.remove_nodes(self.graphs[label], report.removed)
        direct = szegedy.quantum_pagerank(reduced, ALPHA, self.steps, backend="direct")
        err = float(np.abs(direct - report.post_ranking).max())
        checks.expect(op, err <= BACKEND_TOL, f"post-attack ranking vs direct backend: {err:.2e}")

    def named_timings(self, by_kind):
        attacks = by_kind.get("attack", [])
        named = {"attack_p50_s": (_median(attacks), "s"),
                 "attack_samples": (len(attacks), "count"),
                 "series_p50_s": (_median(by_kind.get("series", [])), "s")}
        tail = tail_percentile(attacks)
        if tail:
            named[f"attack_p{tail[0]}_s"] = (tail[1], "s")
        return named


class CliIngest(Workload):
    """File-based pipelines through ``qprank.cli.main``, in process."""

    name = "cli-ingest"

    def __init__(self, seed, smoke, work_dir):
        super().__init__(seed, smoke, work_dir)
        self.big = 256 if smoke else 8192
        self.small = 8 if smoke else 64
        self.seeds = graph_seeds(seed, 2)
        self.edges = work_dir / "web.txt"
        self.pajek = work_dir / "web.net"
        self._decoded: dict = {}

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.graph = graph.generate_scale_free(self.big, self.seeds[0])
        self.edges.write_text(graph.to_edge_list(self.graph), encoding="utf-8")
        self.pajek.write_text(graph.to_pajek(self.graph), encoding="utf-8")
        if not self.smoke:
            self.warm_up()

    def pipelines(self) -> list[tuple[str, list[str]]]:
        big = ["--seed", str(self.seeds[0])]
        small = ["--gen", f"scalefree:{self.small}", "--seed", str(self.seeds[1]),
                 "--steps", str(self.steps)]
        lo, hi = SWEEP_GRID[0], SWEEP_GRID[-1]
        return [
            ("gen", ["gen", "--gen", f"scalefree:{self.big}", *big]),
            ("rank.edges", ["rank", "--input", str(self.edges)]),
            ("rank.pajek", ["rank", "--input", str(self.pajek)]),
            ("sweep", ["sweep", "--input", str(self.edges), "--ranker", "classical",
                       "--grid", f"{lo}:{hi}:{len(SWEEP_GRID)}"]),
            ("attack", ["attack", "--input", str(self.edges), "--remove", "3"]),
            ("analyze", ["analyze", "--input", str(self.edges), "--ranker", "classical"]),
            ("qrank", ["qrank", *small]),
            ("compare", ["compare", *small]),
        ]

    def items(self, round_index):
        out_dir = self.work_dir / f"round{round_index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        items = []
        for key, argv in self.pipelines():
            path = out_dir / f"{key}.out"
            argv = [*argv, "--output", str(path)]
            items.append(Item(key, key.split(".")[0], 1,
                              lambda argv=argv, path=path: (cli.main(argv), path)))
        return items

    def inputs(self):
        return _digests([("web", self.graph)])

    def outputs(self, item, raw):
        code, path = raw
        if code != 0:
            raise RuntimeError(f"qprank {item.key} exited with code {code}")
        text = Path(path).read_text(encoding="utf-8")
        key = (item.key, hashlib.sha256(text.encode()).hexdigest())
        if key not in self._decoded:  # rounds with identical bytes decode once
            self._decoded[key] = self._decode(item.key, text)
        return self._decoded[key]

    def _decode(self, key: str, text: str) -> dict:
        if key == "gen":
            return {"digest": ("digest", graph.graph_digest(graph.parse_edge_list(text))),
                    "_text": text}
        if key.startswith("rank"):
            values, _, meta = formats.read_rank_csv(text)
            return {"values": ("classical", values), "graph": ("digest", meta.get("graph"))}
        if key == "sweep":
            grid, matrix, meta = formats.read_sweep_csv(text)
            return {"pairwise": ("derived", matrix), "_grid": grid, "_meta": meta}
        if key == "attack":
            pre, post, meta = formats.read_attack_csv(text)
            removed = [int(i) for i in meta["removed"].split(";")]
            return {"removed": ("exact", removed), "post": ("classical", post), "_pre": pre}
        if key == "analyze":
            rows = [r for r in csv.reader(line for line in text.splitlines()
                                          if line and not line.startswith("#"))]
            header, row = rows[0], rows[1]
            return {"row": ("derived", [float(x) for x in row[1:]]), "_header": header}
        if key == "qrank":
            series, meta = formats.read_series_csv(text)
            return {**_series_outputs(series), "graph": ("digest", meta.get("graph")),
                    "_series": series}
        classical, quantum, _ = formats.read_compare_csv(text)
        return {"classical": ("classical", classical), "quantum": ("quantum", quantum)}

    def check(self, op, item, raw, out, round_raw, round_out, checks):
        n = self.big
        key = item.key
        if key == "gen":
            checks.expect(op, out["_text"] == self.edges.read_text(encoding="utf-8"),
                          "gen output differs from the library's edge list of the same graph")
        elif key.startswith("rank"):
            checks.distribution(op, "rank", out["values"][1], n)
            checks.expect(op, out["graph"][1] == graph.graph_digest(self.graph),
                          "rank metadata names another graph")
            checks.close(op, "edge-list vs Pajek ranks", "classical", out["values"][1],
                         round_out["rank.edges"]["values"][1])
        elif key == "sweep":
            pw = out["pairwise"][1]
            checks.expect(op, list(out["_grid"]) == [float(a) for a in
                                                     np.linspace(SWEEP_GRID[0], SWEEP_GRID[-1],
                                                                 len(SWEEP_GRID))],
                          "sweep grid differs from the one requested")
            checks.expect(op, np.array_equal(pw, pw.T) and np.all(np.diag(pw) == 1.0),
                          "fidelity matrix not symmetric with unit diagonal")
            checks.expect(op, pw.min() >= 0.0 and pw.max() <= 1.0 + 1e-12,
                          "fidelity outside [0, 1]")
            checks.expect(op, float(out["_meta"]["min_fidelity"]) == pw.min(),
                          "min_fidelity is not the matrix minimum")
        elif key == "attack":
            values = round_out["rank.edges"]["values"][1]
            removed = out["removed"][1]
            checks.expect(op, len(removed) == 3 and top_consistent(values, removed,
                                                                   TOLERANCE["classical"]),
                          f"removed {removed} are not the top 3 of the rank output")
            survivors = [i for i in range(n) if i not in set(removed)]
            checks.close(op, "pre-attack values", "classical", out["_pre"], values[survivors])
            checks.distribution(op, "post-attack ranking", out["post"][1], n - 3)
        elif key == "analyze":
            values = round_out["rank.edges"]["values"][1]
            fit = analysis.power_law_fit(values)
            want = [analysis.ipr(values), fit.exponent, fit.intercept, fit.r_squared,
                    analysis.degeneracy_profile(values, DELTA).class_count,
                    float(values.max() - values.min())]
            checks.expect(op, out["_header"][0] == "ranker", "analyze header missing")
            checks.close(op, "analyze row against the rank output", "derived", out["row"][1], want)
        elif key == "qrank":
            _check_series(checks, op, out["_series"], self.small, self.steps)
        elif key == "compare":
            checks.distribution(op, "compare classical", out["classical"][1], self.small)
            checks.close(op, "compare quantum vs qrank average", "quantum", out["quantum"][1],
                         round_out["qrank"]["average"][1])

    def cross_check(self, round_raw, round_out, checks):
        op = checks.op("cross.web.classical-oracle")
        err = float(np.abs(classical_oracle(self.graph)
                           - round_out["rank.edges"]["values"][1]).max())
        checks.expect(op, err <= ORACLE_TOL, f"power method vs sparse solve: {err:.2e}")
        op = checks.op(f"cross.sf{self.small}.direct")
        g = graph.generate_scale_free(self.small, self.seeds[1])
        direct = szegedy.quantum_rank_series(g, ALPHA, self.steps, backend="direct")
        written = round_out["qrank"]["_series"]
        err = float(np.abs(direct.instantaneous - written.instantaneous).max())
        checks.expect(op, err <= BACKEND_TOL, f"qrank output vs direct backend: {err:.2e}")
        op = checks.op(f"cross.sf{self.small}.classical-oracle")
        err = float(np.abs(classical_oracle(g) - round_out["compare"]["classical"][1]).max())
        checks.expect(op, err <= ORACLE_TOL, f"compare classical vs sparse solve: {err:.2e}")

    def named_timings(self, by_kind):
        return {f"pipeline.{kind}_s": (_median(times), "s") for kind, times in by_kind.items()}


WORKLOADS = {w.name: w for w in (EnsembleDirect, SmallSpectral, CliIngest)}
