"""Span tracing of the qprank package, installed from outside it.

``Tracer.install`` wraps every public function of the package modules and
rebinds each name that refers to one of them, in every module, so calls
made inside the package (``cli`` calling ``classical_pagerank``,
``analysis`` calling ``quantum_pagerank``, ...) record spans too. A span
holds its name, start, end, parent span and the request (workload item) it
served. Spans stay in memory; ``dump`` writes them out once, at the end.

``layer_metrics`` turns the spans into the per-layer metrics. A metric
whose functions no longer exist in the package is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Optional

MODULES = ("graph", "pagerank", "szegedy", "analysis", "formats", "cli")

# formats.fmt runs once per number written; a span per call would cost more
# than the writer it sits in, so it is timed as part of that writer.
UNWRAPPED = frozenset({"formats.fmt"})


@dataclass
class Span:
    name: str
    parent: int
    request: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _nbytes(text) -> Optional[int]:
    return len(text.encode()) if isinstance(text, str) else None


# Attributes a span keeps from its call, for the metrics that need more
# than timing. Each takes the wrapped function, its arguments and result.
def _evolve_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"n": a["op"].dim, "two_steps": a["offset"] + a["steps"] - 1,
            "history_bytes": result.instantaneous.nbytes}


_ATTRS: dict[str, Callable] = {
    "szegedy.evolve": _evolve_attrs,
    "szegedy.evolve_spectral":
        lambda fn, a, k, r: {"history_bytes": r.instantaneous.nbytes},
    "szegedy.initial_state": lambda fn, a, k, r: {"state_bytes": r.nbytes},
    "szegedy.build_dynamical_subspace":
        lambda fn, a, k, r: {"dim": r.dim, "n": r.op.dim},
    "szegedy.quantum_rank_series":
        lambda fn, a, k, r: {"backend": _bound(fn, a, k)["backend"]},
    "graph.parse_edge_list": lambda fn, a, k, r: {"arcs": len(r.arcs)},
    "graph.parse_pajek": lambda fn, a, k, r: {"arcs": len(r.arcs)},
    "pagerank.power_method":
        lambda fn, a, k, r: {"iterations": r.iterations, "converged": bool(r.converged)},
}


def _writer(name: str) -> bool:
    short = name.split(".", 1)[1]
    return name.startswith("formats.") and (short.startswith("write_") or short.endswith("_json"))


class Tracer:
    """Records spans for calls into the package while installed."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES
                        if hasattr(package, name)}
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object, object]] = []
        self.wrapped = sorted(f"{m}.{a}" for m, a, _ in self._public_functions())

    def _public_functions(self):
        for mname, module in self.modules.items():
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and f"{mname}.{attr}" not in UNWRAPPED):
                    yield mname, attr, value

    def _wrap(self, name: str, fn):
        spans, stack, attrs_of = self.spans, self._stack, _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.request, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                try:
                    span.attrs = attrs_of(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    pass  # a changed signature or result leaves the span without attributes
            elif _writer(name) and _nbytes(result) is not None:
                span.attrs = {"bytes": _nbytes(result)}
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {id(fn): self._wrap(f"{m}.{a}", fn) for m, a, fn in self._public_functions()}
        for module in (self.package, *self.modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    setattr(module, attr, wrappers[id(value)])
                    self._patches.append((module, attr, value, wrappers[id(value)]))

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": s.name, "parent": s.parent, "request": s.request,
                        "start": s.start, "end": s.end, **s.attrs} for s in self.spans], fh)


# ---------------------------------------------------------------------------
# per-layer metrics

def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def _ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


class _View:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.kids = _children(spans)

    def outermost(self, names, exclude_under=()) -> list[int]:
        """Spans named in ``names`` with no ancestor in ``names`` or ``exclude_under``."""
        stop = set(names) | set(exclude_under)
        return [i for i, s in enumerate(self.spans)
                if s.name in names and not any(a.name in stop for a in _ancestors(self.spans, i))]

    def total(self, names, exclude_under=()) -> float:
        return sum(self.spans[i].duration for i in self.outermost(names, exclude_under))

    def self_time(self, names) -> float:
        return sum(s.duration - sum(self.spans[k].duration for k in self.kids[i])
                   for i, s in enumerate(self.spans) if s.name in names)

    def attr(self, names, key):
        return [s.attrs[key] for s in self.spans if s.name in names and key in s.attrs]

    def auto_backend_counts(self) -> dict:
        counts = {"szegedy.evolve": 0, "szegedy.evolve_spectral": 0}
        for i, s in enumerate(self.spans):
            if s.name == "szegedy.quantum_rank_series" and s.attrs.get("backend") == "auto":
                for k in self.kids[i]:
                    if self.spans[k].name in counts:
                        counts[self.spans[k].name] += 1
        return counts


GENERATORS = ("graph.generate", "graph.generate_scale_free",
              "graph.generate_hierarchical", "graph.generate_binary_tree")
PARSERS = ("graph.parse_edge_list", "graph.parse_pajek")
GRAPH_WRITERS = ("graph.to_edge_list", "graph.to_pajek")


def _step_us(v: _View, n: int) -> float:
    idx = [i for i in v.outermost(("szegedy.evolve",))
           if v.spans[i].attrs.get("n") == n and "two_steps" in v.spans[i].attrs]
    steps = sum(v.spans[i].attrs["two_steps"] for i in idx)
    return 1e6 * sum(v.spans[i].duration for i in idx) / steps if steps else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _writers(v: _View):
    return tuple(sorted({s.name for s in v.spans if _writer(s.name)}))


# name -> (unit, functions the metric reads, how it scales, compute)
# "per_round" metrics are divided by the number of traced rounds; ratios,
# maxima and per-step times are not.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], bool, Callable[[_View], float]]] = {
    "szegedy.evolve_s": ("s", ("szegedy.evolve",), True,
                         lambda v: v.total(("szegedy.evolve",))),
    "szegedy.two_steps": ("count", ("szegedy.evolve",), True,
                          lambda v: sum(v.attr(("szegedy.evolve",), "two_steps"))),
    "szegedy.step_us.n128": ("us", ("szegedy.evolve",), False, lambda v: _step_us(v, 128)),
    "szegedy.step_us.n256": ("us", ("szegedy.evolve",), False, lambda v: _step_us(v, 256)),
    "szegedy.subspace_s": ("s", ("szegedy.build_dynamical_subspace",), True,
                           lambda v: v.total(("szegedy.build_dynamical_subspace",))),
    "szegedy.spectral_s": ("s", ("szegedy.evolve_spectral",), True,
                           lambda v: v.total(("szegedy.evolve_spectral",))),
    "szegedy.subspace_fill": ("ratio", ("szegedy.build_dynamical_subspace",), False,
                              lambda v: _ratio(
                                  sum(v.attr(("szegedy.build_dynamical_subspace",), "dim")),
                                  2 * sum(v.attr(("szegedy.build_dynamical_subspace",), "n")))),
    "szegedy.backend.direct": ("count", ("szegedy.quantum_rank_series", "szegedy.evolve"), True,
                               lambda v: v.auto_backend_counts()["szegedy.evolve"]),
    "szegedy.backend.spectral": ("count", ("szegedy.quantum_rank_series",
                                           "szegedy.evolve_spectral"), True,
                                 lambda v: v.auto_backend_counts()["szegedy.evolve_spectral"]),
    "szegedy.walk_operator_s": ("s", ("szegedy.walk_operator",), True,
                                lambda v: v.total(("szegedy.walk_operator",))),
    "szegedy.state_bytes": ("bytes_computed", ("szegedy.initial_state",), False,
                            lambda v: max(v.attr(("szegedy.initial_state",), "state_bytes"),
                                          default=0)),
    "szegedy.history_bytes": ("bytes_computed", ("szegedy.evolve",), False,
                              lambda v: max(v.attr(("szegedy.evolve", "szegedy.evolve_spectral"),
                                                   "history_bytes"), default=0)),
    "graph.generate_s": ("s", GENERATORS, True, lambda v: v.total(GENERATORS)),
    "graph.generate_calls": ("count", GENERATORS, True, lambda v: len(v.outermost(GENERATORS))),
    "graph.parse_s": ("s", PARSERS, True, lambda v: v.total(PARSERS)),
    "graph.parse_arcs": ("count", PARSERS, True, lambda v: sum(v.attr(PARSERS, "arcs"))),
    "graph.write_s": ("s", GRAPH_WRITERS, True,
                      lambda v: v.total(GRAPH_WRITERS, exclude_under=("graph.graph_digest",))),
    "graph.digest_s": ("s", ("graph.graph_digest",), True,
                       lambda v: v.total(("graph.graph_digest",))),
    "graph.remove_nodes_s": ("s", ("graph.remove_nodes",), True,
                             lambda v: v.total(("graph.remove_nodes",))),
    "cli.load_graph_s": ("s", ("cli.load_graph",), True, lambda v: v.total(("cli.load_graph",))),
    "pagerank.hyperlink_s": ("s", ("pagerank.hyperlink_matrix",), True,
                             lambda v: v.total(("pagerank.hyperlink_matrix",))),
    "pagerank.power_method_s": ("s", ("pagerank.power_method",), True,
                                lambda v: v.total(("pagerank.power_method",))),
    "pagerank.iterations": ("count", ("pagerank.power_method",), True,
                            lambda v: sum(v.attr(("pagerank.power_method",), "iterations"))),
    "pagerank.converged_ratio": ("ratio", ("pagerank.power_method",), False,
                                 lambda v: _ratio(
                                     sum(v.attr(("pagerank.power_method",), "converged")),
                                     len(v.attr(("pagerank.power_method",), "converged")))),
    "analysis.damping_sweep_s": ("s", ("analysis.damping_sweep",), True,
                                 lambda v: v.self_time(("analysis.damping_sweep",))),
    "analysis.attack_s": ("s", ("analysis.attack_sensitivity",), True,
                          lambda v: v.self_time(("analysis.attack_sensitivity",))),
    "analysis.rank_correlation_s": ("s", ("analysis.rank_correlation",), True,
                                    lambda v: v.self_time(("analysis.rank_correlation",))),
    "analysis.fidelity_s": ("s", ("analysis.fidelity",), True,
                            lambda v: v.self_time(("analysis.fidelity",))),
    "analysis.degeneracy_s": ("s", ("analysis.degeneracy_profile",), True,
                              lambda v: v.self_time(("analysis.degeneracy_profile",))),
    "analysis.power_law_fit_s": ("s", ("analysis.power_law_fit",), True,
                                 lambda v: v.self_time(("analysis.power_law_fit",))),
    "analysis.ipr_s": ("s", ("analysis.ipr",), True, lambda v: v.self_time(("analysis.ipr",))),
    "formats.write_s": ("s", ("formats.write_rank_csv",), True,
                        lambda v: v.total(_writers(v))),
    "formats.bytes_out": ("bytes", ("formats.write_rank_csv",), True,
                          lambda v: sum(v.attr(_writers(v), "bytes"))),
    "cli.self_s": ("s", ("cli.main",), True, lambda v: v.self_time(("cli.main",))),
}


def layer_metrics(spans: list[Span], wrapped: list[str], rounds: int) -> tuple[dict, list[str]]:
    """Per-layer metrics over ``rounds`` traced rounds, plus the absent ones.

    A metric is absent when a function it reads is not wrapped, that is,
    when the function no longer exists in the package; it then reads 0.
    """
    view = _View(spans)
    present = set(wrapped)
    metrics, absent = {}, []
    for name, (unit, needs, per_round, compute) in LAYER_METRICS.items():
        if not present.issuperset(needs):
            absent.append(name)
            value = 0.0
        else:
            value = float(compute(view))
            if per_round:
                value /= max(rounds, 1)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
