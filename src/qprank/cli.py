"""Command-line driver for reproducible ranking experiments.

Subcommands compose the library into pipelines that write plot-ready CSV
(default) or JSON tables to stdout or a file. All randomness flows through
the explicit --seed flag, so rerunning a command with identical flags
produces byte-identical output.

Each subcommand's handler first validates its run and admits its memory,
then returns the output as an iterator of text chunks, a run of rows each;
``main`` only then opens ``--output`` (or takes stdout) and writes the
chunks as they come, so no output is ever held whole. Every handler but
``qrank`` has computed its whole result by then. ``qrank`` hands the writers
a ``szegedy.SeriesStream`` on its built walk operator, whose walk runs as the
rows are written, one block of two-steps at a time, so its series is never
held either. A run that fails leaves no output file: a write that fails, or a
walk that runs out of memory part way, removes the partial file.

Exit codes: 0 success, 2 input or output file error, 3 graph parse error
(including input that is not UTF-8), 4 invalid parameters (including a run
too large for the available memory).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from typing import Iterator, Optional

import numpy as np

from . import analysis, formats
from .graph import (_MAX_DIGITS, DirectedGraph, GraphFormatError, _shown, benchmark_graph,
                    edge_list_lines, generate, graph_digest, parse_graph)
from .pagerank import (DEFAULT_ALPHA, classical_pagerank, hyperlink_matrix,
                       patch_dangling, power_method)
from .szegedy import DEFAULT_STEPS, SeriesStream, quantum_pagerank, walk_operator


class UsageError(ValueError):
    """Invalid command-line parameters (exit code 4)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Every flag of any subcommand; _COMMANDS names the ones each one takes.
_FLAGS = {
    "input": dict(help="graph file (edge list or Pajek, sniffed)"),
    "gen": dict(help="generator spec family:size (scalefree, hierarchical, tree)"),
    "benchmark": dict(help="benchmark graph name (fig1a..fig1d, fig2b)"),
    "seed": dict(type=int, help="seed for --gen scalefree: (default: 0)"),
    "alpha": dict(type=float, default=DEFAULT_ALPHA, help="damping parameter"),
    "steps": dict(type=int, default=DEFAULT_STEPS, help="quantum walk two-steps"),
    "format": dict(choices=("csv", "json"), default="csv", help="output format"),
    "output": dict(help="output path (default: stdout)"),
    "bare": dict(nargs="?", const="e", choices=("e", "h"),
                 help="skip damping: iterate the patched (e) or raw (h) link matrix "
                      "from a point mass on node 0"),
    "grid": dict(required=True, help="alpha grid lo:hi:count (inclusive)"),
    "remove": dict(type=int, required=True, help="number of top hubs to remove"),
    "ranker": dict(choices=("classical", "quantum"), default="classical"),
    "delta": dict(type=float, default=1e-4,
                  help="relative spacing separating degeneracy classes"),
}
_SOURCE = ("input", "gen", "benchmark", "seed")
_OUT = ("format", "output")


def load_graph(args) -> tuple[DirectedGraph, dict]:
    """Resolve the single graph source and build its provenance record."""
    chosen = [name for name in ("input", "gen", "benchmark") if getattr(args, name, None)]
    if len(chosen) != 1:
        raise UsageError("exactly one of --input, --gen, --benchmark is required")
    source = chosen[0]
    model = args.gen.partition(":")[0] if source == "gen" else None
    if args.seed is not None and model != "scalefree":
        raise UsageError("--seed needs a random graph, and only --gen scalefree: draws one")
    if source == "input":
        with open(args.input, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise GraphFormatError(f"{args.input}: byte {exc.start}: "
                                       "not UTF-8 text") from None
        g = parse_graph(text)
        meta = {"source": args.input}
    elif source == "benchmark":
        g = benchmark_graph(args.benchmark)
        meta = {"source": f"benchmark:{args.benchmark}"}
    else:
        size = args.gen.partition(":")[2]
        # ASCII digits without a leading zero, so each source has one spelling
        if not re.fullmatch("[1-9][0-9]*", size):
            raise UsageError(f"bad generator spec {args.gen!r}, expected family:size")
        if len(size) > _MAX_DIGITS:  # out of range for every family; int() may refuse it
            raise UsageError(f"generator size {_shown(size)} is out of range")
        g = generate(model, int(size), args.seed)
        meta = {"source": f"{model}:{size}"}
        if model == "scalefree":
            meta["seed"] = args.seed or 0
    meta["graph"] = graph_digest(g)
    return g, meta


def parse_grid(spec: str) -> list[float]:
    """Inclusive alpha grid from a lo:hi:count spec."""
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise UsageError(f"bad grid {spec!r}, expected lo:hi:count") from None
    if count < 1:
        raise UsageError("grid count must be at least 1")
    return [float(a) for a in np.linspace(lo, hi, count)]


def _walk(*rankers: str) -> dict:
    """Metadata naming the walk kernel when one of ``rankers`` runs the
    quantum walk: always ``direct``, the one kernel the library's pipelines
    run. The spectral closed form is only the reference it is tested against."""
    return {"backend": "direct"} if "quantum" in rankers else {}


def _render(args, table: formats.Table) -> Iterator[str]:
    """A record table as CSV, or as JSON records under its metadata."""
    if args.format == "json":
        return formats.table_json(table)
    return formats.table_csv(table)


def _cmd_gen(g, meta, args) -> Iterator[str]:
    if args.format == "json":
        return formats.graph_json(g, meta)
    return edge_list_lines(g)


def _cmd_rank(g, meta, args) -> Iterator[str]:
    if args.bare:
        if args.alpha not in (None, 1.0):
            raise UsageError("--bare iterates the undamped matrix: omit --alpha or give 1")
        matrix = hyperlink_matrix(g)
        if args.bare == "e":
            matrix = patch_dangling(matrix)
        i0 = np.zeros(g.node_count)
        i0[0] = 1.0
        result = power_method(matrix, i0)
        values = result.values
        meta = dict(meta, bare=args.bare, converged=result.converged,
                    degenerate=result.degenerate, iterations=result.iterations,
                    orbit=result.orbit)
    else:
        alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
        values = classical_pagerank(g, alpha)
        meta = dict(meta, alpha=alpha)
    return _render(args, formats.rank_table(values, g.labels, meta))


def _cmd_qrank(g, meta, args) -> Iterator[str]:
    if args.steps < 1:  # before the walk operator is built
        raise UsageError("steps must be at least 1")
    meta = dict(meta, alpha=args.alpha, steps=args.steps, **_walk("quantum"))
    series = SeriesStream(walk_operator(g, args.alpha), args.steps)
    if args.format == "json":
        return formats.series_json(series, meta)
    return formats.series_csv(series, meta)


def _cmd_sweep(g, meta, args) -> Iterator[str]:
    grid = parse_grid(args.grid)
    meta = dict(meta, ranker=args.ranker, steps=args.steps, **_walk(args.ranker))
    sweep = analysis.damping_sweep(g, grid, args.ranker, args.steps)
    if args.format == "json":
        return formats.sweep_json(sweep, meta)
    return formats.sweep_csv(sweep, meta)


def _cmd_attack(g, meta, args) -> Iterator[str]:
    meta = dict(meta, ranker=args.ranker, alpha=args.alpha, steps=args.steps,
                **_walk(args.ranker))
    report = analysis.attack_sensitivity(g, args.remove, args.ranker, args.alpha, args.steps)
    return _render(args, formats.attack_table(report, meta))


_ANALYZE_HEADER = ("ranker", "ipr", "power_law_exponent", "power_law_intercept",
                   "power_law_r2", "degeneracy_classes", "spread")


def _cmd_analyze(g, meta, args) -> Iterator[str]:
    rankers = ("classical", "quantum") if args.ranker == "both" else (args.ranker,)
    meta = dict(meta, alpha=args.alpha, steps=args.steps, delta=args.delta, **_walk(*rankers))
    rows = []
    for ranker in rankers:
        values = analysis.rank_vector(g, ranker, args.alpha, args.steps)
        fit = analysis.power_law_fit(values)
        rows.append((ranker, analysis.ipr(values), fit.exponent, fit.intercept, fit.r_squared,
                     analysis.degeneracy_profile(values, args.delta).class_count,
                     float(values.max() - values.min())))
    names, *figures = zip(*rows)
    return _render(args, formats.Table(meta, _ANALYZE_HEADER,
                                       [names, *(np.array(column) for column in figures)]))


def _cmd_compare(g, meta, args) -> Iterator[str]:
    meta = dict(meta, alpha=args.alpha, steps=args.steps, **_walk("quantum"))
    classical = classical_pagerank(g, args.alpha)
    quantum = quantum_pagerank(g, args.alpha, args.steps)
    return _render(args, formats.compare_table(g.labels, classical, quantum, meta))


# name -> (handler, help, the flags it reads besides the graph source flags
# and --format/--output); a flag is a _FLAGS key, or a key and the settings
# that replace its _FLAGS entry for this subcommand.
_COMMANDS = {
    "gen": (_cmd_gen, "emit a graph", ()),
    "rank": (_cmd_rank, "classical PageRank",
             (("alpha", dict(_FLAGS["alpha"], default=None)), "bare")),
    "qrank": (_cmd_qrank, "quantum rank series", ("alpha", "steps")),
    "sweep": (_cmd_sweep, "damping-stability fidelity sweep", ("steps", "grid", "ranker")),
    "attack": (_cmd_attack, "hub-removal sensitivity report",
               ("alpha", "steps", "remove", "ranker")),
    "analyze": (_cmd_analyze, "localization / scaling / degeneracy summary",
                ("alpha", "steps", "delta",
                 ("ranker", dict(choices=("classical", "quantum", "both"), default="both")))),
    "compare": (_cmd_compare, "classical vs quantum side by side", ("alpha", "steps")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="qprank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*_SOURCE, *flags, *_OUT):
            key, settings = (flag, _FLAGS[flag]) if isinstance(flag, str) else flag
            p.add_argument(f"--{key}", **settings)
    return parser


@functools.cache
def _parser() -> _Parser:
    """One parser per process: parsing leaves it as it was."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        graph, meta = load_graph(args)
        chunks = _COMMANDS[args.command][0](graph, meta, args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except OSError as exc:
        print(f"qprank: cannot read input: {exc.filename or exc}", file=sys.stderr)
        return 2
    except GraphFormatError as exc:
        print(f"qprank: parse error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError included
        print(f"qprank: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"qprank: not enough memory: {exc}", file=sys.stderr)
        return 4

    # The run is validated and admitted; only now is the output opened, so a
    # run that fails before this point leaves no file. A write that fails, or
    # a qrank walk that runs out of memory while its rows are written, removes
    # the partial file (a device or pipe is left alone).
    fh = None
    try:
        if args.output:
            fh = open(args.output, "w", encoding="utf-8", newline="")
            with fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
    except (OSError, MemoryError) as exc:
        if fh is not None and os.path.isfile(args.output):
            with contextlib.suppress(OSError):
                os.remove(args.output)
        if isinstance(exc, MemoryError):
            print(f"qprank: not enough memory: {exc}", file=sys.stderr)
            return 4
        if not args.output:
            raise
        print(f"qprank: cannot write output: {args.output}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
