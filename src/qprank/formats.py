"""CSV and JSON table formats for rankings, series, sweeps, and reports.

Every CSV starts with optional ``# key=value`` comment lines carrying run
metadata, then a header row, then data rows. Fields are quoted only where
they must be (a label holding ``,``, ``"``, ``\n`` or ``\r``). Floats are
written with their shortest round-trip representation so identical
computations always produce identical bytes. Each writer has a matching
reader used by the tests to guarantee the files can be loaded back.

Rank, attack, analyze and compare outputs are one ``Table`` in both
formats: JSON holds the CSV metadata as ``provenance`` and one object per
CSV row. Series and sweeps keep matrix-shaped JSON bodies under the same
provenance.

Every output is made as an iterator of text chunks, one row at a time,
straight from the result arrays (or from a ``szegedy.SeriesStream``, whose
walk runs as its rows are read), so no output is ever held whole: a JSON
body has exactly the bytes of ``json.dumps(obj, indent=2)`` plus a newline,
without ``obj`` ever being built. The ``write_*`` helpers join the same
chunks into one string.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .analysis import AttackReport, FidelitySweep, rank_positions, ranking_order
from .graph import DirectedGraph
from .szegedy import QuantumRankSeries, SeriesStream


def _floats(values) -> list[float]:
    """Python floats, whose ``str`` is their shortest round-trip ``repr``."""
    return np.asarray(values, dtype=np.float64).tolist()


class Table(NamedTuple):
    """One output: run metadata, a header and rows of Python scalars. CSV
    writes ``meta`` as its ``# key=value`` lines and JSON as ``provenance``.
    ``rows`` may be a one-pass iterator; each writer reads it once."""

    meta: dict
    header: Sequence[str]
    rows: Iterable[tuple]


class _Echo:
    """A file whose ``write`` returns its text, so ``csv.writer.writerow``
    returns the row it would have written: ended by ``\r\n``, so that the
    writer quotes a field holding either line break, and returned ending ``\n``."""

    @staticmethod
    def write(text: str) -> str:
        return text[:-2] + "\n"


def table_csv(table: Table) -> Iterator[str]:
    """The table as CSV chunks, one line each; a float field is written as its
    repr. Only a ``label`` column holds free text, which the csv module quotes
    if needed."""
    for key, value in table.meta.items():
        yield f"# {key}={value}\n"
    if "label" in table.header:
        writer = csv.writer(_Echo(), lineterminator="\r\n")
        yield writer.writerow(table.header)
        yield from map(writer.writerow, table.rows)
    else:  # one format string per row: faster than the csv module
        yield ",".join(table.header) + "\n"
        line = ",".join(["%s"] * len(table.header)) + "\n"
        yield from (line % row for row in table.rows)


def write_csv(table: Table) -> str:
    return "".join(table_csv(table))


_JSON = json.JSONEncoder(indent=2)
# Without ``indent`` the json module runs its C encoder. With these separators
# it lays out a flat list or object as ``indent=2`` does two levels deep, all
# but the brackets.
_ROW = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_row(value) -> str:
    """A scalar, or a list or object of scalars, as ``json.dumps(indent=2)``
    writes it as an element of a second-level array."""
    text = _ROW.encode(value)
    if text[0] in "[{" and len(text) > 2:
        return f"{text[0]}\n      {text[1:-1]}\n    {text[-1]}"
    return text


def _json_array(rows: Iterator) -> Iterator[str]:
    """A second-level JSON array, one row per chunk."""
    sep = "["
    for row in rows:
        yield f"{sep}\n    {_json_row(row)}"
        sep = ","
    yield "[]" if sep == "[" else "\n  ]"


def _json_chunks(fields: dict) -> Iterator[str]:
    """The JSON object ``fields`` plus a newline, in chunks. A field whose value
    is an iterator of rows (scalars, or lists or objects of scalars) is written
    as an array, one row per chunk, so the list it stands for is never built."""
    sep = "{"
    for key, value in fields.items():
        yield f"{sep}\n  {_JSON.encode(key)}: "
        sep = ","
        if isinstance(value, Iterator):
            yield from _json_array(value)
        else:  # its own dump, one level deeper: a JSON string holds no raw line break
            yield _JSON.encode(value).replace("\n", "\n  ")
    yield "\n}\n"


def table_json(table: Table) -> Iterator[str]:
    """The table as JSON chunks: ``provenance``, then one object per row keyed
    by the header."""
    return _json_chunks({"provenance": table.meta,
                         "rows": (dict(zip(table.header, row)) for row in table.rows)})


def graph_json(g: DirectedGraph, meta: dict) -> Iterator[str]:
    """A graph as JSON chunks: ``provenance``, the node count, one ``[src, dst]``
    pair per arc, and the labels or null."""
    return _json_chunks({
        "provenance": meta,
        "node_count": g.node_count,
        "arcs": map(list, zip(g.sources().tolist(), g.targets.tolist())),
        "labels": None if g.labels is None else iter(g.labels),
    })


def _split_csv(text: str) -> tuple[dict, list[list[str]]]:
    """The ``# key=value`` lines that open a CSV, and its rows, read in one
    csv pass, so that a quoted field may hold ``\n`` and ``\r``."""
    lines, meta = io.StringIO(text, newline=""), {}
    for line in lines:
        if line.strip()[:1] not in ("", "#"):
            return meta, [row for row in csv.reader(itertools.chain([line], lines)) if row]
        key, eq, value = line.strip()[1:].partition("=")
        if eq:
            meta[key.strip()] = value.strip()
    return meta, []


def _read(text: str, header: Sequence[str], kind: str) -> tuple[dict, list, list]:
    """The metadata, header row and data rows of a CSV whose header opens
    with ``header``."""
    meta, rows = _split_csv(text)
    if not rows or rows[0][:len(header)] != list(header):
        raise ValueError(f"not a {kind} csv: missing header")
    return meta, rows[0], rows[1:]


# --- rank vectors ---

_RANK_HEADER = ("node_index", "label", "score")


def rank_table(values: np.ndarray, labels: Optional[Sequence[str]] = None,
               meta: Optional[dict] = None) -> Table:
    """One row per node, by descending score with ties by index."""
    order = ranking_order(values)
    nodes = order.tolist()
    names = [""] * len(nodes) if labels is None else [labels[i] for i in nodes]
    return Table(meta or {}, _RANK_HEADER,
                 list(zip(nodes, names, _floats(np.asarray(values)[order]))))


def write_rank_csv(values: np.ndarray, labels: Optional[Sequence[str]] = None,
                   meta: Optional[dict] = None) -> str:
    return write_csv(rank_table(values, labels, meta))


def read_rank_csv(text: str) -> tuple[np.ndarray, list[str], dict]:
    meta, _, rows = _read(text, _RANK_HEADER, "rank")
    values, labels = np.zeros(len(rows)), [""] * len(rows)
    for idx_s, label, score in rows:
        values[int(idx_s)] = float(score)
        labels[int(idx_s)] = label
    return values, labels, meta


# --- quantum rank series ---

def series_csv(series: QuantumRankSeries | SeriesStream,
               meta: Optional[dict] = None) -> Iterator[str]:
    """The series as CSV chunks: one row per two-step m, then the ``avg`` row,
    whose values are read only once the rows are written."""
    def rows():
        for m, row in enumerate(series.instantaneous):
            yield (m, *_floats(row))
        yield ("avg", *_floats(series.average))

    header = ["m", *(f"node_{i}" for i in range(series.node_count))]
    return table_csv(Table(meta or {}, header, rows()))


def write_series_csv(series: QuantumRankSeries, meta: Optional[dict] = None) -> str:
    return "".join(series_csv(series, meta))


def read_series_csv(text: str) -> tuple[QuantumRankSeries, dict]:
    meta, _, rows = _read(text, ["m"], "series")
    if not rows or rows[-1][0] != "avg":
        raise ValueError("series csv missing avg row")
    inst = np.array([[float(x) for x in row[1:]] for row in rows[:-1]])
    avg = np.array([float(x) for x in rows[-1][1:]])
    return QuantumRankSeries(inst, avg), meta


def series_json(series: QuantumRankSeries | SeriesStream,
                meta: Optional[dict] = None) -> Iterator[str]:
    """The series as JSON chunks, one per two-step, then one per value of the
    average, which is read only once the rows are written."""
    def average():
        yield from _floats(series.average)

    return _json_chunks({
        "provenance": meta or {},
        "steps": series.steps,
        "instantaneous": map(_floats, series.instantaneous),
        "average": average(),
    })


# --- fidelity sweeps ---

def _sweep_meta(sweep: FidelitySweep, meta: Optional[dict]) -> dict:
    return {**(meta or {}), "min_fidelity": float(sweep.min_fidelity)}


def sweep_csv(sweep: FidelitySweep, meta: Optional[dict] = None) -> Iterator[str]:
    """The pairwise fidelities as CSV chunks, one row per alpha."""
    grid = _floats(sweep.alpha_grid)
    rows = ((a, *_floats(row)) for a, row in zip(grid, sweep.pairwise))
    return table_csv(Table(_sweep_meta(sweep, meta), ["alpha", *map(str, grid)], rows))


def write_sweep_csv(sweep: FidelitySweep, meta: Optional[dict] = None) -> str:
    return "".join(sweep_csv(sweep, meta))


def read_sweep_csv(text: str) -> tuple[tuple[float, ...], np.ndarray, dict]:
    meta, header, rows = _read(text, ["alpha"], "sweep")
    grid = tuple(float(a) for a in header[1:])
    matrix = np.array([[float(x) for x in row[1:]] for row in rows])
    return grid, matrix, meta


def sweep_json(sweep: FidelitySweep, meta: Optional[dict] = None) -> Iterator[str]:
    """The sweep as JSON chunks, one per row of each matrix."""
    return _json_chunks({
        "provenance": _sweep_meta(sweep, meta),
        "alpha_grid": _floats(sweep.alpha_grid),
        "pairwise_fidelity": map(_floats, sweep.pairwise),
        "rank_vectors": map(_floats, sweep.rank_vectors),
    })


# --- attack reports ---

_ATTACK_HEADER = ("survivor", "original_index", "pre_value", "post_value")


def attack_table(report: AttackReport, meta: Optional[dict] = None) -> Table:
    """One row per survivor, by its index after the removal; the metadata
    adds the removed nodes and the two sensitivity figures."""
    meta = {**(meta or {}), "removed": ";".join(str(i) for i in report.removed),
            "correlation": float(report.correlation),
            "mean_displacement": float(report.mean_displacement)}
    rows = list(zip(range(len(report.survivors)), report.survivors,
                    _floats(report.pre_ranking), _floats(report.post_ranking)))
    return Table(meta, _ATTACK_HEADER, rows)


def read_attack_csv(text: str) -> tuple[np.ndarray, np.ndarray, dict]:
    meta, _, rows = _read(text, _ATTACK_HEADER, "attack")
    pre = np.array([float(row[2]) for row in rows])
    post = np.array([float(row[3]) for row in rows])
    return pre, post, meta


# --- side-by-side comparison ---

_COMPARE_HEADER = ("node", "label", "classical", "quantum_avg", "classical_rank", "quantum_rank")


def compare_table(labels: Optional[Sequence[str]], classical: np.ndarray,
                  quantum: np.ndarray, meta: Optional[dict] = None) -> Table:
    """One row per node, in classical rank order; ranks start at 1."""
    order = ranking_order(classical)
    nodes = order.tolist()
    names = [""] * len(nodes) if labels is None else [labels[i] for i in nodes]
    return Table(meta or {}, _COMPARE_HEADER,
                 list(zip(nodes, names,
                          _floats(np.asarray(classical)[order]),
                          _floats(np.asarray(quantum)[order]),
                          (rank_positions(classical)[order] + 1).tolist(),
                          (rank_positions(quantum)[order] + 1).tolist())))


def read_compare_csv(text: str) -> tuple[np.ndarray, np.ndarray, dict]:
    meta, _, rows = _read(text, _COMPARE_HEADER, "compare")
    classical, quantum = np.zeros(len(rows)), np.zeros(len(rows))
    for row in rows:
        classical[int(row[0])] = float(row[2])
        quantum[int(row[0])] = float(row[3])
    return classical, quantum, meta
