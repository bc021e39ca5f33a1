"""CSV and JSON table formats for rankings, series, sweeps, and reports.

Every CSV starts with optional ``# key=value`` comment lines carrying run
metadata, then a header row, then data rows. A metadata value may not hold a
line break, which would split its line: the CSV writers refuse it with a
ValueError as soon as they are called, before any text is made. Fields are
quoted only where they must be (a label holding ``,``, ``"``, ``\n`` or
``\r``). Floats are written as their ``repr``, the shortest round-trip
text, so identical computations always produce identical bytes; JSON spells
NaN and the infinities as the json module does. Each writer has a matching
reader used by the tests to guarantee the files can be loaded back.

Rank, attack, analyze and compare outputs are one ``Table`` in both
formats: JSON holds the CSV metadata as ``provenance`` and one object per
CSV row. Series and sweeps keep matrix-shaped JSON bodies under the same
provenance.

Every output is made as an iterator of text chunks straight from the result
arrays (or from a ``szegedy.SeriesStream``, whose walk runs as its blocks
are read), so no output is ever held whole: a JSON body has exactly the
bytes of ``json.dumps(obj, indent=2)`` plus a newline, without ``obj`` ever
being built. Every writer makes its rows through ``_rows``: a chunk is a
run of rows of about ``_CHUNK_VALUES`` values (at least one row), and each
distinct float bit pattern in it is formatted once: rankings are degenerate
and structural twins tie exactly, so the numbers repeat. Writing holds one
chunk's texts at most. ``write_rank_csv`` joins the rank table's chunks
into one string.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .analysis import AttackReport, FidelitySweep, rank_positions, ranking_order
from .graph import DirectedGraph
from .szegedy import QuantumRankSeries, SeriesStream

# Values per chunk of rows: one np.unique and one text each. A whole 64-row
# block of a 64-node series (4096 values) made qrank peak at 1.9x the memory
# of compare on the same flags.
_CHUNK_VALUES = 1024
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values, json_spelling: bool = False) -> list:
    """The ``repr`` of each float of ``values``, or the json module's spelling,
    which differs only for NaN and the infinities, as (nested) lists of the
    array's shape. Each distinct bit pattern is formatted once, so -0.0 and
    0.0 keep their own texts."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = map(repr, keys.view(np.float64).tolist())
    if json_spelling:
        texts = (_JSON_SPELLING.get(text, text) for text in texts)
    return np.array(list(texts), dtype=object)[inverse].reshape(values.shape).tolist()


_QUOTED = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """A label as the csv module writes it with a ``\r\n`` line end: quoted,
    its quotes doubled, when it holds ``,``, ``"``, ``\r`` or ``\n``."""
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


_JSON = json.JSONEncoder(indent=2)


def _texts(column, json_spelling: bool) -> list:
    """A column's fields: floats by ``_float_texts``, ints as ints (the row
    template formats them, one ``%`` call per chunk), a sequence of labels
    quoted the CSV way or as JSON strings, each distinct label once, and a
    2-D float block's rows as one field each: comma-joined for CSV, a JSON
    array for JSON."""
    if not isinstance(column, np.ndarray):
        encode = _JSON.encode if json_spelling else _csv_field
        texts = {label: encode(label) for label in set(column)}
        return list(map(texts.__getitem__, column))
    if column.ndim == 1:
        return _float_texts(column, json_spelling) if column.dtype.kind == "f" else column.tolist()
    texts = _float_texts(column, json_spelling)
    if json_spelling:
        return ["[\n      " + ",\n      ".join(row) + "\n    ]" for row in texts]
    return list(map(",".join, texts))


def _rows(columns: Sequence, template: Optional[str] = None,
          json_spelling: bool = False) -> Iterator[str]:
    """The rows of ``columns``, one text per chunk of rows. A row is
    ``template % fields``, or with no template the one column's field; JSON
    rows are array elements, joined by their separator, and CSV rows follow
    each other, the template ending the line. A column has one entry per row,
    or is a 2-D float block whose row is one field. Each chunk's fields are
    made at once by ``_texts``, and its rows by one ``%`` call."""
    sep = ",\n    " if json_spelling else ""
    width = sum(c.shape[1] if isinstance(c, np.ndarray) and c.ndim == 2 else 1 for c in columns)
    step = max(1, _CHUNK_VALUES // width)
    for start in range(0, len(columns[0]), step):
        texts = [_texts(c[start:start + step], json_spelling) for c in columns]
        if template is None:
            yield sep.join(texts[0])
            continue
        fields = [None] * (len(texts) * len(texts[0]))
        for i, column in enumerate(texts):
            fields[i::len(texts)] = column
        yield sep.join([template] * len(texts[0])) % tuple(fields)


class Table(NamedTuple):
    """One output: run metadata, a header and one column per header field,
    each a float array, an int array or a sequence of labels. CSV writes
    ``meta`` as its ``# key=value`` lines and JSON as ``provenance``."""

    meta: dict
    header: Sequence[str]
    columns: Sequence


def _csv(meta: dict, header: Sequence[str], body: Iterable[str]) -> Iterator[str]:
    """The ``# key=value`` lines of ``meta``, the header line and ``body``.
    The metadata lines are made now, so a value holding a line break, which
    would split its line, is a ValueError before any text is written."""
    lines = []
    for key, value in meta.items():
        line = f"# {key}={value}"
        if "".join(line.splitlines()) != line:
            raise ValueError(f"metadata {key}={value!r} holds a line break, which a CSV "
                             "comment line cannot hold (JSON provenance can)")
        lines.append(line + "\n")
    return itertools.chain(lines, [",".join(header) + "\n"], body)


def table_csv(table: Table) -> Iterator[str]:
    """The table as CSV chunks of lines."""
    template = ",".join(["%s"] * len(table.header)) + "\n"
    return _csv(table.meta, table.header, _rows(table.columns, template))


def _json_chunks(fields: dict) -> Iterator[str]:
    """The JSON object ``fields`` plus a newline, in chunks. A field whose value
    is an iterator of texts of runs of elements, as ``_rows`` gives them, is
    written as an array, a run at a time, so the list it stands for is never
    built."""
    sep = "{"
    for key, value in fields.items():
        yield f"{sep}\n  {_JSON.encode(key)}: "
        sep = ","
        if isinstance(value, Iterator):
            opening = "[\n    "
            for elements in value:
                yield opening + elements
                opening = ",\n    "
            yield "[]" if opening == "[\n    " else "\n  ]"
        else:  # its own dump, one level deeper: a JSON string holds no raw line break
            yield _JSON.encode(value).replace("\n", "\n  ")
    yield "\n}\n"


def table_json(table: Table) -> Iterator[str]:
    """The table as JSON chunks: ``provenance``, then one object per row keyed
    by the header."""
    record = ("{\n      " + ",\n      ".join(f"{_JSON.encode(key)}: %s" for key in table.header)
              + "\n    }")
    return _json_chunks({"provenance": table.meta, "rows": _rows(table.columns, record, True)})


def graph_json(g: DirectedGraph, meta: dict) -> Iterator[str]:
    """A graph as JSON chunks: ``provenance``, the node count, one ``[src, dst]``
    pair per arc, and the labels or null."""
    return _json_chunks({
        "provenance": meta, "node_count": g.node_count,
        "arcs": _rows([g.sources(), g.targets], "[\n      %d,\n      %d\n    ]", True),
        "labels": None if g.labels is None else _rows([g.labels], json_spelling=True)})


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


def _ordered(labels: Optional[Sequence[str]], order: np.ndarray) -> list[str]:
    """The labels in ``order``, or empty labels."""
    return [""] * len(order) if labels is None else [labels[i] for i in order.tolist()]


def rank_table(values: np.ndarray, labels: Optional[Sequence[str]] = None,
               meta: Optional[dict] = None) -> Table:
    """One row per node, by descending score with ties by index."""
    order = ranking_order(values)
    return Table(meta or {}, _RANK_HEADER,
                 (order, _ordered(labels, order), np.asarray(values, dtype=np.float64)[order]))


def write_rank_csv(values: np.ndarray, labels: Optional[Sequence[str]] = None,
                   meta: Optional[dict] = None) -> str:
    return "".join(table_csv(rank_table(values, labels, meta)))


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
    """The series as CSV chunks: rows for two-steps m = 0, 1, ..., then the
    ``avg`` row, whose values are read only once the rows are written."""
    def rows():
        m = 0
        for block in series.blocks():
            yield from _rows([np.arange(m, m + len(block)), block], "%s,%s\n")
            m += len(block)
        yield from _rows([["avg"], np.asarray(series.average, dtype=np.float64)[None]], "%s,%s\n")

    header = ["m", *(f"node_{i}" for i in range(series.node_count))]
    return _csv(meta or {}, header, rows())


def read_series_csv(text: str) -> tuple[QuantumRankSeries, dict]:
    meta, _, rows = _read(text, ["m"], "series")
    if not rows or rows[-1][0] != "avg":
        raise ValueError("series csv missing avg row")
    inst = np.array([[float(x) for x in row[1:]] for row in rows[:-1]])
    avg = np.array([float(x) for x in rows[-1][1:]])
    return QuantumRankSeries(inst, avg), meta


def series_json(series: QuantumRankSeries | SeriesStream,
                meta: Optional[dict] = None) -> Iterator[str]:
    """The series as JSON chunks of two-steps, then of the average, which is
    read only once the rows are written."""
    def average():
        yield from _rows([np.asarray(series.average, dtype=np.float64)], json_spelling=True)

    return _json_chunks({
        "provenance": meta or {},
        "steps": series.steps,
        "instantaneous": (rows for block in series.blocks()
                          for rows in _rows([block], json_spelling=True)),
        "average": average(),
    })


# --- fidelity sweeps ---

def _sweep_meta(sweep: FidelitySweep, meta: Optional[dict]) -> dict:
    return {**(meta or {}), "min_fidelity": float(sweep.min_fidelity)}


def sweep_csv(sweep: FidelitySweep, meta: Optional[dict] = None) -> Iterator[str]:
    """The pairwise fidelities as CSV chunks, one row per alpha."""
    grid = np.asarray(sweep.alpha_grid, dtype=np.float64)
    return _csv(_sweep_meta(sweep, meta), ["alpha", *_float_texts(grid)],
                _rows([grid, np.asarray(sweep.pairwise)], "%s,%s\n"))


def read_sweep_csv(text: str) -> tuple[tuple[float, ...], np.ndarray, dict]:
    meta, header, rows = _read(text, ["alpha"], "sweep")
    grid = tuple(float(a) for a in header[1:])
    matrix = np.array([[float(x) for x in row[1:]] for row in rows])
    return grid, matrix, meta


def sweep_json(sweep: FidelitySweep, meta: Optional[dict] = None) -> Iterator[str]:
    """The sweep as JSON chunks of the grid and of the rows of each matrix."""
    return _json_chunks({
        "provenance": _sweep_meta(sweep, meta),
        "alpha_grid": _rows([np.asarray(sweep.alpha_grid, dtype=np.float64)], json_spelling=True),
        "pairwise_fidelity": _rows([np.asarray(sweep.pairwise)], json_spelling=True),
        "rank_vectors": _rows([np.asarray(sweep.rank_vectors)], json_spelling=True),
    })


# --- attack reports ---

_ATTACK_HEADER = ("survivor", "original_index", "pre_value", "post_value")


def attack_table(report: AttackReport, meta: Optional[dict] = None) -> Table:
    """One row per survivor, by its index after the removal; the metadata
    adds the removed nodes and the two sensitivity figures."""
    meta = {**(meta or {}), "removed": ";".join(str(i) for i in report.removed),
            "correlation": float(report.correlation),
            "mean_displacement": float(report.mean_displacement)}
    return Table(meta, _ATTACK_HEADER,
                 (np.arange(len(report.survivors)), np.asarray(report.survivors, dtype=np.int64),
                  np.asarray(report.pre_ranking, dtype=np.float64),
                  np.asarray(report.post_ranking, dtype=np.float64)))


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
    return Table(meta or {}, _COMPARE_HEADER,
                 (order, _ordered(labels, order),
                  np.asarray(classical, dtype=np.float64)[order],
                  np.asarray(quantum, dtype=np.float64)[order],
                  rank_positions(classical)[order] + 1, rank_positions(quantum)[order] + 1))


def read_compare_csv(text: str) -> tuple[np.ndarray, np.ndarray, dict]:
    meta, _, rows = _read(text, _COMPARE_HEADER, "compare")
    classical, quantum = np.zeros(len(rows)), np.zeros(len(rows))
    for row in rows:
        classical[int(row[0])] = float(row[2])
        quantum[int(row[0])] = float(row[3])
    return classical, quantum, meta
