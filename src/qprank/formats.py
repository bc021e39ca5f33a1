"""CSV and JSON table formats for rankings, series, sweeps, and reports.

Every CSV starts with optional ``# key=value`` comment lines carrying run
metadata, then a header row, then data rows. Fields are quoted only where
they must be (a label holding ``,`` or ``"``). Floats are written with their
shortest round-trip representation so identical computations always produce
identical bytes. Each writer has a matching reader used by the tests to
guarantee the files can be loaded back.

Rank, attack, analyze and compare outputs are one ``Table`` in both
formats: JSON holds the CSV metadata as ``provenance`` and one object per
CSV row. Series and sweeps keep matrix-shaped JSON bodies under the same
provenance.
"""

from __future__ import annotations

import csv
import io
import json
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analysis import AttackReport, FidelitySweep, rank_positions, ranking_order
from .szegedy import QuantumRankSeries


def _floats(values) -> list[float]:
    """Python floats, whose ``str`` is their shortest round-trip ``repr``."""
    return np.asarray(values, dtype=np.float64).tolist()


class Table(NamedTuple):
    """One output: run metadata, a header and rows of Python scalars. CSV
    writes ``meta`` as its ``# key=value`` lines and JSON as ``provenance``."""

    meta: dict
    header: Sequence[str]
    rows: Sequence[tuple]


def write_csv(table: Table) -> str:
    """The table as CSV; a float field is written as its repr. Only a
    ``label`` column holds free text, which the csv module quotes if needed."""
    head = "".join(f"# {key}={value}\n" for key, value in table.meta.items())
    if "label" not in table.header:  # one format string per row: faster than the csv module
        line = ",".join(["%s"] * len(table.header)) + "\n"
        return head + ",".join(table.header) + "\n" + "".join([line % row for row in table.rows])
    out = io.StringIO()
    out.write(head)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows(table.rows)
    return out.getvalue()


def records_json(table: Table) -> dict:
    """The table as JSON: ``provenance``, then one object per row keyed by the header."""
    return {"provenance": table.meta,
            "rows": [dict(zip(table.header, row)) for row in table.rows]}


def _split_csv(text: str) -> tuple[dict, list[list[str]]]:
    lines = [line.strip() for line in text.splitlines()]
    meta = dict(map(str.strip, line[1:].split("=", 1)) for line in lines
                if line.startswith("#") and "=" in line)
    return meta, list(csv.reader(line for line in lines if line and line[0] != "#"))


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

def write_series_csv(series: QuantumRankSeries, meta: Optional[dict] = None) -> str:
    rows = [(m, *row) for m, row in enumerate(_floats(series.instantaneous))]
    rows.append(("avg", *_floats(series.average)))
    header = ["m", *(f"node_{i}" for i in range(series.node_count))]
    return write_csv(Table(meta or {}, header, rows))


def read_series_csv(text: str) -> tuple[QuantumRankSeries, dict]:
    meta, _, rows = _read(text, ["m"], "series")
    if not rows or rows[-1][0] != "avg":
        raise ValueError("series csv missing avg row")
    inst = np.array([[float(x) for x in row[1:]] for row in rows[:-1]])
    avg = np.array([float(x) for x in rows[-1][1:]])
    return QuantumRankSeries(inst, avg), meta


def series_json(series: QuantumRankSeries, meta: Optional[dict] = None) -> dict:
    return {
        "provenance": meta or {},
        "steps": series.steps,
        "instantaneous": _floats(series.instantaneous),
        "average": _floats(series.average),
    }


# --- fidelity sweeps ---

def _sweep_meta(sweep: FidelitySweep, meta: Optional[dict]) -> dict:
    return {**(meta or {}), "min_fidelity": float(sweep.min_fidelity)}


def write_sweep_csv(sweep: FidelitySweep, meta: Optional[dict] = None) -> str:
    grid = _floats(sweep.alpha_grid)
    rows = [(a, *row) for a, row in zip(grid, _floats(sweep.pairwise))]
    return write_csv(Table(_sweep_meta(sweep, meta), ["alpha", *map(str, grid)], rows))


def read_sweep_csv(text: str) -> tuple[tuple[float, ...], np.ndarray, dict]:
    meta, header, rows = _read(text, ["alpha"], "sweep")
    grid = tuple(float(a) for a in header[1:])
    matrix = np.array([[float(x) for x in row[1:]] for row in rows])
    return grid, matrix, meta


def sweep_json(sweep: FidelitySweep, meta: Optional[dict] = None) -> dict:
    return {
        "provenance": _sweep_meta(sweep, meta),
        "alpha_grid": _floats(sweep.alpha_grid),
        "pairwise_fidelity": _floats(sweep.pairwise),
        "rank_vectors": _floats(sweep.rank_vectors),
    }


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


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"
