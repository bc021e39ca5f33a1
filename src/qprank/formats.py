"""CSV and JSON table formats for rankings, series, sweeps, and reports.

Every CSV starts with optional ``# key=value`` comment lines carrying run
metadata, then a header row, then data rows. Fields are quoted only where
they must be (a label holding ``,`` or ``"``). Floats are written with their
shortest round-trip representation so identical computations always produce
identical bytes. Each writer has a matching reader used by the tests to
guarantee the files can be loaded back.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional, Sequence

import numpy as np

from .analysis import AttackReport, FidelitySweep, rank_positions, ranking_order
from .szegedy import QuantumRankSeries


def fmt(x: float) -> str:
    """Shortest exact decimal form of a float."""
    return repr(float(x))


def _fmt_all(values) -> list[str]:
    """``fmt`` of each entry, in bulk: ``tolist`` yields Python floats, whose
    repr is the text ``fmt`` writes."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _meta_lines(meta: Optional[dict]) -> str:
    return "".join(f"# {key}={value}\n" for key, value in (meta or {}).items())


def write_csv(meta: Optional[dict], header: Sequence[str], rows) -> str:
    """CSV through the csv module, quoting fields (labels) where needed; a
    Python float field is written as its repr, the text of ``fmt``."""
    out = io.StringIO()
    out.write(_meta_lines(meta))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def records_json(meta: Optional[dict], header: Sequence[str], rows) -> dict:
    """The JSON form of a ``write_csv`` table: one object per row, keyed by
    the header."""
    return {"provenance": meta or {}, "rows": [dict(zip(header, row)) for row in rows]}


def _write_plain(meta: Optional[dict], header: Sequence[str], lines: Sequence[str]) -> str:
    """The text ``write_csv`` gives for tables without labels, whose fields
    never need quoting, from data rows already joined by commas."""
    text = _meta_lines(meta) + ",".join(header) + "\n"
    if lines:
        text += "\n".join(lines) + "\n"
    return text


def _split_csv(text: str) -> tuple[dict, list[list[str]]]:
    meta: dict[str, str] = {}
    lines = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        lines.append(line)
    return meta, list(csv.reader(lines))


# --- rank vectors ---

def write_rank_csv(values: np.ndarray, labels: Optional[Sequence[str]] = None,
                   meta: Optional[dict] = None) -> str:
    order = ranking_order(values)
    rows = order.tolist()
    names = [""] * len(rows) if labels is None else [labels[i] for i in rows]
    scores = _fmt_all(np.asarray(values)[order])
    return write_csv(meta, ["node_index", "label", "score"], zip(rows, names, scores))


def read_rank_csv(text: str) -> tuple[np.ndarray, list[str], dict]:
    meta, rows = _split_csv(text)
    if not rows or rows[0] != ["node_index", "label", "score"]:
        raise ValueError("not a rank csv: missing header")
    body = rows[1:]
    values = np.zeros(len(body))
    labels = [""] * len(body)
    for idx_s, label, score in body:
        values[int(idx_s)] = float(score)
        labels[int(idx_s)] = label
    return values, labels, meta


# --- quantum rank series ---

def write_series_csv(series: QuantumRankSeries, meta: Optional[dict] = None) -> str:
    lines = [",".join([str(m), *_fmt_all(row)]) for m, row in enumerate(series.instantaneous)]
    lines.append(",".join(["avg", *_fmt_all(series.average)]))
    return _write_plain(meta, ["m", *(f"node_{i}" for i in range(series.node_count))], lines)


def read_series_csv(text: str) -> tuple[QuantumRankSeries, dict]:
    meta, rows = _split_csv(text)
    if not rows or rows[0][0] != "m":
        raise ValueError("not a series csv: missing header")
    if rows[-1][0] != "avg":
        raise ValueError("series csv missing avg row")
    inst = np.array([[float(x) for x in row[1:]] for row in rows[1:-1]])
    avg = np.array([float(x) for x in rows[-1][1:]])
    return QuantumRankSeries(inst, avg), meta


def series_json(series: QuantumRankSeries, meta: Optional[dict] = None) -> dict:
    return {
        "provenance": meta or {},
        "steps": series.steps,
        "instantaneous": [[float(x) for x in row] for row in series.instantaneous],
        "average": [float(x) for x in series.average],
    }


# --- fidelity sweeps ---

def write_sweep_csv(sweep: FidelitySweep, meta: Optional[dict] = None) -> str:
    merged = dict(meta or {})
    merged["min_fidelity"] = fmt(sweep.min_fidelity)
    grid = _fmt_all(sweep.alpha_grid)
    return _write_plain(merged, ["alpha", *grid],
                        [",".join([a, *_fmt_all(row)]) for a, row in zip(grid, sweep.pairwise)])


def read_sweep_csv(text: str) -> tuple[tuple[float, ...], np.ndarray, dict]:
    meta, rows = _split_csv(text)
    if not rows or rows[0][0] != "alpha":
        raise ValueError("not a sweep csv: missing header")
    grid = tuple(float(a) for a in rows[0][1:])
    matrix = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    return grid, matrix, meta


def sweep_json(sweep: FidelitySweep, meta: Optional[dict] = None) -> dict:
    return {
        "provenance": meta or {},
        "alpha_grid": [float(a) for a in sweep.alpha_grid],
        "min_fidelity": float(sweep.min_fidelity),
        "pairwise_fidelity": [[float(x) for x in row] for row in sweep.pairwise],
        "rank_vectors": [[float(x) for x in row] for row in sweep.rank_vectors],
    }


# --- attack reports ---

def write_attack_csv(report: AttackReport, meta: Optional[dict] = None) -> str:
    merged = dict(meta or {})
    merged["removed"] = ";".join(str(i) for i in report.removed)
    merged["correlation"] = fmt(report.correlation)
    merged["mean_displacement"] = fmt(report.mean_displacement)
    return _write_plain(merged, ["survivor", "original_index", "pre_value", "post_value"],
                        list(map("{},{},{},{}".format, range(len(report.survivors)),
                                 report.survivors, _fmt_all(report.pre_ranking),
                                 _fmt_all(report.post_ranking))))


def read_attack_csv(text: str) -> tuple[np.ndarray, np.ndarray, dict]:
    meta, rows = _split_csv(text)
    if not rows or rows[0][0] != "survivor":
        raise ValueError("not an attack csv: missing header")
    pre = np.array([float(row[2]) for row in rows[1:]])
    post = np.array([float(row[3]) for row in rows[1:]])
    return pre, post, meta


def attack_json(report: AttackReport, meta: Optional[dict] = None) -> dict:
    return {
        "provenance": meta or {},
        "removed": list(report.removed),
        "survivors": list(report.survivors),
        "pre_ranking": [float(x) for x in report.pre_ranking],
        "post_ranking": [float(x) for x in report.post_ranking],
        "rank_correlation": float(report.correlation),
        "mean_displacement": float(report.mean_displacement),
    }


# --- side-by-side comparison ---

_COMPARE_HEADER = ["node", "label", "classical", "quantum_avg", "classical_rank", "quantum_rank"]


def _compare_rows(labels: Sequence[str], classical: np.ndarray,
                  quantum: np.ndarray) -> list[tuple]:
    """One row per node, in classical rank order, of Python scalars."""
    order = ranking_order(classical)
    nodes = order.tolist()
    return list(zip(nodes, [labels[i] for i in nodes],
                    np.asarray(classical, dtype=np.float64)[order].tolist(),
                    np.asarray(quantum, dtype=np.float64)[order].tolist(),
                    (rank_positions(classical)[order] + 1).tolist(),
                    (rank_positions(quantum)[order] + 1).tolist()))


def write_compare_csv(labels: Sequence[str], classical: np.ndarray,
                      quantum: np.ndarray, meta: Optional[dict] = None) -> str:
    return write_csv(meta, _COMPARE_HEADER, _compare_rows(labels, classical, quantum))


def read_compare_csv(text: str) -> tuple[np.ndarray, np.ndarray, dict]:
    meta, rows = _split_csv(text)
    if not rows or rows[0] != _COMPARE_HEADER:
        raise ValueError("not a compare csv: missing header")
    n = len(rows) - 1
    classical = np.zeros(n)
    quantum = np.zeros(n)
    for row in rows[1:]:
        classical[int(row[0])] = float(row[2])
        quantum[int(row[0])] = float(row[3])
    return classical, quantum, meta


def compare_json(labels: Sequence[str], classical: np.ndarray, quantum: np.ndarray,
                 meta: Optional[dict] = None) -> dict:
    return records_json(meta, _COMPARE_HEADER, _compare_rows(labels, classical, quantum))


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"
