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

from .analysis import (AttackReport, FidelitySweep, PowerLawFit, rank_positions,
                       ranking_order)
from .szegedy import QuantumRankSeries


def fmt(x: float) -> str:
    """Shortest exact decimal form of a float."""
    return repr(float(x))


def _write_csv(meta: Optional[dict], header: Sequence[str], rows) -> str:
    out = io.StringIO()
    for key, value in (meta or {}).items():
        out.write(f"# {key}={value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


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
    labels = labels if labels is not None else [""] * len(values)
    return _write_csv(meta, ["node_index", "label", "score"],
                      ([idx, labels[idx], fmt(values[idx])] for idx in ranking_order(values)))


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
    rows = [[m, *map(fmt, row)] for m, row in enumerate(series.instantaneous)]
    rows.append(["avg", *map(fmt, series.average)])
    return _write_csv(meta, ["m", *(f"node_{i}" for i in range(series.node_count))], rows)


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
    grid = [fmt(a) for a in sweep.alpha_grid]
    return _write_csv(merged, ["alpha", *grid],
                      ([a, *map(fmt, row)] for a, row in zip(grid, sweep.pairwise)))


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
    return _write_csv(merged, ["survivor", "original_index", "pre_value", "post_value"],
                      ([new_idx, old_idx, fmt(report.pre_ranking[new_idx]),
                        fmt(report.post_ranking[new_idx])]
                       for new_idx, old_idx in enumerate(report.survivors)))


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


# --- power-law fits ---

def fit_json(fit: PowerLawFit, meta: Optional[dict] = None) -> dict:
    return {
        "provenance": meta or {},
        "exponent": float(fit.exponent),
        "intercept": float(fit.intercept),
        "r_squared": float(fit.r_squared),
        "fitted_range": list(fit.fitted_range),
    }


# --- side-by-side comparison ---

_COMPARE_HEADER = ["node", "label", "classical", "quantum_avg", "classical_rank", "quantum_rank"]


def write_compare_csv(labels: Sequence[str], classical: np.ndarray,
                      quantum: np.ndarray, meta: Optional[dict] = None) -> str:
    cls_rank = rank_positions(classical) + 1
    qu_rank = rank_positions(quantum) + 1
    return _write_csv(meta, _COMPARE_HEADER,
                      ([node, labels[node], fmt(classical[node]), fmt(quantum[node]),
                        cls_rank[node], qu_rank[node]] for node in ranking_order(classical)))


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
    cls_rank = rank_positions(classical) + 1
    qu_rank = rank_positions(quantum) + 1
    return {
        "provenance": meta or {},
        "rows": [
            {
                "node": int(node),
                "label": labels[node],
                "classical": float(classical[node]),
                "quantum_avg": float(quantum[node]),
                "classical_rank": int(cls_rank[node]),
                "quantum_rank": int(qu_rank[node]),
            }
            for node in ranking_order(classical)
        ],
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"
