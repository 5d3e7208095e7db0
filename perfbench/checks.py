"""Correctness checks on the CSV files the ops write.

Every CSV must have the expected row count and finite values; mixedness
columns lie in [0, 3/4], concurrence columns in [0, 1], purity columns in
[1/4, 1]; Bell-basis populations satisfy
singlet_pop + triplet0_pop + 2 t1t2_pop = 1; oracle deviations stay within
the oracle tolerance. For the default seed the values must also agree with
the reference recorded in ``reference.json`` (sampled rows and column means).
All of these use the absolute tolerance TOL.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOL = 1e-10
REFERENCE = Path(__file__).with_name("reference.json")
SAMPLE_ROWS = 9


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    data = np.array([ln.split(",") for ln in lines[1:]], dtype=float).reshape(-1, len(columns))
    return columns, data


def _range_errors(name: str, col: np.ndarray) -> list[str]:
    if name == "d" or name.startswith("d_"):
        lo, hi = 0.0, 0.75
    elif name.startswith("concurrence"):
        lo, hi = 0.0, 1.0
    elif name.startswith("purity"):
        lo, hi = 0.25, 1.0
    else:
        return []
    if col.min() < lo - TOL or col.max() > hi + TOL:
        return [f"{name} outside [{lo}, {hi}]: min {col.min():.3e}, max {col.max():.3e}"]
    return []


def summary(columns: list[str], data: np.ndarray) -> dict:
    """What the reference keeps of one CSV: sampled rows and column means."""
    idx = np.unique(np.linspace(0, data.shape[0] - 1, SAMPLE_ROWS).round().astype(int))
    return {
        "columns": columns,
        "rows": int(data.shape[0]),
        "sample_index": idx.tolist(),
        "sample_rows": data[idx].tolist(),
        "column_mean": data.mean(axis=0).tolist(),
    }


def check_csv(path: Path, expected_rows: int, reference: dict | None) -> list[str]:
    """Every failed check on one CSV, as one-line messages."""
    if not path.is_file():
        return [f"missing output {path.name}"]
    try:
        columns, data = read_csv(path)
    except (ValueError, IndexError) as exc:
        return [f"unreadable CSV {path.name}: {exc}"]
    errors = []
    if data.shape[0] != expected_rows:
        errors.append(f"{data.shape[0]} rows, expected {expected_rows}")
    if not np.all(np.isfinite(data)):
        return errors + ["non-finite values"]
    for k, name in enumerate(columns):
        errors += _range_errors(name, data[:, k])
    if "singlet_pop" in columns:
        col = {name: data[:, k] for k, name in enumerate(columns)}
        resid = np.abs(col["singlet_pop"] + col["triplet0_pop"] + 2.0 * col["t1t2_pop"] - 1.0).max()
        if resid > TOL:
            errors.append(f"Bell trace identity off by {resid:.3e}")
    if "max_abs_dev" in columns:
        dev = data[:, columns.index("max_abs_dev")].max()
        if dev > TOL:
            errors.append(f"oracle deviation {dev:.3e} above {TOL:.0e}")
    if reference is not None and not errors:
        errors += compare(summary(columns, data), reference)
    return errors


def compare(got: dict, ref: dict) -> list[str]:
    if got["columns"] != ref["columns"] or got["rows"] != ref["rows"]:
        return [f"layout {got['columns']} x {got['rows']} differs from the reference"]
    errors = []
    for key in ("sample_rows", "column_mean"):
        dev = float(np.abs(np.array(got[key]) - np.array(ref[key])).max())
        if dev > TOL:
            errors.append(f"{key} differs from the reference by {dev:.3e}")
    return errors


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})
