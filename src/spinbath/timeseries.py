"""Sampled trajectories with metadata, written as diff-friendly CSV files."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class TimeSeriesError(ValueError):
    pass


@dataclass
class TimeSeries:
    """Columnar samples; the first column must be strictly increasing."""

    columns: list[str]
    data: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise TimeSeriesError(
                f"data shape {self.data.shape} does not match {len(self.columns)} columns"
            )
        axis = self.data[:, 0]
        if axis.size > 1 and np.any(np.diff(axis) <= 0.0):
            raise TimeSeriesError(f"column {self.columns[0]!r} must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def write_csv(self, path: str | Path) -> None:
        """Write '#'-prefixed metadata, a header row, then the samples.

        Formatting is fixed ('%.12e') so repeated runs of the same scenario
        produce byte-identical files.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"# {key} = {value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        row_format = ",".join(["%.12e"] * len(self.columns))
        lines.extend(row_format % tuple(row) for row in self.data.tolist())
        path.write_text("\n".join(lines) + "\n")


def read_csv(path: str | Path) -> TimeSeries:
    metadata: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[float]] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        elif not columns:
            columns = [c.strip() for c in line.split(",")]
        else:
            rows.append([float(v) for v in line.split(",")])
    return TimeSeries(columns=columns, data=np.array(rows), metadata=metadata)
