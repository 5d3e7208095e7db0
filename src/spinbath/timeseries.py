"""Sampled trajectories with metadata, written as diff-friendly CSV files."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_CSV_PASS = 1 << 12  # values per formatting pass of TimeSeries.write_csv


def _digit_words() -> np.ndarray:
    """'0000' to '9999' as little-endian words."""
    table = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for i in range(4):
        table[..., i] = np.arange(48, 58).reshape((10,) + (1,) * (3 - i))
    return table.view("<u4").ravel()


# a '%.12e' slot is five words: separator, sign ('\0' if positive, deleted later), leading
# digit and '.'; three groups of four digits; 'e', exponent sign and two exponent digits
_HEAD = np.array([b",\x000.", b"\n\x000."]).view("<u4")
_MINUS, _LEAD = ord("-") << 8, 1 << 16  # the sign byte; one step of the leading digit
_DIGITS = _digit_words()
_EXPONENT = np.array([f"e{e:+03d}" for e in range(-10, 35)], dtype="S4").view("<u4")
_SCALE = np.array([10 ** abs(k) for k in range(-22, 23)], dtype=float)  # exact in binary64


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

        Each value is written as ``'%.12e' % v`` writes it, so reruns are
        byte-identical, in numpy passes of ``_CSV_PASS`` values. With
        e = floor(log10|v|) and k = 12 - e, 10^|k| is exact for |k| <= 22, so
        s = |v| 10^k is within ulp(s)/2 of the exact S. On [10^12, 10^13 - 1/2)
        that ulp divides 1/2, so unless s is a half-integer S rounds like s and
        rint(s) is the correctly rounded mantissa (an S just below 10^12 carries
        to the same digits); +-0 are exact. The rest (NaN, +-inf, |k| > 22, s on
        a half-integer, a log10 off by one, a carry to 10^13) goes to '%.12e'.
        The header is UTF-8 and the passes go to the file as ASCII bytes, with LF
        line ends on every platform; `read_csv` reads it back as UTF-8.
        The file is written beside ``path`` and renamed over it when complete,
        so an error or interrupt leaves any previous file untouched.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"# {key} = {value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        values = np.ascontiguousarray(self.data).reshape(-1)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as out:
                out.write("\n".join(lines).encode("utf-8"))
                out.writelines(_format_values(values, len(self.columns)))
                out.write(b"\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _format_values(values: np.ndarray, width: int):
    """Yield '%.12e' of each value as ASCII bytes, one pass at a time: the first
    value of a row of ``width`` is preceded by a newline, the others by a comma."""
    size = min(values.size, _CSV_PASS)
    heads = _HEAD[(np.arange(size + width) % width == 0).view(np.int8)]
    words = np.empty((size, 5), dtype="<u4")
    for lo in range(0, values.size, _CSV_PASS):
        v = values[lo : lo + _CSV_PASS]
        a = np.abs(v)
        with np.errstate(all="ignore"):
            e = np.floor(np.log10(a))
            ok = (e >= -10) & (e <= 34)
            e[~ok] = 0.0
            scale = _SCALE[(34.0 - e).astype(np.intp)]
            s = a * scale
            np.divide(a, scale, out=s, where=e > 12.0)
            m = np.rint(s)
            ok &= (s >= 1e12) & (m < 1e13) & (np.abs(s - m) != 0.5)
        m[~ok] = 0.0
        hi = np.floor(m / 1e8)
        rest = m - hi * 1e8
        lead, mid = np.floor(hi / 1e4), np.floor(rest / 1e4)
        w = words[: v.size]
        w[:, 0] = heads[lo % width : lo % width + v.size] + np.signbit(v) * _MINUS + lead * _LEAD
        w[:, 1] = _DIGITS[(hi - lead * 1e4).astype(np.intp)]
        w[:, 2] = _DIGITS[mid.astype(np.intp)]
        w[:, 3] = _DIGITS[(rest - mid * 1e4).astype(np.intp)]
        w[:, 4] = _EXPONENT[e.astype(np.intp) + 10]
        slots, slow = w.view(np.uint8), np.flatnonzero(~ok & (a != 0.0))
        if slow.size:  # '%.12e' itself after the slot's separator, padded with '\0'
            text = _reference(v[slow])
            longest = max(map(len, text))
            if longest > 19:
                slots = np.pad(slots, ((0, 0), (0, longest - 19)))
            padded = np.array(text, dtype=f"S{slots.shape[1] - 1}")
            slots[slow, 1:] = padded.view(np.uint8).reshape(slow.size, -1)
        yield slots.tobytes().replace(b"\0", b"")


def _reference(values: np.ndarray) -> list[bytes]:
    """'%.12e' of each value: the format that the passes reproduce."""
    return [("%.12e" % x).encode("ascii") for x in values.tolist()]


def read_csv(path: str | Path) -> TimeSeries:
    metadata: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[float]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
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
