"""Load and synchronize multi-asset CSV time series.

Input files are comma-separated with a header row: one integer
timestamp column (epoch seconds on the file's local clock) and one
numeric column per asset.  Per-label clock offsets normalize all
series to a single reference clock at load time; alignment is a strict
inner join on timestamps, so only instants present in every series
survive and no interpolation is ever performed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    MalformedHeaderError,
    NonAscendingTimestampsError,
    ValidationError,
    _integer,
    _integers,
    _series,
)

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class RawSeries:
    """One asset's (timestamp, value) record on the reference clock, in read-only
    copies of the given arrays."""

    label: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        vals = _series(f"series {self.label!r} values", self.values)
        ts = _integers(f"series {self.label!r} timestamps", self.timestamps)
        if ts.size != vals.size:
            raise ValidationError(f"series {self.label!r}: {ts.size} timestamps "
                                  f"for {vals.size} values")
        if np.any(ts[1:] <= ts[:-1]):  # np.diff would wrap across the int64 range
            raise NonAscendingTimestampsError(
                f"series {self.label!r}: timestamps must be strictly ascending"
            )
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.timestamps.size)


def load_csv(
    path,
    timestamp_column: str = "timestamp",
    value_columns: list[str] | None = None,
    tz_offsets: dict[str, int] | None = None,
) -> list[RawSeries]:
    """Read one RawSeries per value column from a CSV file.

    Rows whose cell for a given column is missing or unparseable are
    omitted from that column's series only.  `tz_offsets` maps value
    columns to clock offsets in minutes ahead of the reference clock;
    offsets are subtracted so all output timestamps share the reference
    clock.  A blank selected label, a selected label or the timestamp
    column named at two header positions, a label selected twice, and an
    offset for a column that is not read are rejected.

    The header is read with `csv`, after a UTF-8 byte-order mark if the file
    starts with one, as a spreadsheet's "CSV UTF-8" export does.  The body has
    two parse paths: numpy's C reader (`np.loadtxt`) takes the whole body at
    once, and where numpy raises or warns on any cell, or the file holds a
    character that `csv`, `int()` or `float()` read differently from numpy, a
    per-cell loop reads it row by row with `csv`, `int()` and `float()`.  The
    output does not depend on which path ran.
    """
    path = Path(path)
    offsets = tz_offsets or {}
    with open(path, newline="", encoding="utf-8-sig") as fh, reading(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedHeaderError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if timestamp_column not in header:
            raise MalformedHeaderError(
                f"{path}: no {timestamp_column!r} column in header {header}"
            )
        ts_idx = header.index(timestamp_column)
        file_labels = [h for i, h in enumerate(header) if i != ts_idx]
        labels = value_columns if value_columns is not None else file_labels
        for label in labels:
            if label not in file_labels:
                raise MalformedHeaderError(f"{path}: no {label!r} value column in header")
            if not label:
                raise MalformedHeaderError(
                    f"{path}: the value column at header position {header.index(label) + 1} "
                    "has a blank label"
                )
        for name in (timestamp_column, *labels):
            where = [i + 1 for i, cell in enumerate(header) if cell == name]
            if len(where) > 1:
                raise MalformedHeaderError(f"{path}: column {name!r} is named more than once, "
                                           f"at header positions {where[0]} and {where[1]}")
            if labels.count(name) > 1:
                raise ValidationError(f"{path}: column {name!r} is named more than once")
        for label in offsets:
            if label not in file_labels:
                raise MalformedHeaderError(f"{path}: no {label!r} value column to offset")
            if label not in labels:
                raise ValidationError(f"{path}: column {label!r} has a clock offset "
                                      "but is not read")
        body = fh.read()
    value_idx = [header.index(label) for label in labels]
    columns = _parse_table(body, ts_idx, value_idx)
    if columns is None:
        with reading(path):
            columns = _parse_rows(body, ts_idx, value_idx)

    series = []
    for label, (stamps, values) in zip(labels, columns):
        if not len(stamps):
            raise ValidationError(f"{path}: column {label!r} has no parseable rows")
        timestamps = _integers(f"{path}: the timestamps of column {label!r}", stamps)
        minutes = _integer(f"{path}: the clock offset of column {label!r}", offsets.get(label, 0))
        if minutes:
            # numpy's int64 arithmetic wraps, so check the range in Python ints first
            seconds = 60 * minutes
            if not _INT64.min <= seconds <= _INT64.max:
                raise ValidationError(
                    f"{path}: the clock offset of column {label!r}, {minutes} minutes, "
                    "overflows int64 seconds"
                )
            if (int(timestamps.min()) - seconds < _INT64.min
                    or int(timestamps.max()) - seconds > _INT64.max):
                raise ValidationError(
                    f"{path}: a timestamp in column {label!r} overflows int64 "
                    f"after its clock offset of {minutes} minutes"
                )
            timestamps = timestamps - seconds
        series.append(RawSeries(label=label, timestamps=timestamps, values=values))
    return series


@contextmanager
def reading(path):
    """Report a file that is not UTF-8 text, or that `csv` refuses, as a
    ValidationError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValidationError(f"{path}: not UTF-8 text (byte 0x{byte:02x})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_table(body: str, ts_idx: int, value_idx: list[int]):
    """(timestamps, values) per value column by numpy's C reader, or None
    where it might read a cell differently from `_parse_rows`.

    A quote or a lone carriage return changes how `csv` splits a row,
    `int()`/`float()` refuse padding by the separators U+001C..U+001F that
    numpy strips, and `csv` refuses a field longer than its size limit.
    A blank cell is read as nan, which the finite mask then omits like any
    non-finite cell.
    """
    text = body.replace("\r\n", "\n") if "\r" in body else body
    if any(char in text for char in '"\r\x1c\x1d\x1e\x1f'):
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    if ",," in text or ",\n" in text or text.endswith(","):  # no ",," spans a newline
        for i in [i for i, line in enumerate(lines) if ",," in line or line[-1:] == ","]:
            lines[i] = ",".join(cell or "nan" for cell in lines[i].split(","))
    row = [("", np.int64)] + [("", np.float64)] * len(value_idx)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                lines, dtype=row, delimiter=",", comments=None,
                usecols=[ts_idx, *value_idx], ndmin=1,
            )
    except (ValueError, Warning):
        return None
    stamps, *values = (table[name] for name in table.dtype.names)
    keeps = [np.isfinite(column) for column in values]
    return [(stamps[keep], column[keep]) for keep, column in zip(keeps, values)]


def _parse_rows(body: str, ts_idx: int, value_idx: list[int]):
    """(timestamps, values) per value column, one `csv` row and one cell at
    a time: a row without an integer timestamp is skipped, and a cell that
    `float()` refuses or reads as non-finite is omitted from its column."""
    columns = [([], [], idx) for idx in value_idx]
    for row in csv.reader(io.StringIO(body, newline="")):
        try:
            ts = int(row[ts_idx])
        except (ValueError, IndexError):
            continue
        for label_stamps, label_values, idx in columns:
            try:
                value = float(row[idx])
            except (ValueError, IndexError):
                continue
            if math.isfinite(value):
                label_stamps.append(ts)
                label_values.append(value)
    return [(label_stamps, label_values) for label_stamps, label_values, _ in columns]


def align_many(series: list[RawSeries]) -> list[RawSeries]:
    """Inner join: restrict every series to the timestamps common to all of them.

    Instants missing from any series are dropped; the output is then
    treated as contiguous downstream, which is the usual approximation
    when gaps (closed hours, holidays) are cut out.  Each series is looked up
    once, by `searchsorted` of the stamps common to the series before it.
    """
    if not series:
        raise ValidationError("need at least one series to align")
    common = series[0].timestamps
    positions = [np.arange(common.size)]
    for s in series[1:]:
        at = np.searchsorted(s.timestamps, common)
        found = s.timestamps[np.minimum(at, s.timestamps.size - 1)] == common
        common = common[found]
        positions = [idx[found] for idx in positions] + [at[found]]
    if common.size == 0:
        raise ValidationError("no timestamp is present in every series")
    return [RawSeries(label=s.label, timestamps=common, values=s.values[idx])
            for s, idx in zip(series, positions)]


def sha256_file(path) -> str:
    """Hex digest of a file's contents, for run manifests."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
