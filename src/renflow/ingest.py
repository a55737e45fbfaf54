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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    MalformedHeaderError,
    NonAscendingTimestampsError,
    ValidationError,
)


@dataclass(frozen=True)
class RawSeries:
    """One asset's (timestamp, value) record on the reference clock."""

    label: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=float)
        if ts.size == 0 or vals.size == 0:
            raise ValidationError(f"series {self.label!r} is empty")
        if ts.size != vals.size:
            raise ValidationError(f"series {self.label!r}: timestamp/value lengths differ")
        if np.any(np.diff(ts) <= 0):
            raise NonAscendingTimestampsError(
                f"series {self.label!r}: timestamps must be strictly ascending"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError(f"series {self.label!r} contains non-finite values")
        ts.flags.writeable = False
        vals.flags.writeable = False
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
    omitted from that column's series only.  `tz_offsets` maps labels to
    clock offsets in minutes ahead of the reference clock; offsets are
    subtracted so all output timestamps share the reference clock.
    """
    path = Path(path)
    offsets = tz_offsets or {}
    with open(path, newline="", encoding="utf-8") as fh:
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
        labels = value_columns if value_columns is not None else [
            h for i, h in enumerate(header) if i != ts_idx
        ]
        for label in labels:
            if label not in header:
                raise MalformedHeaderError(f"{path}: no {label!r} column in header")
        col_idx = {label: header.index(label) for label in labels}

        stamps: dict[str, list[int]] = {label: [] for label in labels}
        values: dict[str, list[float]] = {label: [] for label in labels}
        columns = [(stamps[label], values[label], col_idx[label]) for label in labels]
        for row in reader:
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

    series = []
    for label in labels:
        if not stamps[label]:
            raise ValidationError(f"{path}: column {label!r} has no parseable rows")
        offset_seconds = 60 * int(offsets.get(label, 0))
        timestamps = np.asarray(stamps[label], dtype=np.int64) - offset_seconds
        series.append(RawSeries(label=label, timestamps=timestamps, values=values[label]))
    return series


def align_many(series: list[RawSeries]) -> list[RawSeries]:
    """Inner join: restrict every series to the timestamps common to all of them.

    Instants missing from any series are dropped; the output is then
    treated as contiguous downstream, which is the usual approximation
    when gaps (closed hours, holidays) are cut out.
    """
    if len(series) < 2:
        raise ValidationError("need at least two series to align")
    common = series[0].timestamps
    for s in series[1:]:
        common = np.intersect1d(common, s.timestamps, assume_unique=True)
    if common.size == 0:
        raise ValidationError("no timestamp is present in every series")
    out = []
    for s in series:
        idx = np.searchsorted(s.timestamps, common)
        out.append(RawSeries(label=s.label, timestamps=common, values=s.values[idx]))
    return out


def sha256_file(path) -> str:
    """Hex digest of a file's contents, for run manifests."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
