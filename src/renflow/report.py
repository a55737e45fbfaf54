"""Pairwise analysis drivers and result emission.

Conventions fixed here: flow matrices are oriented rows = target
(receiver), columns = source, so entry [i][j] is the effective transfer
entropy from series j into series i.  Diagonals are undefined and
rendered blank, never zero.  The net flow matrix is the difference
F[i][j] = T(j -> i) - T(i -> j); a positive entry means series j is the
net information exporter to series i.

Every byte the CLI emits is encoded and written here by `emit`.  CSV
output carries 12 significant digits; JSON carries full precision.
Given a fixed surrogate seed every emitted byte is reproducible.
"""

from __future__ import annotations

import csv
import html
import io
import json
import math
import sys
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ValidationError, _array, _integer, _integers, _series
from .infocore import _order
from .ingest import reading
from .surrogate import EffectiveResult, SurrogateSpec, effective_transfer_entropies
from .symbolize import SymbolSeries
from .transfer import HistorySpec

_ANTISYM_TOL = 1e-12


class FiniteSampleWarning(UserWarning):
    """Window count has dropped into the unreliable finite-sample regime."""


def _check_labels(labels, kind: str) -> tuple[str, ...]:
    """The labels of a `kind` as a tuple: at least two strings, none repeated."""
    labels = tuple(labels)
    if len(labels) < 2:
        raise ValidationError(f"a {kind} needs at least two labels, got {len(labels)}")
    for label in labels:
        if not isinstance(label, str):
            raise ValidationError(f"{kind} label {label!r} must be a string")
        if labels.count(label) > 1:
            raise ValidationError(f"{kind} label {label!r} is repeated")
    return labels


def _freeze_grid(matrix, kind: str) -> np.ndarray:
    """Check a matrix's labels and square float grid, finite off the diagonal, and store
    them as a tuple and a read-only copy; return the copy for the caller's diagonal rule."""
    labels = _check_labels(matrix.labels, kind)
    values = _array(kind, matrix.values)
    if values.shape != (len(labels), len(labels)):
        raise ValidationError(f"{kind} shape {values.shape} does not match {len(labels)} labels")
    _series(f"{kind} off-diagonal entries", values[~np.eye(len(labels), dtype=bool)])
    values = values.astype(float)
    values.flags.writeable = False
    object.__setattr__(matrix, "labels", labels)
    object.__setattr__(matrix, "values", values)
    return values


def _freeze(obj, *names: str) -> None:
    """Replace each named mapping of a frozen dataclass by a read-only copy."""
    for name in names:
        object.__setattr__(obj, name, MappingProxyType(dict(getattr(obj, name))))


@dataclass(frozen=True)
class FlowMatrix:
    """Square grid of effective transfer entropies between labelled series, and the
    `EffectiveResult` of each computed (target, source) cell; a parsed matrix has none.
    A `results` key must be an off-diagonal cell, a pair of integer indices in range.
    `params` and `results` are read-only mappings."""

    labels: tuple[str, ...]
    values: np.ndarray
    params: Mapping = field(default_factory=dict)
    results: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isnan(np.diag(_freeze_grid(self, "flow matrix")))):
            raise ValidationError("diagonal entries are undefined and must be NaN")
        _freeze(self, "params", "results")
        n = len(self.labels)
        for cell, result in self.results.items():
            if not (type(cell) is tuple and len(cell) == 2 and cell[0] != cell[1] and all(
                    isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n
                    for i in cell)):
                raise ValidationError(f"flow matrix result key {cell!r} is not an off-diagonal "
                                      f"(target, source) cell of {n} labels")
            if not isinstance(result, EffectiveResult):
                raise ValidationError(f"flow matrix result of cell {cell} must be an "
                                      f"EffectiveResult, got {type(result).__name__}")
            if self.values[cell] != result.effective:
                raise ValidationError(
                    "flow matrix values differ from their results' effective values")


@dataclass(frozen=True)
class NetFlowMatrix:
    """Antisymmetric net-information-flow grid with zero diagonal and read-only `params`."""

    labels: tuple[str, ...]
    values: np.ndarray
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        values = _freeze_grid(self, "net flow matrix")
        _freeze(self, "params")
        if np.any(np.diag(values) != 0.0):
            raise ValidationError("net flow diagonal must be exactly zero")
        if np.any(np.abs(values + values.T) > _ANTISYM_TOL):
            raise ValidationError("net flow matrix must be antisymmetric")


@dataclass(frozen=True)
class SweepTable:
    """Rows of a q- or m-sweep over one ordered pair: a (parameter value,
    source label, target label, result) row for Y -> X, then one for
    X -> Y, at each value; `params` is a read-only mapping."""

    param_name: str
    rows: tuple[tuple[float, str, str, EffectiveResult], ...]
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.param_name not in ("q", "m"):
            raise ValidationError("sweep parameter must be 'q' or 'm'")
        object.__setattr__(self, "rows", tuple(self.rows))
        _freeze(self, "params")


def _integer_column(values) -> np.ndarray:
    """A column of an `IntegerTable`: an empty one-dimensional array as an empty int64
    array, any other by the integer-array rule."""
    name = "integer table column"
    values = _array(name, values)
    return np.empty(0, np.int64) if values.shape == (0,) else _integers(name, values)


@dataclass(frozen=True)
class IntegerTable:
    """A CSV table of integers: the `header` row, then, for each (text cells, integer
    columns) block of `blocks`, one row per position of the block's equal-length
    columns, each row the block's text cells followed by the columns' values there.
    The header and the text cells are strings and a block has at least one column.
    Each column follows the integer-array rule and is kept as a read-only int64 array,
    except that a column of no rows, which holds no cell to check, is an empty one.
    `render` writes it to CSV."""

    header: tuple[str, ...]
    blocks: tuple[tuple[tuple[str, ...], tuple[np.ndarray, ...]], ...]

    def __post_init__(self):
        header = tuple(self.header)
        blocks = tuple((tuple(text), tuple(map(_integer_column, columns)))
                       for text, columns in self.blocks)
        for cell in (*header, *(cell for text, _ in blocks for cell in text)):
            if not isinstance(cell, str):
                raise ValidationError(f"integer table text cell {cell!r} must be a string")
        for _, columns in blocks:
            if not columns or len({column.size for column in columns}) > 1:
                raise ValidationError("an integer table block needs one or more columns of "
                                      f"equal length, got lengths {[c.size for c in columns]}")
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "blocks", blocks)


def pairwise_matrix(
    series: list[SymbolSeries], h: HistorySpec, q, spec: SurrogateSpec
) -> FlowMatrix:
    """Effective transfer entropy for every ordered pair of series.

    All series must have equal lengths (align upstream) and unique
    labels; an unlabeled series i is "series<i>" in the matrix and in
    errors.  A failure on any pair aborts the run, naming the pair.
    """
    labels = _check_labels((s.label or f"series{i}" for i, s in enumerate(series)), "flow matrix")
    series = [replace(s, label=label) for s, label in zip(series, labels)]
    q = _order(q)
    n = len(series)
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]  # (target, source)
    jobs = [(series[i], series[j], h) for i, j in cells]
    results = effective_transfer_entropies(jobs, [q], spec)
    results = {cell: result for cell, (result,) in zip(cells, results)}
    values = np.full((n, n), np.nan)
    for (i, j), result in results.items():
        values[i, j] = result.effective
    params = {
        "q": q,
        "m": h.m,
        "l": h.l,
        "alphabet_sizes": tuple(s.alphabet_size for s in series),
        **spec.record,
        "n_samples": len(series[0]),
    }
    return FlowMatrix(labels=labels, values=values, params=params, results=results)


def net_flow(matrix: FlowMatrix) -> NetFlowMatrix:
    """Net flow F[i][j] = T(j -> i) - T(i -> j); antisymmetric, zero diagonal."""
    out = matrix.values - matrix.values.T
    np.fill_diagonal(out, 0.0)
    return NetFlowMatrix(labels=matrix.labels, values=out, params=matrix.params)


def _sweep(x: SymbolSeries, y: SymbolSeries, param_name: str, settings,
           spec: SurrogateSpec, params: dict, min_windows: int = 0) -> SweepTable:
    """Rows in both directions for every (value, history, order) setting,
    from one planner call over the distinct histories and orders.

    Rows name an unlabeled target "X" and an unlabeled source "Y".  A
    FiniteSampleWarning is raised whenever a setting leaves fewer than
    `min_windows` windows.  An empty grid is refused before any counting.
    """
    x_label, y_label = x.label or "X", y.label or "Y"
    settings = list(settings)
    if not settings:
        raise ValidationError(f"the {param_name} grid is empty")
    histories = list(dict.fromkeys(h for _, h, _ in settings))
    orders = list(dict.fromkeys(q for _, _, q in settings))
    results = effective_transfer_entropies(
        [(target, source, h) for h in histories for target, source in ((x, y), (y, x))],
        orders, spec,
    )
    rows = []
    for value, h, q in settings:
        k, i = 2 * histories.index(h), orders.index(q)
        rows += [(float(value), y_label, x_label, results[k][i]),
                 (float(value), x_label, y_label, results[k + 1][i])]
        n_windows = results[k][i].n_windows
        if n_windows < min_windows:
            warnings.warn(
                f"{param_name}={value} leaves only {n_windows} windows "
                f"(< {min_windows}); estimates are in the finite-sample regime",
                FiniteSampleWarning,
                stacklevel=3,
            )
    return SweepTable(param_name=param_name, rows=tuple(rows), params=params)


def q_sweep(
    x: SymbolSeries,
    y: SymbolSeries,
    h: HistorySpec,
    q_grid,
    spec: SurrogateSpec,
) -> SweepTable:
    """Effective transfer entropy in both directions over a grid of orders.

    No monotonicity in q is assumed or implied; the table is the
    deliverable and any structure in it is for the reader to judge.
    """
    settings = ((q, h, q) for q in map(_order, q_grid))
    return _sweep(x, y, "q", settings, spec, {"m": h.m, "l": h.l, **spec.record})


def m_sweep(
    x: SymbolSeries,
    y: SymbolSeries,
    m_grid,
    q,
    spec: SurrogateSpec,
    min_windows: int = 100,
) -> SweepTable:
    """Transfer entropy in both directions over a grid of history lengths.

    Uses l = m throughout.  Plateau detection is left to whoever reads
    the table; a FiniteSampleWarning is raised whenever the window count
    falls below `min_windows`.
    """
    q = _order(q)
    min_windows = _integer("min_windows", min_windows, 0)
    settings = ((h.m, h, q) for h in (HistorySpec(m, m) for m in m_grid))
    return _sweep(x, y, "m", settings, spec, {"q": q, **spec.record}, min_windows)


# -- rendering ---------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _matrix_rows(matrix) -> list:
    rows = [["target\\source", *matrix.labels]]
    for label, row in zip(matrix.labels, matrix.values.tolist()):
        rows.append([label, *("" if math.isnan(v) else _fmt(v) for v in row)])
    return rows


def _matrix_payload(matrix) -> dict:
    return {
        "kind": "net_flow_matrix" if isinstance(matrix, NetFlowMatrix) else "flow_matrix",
        "labels": list(matrix.labels),
        "values": [
            [None if math.isnan(v) else v for v in row] for row in matrix.values.tolist()
        ],
        "params": dict(matrix.params),
    }


def _sweep_rows(table: SweepTable) -> list:
    rows = [[table.param_name, "source", "target", *EffectiveResult.FIELDS]]
    for value, source, target, result in table.rows:
        param = _fmt(value) if table.param_name == "q" else int(value)
        cells = (_fmt(v) if isinstance(v, float) else v for v in result.fields().values())
        rows.append([param, source, target, *cells])
    return rows


def _sweep_payload(table: SweepTable) -> dict:
    return {
        "kind": f"{table.param_name}_sweep",
        "params": dict(table.params),
        "rows": [
            {table.param_name: value, "source": source, "target": target, **result.fields()}
            for value, source, target, result in table.rows
        ],
    }


def _lerp_color(a: tuple, b: tuple, t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    rgb = tuple(round(ca + (cb - ca) * t) for ca, cb in zip(a, b))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


_LOW = (59, 76, 192)    # blue end of the diverging scale
_HIGH = (180, 4, 38)    # red end
_WHITE = (255, 255, 255)


def _cell_color(value: float, lo: float, hi: float, diverging: bool) -> str:
    if math.isnan(value):
        return "#d9d9d9"
    if diverging:
        # linear scale centered at zero, blue for negative, red for positive
        span = max(abs(lo), abs(hi)) or 1.0
        t = value / span
        if t < 0:
            return _lerp_color(_WHITE, _LOW, -t)
        return _lerp_color(_WHITE, _HIGH, t)
    span = (hi - lo) or 1.0
    return _lerp_color(_WHITE, _HIGH, (value - lo) / span)


def check_svg_labels(labels) -> None:
    """Refuse a label holding a character outside XML 1.0's Char production, which
    no escape can carry, and so SVG cannot."""
    for label in labels:
        if not all(0x20 <= c <= 0xD7FF or c in (0x9, 0xA, 0xD) or 0xE000 <= c <= 0xFFFD
                   or c >= 0x10000 for c in map(ord, label)):
            raise ValidationError(f"label {label!r} holds a character that SVG cannot carry")


def _matrix_svg(matrix, diverging: bool) -> str:
    check_svg_labels(matrix.labels)
    labels = [html.escape(label, quote=False) for label in matrix.labels]
    n = len(labels)
    cell = 42
    margin = 110
    legend_h = 40
    width = margin + n * cell + 20
    height = margin + n * cell + legend_h + 20
    finite = matrix.values[np.isfinite(matrix.values)]
    lo, hi = float(finite.min()), float(finite.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j, label in enumerate(labels):
        x = margin + j * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{margin - 8}" text-anchor="start" '
            f'transform="rotate(-60 {x} {margin - 8})">{label}</text>'
        )
    for i, label in enumerate(labels):
        y = margin + i * cell + cell // 2 + 4
        parts.append(f'<text x="{margin - 8}" y="{y}" text-anchor="end">{label}</text>')
    for i in range(n):
        for j in range(n):
            v = matrix.values[i, j]
            color = _cell_color(v, lo, hi, diverging)
            x, y = margin + j * cell, margin + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{color}" stroke="#888"/>'
            )
            if not math.isnan(v):
                parts.append(
                    f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                    f'text-anchor="middle" font-size="8">{v:.3f}</text>'
                )
    scale_note = (
        f"linear scale, diverging about 0: min={_fmt(lo)} max={_fmt(hi)} bits"
        if diverging
        else f"linear scale: min={_fmt(lo)} max={_fmt(hi)} bits"
    )
    parts.append(
        f'<text x="{margin}" y="{margin + n * cell + 24}">rows=target, '
        f"columns=source; {scale_note}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _integer_csv(table: IntegerTable) -> str:
    """The bytes `csv.writer(lineterminator="\\n").writerows` gives for the rows of
    `table`, with the integers formatted in one pass: one `csv.writer` encodes the
    header and, for each block, a row template of its text cells, each `%` doubled
    so the template reads it literally, then one `%d` cell per column; that line
    repeated once per row is filled from the block's cells, row by row, by `%`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def line(row) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        return buffer.getvalue()

    parts = [line(table.header)]
    for text, columns in table.blocks:
        template = line([cell.replace("%", "%%") for cell in text] + ["%d"] * len(columns))
        parts.append(template * columns[0].size % tuple(np.column_stack(columns).ravel().tolist()))
    return "".join(parts)


def render(obj, fmt: str) -> str:
    """Render a result to CSV, JSON, or SVG text.

    Matrices render to all three formats and sweep tables to CSV and
    JSON.  A dict (a run manifest or a single result) renders to JSON,
    and a list of rows and an `IntegerTable` to CSV.  Every CSV is
    encoded by `csv.writer`, so labels holding commas or quotes are
    quoted: a list of rows cell by cell, and an `IntegerTable` by its
    header and text cells, its integer cells formatted by one `%d`
    template per block into the same bytes.  Every JSON document is
    sorted, indented by two and ends in a newline.
    """
    kind = type(obj).__name__
    if isinstance(obj, (FlowMatrix, NetFlowMatrix)):
        if fmt == "svg":
            return _matrix_svg(obj, diverging=isinstance(obj, NetFlowMatrix))
        obj = _matrix_rows(obj) if fmt == "csv" else _matrix_payload(obj)
    elif isinstance(obj, SweepTable):
        obj = _sweep_rows(obj) if fmt == "csv" else _sweep_payload(obj)
    if fmt == "json" and isinstance(obj, dict):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if fmt == "csv" and isinstance(obj, IntegerTable):
        return _integer_csv(obj)
    if fmt == "csv" and isinstance(obj, list):
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(obj)
        return text.getvalue()
    raise ValidationError(f"cannot render {kind} as {fmt!r}")


def emit(obj, path, fmt: str = "csv") -> Path | None:
    """Write `render(obj, fmt)` to `path`, making its directory, or to stdout if None:
    every CSV, JSON and SVG byte the CLI writes, an `IntegerTable` such as
    `gen-synth`'s series and `symbolize`'s symbols included, goes through here."""
    text = render(obj, fmt)
    if path is None:
        sys.stdout.write(text)
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def parse_matrix_csv(path) -> FlowMatrix:
    """Read back a matrix CSV produced by `emit` (blank diagonal = NaN)."""
    with open(path, encoding="utf-8", newline="") as fh, reading(path):
        rows = [row for row in csv.reader(fh) if "".join(row).strip()]
    if not rows:
        raise ValidationError(f"{path}: empty matrix file")
    labels = tuple(rows[0][1:])
    values = np.full((len(labels), len(labels)), np.nan)
    for i, cells in enumerate(rows[1:]):
        where = f"{path}: data row {i + 1} ({cells[0]!r})"
        if i >= len(labels) or cells[0] != labels[i]:
            raise ValidationError(f"{where} does not match the header {labels}")
        if len(cells) != len(labels) + 1:
            raise ValidationError(f"{where} has {len(cells)} cells, not {len(labels) + 1}")
        try:
            values[i] = [float(cell) if cell else np.nan for cell in cells[1:]]
        except ValueError:
            raise ValidationError(f"{where} holds a cell that is not a number") from None
    if len(rows) <= len(labels):
        raise ValidationError(
            f"{path}: data row {len(rows)} ({labels[len(rows) - 1]!r}) is missing"
        )
    try:
        return FlowMatrix(labels=labels, values=values, params={})
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
