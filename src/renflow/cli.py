"""Command-line interface.

Subcommands cover the full pipeline: `symbolize` turns CSV price
columns into symbol series, `te` scores one directed pair, `matrix`
runs every ordered pair and writes a flow matrix plus a reproducible
run manifest, `netflow` converts a stored matrix into net flows,
`sweep-q` and `sweep-m` scan the order and history-length axes, and
`gen-synth` / `oracle` generate and exactly score synthetic benchmark
processes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConvergenceError, ValidationError, _integer
from .ingest import align_many, load_csv, reading, sha256_file
from .infocore import _order
from .report import (
    IntegerTable,
    check_svg_labels,
    emit,
    m_sweep,
    net_flow,
    parse_matrix_csv,
    pairwise_matrix,
    q_sweep,
)
from .surrogate import SurrogateSpec, effective_transfer_entropy
from .symbolize import BIN_MODES, SymbolSeries, prepare_series
from .synth import (
    CoupledMarkovSpec,
    _fidelity,
    copy_spec,
    exact_transfer_entropy,
    generate,
    independent_spec,
    noisy_copy_spec,
)
from .transfer import HistorySpec


def _parse_labels(value: str) -> list[str]:
    """One CSV record, so a quoted label may hold a comma."""
    if not value:
        raise argparse.ArgumentTypeError("expected at least one label, got ''")
    return next(csv.reader([value]))


def _checked(kind, bound=_order):
    """Argparse type for an int checked by `errors._integer` against the minimum `bound`,
    or a float checked by the library rule `bound` (`infocore._order` by default), refused
    under the option."""
    def parse(value: str):
        try:
            return _integer("value", int(value), bound) if kind is int else bound(float(value))
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: '2.5'"
    return parse


def _list_of(kind, bound=_order):
    """Argparse type for a comma-separated list of `_checked(kind, bound)` values."""
    def parse(value: str) -> list:
        try:
            return [_checked(kind, bound)(v) for v in value.split(",")]
        except ValueError:
            message = f"expected comma-separated {kind.__name__} values, got {value!r}"
            raise argparse.ArgumentTypeError(message) from None
    return parse


def _offset(value: str) -> tuple[str, int]:
    """Argparse type for one LABEL=MINUTES clock offset."""
    label, _, minutes = value.rpartition("=")
    try:
        if label:
            return label, int(minutes)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected LABEL=MINUTES, got {value!r}")


def _load_aligned_symbols(args, labels: list[str] | None):
    """Load, align, and symbolize; also return metadata for run manifests."""
    offsets = dict(args.tz_offset)
    raw = load_csv(
        args.data,
        timestamp_column=args.timestamp_column,
        value_columns=labels,
        tz_offsets=offsets,
    )
    loaded_lengths = {s.label: len(s) for s in raw}
    raw = align_many(raw)
    info = {
        "tz_offsets_minutes": offsets,
        "loaded_rows": loaded_lengths,
        "aligned_rows": len(raw[0]),
        "rows_dropped_by_alignment": {
            label: loaded_lengths[label] - len(raw[0]) for label in loaded_lengths
        },
    }
    symbols = [
        SymbolSeries(symbols=series.values, alphabet_size=args.alphabet, label=series.label)
        if args.pre_symbolized
        else prepare_series(
            series.values,
            alphabet_size=args.alphabet,
            block_size=args.block,
            mode=args.bins,
            use_log_returns=args.log_returns,
            label=series.label,
        )
        for series in raw
    ]
    return symbols, info


def _surrogate_spec(args) -> SurrogateSpec:
    return SurrogateSpec(
        ensemble_size=args.surrogates,
        rng_seed=args.seed,
        block_length=args.surrogate_block,
    )


def _same_file(a, b) -> bool:
    """Whether two given paths name one existing file, under any spelling."""
    return all((a, b)) and all(map(os.path.exists, (a, b))) and os.path.samefile(a, b)


# -- subcommand implementations -----------------------------------------------

def _cmd_symbolize(args) -> None:
    symbols, _ = _load_aligned_symbols(args, args.labels)
    if args.format == "json":
        payload = {
            "series": [
                {
                    "label": s.label,
                    "alphabet_size": s.alphabet_size,
                    "block_size": s.block_size,
                    "bin_mode": s.bin_mode,
                    "bin_edges": list(s.bin_edges) if s.bin_edges else None,
                    "symbols": s.symbols.tolist(),
                }
                for s in symbols
            ]
        }
    else:
        payload = IntegerTable(("label", "position", "symbol"),
                               [((s.label,), (np.arange(len(s)), s.symbols)) for s in symbols])
    emit(payload, args.out, args.format)


def _target_source(args) -> tuple[SymbolSeries, SymbolSeries]:
    (target, source), _ = _load_aligned_symbols(args, [args.target, args.source])
    return target, source


def _cmd_te(args) -> None:
    target, source = _target_source(args)
    h = HistorySpec(args.m, args.l)
    spec = _surrogate_spec(args)
    result = effective_transfer_entropy(target, source, h, args.q, spec)
    payload = {
        "direction": f"{source.label}->{target.label}",
        "q": args.q,
        "m": h.m,
        "l": h.l,
        **{f"{k}_bits" if isinstance(v, float) else k: v for k, v in result.fields().items()},
        **spec.record,
    }
    emit(payload, args.out, "json")


def _cmd_matrix(args) -> None:
    clock = [time.perf_counter()]  # the start, then the end of each stage of --timings
    manifest_path = Path(args.out).with_suffix(".manifest.json")
    if _same_file(args.data, manifest_path):
        raise ValidationError(f"argument --data: is the same file as the run manifest {manifest_path}")
    symbols, info = _load_aligned_symbols(args, args.labels)
    if args.format == "svg":
        check_svg_labels(s.label for s in symbols)
    clock.append(time.perf_counter())
    matrix = pairwise_matrix(symbols, HistorySpec(args.m, args.l), args.q, _surrogate_spec(args))
    clock.append(time.perf_counter())
    out = emit(matrix, args.out, args.format)
    clock.append(time.perf_counter())
    params = {
        **matrix.params,
        "labels": list(matrix.labels),
        "alphabet": args.alphabet,
        "block": args.block,
        "bins": args.bins,
        "log_returns": args.log_returns,
        "pre_symbolized": args.pre_symbolized,
        "timestamp_column": args.timestamp_column,
        "output": out.name,
        "alignment": info,
    }
    manifest = {
        "command": "matrix",
        "version": __version__,
        "input": {"path": str(args.data), "sha256": sha256_file(args.data)},
        "parameters": params,
    }
    if args.timings:
        stages = dict(zip(("ingest", "estimate", "render"), np.diff(clock).tolist()))
        manifest["timings"] = {"total_seconds": clock[-1] - clock[0], "stages": stages}
    emit(manifest, manifest_path, "json")


def _cmd_netflow(args) -> None:
    matrix = parse_matrix_csv(args.from_matrix)
    emit(net_flow(matrix), args.out, args.format)


def _cmd_sweep_q(args) -> None:
    target, source = _target_source(args)
    h = HistorySpec(args.m, args.l)
    table = q_sweep(target, source, h, args.q_grid, _surrogate_spec(args))
    emit(table, args.out, args.format)


def _cmd_sweep_m(args) -> None:
    target, source = _target_source(args)
    table = m_sweep(
        target, source, args.m_grid, args.q, _surrogate_spec(args), min_windows=args.min_windows
    )
    emit(table, args.out, args.format)


_PRESETS = {
    "copy": lambda args: copy_spec(args.preset_alphabet),
    "noisy-copy": lambda args: noisy_copy_spec(args.preset_alphabet, args.preset_fidelity),
    "independent": lambda args: independent_spec(args.preset_alphabet),
}


def _load_process_spec(args) -> CoupledMarkovSpec:
    if args.spec:
        with reading(args.spec):
            text = Path(args.spec).read_text(encoding="utf-8-sig")
        return CoupledMarkovSpec.from_json(text)
    if args.preset:
        return _PRESETS[args.preset](args)
    raise ValidationError("provide --spec FILE or --preset NAME")


def _cmd_gen_synth(args) -> None:
    spec = _load_process_spec(args)
    x, y = generate(spec, args.length, args.seed)
    table = IntegerTable(("t", "x", "y"), [((), (np.arange(len(x)), x.symbols, y.symbols))])
    emit(table, args.out, "csv")


def _cmd_oracle(args) -> None:
    spec = _load_process_spec(args)
    value = exact_transfer_entropy(spec, args.q)
    payload = {"direction": "source->target", "q": args.q, "m": 1, "l": 1,
               "transfer_entropy_bits": value}
    emit(payload, args.out, "json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and returned by every later one.

    Parsing keeps no state in the parser, so `main` may run any number of commands on
    it; every caller shares it, so none may change it. Each option group is declared
    once and given to the commands that act on it."""
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="input CSV file")
    data.add_argument("--timestamp-column", default="timestamp")
    data.add_argument(
        "--tz-offset", action="append", default=[], type=_offset, metavar="LABEL=MINUTES",
        help="clock offset of a column, minutes ahead of the reference clock",
    )
    data.add_argument("--alphabet", type=_checked(int, 2), default=3, help="number of symbols N")
    data.add_argument("--block", type=_checked(int, 1), default=1, help="coarse-grain block size")
    data.add_argument("--bins", choices=BIN_MODES, default="width")
    data.add_argument(
        "--log-returns", action="store_true",
        help="symbolize log-returns of the block means instead of the means",
    )
    data.add_argument(
        "--pre-symbolized", action="store_true",
        help="treat input values as symbols already (skip blocking and binning)",
    )
    columns = argparse.ArgumentParser(add_help=False)
    columns.add_argument(
        "--labels", default=None, type=_parse_labels,
        help="comma-separated column subset, CSV-quoted (default: all value columns)",
    )
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--source", required=True, help="source column label")
    pair.add_argument("--target", required=True, help="target column label")
    history = argparse.ArgumentParser(add_help=False)
    history.add_argument("--m", type=_checked(int, 1), default=1, help="target history length")
    history.add_argument("--l", type=_checked(int, 1), default=1, help="source history length")
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--q", type=_checked(float), default=1.0, help="Renyi order (1 = Shannon)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    ensemble = argparse.ArgumentParser(add_help=False, parents=[seed])
    ensemble.add_argument("--surrogates", type=_checked(int, 0), default=20, help="ensemble size")
    ensemble.add_argument(
        "--surrogate-block", type=_checked(int, 1), default=1,
        help="shuffle the source in blocks of this many symbols (1 = plain permutation)",
    )
    process = argparse.ArgumentParser(add_help=False)
    source = process.add_mutually_exclusive_group()
    source.add_argument("--spec", default=None, help="CoupledMarkovSpec JSON file")
    source.add_argument("--preset", choices=_PRESETS, default=None)
    process.add_argument("--preset-alphabet", type=_checked(int, 2), default=3)
    process.add_argument("--preset-fidelity", type=_checked(float, _fidelity), default=0.75)

    parser = argparse.ArgumentParser(
        prog="renflow",
        description="Shannon and Renyi (effective) transfer entropy between time series",
    )
    parser.add_argument("--version", action="version", version=f"renflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, parents, out_required=False, formats=()):
        """Add a subcommand with `--out`, and `--format` when it writes more than one."""
        p = sub.add_parser(name, help=summary, parents=parents)
        p.add_argument("--out", required=out_required, default=None, help="output file path")
        if formats:
            p.add_argument("--format", choices=formats, default="csv")
        p.set_defaults(func=func)
        return p

    command("symbolize", _cmd_symbolize, "discretize CSV columns into symbol series",
            [data, columns], formats=("csv", "json"))
    command("te", _cmd_te, "effective transfer entropy for one directed pair",
            [data, pair, history, order, ensemble])
    p = command("matrix", _cmd_matrix, "effective TE for every ordered pair of columns",
                [data, columns, history, order, ensemble], True, ("csv", "json", "svg"))
    p.add_argument(
        "--timings", action="store_true",
        help="record wall-clock seconds in total and per stage (ingest: load, align, symbolize; "
        "estimate: every pair, raw and replicas; render); breaks byte reproducibility",
    )
    p = command("netflow", _cmd_netflow, "net information flow from a stored matrix",
                [], True, ("csv", "json", "svg"))
    p.add_argument("--from-matrix", required=True, help="matrix CSV written by `matrix`")
    p = command("sweep-q", _cmd_sweep_q, "scan the Renyi order for one pair",
                [data, pair, history, ensemble], True, ("csv", "json"))
    p.add_argument(
        "--q-grid", default="0.8,1,1.5", type=_list_of(float), help="comma-separated orders"
    )
    p = command("sweep-m", _cmd_sweep_m, "scan the history length (l = m) for one pair",
                [data, pair, order, ensemble], True, ("csv", "json"))
    p.add_argument(
        "--m-grid", default="1,2,3", type=_list_of(int, 1), help="comma-separated history lengths"
    )
    p.add_argument("--min-windows", type=_checked(int, 0), default=100)
    p = command("gen-synth", _cmd_gen_synth, "sample a coupled synthetic process to CSV",
                [process, seed], True)
    p.add_argument("--length", type=_checked(int, 2), required=True)
    command("oracle", _cmd_oracle, "exact transfer entropy of a synthetic process",
            [process, order])
    return parser


# An option that some other setting makes inert: (option, its default, why, is it inert).
_INERT = (
    ("--block", 1, "with --pre-symbolized", lambda a: a.pre_symbolized),
    ("--bins", "width", "with --pre-symbolized", lambda a: a.pre_symbolized),
    ("--log-returns", False, "with --pre-symbolized", lambda a: a.pre_symbolized),
    ("--preset-alphabet", 3, "without --preset", lambda a: a.preset is None),
    ("--preset-fidelity", 0.75, "without --preset noisy-copy", lambda a: a.preset != "noisy-copy"),
    ("--surrogate-block", 1, "with --surrogates 0", lambda a: a.surrogates == 0),
    ("--seed", 0, "with --surrogates 0", lambda a: vars(a).get("surrogates") == 0),
)


def main(argv=None) -> int:
    """Run one command line and return its exit code: 0, or 2 for a refused input.

    A usage error exits 2 through argparse. The parser is built on the first call, not
    at import, and every later call in the process reuses it."""
    parser = build_parser()
    args = parser.parse_args(argv)
    offset_labels = [label for label, _ in vars(args).get("tz_offset", [])]
    for label in offset_labels:
        if offset_labels.count(label) > 1:
            parser.error(f"argument --tz-offset: column {label!r} is offset more than once")
    for option in ("--data", "--from-matrix", "--spec"):
        if _same_file(vars(args).get(option[2:].replace("-", "_")), args.out):
            parser.error(f"argument --out: is the same file as {option}")
    for option, default, why, inert in _INERT:
        if vars(args).get(option[2:].replace("-", "_"), default) != default and inert(args):
            parser.error(f"argument {option}: has no effect {why}")
    try:
        args.func(args)
    except (ValidationError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
