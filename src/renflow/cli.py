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
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ValidationError
from .ingest import align_many, load_csv, sha256_file
from .report import (
    emit,
    m_sweep,
    net_flow,
    parse_matrix_csv,
    pairwise_matrix,
    q_sweep,
)
from .surrogate import SurrogateSpec, effective_transfer_entropy
from .symbolize import SymbolSeries, prepare_series
from .synth import (
    CoupledMarkovSpec,
    copy_spec,
    exact_transfer_entropy,
    generate,
    independent_spec,
    noisy_copy_spec,
)
from .transfer import HistorySpec


def _parse_labels(value: str) -> list[str] | None:
    """One CSV record, so a quoted label may hold a comma."""
    return next(csv.reader([value])) if value else None


def _add_data_options(parser, multi_label: bool):
    parser.add_argument("--data", required=True, help="input CSV file")
    parser.add_argument("--timestamp-column", default="timestamp")
    if multi_label:
        parser.add_argument(
            "--labels", default=None, type=_parse_labels,
            help="comma-separated column subset, CSV-quoted (default: all value columns)",
        )
    else:
        parser.add_argument("--source", required=True, help="source column label")
        parser.add_argument("--target", required=True, help="target column label")
    parser.add_argument(
        "--tz-offset", action="append", default=[], metavar="LABEL=MINUTES",
        help="clock offset of a column, minutes ahead of the reference clock",
    )


def _add_pipeline_options(parser):
    parser.add_argument("--alphabet", type=int, default=3, help="number of symbols N")
    parser.add_argument("--block", type=int, default=1, help="coarse-graining block size")
    parser.add_argument("--bins", choices=["width", "quantile"], default="width")
    parser.add_argument(
        "--log-returns", action="store_true",
        help="symbolize log-returns of the block means instead of the means",
    )
    parser.add_argument(
        "--pre-symbolized", action="store_true",
        help="treat input values as symbols already (skip blocking and binning)",
    )


def _add_surrogate_options(parser):
    parser.add_argument("--surrogates", type=int, default=20, help="ensemble size")
    parser.add_argument(
        "--surrogate-method", choices=["permutation", "block-permutation"],
        default="permutation",
    )
    parser.add_argument("--surrogate-block", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)


def _add_process_options(parser):
    parser.add_argument("--spec", default=None, help="CoupledMarkovSpec JSON file")
    parser.add_argument(
        "--preset", choices=["copy", "noisy-copy", "independent"], default=None
    )
    parser.add_argument("--preset-alphabet", type=int, default=3)
    parser.add_argument("--preset-fidelity", type=float, default=0.75)


def _add_output_options(parser, required: bool):
    parser.add_argument("--out", required=required, default=None, help="output file path")
    parser.add_argument("--format", choices=["csv", "json", "svg"], default="csv")


def _parse_offsets(pairs) -> dict[str, int]:
    offsets = {}
    for pair in pairs:
        label, _, minutes = pair.partition("=")
        if not label or not minutes:
            raise ValidationError(f"--tz-offset expects LABEL=MINUTES, got {pair!r}")
        offsets[label] = int(minutes)
    return offsets


def _load_aligned_symbols(args, labels: list[str] | None):
    """Load, align, and symbolize; also return metadata for run manifests."""
    offsets = _parse_offsets(args.tz_offset)
    raw = load_csv(
        args.data,
        timestamp_column=args.timestamp_column,
        value_columns=labels,
        tz_offsets=offsets,
    )
    loaded_lengths = {s.label: len(s) for s in raw}
    if len(raw) > 1:
        raw = align_many(raw)
    info = {
        "tz_offsets_minutes": offsets,
        "loaded_rows": loaded_lengths,
        "aligned_rows": len(raw[0]),
        "rows_dropped_by_alignment": {
            label: loaded_lengths[label] - len(raw[0]) for label in loaded_lengths
        },
    }
    out = []
    for series in raw:
        if args.pre_symbolized:
            out.append(
                SymbolSeries(
                    symbols=series.values,
                    alphabet_size=args.alphabet,
                    label=series.label,
                )
            )
        else:
            out.append(
                prepare_series(
                    series.values,
                    alphabet_size=args.alphabet,
                    block_size=args.block,
                    mode=args.bins,
                    use_log_returns=args.log_returns,
                    label=series.label,
                )
            )
    return out, info


def _surrogate_spec(args) -> SurrogateSpec:
    return SurrogateSpec(
        method=args.surrogate_method,
        ensemble_size=args.surrogates,
        rng_seed=args.seed,
        block_length=args.surrogate_block,
    )


def _manifest(args, command: str, parameters: dict, timings: dict | None = None) -> dict:
    payload = {
        "command": command,
        "version": __version__,
        "input": {"path": str(args.data), "sha256": sha256_file(args.data)},
        "parameters": parameters,
    }
    if timings is not None:
        payload["timings"] = timings
    return payload


def _effective_payload(result, m: int, l: int) -> dict:
    return {
        "direction": result.raw.direction,
        "q": result.raw.q,
        "m": m,
        "l": l,
        "n_windows": result.raw.n_windows,
        "raw_bits": result.raw.value,
        "surrogate_mean_bits": result.surrogate_mean,
        "surrogate_std_bits": result.surrogate_std,
        "effective_bits": result.effective,
        "surrogate_method": result.spec.method,
        "surrogate_ensemble": result.spec.ensemble_size,
        "seed": result.spec.rng_seed,
    }


# -- subcommand implementations -----------------------------------------------

def _cmd_symbolize(args) -> int:
    symbols, _ = _load_aligned_symbols(args, args.labels)
    if args.format == "svg":
        raise ValidationError("symbolize output supports csv and json only")
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
        payload = [("label", "position", "symbol")]
        for s in symbols:
            payload.extend((s.label, i, v) for i, v in enumerate(s.symbols.tolist()))
    emit(payload, args.out, args.format)
    return 0


def _target_source(args) -> tuple[SymbolSeries, SymbolSeries]:
    symbols, _ = _load_aligned_symbols(args, [args.source, args.target])
    by_label = {s.label: s for s in symbols}
    return by_label[args.target], by_label[args.source]


def _cmd_te(args) -> int:
    target, source = _target_source(args)
    h = HistorySpec(args.m, args.l)
    result = effective_transfer_entropy(target, source, h, args.q, _surrogate_spec(args))
    emit(_effective_payload(result, args.m, args.l), args.out, "json")
    return 0


def _cmd_matrix(args) -> int:
    started = time.perf_counter()
    symbols, info = _load_aligned_symbols(args, args.labels)
    h = HistorySpec(args.m, args.l)
    timing_sink = {} if args.timings else None
    matrix = pairwise_matrix(symbols, h, args.q, _surrogate_spec(args), timing_sink)
    out = emit(matrix, args.out, args.format)
    params = {
        "labels": list(matrix.labels),
        "alphabet": args.alphabet,
        "block": args.block,
        "bins": args.bins,
        "log_returns": args.log_returns,
        "pre_symbolized": args.pre_symbolized,
        "m": args.m,
        "l": args.l,
        "q": args.q,
        "surrogates": args.surrogates,
        "surrogate_method": args.surrogate_method,
        "seed": args.seed,
        "output": out.name,
        "alignment": info,
    }
    timings = None
    if args.timings:
        timings = {"total_seconds": time.perf_counter() - started, "pairs": timing_sink}
    manifest = _manifest(args, "matrix", params, timings)
    emit(manifest, Path(args.out).with_suffix(".manifest.json"), "json")
    return 0


def _cmd_netflow(args) -> int:
    matrix = parse_matrix_csv(args.from_matrix)
    emit(net_flow(matrix), args.out, args.format)
    return 0


def _cmd_sweep_q(args) -> int:
    target, source = _target_source(args)
    grid = [float(v) for v in args.q_grid.split(",")]
    table = q_sweep(target, source, HistorySpec(args.m, args.l), grid, _surrogate_spec(args))
    emit(table, args.out, args.format)
    return 0


def _cmd_sweep_m(args) -> int:
    target, source = _target_source(args)
    grid = [int(v) for v in args.m_grid.split(",")]
    table = m_sweep(
        target, source, grid, args.q, _surrogate_spec(args), min_windows=args.min_windows
    )
    emit(table, args.out, args.format)
    return 0


def _load_process_spec(args) -> CoupledMarkovSpec:
    if args.spec:
        return CoupledMarkovSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    if args.preset == "copy":
        return copy_spec(args.preset_alphabet)
    if args.preset == "noisy-copy":
        return noisy_copy_spec(args.preset_alphabet, args.preset_fidelity)
    if args.preset == "independent":
        return independent_spec(args.preset_alphabet)
    raise ValidationError("provide --spec FILE or --preset NAME")


def _cmd_gen_synth(args) -> int:
    spec = _load_process_spec(args)
    x, y = generate(spec, args.length, args.seed)
    rows = [("t", "x", "y"), *zip(range(len(x)), x.symbols.tolist(), y.symbols.tolist())]
    emit(rows, args.out, "csv")
    return 0


def _cmd_oracle(args) -> int:
    spec = _load_process_spec(args)
    value = exact_transfer_entropy(spec, args.q)
    payload = {"direction": "source->target", "q": args.q, "m": 1, "l": 1,
               "transfer_entropy_bits": value}
    emit(payload, args.out, "json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renflow",
        description="Shannon and Renyi (effective) transfer entropy between time series",
    )
    parser.add_argument("--version", action="version", version=f"renflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbolize", help="discretize CSV columns into symbol series")
    _add_data_options(p, multi_label=True)
    _add_pipeline_options(p)
    _add_output_options(p, required=False)
    p.set_defaults(func=_cmd_symbolize)

    p = sub.add_parser("te", help="effective transfer entropy for one directed pair")
    _add_data_options(p, multi_label=False)
    _add_pipeline_options(p)
    p.add_argument("--m", type=int, default=1, help="target history length")
    p.add_argument("--l", type=int, default=1, help="source history length")
    p.add_argument("--q", type=float, default=1.0, help="Renyi order (1 = Shannon)")
    _add_surrogate_options(p)
    _add_output_options(p, required=False)
    p.set_defaults(func=_cmd_te)

    p = sub.add_parser("matrix", help="effective TE for every ordered pair of columns")
    _add_data_options(p, multi_label=True)
    _add_pipeline_options(p)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--q", type=float, default=1.0)
    _add_surrogate_options(p)
    _add_output_options(p, required=True)
    p.add_argument(
        "--timings", action="store_true",
        help="record wall-clock timing in the manifest (breaks byte reproducibility)",
    )
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("netflow", help="net information flow from a stored matrix")
    p.add_argument("--from-matrix", required=True, help="matrix CSV written by `matrix`")
    _add_output_options(p, required=True)
    p.set_defaults(func=_cmd_netflow)

    p = sub.add_parser("sweep-q", help="scan the Renyi order for one pair")
    _add_data_options(p, multi_label=False)
    _add_pipeline_options(p)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--q-grid", default="0.8,1,1.5", help="comma-separated orders")
    _add_surrogate_options(p)
    _add_output_options(p, required=True)
    p.set_defaults(func=_cmd_sweep_q)

    p = sub.add_parser("sweep-m", help="scan the history length (l = m) for one pair")
    _add_data_options(p, multi_label=False)
    _add_pipeline_options(p)
    p.add_argument("--m-grid", default="1,2,3", help="comma-separated history lengths")
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--min-windows", type=int, default=100)
    _add_surrogate_options(p)
    _add_output_options(p, required=True)
    p.set_defaults(func=_cmd_sweep_m)

    p = sub.add_parser("gen-synth", help="sample a coupled synthetic process to CSV")
    _add_process_options(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("oracle", help="exact transfer entropy of a synthetic process")
    _add_process_options(p)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
