"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from renflow import (
    CoupledMarkovSpec,
    HistorySpec,
    MalformedHeaderError,
    RawSeries,
    SymbolSeries,
    ValidationError,
    WordDistribution,
    count_words,
    make_surrogate,
    renyi_transfer_entropy,
)
from renflow.transfer import _radices


def not_integers(name: str, shape: tuple, dtype: str) -> str:
    """The exact refusal of `errors._integers` for an array of this shape and dtype."""
    return "^" + re.escape(f"{name} must be a non-empty one-dimensional array of int64 "
                           f"integers, got shape {shape} of dtype {dtype}") + "$"


def iid_symbol_series(rng: np.random.Generator, length: int, alphabet: int, label: str = "") -> SymbolSeries:
    return SymbolSeries(
        symbols=rng.integers(0, alphabet, size=length),
        alphabet_size=alphabet,
        label=label,
    )


def random_word_distribution(
    rng: np.random.Generator,
    target_alphabet: int = 3,
    source_alphabet: int = 3,
    m: int = 1,
    l: int = 1,
    max_count: int = 30,
) -> WordDistribution:
    """Random positive counts over a random subset of all possible words."""
    mapping = {}
    words_x = list(product(range(target_alphabet), repeat=m))
    words_y = list(product(range(source_alphabet), repeat=l))
    for x_next in range(target_alphabet):
        for xw in words_x:
            for yw in words_y:
                count = int(rng.integers(0, max_count + 1))
                if count > 0:
                    mapping[(x_next, xw, yw)] = count
    if not mapping:
        mapping[(0, words_x[0], words_y[0])] = 1
    return WordDistribution.from_counts(
        mapping, target_alphabet, source_alphabet, m, l
    )


def noisy_copy_series(
    rng: np.random.Generator, length: int, alphabet: int, fidelity: float,
    label_source: str = "A", label_target: str = "B",
) -> tuple[SymbolSeries, SymbolSeries]:
    """Source is i.i.d. uniform; target copies the source's previous symbol
    with probability `fidelity`, otherwise errs to another symbol uniformly."""
    src = rng.integers(0, alphabet, size=length)
    tgt = np.empty(length, dtype=np.int64)
    tgt[0] = rng.integers(0, alphabet)
    copies = rng.random(length) < fidelity
    errors = rng.integers(1, alphabet, size=length)
    for t in range(1, length):
        tgt[t] = src[t - 1] if copies[t] else (src[t - 1] + errors[t]) % alphabet
    return (
        SymbolSeries(symbols=src, alphabet_size=alphabet, label=label_source),
        SymbolSeries(symbols=tgt, alphabet_size=alphabet, label=label_target),
    )


# -- lag-2 XOR process: the order-2 ground truth --------------------------------

def lag2_xor_series(
    rng: np.random.Generator, length: int, flip_probability: float = 0.25
) -> tuple[SymbolSeries, SymbolSeries]:
    """Binary pair where x_{t+1} = y_t XOR y_{t-1}, flipped with probability p.

    The coupling has source-memory two: histories of length one carry no
    information about the target's next symbol, histories of length two
    carry all of it, and longer histories add nothing.
    """
    padded = rng.integers(0, 2, size=length + 2)
    flips = (rng.random(length) < flip_probability).astype(np.int64)
    x = padded[1 : length + 1] ^ padded[0:length] ^ flips
    y = padded[2:]
    return (
        SymbolSeries(symbols=x, alphabet_size=2, label="X"),
        SymbolSeries(symbols=y, alphabet_size=2, label="Y"),
    )


def lag2_xor_exact_te(q: float, flip_probability: float, m: int) -> float:
    """Closed-form order-q transfer entropy of the lag-2 XOR process at (m, m).

    For m = 1 the source history reveals nothing (the fresh XOR input is
    uniform), so the value is 0.  For m >= 2 the target's next symbol is
    a Bernoulli(p)-corrupted function of the source word:
    S_q(X'|XW) = 1 bit and S_q(X'|XW, YW) = log2(p^q + (1-p)^q)/(1-q).
    """
    if m < 2:
        return 0.0
    p = flip_probability
    if abs(q - 1.0) < 1e-9:
        return 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
    return 1.0 - math.log2(p**q + (1 - p) ** q) / (1.0 - q)


def lag2_xor_word_distribution(flip_numerator: int = 1, flip_denominator: int = 4) -> WordDistribution:
    """Exact stationary word distribution of the lag-2 XOR process at m = l = 2.

    Enumerates the hidden variables (two older source symbols, three
    noise draws) with exact rational weights and scales to integer
    counts, so library values computed from it are exact up to float
    rounding.  Flip probability is flip_numerator / flip_denominator.
    """
    p = Fraction(flip_numerator, flip_denominator)
    half = Fraction(1, 2)
    weights: dict[tuple, Fraction] = {}
    # Visible: x' = x_{t+1}, xw = (x_{t-1}, x_t), yw = (y_{t-1}, y_t).
    # Hidden: y_{t-2}, y_{t-3}, and the noise bits behind x_{t-1}, x_t, x'.
    for y_t, y_t1, y_t2, y_t3 in product((0, 1), repeat=4):
        base = half**4
        for n_prev, n_cur, n_next in product((0, 1), repeat=3):
            weight = base
            for bit in (n_prev, n_cur, n_next):
                weight *= p if bit else (1 - p)
            x_prev = y_t2 ^ y_t3 ^ n_prev
            x_cur = y_t1 ^ y_t2 ^ n_cur
            x_next = y_t ^ y_t1 ^ n_next
            key = (x_next, (x_prev, x_cur), (y_t1, y_t))
            weights[key] = weights.get(key, Fraction(0)) + weight
    scale = 1
    for w in weights.values():
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    mapping = {key: int(w * scale) for key, w in weights.items()}
    return WordDistribution.from_counts(mapping, 2, 2, 2, 2)


def estimate_te(x: SymbolSeries, y: SymbolSeries, m: int, l: int, q: float):
    """Convenience: count words and return the order-q transfer entropy value."""
    return renyi_transfer_entropy(count_words(x, y, HistorySpec(m, l)), q)


def word_items(w: WordDistribution):
    """Yield ((x_next, x_word, y_word), count) for every observed word of `w`,
    each code unpacked by the library's digit layout `transfer._radices`."""
    radices = _radices(w.target_alphabet, w.source_alphabet, w.m, w.l)
    digits = np.stack(np.unravel_index(w.codes, radices), axis=1)
    for word, count in zip(digits.tolist(), w.counts.tolist()):
        yield (word[-1], tuple(word[: w.m]), tuple(word[w.m : -1])), count


def shannon_transfer_entropy_decimal(w: WordDistribution, digits: int = 60) -> Decimal:
    """Shannon transfer entropy in bits as a `digits`-digit decimal: the log-ratio
    sum of c/N * log2[c b / (d a)] over the words, with a the (x', xw), b the
    (xw) and d the (xw, yw) total of each word, every logarithm taken in decimal."""
    words = dict(word_items(w))
    xh, both, fx = Counter(), Counter(), Counter()
    for (x_next, xw, yw), c in words.items():
        xh[xw] += c
        both[xw, yw] += c
        fx[x_next, xw] += c
    with localcontext() as ctx:
        ctx.prec = digits
        totals = {*words.values(), *xh.values(), *both.values(), *fx.values()}
        ln = {k: Decimal(k).ln() for k in totals}
        total = sum(
            c * (ln[c] + ln[xh[xw]] - ln[both[xw, yw]] - ln[fx[x_next, xw]])
            for (x_next, xw, yw), c in words.items()
        )
        return total / (sum(words.values()) * Decimal(2).ln())


def renyi_transfer_entropy_escort(w: WordDistribution, q: float, dual: bool = False) -> float:
    """Order-q transfer entropy via the escort-weighted ratio form.

    Built from `word_items(w)` alone, so it is an evaluation
    path independent of the library's grouped-count core: escort weights
    over the conditioning words multiply powered conditional
    probabilities and the two sums are compared inside one logarithm.
    With `dual=True` the roles are exchanged (source words conditioned on
    target words), which is algebraically the same number.  Within 1e-9
    of q = 1 it evaluates the Shannon log-ratio sum instead.
    """
    words = dict(word_items(w))
    total = sum(words.values())
    xh, both, fx = Counter(), Counter(), Counter()
    for (x_next, xw, yw), c in words.items():
        xh[xw] += c
        both[xw, yw] += c
        fx[x_next, xw] += c
    if abs(q - 1.0) < 1e-9:
        return math.fsum(
            c / total * math.log2(c * xh[xw] / (both[xw, yw] * fx[x_next, xw]))
            for (x_next, xw, yw), c in words.items()
        )

    def escort(groups: Counter) -> dict:
        norm = math.fsum(c**q for c in groups.values())
        return {key: c**q / norm for key, c in groups.items()}

    xh_weights = escort(xh)
    if not dual:
        # sum over (x', xw) of escort(xw) * p(x'|xw)^q
        # over (x', xw, yw) of escort(xw, yw) * p(x'|xw,yw)^q
        both_weights = escort(both)
        num = math.fsum(xh_weights[xw] * (c / xh[xw]) ** q for (_, xw), c in fx.items())
        den = math.fsum(
            both_weights[xw, yw] * (c / both[xw, yw]) ** q
            for (_, xw, yw), c in words.items()
        )
    else:
        # sum over (xw, yw) of escort(xw) * p(yw|xw)^q
        # over (x', xw, yw) of escort(x', xw) * p(yw|x', xw)^q
        fx_weights = escort(fx)
        num = math.fsum(xh_weights[xw] * (c / xh[xw]) ** q for (xw, _), c in both.items())
        den = math.fsum(
            fx_weights[x_next, xw] * (c / fx[x_next, xw]) ** q
            for (x_next, xw, _), c in words.items()
        )
    return (math.log2(num) - math.log2(den)) / (1.0 - q)


# -- per-step reference loop for synthetic series -----------------------------

def reference_generate(spec: CoupledMarkovSpec, length: int, seed: int) -> tuple[list, list]:
    """(target, source) symbols of `synth.generate` drawn by a linear scan:
    each draw is the first symbol whose cumulative probability exceeds its
    uniform, and the last symbol when none does."""
    n = spec.alphabet_size
    ux, uy = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF).random((2, length)).tolist()
    cum_a = np.cumsum(spec.source_transition, axis=1).tolist()
    cum_b = np.cumsum(spec.target_transition, axis=2).tolist()
    cum_init = np.cumsum(np.full(n, 1.0 / n)).tolist()

    def draw(cum_row, u):
        for idx in range(n - 1):
            if u < cum_row[idx]:
                return idx
        return n - 1

    xs, ys = [draw(cum_init, ux[0])], [draw(cum_init, uy[0])]
    for t in range(1, length):
        xs.append(draw(cum_b[xs[-1]][ys[-1]], ux[t]))
        ys.append(draw(cum_a[ys[-1]], uy[t]))
    return xs, ys


# -- per-block reference loop for surrogates ----------------------------------

def reference_block_shuffle(
    symbols: np.ndarray, block_length: int, seed: int, replica: int
) -> np.ndarray:
    """The source's blocks of `block_length` symbols, a shorter trailing block
    included, concatenated in the order of one permutation of the block
    indices drawn from the replica's stream."""
    rng = np.random.default_rng([seed, replica])
    starts = np.arange(0, symbols.size, block_length)
    order = rng.permutation(starts.size)
    return np.concatenate([symbols[starts[i] : starts[i] + block_length] for i in order])


# -- per-cell reference loop for the run planner --------------------------------

def reference_effective(x: SymbolSeries, y: SymbolSeries, h: HistorySpec, q, spec) -> tuple:
    """(raw, surrogate mean, surrogate std, effective, windows, replica values)
    of one pair at one order, counting the raw pair and then every replica
    on its own."""
    words = count_words(x, y, h)
    raw = renyi_transfer_entropy(words, q)
    values = [
        renyi_transfer_entropy(count_words(x, make_surrogate(y, spec, replica), h), q)
        for replica in range(spec.ensemble_size)
    ]
    mean = math.fsum(values) / len(values) if values else 0.0
    std = 0.0
    if len(values) > 1:
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
    return raw, mean, std, raw - mean, words.n_windows, tuple(values)


def reference_matrix(series: list[SymbolSeries], h: HistorySpec, q, spec) -> np.ndarray:
    """Effective values of every ordered pair, rows = target, NaN diagonal."""
    n = len(series)
    values = np.full((n, n), np.nan)
    for i, j in product(range(n), repeat=2):
        if i != j:
            values[i, j] = reference_effective(series[i], series[j], h, q, spec)[3]
    return values


def reference_sweep_rows(x: SymbolSeries, y: SymbolSeries, settings, spec) -> list[tuple]:
    """Sweep rows (param, source, target, raw, mean, std, effective, windows)
    for (param, history, order) settings, Y -> X first in each."""
    return [
        (float(value), source.label, target.label,
         *reference_effective(target, source, h, q, spec)[:5])
        for value, h, q in settings
        for target, source in ((x, y), (y, x))
    ]


# -- per-cell reference loop for CSV ingest ------------------------------------

def reference_load_csv(
    path,
    timestamp_column: str = "timestamp",
    value_columns: list[str] | None = None,
    tz_offsets: dict[str, int] | None = None,
) -> list[RawSeries]:
    """The per-cell loop `load_csv` ran on every file before it parsed with
    numpy's C reader: one `csv` row at a time, `int()` on the timestamp
    and `float()` on each selected cell."""
    path = Path(path)
    offsets = tz_offsets or {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            if labels.count(label) > 1:
                raise ValidationError(f"{path}: column {label!r} is named more than once")
        for label in offsets:
            if label not in file_labels:
                raise MalformedHeaderError(f"{path}: no {label!r} value column to offset")
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
