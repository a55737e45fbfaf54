"""Surrogate source series and effective transfer entropies.

Shuffling the source series destroys every cross-correlation with the
target while preserving the source's one-symbol histogram exactly.  Any
transfer entropy measured against such a surrogate is therefore pure
finite-sample bias, and subtracting the surrogate-ensemble mean from
the raw value yields the effective transfer entropy.

Every replica draws from its own random stream seeded by
(rng_seed, replica_index), so a surrogate depends only on (source,
spec, replica), never on evaluation order.  One run planner serves every
command: a matrix over N series makes N shuffles per replica, and a
q-sweep counts each word table once for all its orders.  A shuffle leaves
the target alone, so the target's side of T_q (its code prefix, its (xw)
and (xw, x') tables and S_q(X'|XW)) is built once per target and history
and shared by the raw pairs and replicas of all its sources: a matrix over
N series builds N target parts, not N(N-1)(R+1).  Where a target's code
space has at most 1,000 possible words, as at the paper's alphabet 3 and
m = l = 1 (27 words), each replica counts all the target's jobs into one
dense table, a row per job, and evaluates the rows at once; a timing
splits that batch's seconds equally among its jobs.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, _integer, _integer_fields, _real
from .infocore import _CLASS_MIN_CELLS, _order
from .symbolize import SymbolSeries
from .transfer import (
    HistorySpec,
    WordDistribution,
    _history_codes,
    _pair_part,
    _radices,
    _tally,
    _target_part,
    _target_prefix,
    _word_row,
    count_words,
)


@dataclass(frozen=True)
class SurrogateSpec:
    """How to build the surrogate ensemble.

    `ensemble_size` 0 is the degenerate contract: no surrogates, the
    effective value equals the raw one.  Each surrogate puts the source's
    contiguous blocks of `block_length` symbols in random order, preserving
    structure shorter than a block; block length 1 is a plain permutation.
    """

    ensemble_size: int = 20
    rng_seed: int = 0
    block_length: int = 1

    def __post_init__(self):
        _integer_fields(self, ensemble_size=0, rng_seed=None, block_length=1)
        object.__setattr__(self, "rng_seed", self.rng_seed & 0xFFFFFFFFFFFFFFFF)

    @property
    def method(self) -> str:
        """Name of the shuffle in run records: "permutation" at block length 1."""
        return "permutation" if self.block_length == 1 else "block-permutation"

    @property
    def record(self) -> dict:
        """The ensemble's keys in the te, matrix and sweep run records."""
        return {"surrogate_method": self.method, "surrogate_ensemble": self.ensemble_size,
                "surrogate_seed": self.rng_seed, "surrogate_block": self.block_length}


@dataclass(frozen=True)
class EffectiveResult:
    """Raw transfer entropy and the transfer entropy of each surrogate replica,
    in bits, and the raw pair's window count.

    `replicas` holds the surrogate values in replica order, stored as a
    tuple of floats; the ensemble statistics and the effective value are
    computed from them.  `raw` and every replica follow the real-number rule,
    so a string, a bool, a NaN or an infinity is refused by its field's name.
    """

    raw: float
    replicas: tuple[float, ...]
    n_windows: int

    FIELDS = ("raw", "surrogate_mean", "surrogate_std", "effective", "n_windows")

    def __post_init__(self):
        object.__setattr__(self, "raw", _real("raw", self.raw))
        object.__setattr__(self, "replicas", tuple(_real("replicas", v) for v in self.replicas))
        _integer_fields(self, n_windows=1)

    def fields(self) -> dict:
        """The record every writer prints, in `FIELDS` order: bits, then the window count."""
        return {name: getattr(self, name) for name in self.FIELDS}

    @property
    def surrogate_mean(self) -> float:
        """Ensemble mean, 0.0 without replicas."""
        n = len(self.replicas)
        return math.fsum(self.replicas) / n if n else 0.0

    @property
    def surrogate_std(self) -> float:
        """Sample standard deviation over the ensemble, 0.0 for fewer than two replicas."""
        n = len(self.replicas)
        if n < 2:
            return 0.0
        mean = self.surrogate_mean
        return math.sqrt(math.fsum((v - mean) ** 2 for v in self.replicas) / (n - 1))

    @property
    def effective(self) -> float:
        return self.raw - self.surrogate_mean


def make_surrogate(y: SymbolSeries, spec: SurrogateSpec, replica_index: int) -> SymbolSeries:
    """Shuffled copy of the source series for one ensemble replica, under
    the source's label.

    The source's blocks of `spec.block_length` symbols are put in random
    order; a shorter trailing block is kept so the histogram is preserved
    exactly.  A block as long as the series would leave it unshuffled and
    is refused.  The same (seed, replica_index) always yields the same
    surrogate.
    """
    rng = np.random.default_rng([spec.rng_seed, _integer("replica_index", replica_index, 0)])
    block, n = spec.block_length, len(y)
    if block == 1:
        return replace(y, symbols=rng.permutation(y.symbols))
    if block >= n:
        raise ValidationError(
            f"surrogate block of {block} symbols cannot shuffle series {y.label or 'Y'!r} "
            f"of length {n}"
        )
    index = (rng.permutation(-(-n // block))[:, None] * block + np.arange(block)).ravel()
    return replace(y, symbols=y.symbols[index[index < n]])


def effective_transfer_entropies(
    jobs, orders, spec: SurrogateSpec, timing_sink: list | None = None
) -> list[list[EffectiveResult]]:
    """Effective transfer entropy of each (target, source, history) job at each
    order; `result[k][i]` is `jobs[k]` at `orders[i]`, and its `replicas`
    are the job's surrogate values at that order, one per replica in order.
    An empty list of orders is refused before anything is counted.

    The raw pairs come first, then the replicas in order: each replica
    shuffles every distinct source once and counts each job once, and all
    orders are evaluated from that one word table.  A shuffle leaves the
    target alone, so each (target, history, source alphabet) builds its
    target part once, from its first raw pair: the target's code prefix and
    its side of T_q at every order.  Every other raw pair and every replica
    of its jobs adds a pair part to it.  Each replica codes each source's
    history once per (l, first window, target alphabet), for every target
    it feeds.  When the target's code space has no more than
    `infocore._CLASS_MIN_CELLS` words, a replica counts the target's jobs into
    one dense table, a row of every possible word per job, and evaluates every
    row at once; a larger space counts each job's observed words on its own.
    A job's values depend only on the job, the order and `spec`, never on the
    other jobs or their place in the list.  A failing job is named as
    `pair S->T`.  A list passed as `timing_sink` receives each job's seconds of
    counting and evaluation over the raw pair and every replica: a target part
    is charged to the first job that uses it, a replica's work on a target,
    history codes included, is split equally among that target's jobs, and the
    shuffles are shared by the jobs of a source and charged to none.
    """
    orders = [_order(q) for q in orders]
    if not orders:
        raise ValidationError("the list of orders is empty")
    sources = {id(y): y for _, y, _ in jobs}
    targets = {}  # (target, history, source alphabet) -> its jobs, prefix, code count, sides
    runs = [[] for _ in jobs]  # per job: the raw values, then each replica's values
    n_windows = [0] * len(jobs)
    seconds = [0.0] * len(jobs)
    for k, (x, y, h) in enumerate(jobs):
        started = time.perf_counter()
        with _named(jobs[k]):
            words = count_words(x, y, h)
            n_windows[k] = words.n_windows
            target = (id(x), h, y.alphabet_size)
            if target not in targets:
                n_possible = math.prod(_radices(x.alphabet_size, y.alphabet_size, h.m, h.l))
                targets[target] = ([], _target_prefix(x, h, y.alphabet_size), n_possible,
                                   [_target_part(words, q) for q in orders])
            ks, _, _, sides = targets[target]
            ks.append(k)
            runs[k].append(_word_values(words, sides, orders))
        seconds[k] += time.perf_counter() - started
    for replica in range(spec.ensemble_size):
        shuffled = {key: make_surrogate(y, spec, replica) for key, y in sources.items()}
        histories = {}  # (source, l, first window, n_x) -> its codes in this replica times n_x
        for ks, prefix, n_possible, sides in targets.values():
            started = time.perf_counter()
            x, _, h = jobs[ks[0]]  # the jobs of a target part share its target and history
            start, n_x = max(h.m, h.l), x.alphabet_size
            rows = []  # the dense word table's rows, one per job
            for k in ks:
                y = jobs[k][1]
                with _named(jobs[k]):
                    source = (id(y), h.l, start, n_x)
                    if source not in histories:
                        histories[source] = _history_codes(shuffled[id(y)], h.l, start) * n_x
                    full = prefix + histories[source]
                    if n_possible <= _CLASS_MIN_CELLS:
                        rows.append(_word_row(full, n_possible, n_windows[k]))
                    else:
                        words = WordDistribution(*_tally(full, n_possible), n_x, y.alphabet_size,
                                                 h.m, h.l)
                        runs[k].append(_word_values(words, sides, orders))
            if rows:
                table = np.array(rows)
                # x' is the last digit of a code, so summing it out gives the (xw, yw) table
                marginal = table.reshape(len(ks), -1, n_x).sum(axis=2)
                values = _values(table, marginal, n_windows[ks[0]], sides, orders)
                for k in ks:
                    with _named(jobs[k]):
                        runs[k].append(next(values))
            share = (time.perf_counter() - started) / len(ks)
            for k in ks:
                seconds[k] += share
    if timing_sink is not None:
        timing_sink.extend(seconds)
    return [
        [EffectiveResult(raw, tuple(values[i] for values in replicas), windows)
         for i, raw in enumerate(first)]
        for (first, *replicas), windows in zip(runs, n_windows)
    ]


@contextmanager
def _named(job):
    """Name the pair of the (target, source, history) `job` in a ValidationError
    raised inside."""
    try:
        yield
    except ValidationError as exc:
        x, y, _ = job
        raise ValidationError(f"pair {y.label or 'Y'}->{x.label or 'X'} failed: {exc}") from exc


def _values(joint, marginal, total: int, sides, orders):
    """T_q of each row of a words table and of its (xw, yw) table, laid out as
    `transfer._pair_part` takes them, from the target's side at each of `orders`:
    an iterator over the rows, each a tuple of one value per order."""
    return zip(*(_pair_part(joint, marginal, total, side, q) for q, side in zip(orders, sides)))


def _word_values(words: WordDistribution, sides, orders) -> tuple:
    """The `_values` of the one word table `words`, as a batch of one row."""
    return next(_values(words.counts[None], words._pair_groups[None], words.n_windows,
                        sides, orders))


def effective_transfer_entropy(
    x: SymbolSeries, y: SymbolSeries, h: HistorySpec, q, spec: SurrogateSpec
) -> EffectiveResult:
    """Raw transfer entropy from y to x minus the surrogate-ensemble mean.

    The result keeps every replica's value, so callers can judge whether
    an effective value clears the noise floor, for example by the
    surrogate standard deviation (sample std over the ensemble, 0.0 for
    fewer than two replicas).
    """
    return effective_transfer_entropies([(x, y, h)], [q], spec)[0][0]
