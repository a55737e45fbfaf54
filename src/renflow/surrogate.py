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
N series builds N target parts, not N(N-1)(R+1).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, _integer, _integer_fields
from .infocore import _order
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
    computed from them.
    """

    raw: float
    replicas: tuple[float, ...]
    n_windows: int

    FIELDS = ("raw", "surrogate_mean", "surrogate_std", "effective", "n_windows")

    def __post_init__(self):
        object.__setattr__(self, "replicas", tuple(map(float, self.replicas)))
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

    The raw pairs come first, then the replicas in order: each replica
    shuffles every distinct source once and counts each job once, and all
    orders are evaluated from that one word table.  A shuffle leaves the
    target alone, so each (target, history, source alphabet) builds its
    target part once, from its first raw pair: the target's code prefix and
    its side of T_q at every order.  Every other raw pair and every replica
    of its jobs adds a pair part to it.  Each replica codes each source's
    history once per (l, first window, target alphabet), for every target
    it feeds.  A job's values depend only on the job, the order and `spec`,
    never on the other jobs or their place in the list.  A failing job is
    named as `pair S->T`.  A list passed as `timing_sink` receives each
    job's seconds of counting and evaluation over the raw pair and every
    replica; a target part and a source's history codes are charged to the
    first job that uses them, and the shuffles are shared by the jobs of a
    source and charged to none.
    """
    orders = [_order(q) for q in orders]
    sources = {id(y): y for _, y, _ in jobs}
    targets = {}  # (target, history, source alphabet) -> prefix, code count, side per order
    runs = [[] for _ in jobs]  # per job: the raw values, then each replica's values
    n_windows = [0] * len(jobs)
    seconds = [0.0] * len(jobs)
    for replica in [None, *range(spec.ensemble_size)]:
        if replica is not None:
            shuffled = {key: make_surrogate(y, spec, replica) for key, y in sources.items()}
            histories = {}  # (source, l, first window, n_x) -> its codes in this replica times n_x
        for k, (x, y, h) in enumerate(jobs):
            started = time.perf_counter()
            target = (id(x), h, y.alphabet_size)
            try:
                if replica is None:
                    words = count_words(x, y, h)
                    n_windows[k] = words.n_windows
                    if target not in targets:
                        n_possible = math.prod(_radices(x.alphabet_size, y.alphabet_size, h.m, h.l))
                        targets[target] = (_target_prefix(x, h, y.alphabet_size), n_possible,
                                           [_target_part(words, q) for q in orders])
                    sides = targets[target][2]
                else:
                    prefix, n_possible, sides = targets[target]
                    start = max(h.m, h.l)
                    source = (id(y), h.l, start, x.alphabet_size)
                    if source not in histories:
                        histories[source] = (_history_codes(shuffled[id(y)], h.l, start)
                                             * x.alphabet_size)
                    codes, counts = _tally(prefix + histories[source], n_possible)
                    words = WordDistribution(codes, counts, x.alphabet_size, y.alphabet_size,
                                             h.m, h.l)
                runs[k].append([_pair_part(words, side, q) for q, side in zip(orders, sides)])
            except ValidationError as exc:
                pair = f"{y.label or 'Y'}->{x.label or 'X'}"
                raise ValidationError(f"pair {pair} failed: {exc}") from exc
            seconds[k] += time.perf_counter() - started
    if timing_sink is not None:
        timing_sink.extend(seconds)
    return [
        [EffectiveResult(raw, tuple(values[i] for values in replicas), windows)
         for i, raw in enumerate(first)]
        for (first, *replicas), windows in zip(runs, n_windows)
    ]


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
