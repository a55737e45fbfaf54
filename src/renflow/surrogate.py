"""Surrogate source series and effective transfer entropies.

Shuffling the source series destroys every cross-correlation with the
target while preserving the source's one-symbol histogram exactly.  Any
transfer entropy measured against such a surrogate is therefore pure
finite-sample bias, and subtracting the surrogate-ensemble mean from
the raw value yields the effective transfer entropy.

Every replica draws from its own random stream seeded by
(rng_seed, replica_index), so a surrogate depends only on (source,
spec, replica), never on evaluation order.  One run planner serves every
command, and it treats the raw value and the replicas as the same
statistic over different source draws: one loop whose draw 0 is the
sources as given and whose draw r + 1 is replica r.  A matrix over N series
makes N shuffles per replica, and a q-sweep counts each word table once for
all its orders.  A shuffle leaves the target alone, so the target's side of
T_q (its code prefix, its (xw) and (xw, x') tables and S_q(X'|XW)) is built
once per target and history and shared by every draw of all its sources: a
matrix over N series builds N target parts, not N(N-1)(R+1).  A replica
stays a plain array: the planner shuffles a source's checked symbols and
codes them in the source's alphabet, and builds no series around them;
`make_surrogate` is the checked public entry for one replica.  The planner
hands each draw's codes on a target to `transfer`, which lays out every word
table by one rule: a dense row of every possible code when the codes are no
more than the windows, as at the paper's alphabet 3 and m = l = 1
(27 words), and the observed codes, by sort, otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, _integer, _integer_fields, _real
from .infocore import _order
from .symbolize import SymbolSeries
from .transfer import (
    HistorySpec,
    _draw_values,
    _source_codes,
    _target_prefix,
    _word_values,
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
    computed from them.  It is given as a tuple, a list or a one-dimensional
    array; an object with no replica order, such as a number, a mapping or a
    set, is refused by name.  `raw` and every replica follow the real-number
    rule, so a string, a bool, a NaN or an infinity is refused by its field's name.
    """

    raw: float
    replicas: tuple[float, ...]
    n_windows: int

    FIELDS = ("raw", "surrogate_mean", "surrogate_std", "effective", "n_windows")

    def __post_init__(self):
        object.__setattr__(self, "raw", _real("raw", self.raw))
        replicas = self.replicas
        if not isinstance(replicas, Sequence) and getattr(replicas, "ndim", 0) != 1:
            raise ValidationError("replicas must be a sequence of real numbers in replica "
                                  f"order, got {type(replicas).__name__}")
        object.__setattr__(self, "replicas", tuple(_real("replicas", v) for v in replicas))
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
    surrogate, and the run planner draws the same symbols as a plain array.
    """
    return replace(y, symbols=_shuffled(y, spec, _integer("replica_index", replica_index, 0)))


def _shuffled(y: SymbolSeries, spec: SurrogateSpec, replica: int) -> np.ndarray:
    """The symbols of `make_surrogate(y, spec, replica)` as a new int64 array, with no
    series built around them: a shuffle of checked symbols needs no second check, so
    the run planner codes this array with the source's alphabet."""
    rng = np.random.default_rng([spec.rng_seed, replica])
    block, n = spec.block_length, len(y)
    if block == 1:
        return rng.permutation(y.symbols)
    if block >= n:
        raise ValidationError(
            f"surrogate block of {block} symbols cannot shuffle series {y.label or 'Y'!r} "
            f"of length {n}"
        )
    index = (rng.permutation(-(-n // block))[:, None] * block + np.arange(block)).ravel()
    return y.symbols[index[index < n]]


def effective_transfer_entropies(
    jobs, orders, spec: SurrogateSpec
) -> list[list[EffectiveResult]]:
    """Effective transfer entropy of each (target, source, history) job at each
    order; `result[k][i]` is `jobs[k]` at `orders[i]`, and its `replicas`
    are the job's surrogate values at that order, one per replica in order.
    An empty list of orders is refused before anything is counted.

    The raw pair and the replicas are draws of one loop: draw 0 takes the
    sources as given, and draw r + 1 shuffles every distinct source once, as
    replica r.  A shuffle leaves the target alone, so each (target, history,
    source alphabet) builds its target part once, before the draws, from
    `count_words` of its first job: its `transfer._target_prefix` and its side of
    T_q at every order.  Those words are also that job's draw 0 table, which
    `transfer._word_values` evaluates with the side, so draw 0 counts the part's
    other jobs only.  Every job has its series lengths checked as it joins the
    part, the first by `count_words`, and a shuffle keeps a source's length, so
    each draw's codes span the target's windows.  Each draw codes each source by
    `transfer._source_codes` once per (history, target alphabet), for every
    target it feeds, and `transfer._draw_values` counts each job's word table
    once and evaluates every order from it.  A job's values depend only on
    the job, the order and `spec`, never on the other jobs or their place in the
    list.  A failing job is named as `pair S->T`.
    """
    orders = [_order(q) for q in orders]
    if not orders:
        raise ValidationError("the list of orders is empty")
    sources = {id(y): y for _, y, _ in jobs}
    targets = {}  # (target, history, source alphabet) -> its jobs, prefix, code count, sides
    n_windows = [0] * len(jobs)
    runs = [[] for _ in jobs]  # per job: the values of each draw, raw first
    for k, (x, y, h) in enumerate(jobs):
        with _named(jobs[k]):
            target = (id(x), h, y.alphabet_size)
            if target not in targets:
                sides, values = _word_values(count_words(x, y, h), orders)
                runs[k].append(values)
                targets[target] = ([], *_target_prefix(x, h, y.alphabet_size), sides)
            elif len(x) != len(y):
                raise ValidationError(f"series lengths differ: {len(x)} vs {len(y)}")
            targets[target][0].append(k)
            n_windows[k] = targets[target][1].size
    for draw in range(spec.ensemble_size + 1):
        shuffled = {key: y.symbols if draw == 0 else _shuffled(y, spec, draw - 1)
                    for key, y in sources.items()}
        histories = {}  # (source, history, n_x) -> its codes in this draw times n_x
        for ks, prefix, n_possible, sides in targets.values():
            drawn = ks[1:] if draw == 0 else ks  # the first job's draw 0 came with the part
            x, _, h = jobs[ks[0]]  # the jobs of a target part share its target and history
            n_x = x.alphabet_size
            codes = []
            for k in drawn:
                y = jobs[k][1]
                source = (id(y), h, n_x)
                if source not in histories:
                    histories[source] = _source_codes(shuffled[id(y)], y.alphabet_size, h, n_x)
                codes.append(histories[source])
            values = _draw_values(prefix, codes, n_x, n_possible, sides, orders)
            for k in drawn:
                with _named(jobs[k]):
                    runs[k].append(next(values))
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
