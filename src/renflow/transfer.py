"""Transfer entropy estimation from pairs of symbol series.

The estimator counts sliding-window words: at every admissible time t
it records the target's next symbol x_{t+1}, the target history word
(x_{t-m+1} .. x_t) and the source history word (y_{t-l+1} .. y_t).
The empirical distribution of those triples is the sufficient statistic
for both the Shannon transfer entropy

    T = sum p(x', xw, yw) * log2[ p(x'|xw,yw) / p(x'|xw) ]

and its order-q generalization, the difference of escort-averaged
conditional entropies

    T_q = S_q(X' | XW) - S_q(X' | XW, YW),

which recovers the Shannon value as q -> 1 and, unlike it, may be
negative for q != 1: learning the source history can widen the sector
of the predictive distribution that order q emphasizes.

Each word is one int64 mixed-radix code with digits (x_1..x_m, y_1..y_l,
x'): the target's prefix xw * n_y^l * n_x + x' plus the source word's code
times n_x, each packed by Horner's rule.  `_target_prefix` and
`_source_codes` are the one rule for which windows exist and how a word is
coded, for `count_words` and the run planner alike.  A code space no larger
than the window count is counted densely with `np.bincount`; a larger one by
sorting the window codes in place, the only sort, and reading off each run
of equal codes.  Only observed words are stored, so memory scales with the
data, not with the alphabet power.  Both values come from the counts of four
word groupings: (x', xw, yw), (xw, yw), (x', xw) and (xw).  With the
conditioning history first, every (xw) and every (xw, yw) group is a run of
the sorted codes.  The (x', xw) and (xw) tables, and with them the target's
side of T_q, depend on the target alone, so the run planner builds that side
once for every source and surrogate replica of the target.  `_word_values`
is the one evaluation of a counted table: the target's side and T_q at every
order.  `_pair_values` evaluates a batch of word tables, one a row, against
a given side; `infocore._conditional_part` gives each side.  `_draw_values`
lays out the tables of one draw on a target by the rule that picks the
counting: rows of every possible word, counted and evaluated as one table,
when the code space is no larger than the window count, and one row of the
observed words otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, _integer, _integer_fields, _integers
from .infocore import _conditional_part, _order
from .symbolize import SymbolSeries

# Guard for int64 word codes: alphabet^(m+l+1) must stay addressable.
_CODE_LIMIT = 2**62
# Pseudo counts materialize every possible word (16 bytes each as code and count).
_PSEUDO_LIMIT = 2**20


@dataclass(frozen=True)
class HistorySpec:
    """History lengths: m ticks of the target, l ticks of the source."""

    m: int
    l: int

    def __post_init__(self):
        _integer_fields(self, m=1, l=1)


@dataclass(frozen=True)
class WordDistribution:
    """Empirical counts of (next target symbol, target word, source word).

    Stored sparsely as read-only packed int64 codes of the observed triples,
    in strictly ascending order below target_alphabet^(m+1) * source_alphabet^l,
    plus their counts; the window count is derived lazily and cached, and the
    groupings the entropy formulas need are built by `_groups` when evaluated.
    """

    codes: np.ndarray
    counts: np.ndarray
    target_alphabet: int
    source_alphabet: int
    m: int
    l: int

    def __post_init__(self):
        _integer_fields(self, target_alphabet=2, source_alphabet=2, m=1, l=1)
        codes, counts = _integers("word codes", self.codes), _integers("word counts", self.counts)
        if codes.size != counts.size:
            raise ValidationError("codes and counts lengths differ")
        if np.any(counts <= 0):
            raise ValidationError("word counts must be positive")
        if np.any(codes[1:] <= codes[:-1]):
            raise ValidationError("word codes must be unique and in ascending order")
        n_codes = math.prod(_radices(self.target_alphabet, self.source_alphabet, self.m, self.l))
        if int(codes[0]) < 0 or int(codes[-1]) >= n_codes:
            raise ValidationError(f"word codes must lie in [0, {n_codes})")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def n_windows(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_counts(
        cls,
        mapping: dict,
        target_alphabet: int,
        source_alphabet: int,
        m: int,
        l: int,
    ) -> "WordDistribution":
        """Build from an explicit {(x_next, x_word, y_word): count} map.

        Useful for analytic joints where the exact stationary word
        probabilities are known as integer ratios.
        """
        target_alphabet = _integer("target_alphabet", target_alphabet, 2)
        source_alphabet = _integer("source_alphabet", source_alphabet, 2)
        m, l = _integer("m", m, 1), _integer("l", l, 1)
        radices = _radices(target_alphabet, source_alphabet, m, l)
        words = list(mapping.items())
        if any(count < 0 for _, count in words):
            raise ValidationError("word counts must be non-negative")
        words = [(key, count) for key, count in words if count > 0]
        if any(len(x_word) != m or len(y_word) != l for (_, x_word, y_word), _ in words):
            raise ValidationError("word length does not match history spec")
        digits = np.array(
            [(*x_word, *y_word, x_next) for (x_next, x_word, y_word), _ in words],
            dtype=np.int64,
        ).reshape(-1, len(radices))
        if np.any((digits < 0) | (digits >= np.array(radices))):
            raise ValidationError(f"word symbols must lie in their alphabets {radices}")
        codes = np.ravel_multi_index(digits.T, radices)
        order = np.argsort(codes)
        return cls(
            codes=codes[order],
            counts=np.array([count for _, count in words])[order],
            target_alphabet=target_alphabet,
            source_alphabet=source_alphabet,
            m=m,
            l=l,
        )


def _radices(target_alphabet: int, source_alphabet: int, m: int, l: int) -> tuple[int, ...]:
    """Mixed-radix digits of a word code: (x_1 .. x_m, y_1 .. y_l, x')."""
    # Every radix is at least 2, so a code of more digits than log2(_CODE_LIMIT)
    # overflows; it is refused before its tuple and product are built.
    if m + l + 1 < _CODE_LIMIT.bit_length():
        radices = (target_alphabet,) * m + (source_alphabet,) * l + (target_alphabet,)
        if math.prod(radices) <= _CODE_LIMIT:
            return radices
    raise ValidationError("alphabet^history too large to encode")


def _run_bounds(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the non-decreasing `keys` starts, then
    `keys.size`: their differences are the run lengths."""
    edge = np.empty(keys.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def count_words(
    x: SymbolSeries, y: SymbolSeries, h: HistorySpec, pseudo_count: int = 0
) -> WordDistribution:
    """Count sliding-window words of a target/source series pair.

    Windows sit at t = max(m, l) .. L-2 (0-based): the future symbol is
    x_{t+1} and both history words end at t.  The first max(m, l)
    positions are skipped so every window has full histories, giving
    L - max(m, l) - 1 windows in total.  Each window's code is its
    `_target_prefix` plus its `_source_codes`, as the run planner codes a draw.

    `pseudo_count` > 0 additively smooths the distribution by granting
    that many extra observations to every possible word.  Off by
    default: surrogate subtraction is the standard bias treatment here.
    """
    if len(x) != len(y):
        raise ValidationError(f"series lengths differ: {len(x)} vs {len(y)}")
    pseudo_count = _integer("pseudo_count", pseudo_count, 0)
    prefix, n_possible = _target_prefix(x, h, y.alphabet_size)
    if pseudo_count > 0 and n_possible > _PSEUDO_LIMIT:
        raise ValidationError(
            "pseudo counts require enumerating every possible word; "
            f"{n_possible} words is too many (limit {_PSEUDO_LIMIT})"
        )
    prefix += _source_codes(y.symbols, y.alphabet_size, h, x.alphabet_size)
    codes, counts = _tally(prefix, n_possible)
    if pseudo_count > 0:
        smoothed = np.full(n_possible, pseudo_count, dtype=np.int64)
        smoothed[codes] += counts
        codes = np.arange(n_possible, dtype=np.int64)
        counts = smoothed
    return WordDistribution(
        codes=codes,
        counts=counts,
        target_alphabet=x.alphabet_size,
        source_alphabet=y.alphabet_size,
        m=h.m,
        l=h.l,
    )


def _history_codes(symbols: np.ndarray, alphabet: int, length: int, start: int) -> np.ndarray:
    """Code of the word s_{t-length+1} .. s_t of the checked `symbols` at each window
    t = start .. len(symbols) - 2, by Horner's rule in their alphabet, as a new array."""
    n_windows, first = symbols.size - start - 1, start - length + 1
    codes = symbols[first : first + n_windows].astype(np.int64)
    for i in range(first + 1, start + 1):
        codes *= alphabet
        codes += symbols[i : i + n_windows]
    return codes


def _target_prefix(x: SymbolSeries, h: HistorySpec,
                   source_alphabet: int) -> tuple[np.ndarray, int]:
    """Each window's target digits xw * source_alphabet^l * n_x + x', laid out as by
    `_radices`, as a new array that `_source_codes` completes, and the count n_possible
    of codes.  A series with no full window is refused before too large a code space."""
    start = max(h.m, h.l)
    if len(x) <= start + 1:
        raise ValidationError(f"series of length {len(x)} too short for histories m={h.m}, l={h.l}")
    n_possible = math.prod(_radices(x.alphabet_size, source_alphabet, h.m, h.l))
    prefix = _history_codes(x.symbols, x.alphabet_size, h.m, start)
    prefix *= source_alphabet**h.l * x.alphabet_size
    prefix += x.symbols[start + 1 :]
    return prefix, n_possible


def _source_codes(symbols: np.ndarray, alphabet: int, h: HistorySpec, n_x: int) -> np.ndarray:
    """Each window's source word y_{t-l+1} .. y_t of the checked `symbols`, coded in
    their alphabet, times the target alphabet n_x, as a new array: the source's
    digits of each window's code, in step with `_target_prefix`."""
    codes = _history_codes(symbols, alphabet, h.l, max(h.m, h.l))
    codes *= n_x
    return codes


def _tally(full: np.ndarray, n_possible: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes among `full`, one a window, in ascending order, and their
    counts: by `np.bincount` when the n_possible codes are no more than the windows,
    and otherwise by sorting `full` in place, the only sort, and reading each run of
    equal codes.  Both callers, `count_words` and `_draw_values`, pass a temporary
    prefix plus source codes; `_draw_values` reads the (xw, yw) runs off the sorted array."""
    if n_possible <= full.size:
        counts = np.bincount(full)
        codes = np.flatnonzero(counts)
        return codes, counts[codes]
    full.sort()
    bounds = _run_bounds(full)
    return full[bounds[:-1]], np.diff(bounds)


def _word_row(full: np.ndarray, n_possible: int) -> np.ndarray:
    """The count of each of the n_possible codes among `full`, one a window, empty
    cells included: one row of a dense word table, by `np.bincount`, the layout of
    `_draw_values` whenever the codes are no more than the windows.  Every code
    is below n_possible, as it is built from checked symbols."""
    return np.bincount(full, minlength=n_possible)


def _groups(w: WordDistribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive integer counts of the (xw, yw), (xw, x') and (xw) tables of `w`, each
    of total n_windows.  The (xw, yw) and (xw) cells are runs of the sorted codes, as
    `_draw_values` reads the (xw, yw) runs off a replica's sorted codes.  The (xw, x')
    cells, keyed xw * n_x + x' in ascending order, follow the layout rule of the words:
    a dense table, less its empty cells, when its n_x^(m+1) keys are no more than the
    windows, and the observed keys, by `np.unique`, otherwise."""
    n_x = w.target_alphabet
    xw = w.codes // (n_x * w.source_alphabet**w.l)
    cells = xw * n_x + w.codes % n_x
    if n_x ** (w.m + 1) > w.n_windows:
        cells = np.unique(cells, return_inverse=True)[1]
    fx_counts = np.zeros(cells.max() + 1, dtype=np.int64)
    np.add.at(fx_counts, cells, w.counts)
    return (np.add.reduceat(w.counts, _run_bounds(w.codes // n_x)[:-1]),
            fx_counts[fx_counts > 0], np.add.reduceat(w.counts, _run_bounds(xw)[:-1]))


def _word_values(w: WordDistribution, orders) -> tuple[list, tuple]:
    """The target's side S_q(X'|XW) of `w` (at q = 1 its pieces), from its (xw, x') and
    (xw) tables, and T_q of `w`, each at every one of `orders` (checked by `_order`).
    Every word table of the target, replicas included, shares the side."""
    pair, *target = _groups(w)
    sides = [next(_conditional_part(*(t[None] for t in target), w.n_windows, q)) for q in orders]
    return sides, next(_pair_values(w.counts[None], pair[None], w.n_windows, sides, orders))


def _pair_values(joint: np.ndarray, marginal: np.ndarray, total: int, sides, orders):
    """T_q of each row of the words table `joint` and its (xw, yw) table `marginal`,
    laid out as `infocore._conditional_part` takes them, from their target's side at
    each of `orders`: its side less S_q(X'|XW,YW) of the row, as an iterator over the
    rows, each a tuple of one value per order.  At q = 1 the pieces of both sides go
    into one `math.fsum`, so the sum is rounded once."""
    rows = zip(*(_conditional_part(joint, marginal, total, q) for q in orders))
    return (tuple(math.fsum([*side, *(-v for v in pair)]) / total if q == 1.0 else side - pair
                  for q, side, pair in zip(orders, sides, row)) for row in rows)


def _draw_values(prefix: np.ndarray, codes: list, n_x: int, n_possible: int, sides, orders):
    """T_q at each of `orders` of each job of one draw on a target, from the target's
    `_target_prefix`, each job's source word codes times n_x and the target's side
    at each order: an iterator over the jobs, each checked as it is drawn.  By the
    rule of `count_words`, the jobs' tables are dense rows of every code, counted
    and evaluated as one table whose (xw, yw) cells sum out x', the last digit,
    when the n_possible codes are no more than the windows, and otherwise each
    job's sorted codes, whose (xw, yw) cells are runs once x' is dropped."""
    windows = prefix.size
    if n_possible <= windows:
        table = np.array([_word_row(prefix + c, n_possible) for c in codes])
        yield from _pair_values(table, table.reshape(len(codes), -1, n_x).sum(axis=2),
                                windows, sides, orders)
    else:
        for c in codes:
            full = prefix + c
            counts = _tally(full, n_possible)[1]  # sorts full in place
            full //= n_x
            yield next(_pair_values(counts[None], np.diff(_run_bounds(full))[None], windows,
                                    sides, orders))


def renyi_transfer_entropy(w: WordDistribution, q) -> float:
    """Order-q transfer entropy S_q(X'|XW) - S_q(X'|XW,YW), in bits.

    Every order reads the same four integer tables, the words and the
    (xw, yw), (xw, x') and (xw) groupings, each with total N.  Away from
    q = 1 each conditional entropy is the escort-averaged
    log2(sum p(x', w)^q / sum p(w)^q) / (1 - q) with p = c / N, and the
    difference may be negative.  At q = 1 (within the Shannon window) the
    value is the plug-in log-ratio sum, which the log2 N terms cancel from:
    T_1 = (sum c log2 c over the words and (xw) tables, minus the same sum over
    the (xw, yw) and (xw, x') tables) / N, non-negative up to rounding.  Each
    sum of p^q or of c log2 c is one correctly rounded `math.fsum` over the
    exact pieces from `infocore._count_terms`, which sums a table of more
    than `infocore._CLASS_MIN_CELLS` cells by count class.  No order of the
    cells changes those bits, so relabelling symbols leaves T_q as is, and
    equal tables cancel exactly: T_q(x -> x) is 0 at m = l.

    The value comes from `_word_values`, the one evaluation of a counted table,
    which the run planner also calls on a target part's first job: the target's
    side, from the (xw, x') and (xw) tables alone, less the side of the words
    and (xw, yw) tables.  The planner shares that target side among every
    source and surrogate replica of the target.
    """
    return _word_values(w, [_order(q)])[1][0]
