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

Each word is one int64 mixed-radix code with digits (x', x_1..x_m,
y_1..y_l), so counting is a vectorized unique-and-count; only observed
words are stored, so memory scales with the data, not with the alphabet
power.  Both values come from the counts of four word groupings:
(x', xw, yw), (xw, yw), (x', xw) and (xw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .infocore import RenyiOrder, _power_sum
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
        if self.m < 1 or self.l < 1:
            raise ValidationError(f"history lengths must be >= 1, got m={self.m}, l={self.l}")


@dataclass(frozen=True)
class TransferResult:
    """A single transfer entropy value with the parameters that produced it."""

    value: float
    q: float
    m: int
    l: int
    target_alphabet: int
    source_alphabet: int
    n_windows: int
    direction: str


@dataclass
class WordDistribution:
    """Empirical counts of (next target symbol, target word, source word).

    Stored sparsely as packed int64 codes of the observed triples, in
    strictly ascending order below target_alphabet^(m+1) * source_alphabet^l,
    plus their counts; marginal groupings needed by the entropy formulas
    are derived lazily and cached.
    """

    codes: np.ndarray
    counts: np.ndarray
    target_alphabet: int
    source_alphabet: int
    m: int
    l: int
    target_label: str = "X"
    source_label: str = "Y"

    def __post_init__(self):
        codes = np.array(self.codes, dtype=np.int64)
        counts = np.array(self.counts, dtype=np.int64)
        if codes.size == 0:
            raise ValidationError("word distribution has no observed words")
        if codes.size != counts.size:
            raise ValidationError("codes and counts lengths differ")
        if np.any(counts <= 0):
            raise ValidationError("word counts must be positive")
        if np.any(codes[1:] <= codes[:-1]):
            raise ValidationError("word codes must be unique and in ascending order")
        n_codes = math.prod(self._radices)
        if int(codes[0]) < 0 or int(codes[-1]) >= n_codes:
            raise ValidationError(f"word codes must lie in [0, {n_codes})")
        codes.flags.writeable = False
        counts.flags.writeable = False
        self.codes, self.counts = codes, counts

    # -- code packing ------------------------------------------------------

    @property
    def _radices(self) -> tuple[int, ...]:
        return _radices(self.target_alphabet, self.source_alphabet, self.m, self.l)

    @property
    def _x_words(self) -> int:
        return self.target_alphabet**self.m

    @property
    def _y_words(self) -> int:
        return self.source_alphabet**self.l

    @property
    def n_windows(self) -> int:
        return int(self.counts.sum())

    @property
    def direction(self) -> str:
        return f"{self.source_label}->{self.target_label}"

    @classmethod
    def from_counts(
        cls,
        mapping: dict,
        target_alphabet: int,
        source_alphabet: int,
        m: int,
        l: int,
        target_label: str = "X",
        source_label: str = "Y",
    ) -> "WordDistribution":
        """Build from an explicit {(x_next, x_word, y_word): count} map.

        Useful for analytic joints where the exact stationary word
        probabilities are known as integer ratios.
        """
        radices = _radices(target_alphabet, source_alphabet, m, l)
        words = [(key, int(count)) for key, count in mapping.items()]
        if any(count < 0 for _, count in words):
            raise ValidationError("word counts must be non-negative")
        words = [(key, count) for key, count in words if count > 0]
        if any(len(x_word) != m or len(y_word) != l for (_, x_word, y_word), _ in words):
            raise ValidationError("word length does not match history spec")
        digits = np.array(
            [(x_next, *x_word, *y_word) for (x_next, x_word, y_word), _ in words],
            dtype=np.int64,
        ).reshape(-1, len(radices))
        if np.any((digits < 0) | (digits >= np.array(radices))):
            raise ValidationError(f"word symbols must lie in their alphabets {radices}")
        codes = np.ravel_multi_index(digits.T, radices)
        order = np.argsort(codes)
        return cls(
            codes=codes[order],
            counts=np.array([count for _, count in words], dtype=np.int64)[order],
            target_alphabet=target_alphabet,
            source_alphabet=source_alphabet,
            m=m,
            l=l,
            target_label=target_label,
            source_label=source_label,
        )

    def items(self):
        """Yield ((x_next, x_word, y_word), count) for every observed word."""
        digits = np.stack(np.unravel_index(self.codes, self._radices), axis=1)
        for word, count in zip(digits.tolist(), self.counts.tolist()):
            yield (word[0], tuple(word[1 : self.m + 1]), tuple(word[self.m + 1 :])), count

    # -- cached grouping ---------------------------------------------------

    @cached_property
    def _groups(self):
        """((index per word, integer totals) of the (xw), (xw, yw) and (x', xw)
        groups, numbered in ascending code order; the (xw) group of each (x', xw) group)."""
        fx_codes = self.codes // self._y_words
        xh = _group(fx_codes % self._x_words, self.counts)
        both = _group(self.codes % (self._x_words * self._y_words), self.counts)
        fx = _group(fx_codes, self.counts)
        fx_xh = np.empty(fx[1].size, dtype=np.int64)
        fx_xh[fx[0]] = xh[0]
        return xh, both, fx, fx_xh


def _radices(target_alphabet: int, source_alphabet: int, m: int, l: int) -> tuple[int, ...]:
    """Mixed-radix digits of a word code: (x', x_1 .. x_m, y_1 .. y_l)."""
    radices = (target_alphabet,) * (m + 1) + (source_alphabet,) * l
    if math.prod(radices) > _CODE_LIMIT:
        raise ValidationError("alphabet^history too large to encode")
    return radices


def _group(group_codes: np.ndarray, counts: np.ndarray):
    """Per-word group index and per-group integer totals."""
    inverse = np.unique(group_codes, return_inverse=True)[1]
    return inverse, np.bincount(inverse, weights=counts).astype(np.int64)


def count_words(
    x: SymbolSeries, y: SymbolSeries, h: HistorySpec, pseudo_count: int = 0
) -> WordDistribution:
    """Count sliding-window words of a target/source series pair.

    Windows sit at t = max(m, l) .. L-2 (0-based): the future symbol is
    x_{t+1} and both history words end at t.  The first max(m, l)
    positions are skipped so every window has full histories, giving
    L - max(m, l) - 1 windows in total.

    `pseudo_count` > 0 additively smooths the distribution by granting
    that many extra observations to every possible word.  Off by
    default: surrogate subtraction is the standard bias treatment here.
    """
    if len(x) != len(y):
        raise ValidationError(f"series lengths differ: {len(x)} vs {len(y)}")
    if pseudo_count < 0:
        raise ValidationError("pseudo count must be non-negative")
    length = len(x)
    start = max(h.m, h.l)
    n_windows = length - start - 1
    if n_windows < 1:
        raise ValidationError(
            f"series of length {length} too short for histories m={h.m}, l={h.l}"
        )
    radices = _radices(x.alphabet_size, y.alphabet_size, h.m, h.l)
    n_possible = math.prod(radices)
    if pseudo_count > 0 and n_possible > _PSEUDO_LIMIT:
        raise ValidationError(
            "pseudo counts require enumerating every possible word; "
            f"{n_possible} words is too many (limit {_PSEUDO_LIMIT})"
        )

    x_view = np.lib.stride_tricks.sliding_window_view(x.symbols, h.m)
    x_hist = x_view[start - h.m + 1 : start - h.m + 1 + n_windows]
    y_view = np.lib.stride_tricks.sliding_window_view(y.symbols, h.l)
    y_hist = y_view[start - h.l + 1 : start - h.l + 1 + n_windows]
    x_next = x.symbols[start + 1 : start + 1 + n_windows]
    full = np.ravel_multi_index((x_next, *x_hist.T, *y_hist.T), radices)
    codes, counts = np.unique(full, return_counts=True)
    counts = counts.astype(np.int64)
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
        target_label=x.label or "X",
        source_label=y.label or "Y",
    )


def renyi_transfer_entropy(w: WordDistribution, q) -> TransferResult:
    """Order-q transfer entropy S_q(X'|XW) - S_q(X'|XW,YW), in bits.

    Both conditional entropies come from the grouped word counts.  At
    q = 1 (within the Shannon window) the value is the plug-in log-ratio
    sum over observed words, c/N * log2[c b / (d a)] with c the word
    count, a its (x', xw) total, b its (xw) total and d its (xw, yw)
    total; it is non-negative up to rounding.  Away from q = 1 each term
    is the escort-averaged log2(sum p(x', w)^q / sum p(w)^q) / (1 - q),
    and the difference may be negative.
    """
    order = RenyiOrder.coerce(q)
    total = w.n_windows
    (xh_inv, xh_counts), (both_inv, both_counts), (fx_inv, fx_counts), fx_xh = w._groups
    if order.is_shannon:
        log_ratio = (
            np.log2(w.counts)
            + np.log2(xh_counts[xh_inv])
            - np.log2(both_counts[both_inv])
            - np.log2(fx_counts[fx_inv])
        )
        value = math.fsum(((w.counts / total) * log_ratio).tolist())
    else:
        target_only = _conditional_renyi(fx_counts / total, fx_xh, order.q)
        value = target_only - _conditional_renyi(w.counts / total, both_inv, order.q)
    return TransferResult(
        value=value,
        q=1.0 if order.is_shannon else order.q,
        m=w.m,
        l=w.l,
        target_alphabet=w.target_alphabet,
        source_alphabet=w.source_alphabet,
        n_windows=total,
        direction=w.direction,
    )


def _conditional_renyi(probs: np.ndarray, condition: np.ndarray, q: float) -> float:
    """S_q(X' | W) from the (x', w) probabilities in code order and the w group
    of each; the marginal of w sums its groups in ascending x'."""
    marginal = np.bincount(condition, weights=probs)
    return (math.log2(_power_sum(probs, q)) - math.log2(_power_sum(marginal, q))) / (1.0 - q)


def shannon_transfer_entropy(w: WordDistribution) -> TransferResult:
    """Shannon transfer entropy of a word distribution, in bits."""
    return renyi_transfer_entropy(w, 1.0)
