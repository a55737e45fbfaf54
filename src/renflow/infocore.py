"""Exact entropy algebra on explicit finite distributions.

All quantities are in bits (base-2 logarithms).  The Renyi entropy of
order q is

    S_q = log2(sum_x p(x)^q) / (1 - q),        q > 0, q != 1,

with the q -> 1 limit giving the Shannon entropy.  Conditional
quantities use escort-weighted averaging, which is the one definition
of conditional Renyi entropy that keeps the chain rule

    S_q(X, Y) = S_q(Y) + S_q(X | Y)

exact for every order.  Conventions used throughout: 0 * log 0 := 0 and
0^q := 0, so zero-probability cells never contribute to any sum.
Orders and probability arrays pass the real and probability rules of `errors`.

Sums of probability powers are accumulated with compensated summation
(`math.fsum`); the chain rule then holds to well below 1e-12 even for
orders q > 2 where the dynamic range of p^q is large.  `math.fsum` is
correctly rounded, so any exact split of the terms gives the same sum.
`_count_terms` gives such a split of sum term(c) over a table of integer
counts c: cells with one count share one term, so each count class c
with k cells adds k * term(c), written exactly as the pieces term(c) * 2^i,
one for each set bit i of k.  Scaling by a power of two moves no bit, even of
a subnormal, and cannot overflow here: a term is at most 1 at q != 1 and
c * log2(c) < 2^70 at q = 1.  A table of at most 1,000 cells, too small to pay
for grouping, gives its per-cell terms instead, row by row for a 2-D table of
such rows; an empty cell's term is an exact 0.0, which changes no sum.  Both
give the same sum.  `_conditional_part`, the count-table evaluator, reads
S_q(X'|W) of a batch of count tables this way, from p^q = (c / N)^q or from
c * log2(c); the transfer entropy estimator evaluates every word table through
it, so this module forms every entropy term of the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _probabilities, _real

# |q - 1| below this is the Shannon order q = 1, evaluated by the
# closed-form Shannon expressions instead of the 1/(1-q) prefactor.
SHANNON_WINDOW = 1e-9


def _order(q) -> float:
    """Renyi order q as a float by the real-number rule, checked positive; exactly
    1.0 (Shannon) within SHANNON_WINDOW of 1, so every caller evaluates and
    records an order in that window as q = 1."""
    value = _real("Renyi order", q)
    if value <= 0.0:
        raise ValidationError(f"Renyi order must be a positive real, got {value!r}")
    return 1.0 if abs(value - 1.0) < SHANNON_WINDOW else value


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over a finite alphabet of W >= 1 symbols."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _probabilities("probability array", self.probs)
        if probs.ndim != 1:
            raise ValidationError(f"expected a rank-1 probability array, got rank {probs.ndim}")
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def coerce(cls, value) -> "DiscreteDistribution":
        return value if isinstance(value, cls) else cls(value)


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability tensor over two or more finite variables.

    Axis order is the variable order; every marginal obtained by summing
    out axes is itself a valid distribution.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _probabilities("probability array", self.probs)
        if probs.ndim < 2:
            raise ValidationError("a joint distribution needs at least two axes")
        object.__setattr__(self, "probs", probs)

    def marginal(self, axis: int) -> DiscreteDistribution:
        """Distribution of the variable on `axis`, all others summed out."""
        keep = self.probs
        axes = tuple(i for i in range(keep.ndim) if i != axis % keep.ndim)
        return DiscreteDistribution(keep.sum(axis=axes))

    @classmethod
    def coerce(cls, value) -> "JointDistribution":
        return value if isinstance(value, cls) else cls(value)


# Tables of more than this many cells are summed by count class.  Grouping
# costs about 40 us a call against about 0.05 us a cell for the per-cell sum
# (4 us on a 27-cell table): over alphabets 2-5, m = l in 1..4 and 300 to
# 50,000 windows the two broke even between 800 and 1,000 cells.
_CLASS_MIN_CELLS = 1000


def _power_sum(probs: np.ndarray, q: float) -> float:
    """Compensated sum of p^q over the positive entries (0^q := 0)."""
    flat = probs.ravel()
    return _finite_power_sum(np.power(flat[flat > 0.0], q).tolist(), q)


def _finite_power_sum(terms, q: float) -> float:
    """`math.fsum` of the p^q `terms`.  A sum below the normal floating-point range,
    0 included, keeps too few significant bits, and an overflowing sum has no
    logarithm: both are rejected."""
    power_sum = math.fsum(terms)
    if not sys.float_info.min <= power_sum < math.inf:
        raise ValidationError(
            f"sum of p^q is {power_sum!r} at Renyi order q={q!r}, beyond floating point"
        )
    return power_sum


def _count_terms(counts: np.ndarray, term) -> list:
    """Exact pieces of sum term(c) over a table of non-negative integer counts c,
    `term` mapping an array of counts to floats elementwise: the per-cell terms,
    or for each count class c of k cells the term(c) * 2^i of each set bit i of k
    (see the module docstring).  A 2-D table gives the pieces of each row, in a
    list per row; an empty cell adds term(0), which is 0.0 for every term here."""
    if counts.shape[-1] <= _CLASS_MIN_CELLS:
        return term(counts).tolist()
    if counts.ndim == 2:
        return [_count_terms(row, term) for row in counts]
    multiplicity = np.bincount(counts)
    classes = np.flatnonzero(multiplicity)
    k = multiplicity[classes]
    bits = 1 << np.arange(int(k.max()).bit_length())
    return np.outer(term(classes), bits)[(k[:, None] & bits) != 0].tolist()


def _shannon_bits(probs: np.ndarray) -> float:
    flat = probs.ravel()
    positive = flat[flat > 0.0]
    return -math.fsum((positive * np.log2(positive)).tolist())


def entropy(dist, q) -> float:
    """Renyi entropy of order q in bits; Shannon entropy at q = 1.

    Parameters
    ----------
    dist : DiscreteDistribution or array-like
        Probability vector (or tensor: any valid joint is accepted and
        treated as a distribution over its flattened cells).
    q : float
        Positive order; values within 1e-9 of 1 are q = 1, the Shannon branch.
    """
    q = _order(q)
    records = (DiscreteDistribution, JointDistribution)
    probs = dist.probs if isinstance(dist, records) else _probabilities("probability array", dist)
    if q == 1.0:
        return _shannon_bits(probs)
    return math.log2(_power_sum(probs, q)) / (1.0 - q)


def escort(dist, q) -> DiscreteDistribution:
    """Escort distribution p^q / sum(p^q) of a probability vector.

    Raising to q > 1 emphasizes probable symbols, q < 1 emphasizes rare
    ones; q = 1 returns the input unchanged.
    """
    q = _order(q)
    d = DiscreteDistribution.coerce(dist)
    if q == 1.0:
        return d
    powered = np.where(d.probs > 0.0, np.power(d.probs, q), 0.0)
    return DiscreteDistribution(powered / _power_sum(d.probs, q))


def conditional_entropy(joint, q) -> float:
    """Entropy of the first variable given the second, in bits.

    For q != 1 this is the escort-averaged conditional Renyi entropy

        S_q(X | Y) = log2( sum_{x,y} p(x,y)^q / sum_y p(y)^q ) / (1 - q),

    which satisfies the chain rule exactly.  The q = 1 branch evaluates
    the Shannon identity H(X | Y) = H(X, Y) - H(Y) so that the chain
    rule is an arithmetic identity there too.
    """
    q = _order(q)
    j = JointDistribution.coerce(joint)
    if j.probs.ndim != 2:
        raise ValidationError("conditional_entropy expects a two-variable joint")
    cond_marginal = j.probs.sum(axis=0)
    if q == 1.0:
        return _shannon_bits(j.probs) - _shannon_bits(cond_marginal)
    return _conditional_renyi(_power_sum(j.probs, q), _power_sum(cond_marginal, q), q)


def _conditional_renyi(joint_sum: float, marginal_sum: float, q: float) -> float:
    """S_q(X | Y) at q != 1 from the power sums of the joint cells p(x, y) and of
    the marginal p(y)."""
    return (math.log2(joint_sum) - math.log2(marginal_sum)) / (1.0 - q)


def _conditional_part(joint: np.ndarray, marginal: np.ndarray, total: int, q: float):
    """The count-table evaluator: S_q(X'|W) of each row of the 2-D count tables
    `joint`, of the (x', w) cells, and `marginal`, of the (w) cells, one row per
    table and every row of total N, at the order `q` (already checked by `_order`):
    the escort-averaged value at q != 1, and at q = 1 the exact pieces whose
    `math.fsum` over N is H(X'|W), the c log2 c terms of the (w) table and those of
    the (x', w) table negated.  At q = 1 the cells must be integer counts: the term
    is c log2 max(c, 1), so a table of probabilities, every cell below 1, gives
    pieces of 0.

    Each term is computed over the whole table at once.  An empty cell adds an
    exact 0.0, and `math.fsum` is correctly rounded, so a row of a dense table
    gives the bits of the same table less its empty cells.  The result is an
    iterator over the rows; a row's power sums are checked as it is drawn, so a
    caller that draws each row under its own name knows which table failed."""
    if q == 1.0:
        joint, marginal = (_count_terms(t, lambda c: c * np.log2(np.maximum(c, 1)))
                           for t in (joint, marginal))
        return ([*m, *(-v for v in j)] for j, m in zip(joint, marginal))
    joint, marginal = (_count_terms(t, lambda c: np.power(c / total, q)) for t in (joint, marginal))
    return (_conditional_renyi(_finite_power_sum(j, q), _finite_power_sum(m, q), q)
            for j, m in zip(joint, marginal))


def entropy_gain(prior, posterior, q) -> float:
    """S_q(prior) - S_q(posterior): information gained by an update.

    Positive means the update sharpened the distribution at order q.
    For q != 1 the gain can be negative even when the Shannon gain is
    zero or positive, because the two orders price the head and tail of
    the distribution differently.
    """
    q = _order(q)
    before = DiscreteDistribution.coerce(prior)
    after = DiscreteDistribution.coerce(posterior)
    if before.size != after.size:
        raise ValidationError(
            f"prior and posterior lengths differ ({before.size} vs {after.size})"
        )
    return entropy(before, q) - entropy(after, q)
