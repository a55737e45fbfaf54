"""Surrogate source series and effective transfer entropies.

Shuffling the source series destroys every cross-correlation with the
target while preserving the source's one-symbol histogram exactly.  Any
transfer entropy measured against such a surrogate is therefore pure
finite-sample bias, and subtracting the surrogate-ensemble mean from
the raw value yields the effective transfer entropy.

Every replica draws from its own random stream seeded by
(rng_seed, replica_index), so results do not depend on evaluation
order and replicas can run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .infocore import RenyiOrder
from .symbolize import SymbolSeries
from .transfer import (
    HistorySpec,
    TransferResult,
    count_words,
    renyi_transfer_entropy,
)

SURROGATE_METHODS = ("permutation", "block-permutation")


@dataclass(frozen=True)
class SurrogateSpec:
    """How to build the surrogate ensemble.

    `ensemble_size` 0 is the degenerate contract: no surrogates, the
    effective value equals the raw one.  Block permutation shuffles
    contiguous blocks of `block_length` symbols instead of single
    symbols, preserving structure shorter than the block.
    """

    method: str = "permutation"
    ensemble_size: int = 20
    rng_seed: int = 0
    block_length: int = 1

    def __post_init__(self):
        if self.method not in SURROGATE_METHODS:
            raise ValidationError(
                f"surrogate method must be one of {SURROGATE_METHODS}, got {self.method!r}"
            )
        if self.ensemble_size < 0:
            raise ValidationError("ensemble size must be non-negative")
        if self.block_length < 1:
            raise ValidationError("block length must be a positive integer")
        object.__setattr__(self, "rng_seed", int(self.rng_seed) & 0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class EffectiveResult:
    """Raw transfer entropy, surrogate statistics, and their difference."""

    raw: TransferResult
    surrogate_mean: float
    surrogate_std: float
    effective: float
    spec: SurrogateSpec

    def __post_init__(self):
        expected = self.raw.value - self.surrogate_mean
        if self.effective != expected:
            raise ValidationError("effective value must equal raw minus surrogate mean")


def _replica_rng(spec: SurrogateSpec, replica_index: int) -> np.random.Generator:
    return np.random.default_rng([spec.rng_seed, int(replica_index)])


def make_surrogate(y: SymbolSeries, spec: SurrogateSpec, replica_index: int) -> SymbolSeries:
    """Shuffled copy of the source series for one ensemble replica.

    Permutation draws a uniformly random reordering of the symbols;
    block permutation reorders contiguous blocks (a shorter trailing
    block is kept so the histogram is preserved exactly).  The same
    (seed, replica_index) always yields the same surrogate.
    """
    rng = _replica_rng(spec, replica_index)
    symbols = y.symbols
    if spec.method == "permutation" or len(y) <= 1:
        shuffled = rng.permutation(symbols)
    else:
        block = spec.block_length
        starts = np.arange(0, symbols.size, block)
        order = rng.permutation(starts.size)
        shuffled = np.concatenate(
            [symbols[starts[i] : starts[i] + block] for i in order]
        )
    return SymbolSeries(
        symbols=shuffled,
        alphabet_size=y.alphabet_size,
        label=f"{y.label or 'Y'}~surrogate{replica_index}",
        block_size=y.block_size,
        bin_mode=y.bin_mode,
        bin_edges=y.bin_edges,
    )


def effective_transfer_entropy(
    x: SymbolSeries,
    y: SymbolSeries,
    h: HistorySpec,
    q,
    spec: SurrogateSpec,
) -> EffectiveResult:
    """Raw transfer entropy from y to x minus the surrogate-ensemble mean.

    The surrogate standard deviation (sample std over the ensemble, 0.0
    for fewer than two replicas) is reported alongside so callers can
    judge whether an effective value clears the noise floor.
    """
    order = RenyiOrder.coerce(q)
    raw = renyi_transfer_entropy(count_words(x, y, h), order)
    values = [
        renyi_transfer_entropy(count_words(x, make_surrogate(y, spec, replica), h), order).value
        for replica in range(spec.ensemble_size)
    ]
    mean = math.fsum(values) / len(values) if values else 0.0
    if len(values) > 1:
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
    else:
        std = 0.0
    return EffectiveResult(
        raw=raw,
        surrogate_mean=mean,
        surrogate_std=std,
        effective=raw.value - mean,
        spec=spec,
    )
