"""Turn numeric series into symbol series via blocking and binning.

The pipeline is: average the series over disjoint blocks of equal
length, optionally switch to log-returns, fit N amplitude bins to the
result, and map every value to its bin index.  Fitting and applying are
separate steps so one binning can be reused across series or processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _array, _integer, _integer_fields, _integers, _series

BIN_MODES = ("width", "quantile")


@dataclass(frozen=True)
class BinningSpec:
    """N-bin amplitude partition: N-1 strictly ascending edges.

    mode "width" splits [min, max] into N equal intervals; "quantile"
    places edges at the k/N empirical quantiles (linear interpolation
    between order statistics, the numpy default).
    """

    mode: str
    alphabet_size: int
    edges: tuple[float, ...]

    def __post_init__(self):
        if self.mode not in BIN_MODES:
            raise ValidationError(f"bin mode must be one of {BIN_MODES}, got {self.mode!r}")
        _integer_fields(self, alphabet_size=2)
        edges = tuple(_series("bin edges", self.edges).tolist())
        if len(edges) != self.alphabet_size - 1:
            raise ValidationError(
                f"need {self.alphabet_size - 1} edges for {self.alphabet_size} bins, got {len(edges)}"
            )
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValidationError(f"bin edges must be strictly ascending, got {edges}")
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class SymbolSeries:
    """Integer series over the alphabet {0 .. N-1} plus origin metadata."""

    symbols: np.ndarray
    alphabet_size: int
    label: str = ""
    block_size: int = 1
    bin_mode: str | None = None
    bin_edges: tuple[float, ...] | None = field(default=None)

    def __post_init__(self):
        _integer_fields(self, alphabet_size=2, block_size=1)
        if not isinstance(self.label, str):
            raise ValidationError(f"label must be a string, got {self.label!r}")
        arr = _array("symbols", self.symbols)
        floats = arr.dtype.kind == "f"  # as a symbol column read from CSV (--pre-symbolized)
        arr = _series("symbols", arr) if floats else _integers("symbols", arr)
        if floats and np.any(arr != np.rint(arr)):
            raise ValidationError("symbols must be integers")
        if arr.min() < 0 or arr.max() >= self.alphabet_size:
            raise ValidationError(
                f"symbols must lie in [0, {self.alphabet_size}), "
                f"got range [{arr.min()}, {arr.max()}]"
            )
        if floats:
            arr = _integers("symbols", arr.astype(np.int64))
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return int(self.symbols.size)


def block_coarse_grain(values, block_size: int) -> np.ndarray:
    """Arithmetic mean of each disjoint block of `block_size` samples.

    A trailing partial block is dropped rather than padded, so every
    output value averages exactly `block_size` inputs.  block_size = 1
    is the identity, bit for bit.
    """
    arr = _series("values", values)
    block_size = _integer("block_size", block_size, 1)
    n_blocks = arr.size // block_size
    if n_blocks == 0:
        raise ValidationError(
            f"series of length {arr.size} is shorter than one block of {block_size}"
        )
    # Unlike np.mean, a sum from -0.0 (the exact additive identity) keeps -0.0.
    blocks = arr[: n_blocks * block_size].reshape(n_blocks, block_size)
    return blocks.sum(axis=1, initial=-0.0) / block_size


def log_returns(values) -> np.ndarray:
    """ln(x_t / x_{t-1}); output is one sample shorter than the input."""
    arr = _series("values", values)
    if arr.size < 2:
        raise ValidationError("log returns need at least two samples")
    if np.any(arr <= 0.0):
        raise ValidationError("log returns require strictly positive values")
    return np.diff(np.log(arr))


def fit_bins(values, mode: str = "width", alphabet_size: int = 3) -> BinningSpec:
    """Fit an N-bin partition to the amplitude range of `values`."""
    arr = _series("values", values)
    if mode not in BIN_MODES:
        raise ValidationError(f"bin mode must be one of {BIN_MODES}, got {mode!r}")
    alphabet_size = _integer("alphabet_size", alphabet_size, 2)
    if mode == "width":
        lo, hi = float(arr.min()), float(arr.max())
        if hi <= lo:
            raise ValidationError("equal-width bins are degenerate on a constant series")
        step = (hi - lo) / alphabet_size
        edges = tuple(lo + k * step for k in range(1, alphabet_size))
    else:
        if np.unique(arr).size < alphabet_size:
            raise ValidationError(
                f"quantile bins need at least {alphabet_size} distinct values"
            )
        fractions = np.arange(1, alphabet_size) / alphabet_size
        edges = tuple(float(e) for e in np.quantile(arr, fractions))
    return BinningSpec(mode, alphabet_size, edges)


def symbolize(values, spec: BinningSpec, label: str = "", block_size: int = 1) -> SymbolSeries:
    """Map each value to the index of its amplitude bin.

    A value exactly on an edge goes to the lower bin; values outside the
    fitted range clamp to the end bins.  Deterministic and monotone.
    NaN and infinity have no bin and are rejected.
    """
    arr = _series("values", values)
    symbols = np.searchsorted(spec.edges, arr, side="left")
    return SymbolSeries(
        symbols=symbols,
        alphabet_size=spec.alphabet_size,
        label=label,
        block_size=block_size,
        bin_mode=spec.mode,
        bin_edges=spec.edges,
    )


def prepare_series(
    values,
    alphabet_size: int = 3,
    block_size: int = 1,
    mode: str = "width",
    use_log_returns: bool = False,
    label: str = "",
) -> SymbolSeries:
    """Full pipeline: block-average, optional log-returns, fit, symbolize.

    Log-returns, when enabled, are taken on the block-mean series (the
    returns of the coarse-grained prices).  Bins are fit per series.
    """
    coarse = block_coarse_grain(values, block_size)
    if use_log_returns:
        coarse = log_returns(coarse)
    spec = fit_bins(coarse, mode=mode, alphabet_size=alphabet_size)
    return symbolize(coarse, spec, label=label, block_size=block_size)
