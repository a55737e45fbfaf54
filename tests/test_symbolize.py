"""Blocking, bin fitting, and symbol mapping."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import not_integers
from renflow import (
    BinningSpec,
    RawSeries,
    SymbolSeries,
    ValidationError,
    block_coarse_grain,
    fit_bins,
    log_returns,
    prepare_series,
    symbolize,
)

SPEC = BinningSpec("width", 3, (1.0, 2.0))
GRID = np.arange(1.0, 13.0).reshape(3, 4)


def not_a_series(shape, dtype="float64", name="values") -> str:
    """The exact refusal of `errors._series` for an array of this shape and dtype."""
    return "^" + re.escape(f"{name} must be a non-empty one-dimensional array of numbers, "
                           f"got shape {shape} of dtype {dtype}") + "$"


def non_finite(value, position, name="values") -> str:
    return f"^{name} must be finite, got the non-finite value {value} at position {position}$"


class TestBlockCoarseGrain:
    def test_pairwise_means(self):
        np.testing.assert_allclose(block_coarse_grain([1, 2, 3, 4], 2), [1.5, 3.5])

    def test_block_one_is_identity(self):
        np.testing.assert_array_equal(block_coarse_grain([5, 5, 5], 1), [5, 5, 5])

    def test_trailing_partial_block_dropped(self):
        np.testing.assert_allclose(block_coarse_grain([1, 2, 3], 2), [1.5])

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            block_coarse_grain([], 2)

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValidationError):
            block_coarse_grain([1.0, 2.0], 0)

    @pytest.mark.parametrize("run", [
        block_coarse_grain, lambda values, block: prepare_series(values, block_size=block),
    ], ids=["block_coarse_grain", "prepare_series"])
    @pytest.mark.parametrize("block, message", [
        (2.5, "^block_size must be an integer, got 2.5$"),
        (2.0, "^block_size must be an integer, got 2.0$"),
        (True, "^block_size must be an integer, got True$"),
        (0, "^block_size must be at least 1, got 0$"),
    ])
    def test_block_size_follows_the_integer_rule(self, run, block, message):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        with pytest.raises(ValidationError, match=message):
            run(values, block)
        assert len(run(values, np.int64(2))) == 3

    @pytest.mark.parametrize("bad", (np.nan, -np.inf, np.inf))
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            block_coarse_grain([1.0, bad, 2.0, 3.0], 2)

    @pytest.mark.parametrize("block", [1, 2])
    @pytest.mark.parametrize("values, message", [
        (GRID, not_a_series((3, 4))),
        (["a", "b"], not_a_series((2,), "<U1")),
        ([], not_a_series((0,))),
        ([1.0, np.nan, 2.0, 3.0], non_finite("nan", 1)),
    ], ids=["2-D", "strings", "empty", "nan"])
    def test_refuses_by_the_series_rule(self, values, block, message):
        with pytest.raises(ValidationError, match=message):
            block_coarse_grain(values, block)

    def test_block_longer_than_series_rejected(self):
        with pytest.raises(ValidationError):
            block_coarse_grain([1.0, 2.0], 5)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    @example([-0.0, 0.0, -5e-324])
    @settings(max_examples=60, deadline=None)
    def test_identity_property(self, values):
        """Bit for bit, the sign of a zero included."""
        out = block_coarse_grain(values, 1)
        assert np.array_equal(out, values)
        assert np.signbit(out).tolist() == np.signbit(values).tolist()


class TestFitBins:
    @pytest.mark.parametrize("values, message", [
        (GRID, not_a_series((3, 4))),
        ([1.0, -np.inf, 2.0], non_finite("-inf", 1)),
    ], ids=["2-D", "-inf"])
    def test_refuses_by_the_series_rule(self, values, message):
        with pytest.raises(ValidationError, match=message):
            fit_bins(values)

    @pytest.mark.parametrize("edges, message", [
        ((np.nan,), non_finite("nan", 0, "bin edges")),
        ((1.0, np.inf), non_finite("inf", 1, "bin edges")),
    ], ids=["nan", "inf"])
    def test_non_finite_edges_rejected(self, edges, message):
        with pytest.raises(ValidationError, match=message):
            BinningSpec("width", len(edges) + 1, edges)

    def test_overflowing_range_is_refused_not_binned(self):
        """The width of [-1e308, 1e308] overflows, so its one edge would be infinite."""
        with pytest.raises(ValidationError, match=non_finite("inf", 0, "bin edges")):
            fit_bins([-1e308, 0.0, 1e308], alphabet_size=2)

    def test_equal_width_uniform_split(self):
        spec = fit_bins([0.0, 1.5, 3.0], mode="width", alphabet_size=3)
        np.testing.assert_allclose(spec.edges, [1.0, 2.0], atol=1e-12)

    def test_quantile_edges_match_hand_interpolation(self):
        values = np.arange(1, 101, dtype=float)
        spec = fit_bins(values, mode="quantile", alphabet_size=4)
        # brute-force type-7 quantiles: h = (n-1) k/N, linear interpolation
        ordered = np.sort(values)
        expected = []
        for k in (1, 2, 3):
            h = (len(ordered) - 1) * k / 4
            low = int(np.floor(h))
            expected.append(ordered[low] + (h - low) * (ordered[low + 1] - ordered[low]))
        np.testing.assert_allclose(spec.edges, expected, atol=1e-12)
        np.testing.assert_allclose(spec.edges, [25.75, 50.5, 75.25], atol=1e-12)

    def test_constant_series_equal_width_rejected(self):
        with pytest.raises(ValidationError):
            fit_bins([2.0, 2.0, 2.0], mode="width", alphabet_size=3)

    def test_quantile_needs_distinct_values(self):
        with pytest.raises(ValidationError):
            fit_bins([1.0, 1.0, 2.0], mode="quantile", alphabet_size=3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            fit_bins([1.0, 2.0, 3.0], mode="kmeans", alphabet_size=3)

    def test_edges_must_ascend(self):
        with pytest.raises(ValidationError):
            BinningSpec("width", 3, (2.0, 1.0))

    def test_edge_count_must_match(self):
        with pytest.raises(ValidationError):
            BinningSpec("width", 3, (1.0,))

    @pytest.mark.parametrize("size", (3.0, 3.5, True))
    def test_alphabet_size_must_be_an_integer(self, size):
        with pytest.raises(ValidationError, match="^alphabet_size must be an integer"):
            BinningSpec("width", size, (1.0, 2.0))
        with pytest.raises(ValidationError, match="^alphabet_size must be an integer"):
            fit_bins([1.0, 2.0, 3.0, 4.0], alphabet_size=size)

    def test_numpy_integer_alphabet_size_accepted(self):
        spec = fit_bins([1.0, 2.0, 3.0, 4.0], alphabet_size=np.int64(3))
        assert spec.alphabet_size == 3 and type(spec.alphabet_size) is int


class TestSymbolize:
    def test_edge_goes_to_lower_bin(self):
        spec = BinningSpec("width", 3, (1.0, 2.0))
        out = symbolize([0.5, 1.0, 2.5], spec)
        np.testing.assert_array_equal(out.symbols, [0, 0, 2])

    def test_values_below_range_clamp_to_zero(self):
        spec = BinningSpec("width", 3, (10.0, 20.0))
        out = symbolize([1.0, 2.0, 3.0], spec)
        np.testing.assert_array_equal(out.symbols, [0, 0, 0])

    @pytest.mark.parametrize("bad", (np.nan, -np.inf, np.inf))
    def test_non_finite_values_rejected(self, bad):
        spec = BinningSpec("width", 3, (1.0, 2.0))
        with pytest.raises(ValidationError, match="non-finite"):
            symbolize([0.5, bad, 1.0], spec)

    @pytest.mark.parametrize("values, message", [
        (GRID, not_a_series((3, 4))),
        ([0.5, "x"], not_a_series((2,), "<U32")),
    ], ids=["2-D", "strings"])
    def test_refuses_by_the_series_rule(self, values, message):
        with pytest.raises(ValidationError, match=message):
            symbolize(values, SPEC)

    def test_symbols_stay_in_alphabet(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        spec = fit_bins(values, mode="width", alphabet_size=3)
        out = symbolize(values, spec)
        assert out.symbols.max() <= 2
        assert out.alphabet_size == 3

    @pytest.mark.parametrize("size,bins", [(1000, 4), (1001, 4), (997, 3), (50, 7)])
    def test_quantile_bins_balance_histogram(self, size, bins):
        rng = np.random.default_rng(1)
        values = rng.permutation(np.arange(size, dtype=float))
        spec = fit_bins(values, mode="quantile", alphabet_size=bins)
        out = symbolize(values, spec)
        counts = np.bincount(out.symbols, minlength=bins)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=200)
        spec = fit_bins(values, mode="quantile", alphabet_size=3)
        first = symbolize(values, spec)
        second = symbolize(values, spec)
        np.testing.assert_array_equal(first.symbols, second.symbols)

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=30),
        st.floats(-100, 100),
        st.floats(-100, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_value(self, values, a, b):
        spec = BinningSpec("width", 4, (-10.0, 0.0, 10.0))
        lo, hi = min(a, b), max(a, b)
        out = symbolize([lo, hi] + values, spec)
        assert out.symbols[0] <= out.symbols[1]


class TestSymbolSeries:
    def test_symbol_out_of_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            SymbolSeries(symbols=np.array([0, 3]), alphabet_size=3)

    def test_alphabet_too_small_rejected(self):
        with pytest.raises(ValidationError):
            SymbolSeries(symbols=np.array([0, 0]), alphabet_size=1)

    @pytest.mark.parametrize("symbols", [np.zeros((3, 4), int), np.zeros((1, 5), int), []])
    def test_symbols_must_be_one_non_empty_row(self, symbols):
        """Integer symbols go to the integer rule, and an empty list, which numpy
        reads as floats, to the series rule."""
        shape = np.shape(symbols)
        message = not_integers("symbols", shape, "int64") if len(shape) == 2 else not_a_series(
            shape, name="symbols")
        with pytest.raises(ValidationError, match=message):
            SymbolSeries(symbols, 2)

    def test_non_integer_symbols_rejected(self):
        with pytest.raises(ValidationError):
            SymbolSeries(symbols=np.array([0.5, 1.0]), alphabet_size=2)

    def test_float_symbols_are_range_checked_before_the_cast(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=r"^symbols must lie in \[0, 2\), got range \[0.0, 1e\+300\]$"):
                SymbolSeries(np.array([0.0, 1e300]), 2)

    @pytest.mark.parametrize(
        "field, alphabet, block",
        [("alphabet_size", 2.5, 1), ("alphabet_size", 3.0, 1), ("block_size", 3, 2.0),
         ("block_size", 3, True)],
    )
    def test_sizes_must_be_integers(self, field, alphabet, block):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            SymbolSeries([0, 1, 2], alphabet, block_size=block)

    @pytest.mark.parametrize("label", [5, None, b"A", ("A",)])
    def test_label_must_be_a_string(self, label):
        with pytest.raises(ValidationError,
                           match=f"^label must be a string, got {re.escape(repr(label))}$"):
            SymbolSeries([0, 1, 2], 3, label=label)

    @pytest.mark.parametrize("block", (0, -3))
    def test_block_size_must_be_positive(self, block):
        with pytest.raises(ValidationError, match=f"^block_size must be at least 1, got {block}$"):
            SymbolSeries([0, 1, 2], 3, block_size=block)

    def test_numpy_integer_sizes_accepted(self):
        series = SymbolSeries([0, 1, 2], np.int64(3), block_size=np.uint8(2))
        assert (series.alphabet_size, series.block_size) == (3, 2)
        assert type(series.alphabet_size) is type(series.block_size) is int

    @pytest.mark.parametrize("values, message", [
        (np.arange(1.0, 25.0).reshape(4, 6), not_a_series((4, 6))),
        ([1.0, 2.0, np.inf, 4.0], non_finite("inf", 2)),
        ([], not_a_series((0,))),
    ], ids=["2-D", "inf", "empty"])
    def test_prepare_series_refuses_by_the_series_rule(self, values, message):
        with pytest.raises(ValidationError, match=message):
            prepare_series(values, block_size=2)

    def test_metadata_carried(self):
        series = prepare_series(
            np.linspace(0, 10, 50), alphabet_size=3, block_size=2,
            mode="quantile", label="DAX",
        )
        assert series.label == "DAX"
        assert series.block_size == 2
        assert series.bin_mode == "quantile"
        assert len(series.bin_edges) == 2


class TestLogReturns:
    def test_values(self):
        out = log_returns([1.0, np.e, np.e**2])
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_positive_input_required(self):
        with pytest.raises(ValidationError):
            log_returns([1.0, -2.0])

    @pytest.mark.parametrize("values, message", [
        ([1.0, np.nan, 2.0], non_finite("nan", 1)),
        ([1.0, np.inf], non_finite("inf", 1)),
        (GRID, not_a_series((3, 4))),
        ([2.0, None], not_a_series((2,), "object")),
    ], ids=["nan", "inf", "2-D", "none"])
    def test_refuses_by_the_series_rule(self, values, message):
        with pytest.raises(ValidationError, match=message):
            log_returns(values)

    def test_pipeline_with_log_returns(self):
        rng = np.random.default_rng(3)
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, size=400)))
        series = prepare_series(
            prices, alphabet_size=3, block_size=2, mode="quantile",
            use_log_returns=True, label="A",
        )
        # one block mean is consumed by the return transform
        assert len(series) == 400 // 2 - 1


SERIES_ENTRY_POINTS = {
    "block_coarse_grain": lambda values: block_coarse_grain(values, 1),
    "log_returns": log_returns,
    "fit_bins": fit_bins,
    "symbolize": lambda values: symbolize(values, SPEC),
    "prepare_series": prepare_series,
    "RawSeries": lambda values: RawSeries("A", np.arange(np.size(values)), values),
}
prices = st.lists(st.floats(0.5, 100.0), min_size=1, max_size=20)
bad_series = st.one_of(
    st.tuples(prices, st.integers(0, 20), st.sampled_from([np.nan, np.inf, -np.inf])).map(
        lambda t: [*t[0][: t[1]], t[2], *t[0][t[1]:]]
    ),
    st.just([]),
    st.floats(0.5, 100.0),
    st.tuples(st.integers(1, 4), st.integers(1, 5)).map(lambda shape: np.full(shape, 2.0)),
    st.lists(st.text(max_size=3) | st.none(), min_size=1, max_size=5),
)


class TestSeriesRule:
    """Every entry point that takes a numeric series refuses a bad one by
    `errors._series`, and the refusal names the argument."""

    @pytest.mark.parametrize("entry_point", SERIES_ENTRY_POINTS.values(), ids=SERIES_ENTRY_POINTS)
    @given(values=bad_series)
    @settings(max_examples=40, deadline=None)
    def test_bad_series_is_refused_by_name(self, entry_point, values):
        with pytest.raises(ValidationError, match=r"^(series 'A' )?values must be "):
            entry_point(values)
