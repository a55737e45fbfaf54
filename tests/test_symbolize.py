"""Blocking, bin fitting, and symbol mapping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renflow import (
    BinningSpec,
    SymbolSeries,
    ValidationError,
    block_coarse_grain,
    fit_bins,
    log_returns,
    prepare_series,
    symbolize,
)


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

    def test_non_integer_symbols_rejected(self):
        with pytest.raises(ValidationError):
            SymbolSeries(symbols=np.array([0.5, 1.0]), alphabet_size=2)

    @pytest.mark.parametrize(
        "field, alphabet, block",
        [("alphabet_size", 2.5, 1), ("alphabet_size", 3.0, 1), ("block_size", 3, 2.0),
         ("block_size", 3, True)],
    )
    def test_sizes_must_be_integers(self, field, alphabet, block):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            SymbolSeries([0, 1, 2], alphabet, block_size=block)

    @pytest.mark.parametrize("block", (0, -3))
    def test_block_size_must_be_positive(self, block):
        with pytest.raises(ValidationError, match=f"^block_size must be at least 1, got {block}$"):
            SymbolSeries([0, 1, 2], 3, block_size=block)

    def test_numpy_integer_sizes_accepted(self):
        series = SymbolSeries([0, 1, 2], np.int64(3), block_size=np.uint8(2))
        assert (series.alphabet_size, series.block_size) == (3, 2)
        assert type(series.alphabet_size) is type(series.block_size) is int

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

    def test_pipeline_with_log_returns(self):
        rng = np.random.default_rng(3)
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, size=400)))
        series = prepare_series(
            prices, alphabet_size=3, block_size=2, mode="quantile",
            use_log_returns=True, label="A",
        )
        # one block mean is consumed by the return transform
        assert len(series) == 400 // 2 - 1
