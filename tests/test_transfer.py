"""Word counting and both transfer entropy evaluations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    iid_symbol_series,
    random_word_distribution,
    renyi_transfer_entropy_escort,
)
from renflow import (
    HistorySpec,
    SymbolSeries,
    ValidationError,
    WordDistribution,
    count_words,
    renyi_transfer_entropy,
    shannon_transfer_entropy,
)

LOG2_3 = math.log2(3)


def copy_process_words() -> WordDistribution:
    """Exact stationary words of x_{t+1} = y_t with i.i.d. uniform y, N = 3."""
    counts = {(y, (x,), (y,)): 1 for x in range(3) for y in range(3)}
    return WordDistribution.from_counts(counts, 3, 3, 1, 1)


def copy_process_reverse_words() -> WordDistribution:
    """Same process viewed in the uninformative direction (x as source)."""
    counts = {
        (y_next, (y,), (x,)): 1
        for y_next in range(3) for y in range(3) for x in range(3)
    }
    return WordDistribution.from_counts(counts, 3, 3, 1, 1)


class TestCountWords:
    def test_alternating_pair_hand_enumeration(self):
        x = SymbolSeries(np.array([0, 1, 0, 1, 0, 1]), 2, label="x")
        y = SymbolSeries(np.array([1, 0, 1, 0, 1, 0]), 2, label="y")
        words = count_words(x, y, HistorySpec(1, 1))
        assert words.n_windows == 4
        observed = dict(words.items())
        assert observed == {
            (1, (0,), (1,)): 2,
            (0, (1,), (0,)): 2,
        }

    def test_boundary_length_rejected(self):
        x = SymbolSeries(np.array([0, 1]), 2)
        y = SymbolSeries(np.array([1, 0]), 2)
        with pytest.raises(ValidationError):
            count_words(x, y, HistorySpec(1, 1))

    def test_length_mismatch_rejected(self):
        x = SymbolSeries(np.array([0, 1, 0]), 2)
        y = SymbolSeries(np.array([1, 0]), 2)
        with pytest.raises(ValidationError):
            count_words(x, y, HistorySpec(1, 1))

    def test_constant_target_degenerate(self):
        x = SymbolSeries(np.array([2, 2, 2, 2]), 3, label="x")
        y = SymbolSeries(np.array([0, 1, 2, 0]), 3, label="y")
        words = count_words(x, y, HistorySpec(1, 1))
        x_words = {xw for (_, xw, _), _ in words.items()}
        assert x_words == {(2,)}
        assert shannon_transfer_entropy(words).value == pytest.approx(0.0, abs=1e-15)

    def test_window_count_formula(self):
        rng = np.random.default_rng(0)
        x = iid_symbol_series(rng, 50, 2)
        y = iid_symbol_series(rng, 50, 2)
        for m, l in ((1, 1), (2, 3), (4, 2)):
            words = count_words(x, y, HistorySpec(m, l))
            assert words.n_windows == 50 - max(m, l) - 1

    def test_mixed_alphabet_sizes(self):
        rng = np.random.default_rng(1)
        x = iid_symbol_series(rng, 5000, 2, label="x")
        y = iid_symbol_series(rng, 5000, 4, label="y")
        words = count_words(x, y, HistorySpec(1, 2))
        assert words.target_alphabet == 2
        assert words.source_alphabet == 4
        assert shannon_transfer_entropy(words).value <= 0.02
        for (x_next, xw, yw), _ in words.items():
            assert 0 <= x_next < 2
            assert all(0 <= s < 2 for s in xw)
            assert all(0 <= s < 4 for s in yw)

    def test_history_lengths_validated(self):
        with pytest.raises(ValidationError):
            HistorySpec(0, 1)
        with pytest.raises(ValidationError):
            HistorySpec(1, -2)

    def test_pseudo_count_smoothing(self):
        rng = np.random.default_rng(14)
        x = iid_symbol_series(rng, 40, 2)
        y = iid_symbol_series(rng, 40, 2)
        plain = count_words(x, y, HistorySpec(1, 1))
        smoothed = count_words(x, y, HistorySpec(1, 1), pseudo_count=1)
        assert smoothed.codes.size == 2 * 2 * 2  # every possible word present
        assert smoothed.n_windows == plain.n_windows + 8
        # smoothing pulls the estimate toward independence
        assert (
            shannon_transfer_entropy(smoothed).value
            <= shannon_transfer_entropy(plain).value
        )

    def test_pseudo_count_rejects_large_word_space(self):
        # alphabet 4 at m = l = 5 has 4^11 = 4,194,304 possible words
        rng = np.random.default_rng(16)
        x = iid_symbol_series(rng, 2006, 4)
        y = iid_symbol_series(rng, 2006, 4)
        with pytest.raises(ValidationError, match="too many"):
            count_words(x, y, HistorySpec(5, 5), pseudo_count=1)
        assert count_words(x, y, HistorySpec(5, 5)).n_windows == 2000

    def test_pseudo_count_negative_rejected(self):
        rng = np.random.default_rng(15)
        x = iid_symbol_series(rng, 40, 2)
        y = iid_symbol_series(rng, 40, 2)
        with pytest.raises(ValidationError):
            count_words(x, y, HistorySpec(1, 1), pseudo_count=-1)


class TestWordDistribution:
    def test_from_counts_rejects_bad_symbols(self):
        with pytest.raises(ValidationError):
            WordDistribution.from_counts({(3, (0,), (0,)): 1}, 3, 3, 1, 1)
        with pytest.raises(ValidationError):
            WordDistribution.from_counts({(0, (0, 1), (0,)): 1}, 3, 3, 1, 1)
        with pytest.raises(ValidationError):
            WordDistribution.from_counts({(2, (0,), (0,)): 1}, 2, 3, 1, 1)
        with pytest.raises(ValidationError):
            WordDistribution.from_counts({(0, (0,), (-1,)): 1}, 3, 3, 1, 1)

    def test_from_counts_rejects_empty(self):
        with pytest.raises(ValidationError):
            WordDistribution.from_counts({}, 3, 3, 1, 1)

    @pytest.mark.parametrize("codes", [[100], [-3], [4, 2], [2, 2]])
    def test_out_of_range_or_unsorted_codes_rejected(self, codes):
        # alphabet 2 with m = l = 1 has codes 0 .. 7
        with pytest.raises(ValidationError):
            WordDistribution(codes=codes, counts=[1] * len(codes),
                             target_alphabet=2, source_alphabet=2, m=1, l=1)

    def test_from_counts_sorts_codes(self):
        words = WordDistribution.from_counts({(1, (1,), (1,)): 2, (0, (0,), (0,)): 5}, 2, 2, 1, 1)
        assert words.codes.tolist() == [0, 7]
        assert words.counts.tolist() == [5, 2]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5), st.integers(2, 5), st.integers(1, 3), st.integers(1, 3),
        st.integers(8, 400), st.integers(0, 2**32 - 1),
    )
    def test_from_counts_reproduces_counted_words(self, nx, ny, m, l, length, seed):
        rng = np.random.default_rng(seed)
        x = iid_symbol_series(rng, length, nx)
        y = iid_symbol_series(rng, length, ny)
        words = count_words(x, y, HistorySpec(m, l))
        items = dict(words.items())
        for (x_next, xw, yw) in items:
            assert 0 <= x_next < nx and len(xw) == m and len(yw) == l
            assert all(0 <= s < nx for s in xw) and all(0 <= s < ny for s in yw)
        rebuilt = WordDistribution.from_counts(items, nx, ny, m, l)
        np.testing.assert_array_equal(rebuilt.codes, words.codes)
        np.testing.assert_array_equal(rebuilt.counts, words.counts)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(1)
        words = random_word_distribution(rng)
        probs = words.counts / words.n_windows
        assert abs(math.fsum(probs.tolist()) - 1.0) <= 1e-12

    def test_direction_label(self):
        rng = np.random.default_rng(4)
        x = iid_symbol_series(rng, 30, 2, label="DAX")
        y = iid_symbol_series(rng, 30, 2, label="SP500")
        words = count_words(x, y, HistorySpec(1, 1))
        assert words.direction == "SP500->DAX"


class TestShannonTransferEntropy:
    def test_copy_process_exact(self):
        value = shannon_transfer_entropy(copy_process_words()).value
        assert value == pytest.approx(LOG2_3, abs=1e-12)

    def test_copy_process_reverse_is_zero(self):
        value = shannon_transfer_entropy(copy_process_reverse_words()).value
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(5)
        x = iid_symbol_series(rng, 100_000, 3)
        y = iid_symbol_series(rng, 100_000, 3)
        value = shannon_transfer_entropy(count_words(x, y, HistorySpec(1, 1))).value
        assert 0.0 <= value <= 0.01

    def test_non_negative_on_random_words(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            words = random_word_distribution(rng)
            assert shannon_transfer_entropy(words).value >= -1e-12

    def test_zero_exactly_for_conditionally_independent_joint(self):
        # p(x', xw, yw) = p(x'|xw) p(xw, yw): the source word adds nothing
        conditional = {0: (2, 1), 1: (1, 3)}  # x' weights per x-word
        pair_weight = {(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 4}
        counts = {}
        for (xw, yw), w in pair_weight.items():
            for x_next, c in enumerate(conditional[xw]):
                counts[(x_next, (xw,), (yw,))] = c * w
        words = WordDistribution.from_counts(counts, 2, 2, 1, 1)
        assert shannon_transfer_entropy(words).value == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_coupled_joint(self):
        words = copy_process_words()
        assert shannon_transfer_entropy(words).value > 1.0

    def test_result_metadata(self):
        result = shannon_transfer_entropy(copy_process_words())
        assert result.q == 1.0
        assert (result.m, result.l) == (1, 1)
        assert result.n_windows == 9
        assert result.direction == "Y->X"


class TestRenyiTransferEntropy:
    @pytest.mark.parametrize("q", (0.5, 0.8, 1.5))
    def test_copy_process_exact_any_order(self, q):
        value = renyi_transfer_entropy(copy_process_words(), q).value
        assert value == pytest.approx(LOG2_3, abs=1e-12)

    @pytest.mark.parametrize("q", (0.5, 0.8, 1.0, 1.5, 3.0))
    def test_reverse_direction_zero_any_order(self, q):
        value = renyi_transfer_entropy(copy_process_reverse_words(), q).value
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_shannon_at_q1(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            words = random_word_distribution(rng)
            renyi = renyi_transfer_entropy(words, 1.0).value
            assert renyi == shannon_transfer_entropy(words).value

    def test_continuity_just_off_q1(self):
        rng = np.random.default_rng(8)
        words = random_word_distribution(rng)
        near = renyi_transfer_entropy(words, 1.0 + 1e-10).value
        shannon = shannon_transfer_entropy(words).value
        assert near == pytest.approx(shannon, abs=1e-6)

    @pytest.mark.parametrize("q", (0.5, 2.0))
    def test_can_be_negative_away_from_q1(self, q):
        rng = np.random.default_rng(9)
        seen_negative = False
        for _ in range(1500):
            words = random_word_distribution(rng, 2, 2, max_count=12)
            if renyi_transfer_entropy(words, q).value < -1e-9:
                seen_negative = True
                break
        assert seen_negative

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.8, 1.0, 1.5, 2.5, 5.0))
    def test_escort_ratio_form_agrees(self, q):
        rng = np.random.default_rng(10)
        for _ in range(40):
            a, b, m, l = (int(v) for v in rng.integers((2, 2, 1, 1), (4, 4, 4, 4)))
            words = random_word_distribution(rng, a, b, m, l)
            reference = renyi_transfer_entropy(words, q).value
            for dual in (False, True):
                assert renyi_transfer_entropy_escort(words, q, dual) == pytest.approx(
                    reference, abs=1e-12
                )

    def test_extreme_order_rejected(self):
        # every p^q underflows to 0, so the logarithm is undefined
        with pytest.raises(ValidationError, match="q=2000"):
            renyi_transfer_entropy(copy_process_words(), 2000.0)

    def test_order_must_be_positive(self):
        with pytest.raises(ValidationError):
            renyi_transfer_entropy(copy_process_words(), -0.5)
