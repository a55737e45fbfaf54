"""Word counting and both transfer entropy evaluations."""

import math
import time
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    iid_symbol_series,
    not_integers,
    random_word_distribution,
    renyi_transfer_entropy_escort,
    shannon_transfer_entropy_decimal,
    word_items,
)
from renflow import (
    HistorySpec,
    SymbolSeries,
    ValidationError,
    WordDistribution,
    count_words,
    renyi_transfer_entropy,
)
from renflow.cli import main
from renflow.infocore import _CLASS_MIN_CELLS, _count_terms, _power_sum
from renflow.transfer import _groups, _radices, _tally

LOG2_3 = math.log2(3)
CLASS_ORDERS = (0.3, 0.5, 0.8, 1.5, 2.5, 7.0)


def power_tables(words: WordDistribution) -> dict:
    """The four integer count tables, each of total N, that make T_q at every order,
    as `renyi_transfer_entropy` reads them."""
    both_counts, fx_counts, xh_counts = _groups(words)
    return {"words": words.counts, "xw,yw": both_counts, "xw,x'": fx_counts, "xw": xh_counts}


def c_log2_c(c: np.ndarray) -> np.ndarray:
    return c * np.log2(c)


def count_term(q: float, n: int):
    """The term that `renyi_transfer_entropy` sums over each cell of count c at order q."""
    return c_log2_c if q == 1.0 else lambda c: np.power(c / n, q)


def class_pieces(counts: np.ndarray) -> int:
    """The number of pieces `_count_terms` gives a table summed by count class: one
    for each set bit of the multiplicity of each distinct count."""
    return sum(k.bit_count() for k in np.unique(counts, return_counts=True)[1].tolist())


def per_cell_value(words: WordDistribution, q: float) -> float:
    """T_q from per-cell sums over the tables of `power_tables`: the float API's
    power sums of c / N at q != 1, and the c log2 c terms of each cell at q = 1."""
    n = words.n_windows
    tables = power_tables(words)
    if q == 1.0:
        sums = {name: c_log2_c(t).tolist() for name, t in tables.items()}
        return math.fsum(
            sums["words"] + sums["xw"] + [-v for v in sums["xw,yw"] + sums["xw,x'"]]
        ) / n
    logs = {name: math.log2(_power_sum(t / n, q)) for name, t in tables.items()}
    target_only = (logs["xw,x'"] - logs["xw"]) / (1.0 - q)
    return target_only - (logs["words"] - logs["xw,yw"]) / (1.0 - q)


def sparse_words(length: int = 20_000, seed: int = 12) -> WordDistribution:
    """i.i.d. alphabet-4 words at m = l = 4: most of the 4^9 words are seen once or twice."""
    rng = np.random.default_rng(seed)
    x, y = (iid_symbol_series(rng, length, 4) for _ in range(2))
    return count_words(x, y, HistorySpec(4, 4))


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
        observed = dict(word_items(words))
        assert observed == {
            (1, (0,), (1,)): 2,
            (0, (1,), (0,)): 2,
        }

    def test_boundary_length_rejected(self):
        x = SymbolSeries(np.array([0, 1]), 2)
        y = SymbolSeries(np.array([1, 0]), 2)
        with pytest.raises(ValidationError):
            count_words(x, y, HistorySpec(1, 1))

    @pytest.mark.parametrize("m", [4, 70], ids=["short", "short-and-too-large"])
    def test_series_with_no_full_window_rejected_first(self, m):
        # 5 symbols at m = 4 or 70 leave no window; at m = 70 the code space of
        # 2^72 words is too large to encode as well, and the length is refused first
        x = SymbolSeries(np.array([0, 1, 0, 1, 0]), 2)
        message = f"series of length 5 too short for histories m={m}, l=1"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            count_words(x, x, HistorySpec(m, 1))

    def test_length_mismatch_rejected(self):
        x = SymbolSeries(np.array([0, 1, 0]), 2)
        y = SymbolSeries(np.array([1, 0]), 2)
        with pytest.raises(ValidationError):
            count_words(x, y, HistorySpec(1, 1))

    def test_constant_target_degenerate(self):
        x = SymbolSeries(np.array([2, 2, 2, 2]), 3, label="x")
        y = SymbolSeries(np.array([0, 1, 2, 0]), 3, label="y")
        words = count_words(x, y, HistorySpec(1, 1))
        x_words = {xw for (_, xw, _), _ in word_items(words)}
        assert x_words == {(2,)}
        assert renyi_transfer_entropy(words, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_window_count_formula(self):
        rng = np.random.default_rng(0)
        # Code spaces 2^(m+l+1) of 8, 64 and 128 words against 45..48 windows,
        # then 32 words against 33, 32 and 31 windows: counting is dense up to
        # a code space equal to the window count and sorted above it.
        for length, m, l in ((50, 1, 1), (50, 2, 3), (50, 4, 2), (36, 2, 2), (35, 2, 2), (34, 2, 2)):
            x = iid_symbol_series(rng, length, 2)
            y = iid_symbol_series(rng, length, 2)
            words = count_words(x, y, HistorySpec(m, l))
            n = length - max(m, l) - 1
            assert words.n_windows == n
            start = max(m, l)
            columns = [x.symbols[start - m + 1 + k : start - m + 1 + k + n] for k in range(m)]
            columns += [y.symbols[start - l + 1 + k : start - l + 1 + k + n] for k in range(l)]
            columns.append(x.symbols[start + 1 : start + 1 + n])
            packed = np.ravel_multi_index(columns, (2,) * (m + l + 1))
            codes, counts = np.unique(packed, return_counts=True)
            np.testing.assert_array_equal(words.codes, codes)
            np.testing.assert_array_equal(words.counts, counts)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 1199), st.integers(0, 2**32 - 1))
    @example(nx=2, ny=2, m=1, l=1, windows=6, seed=0)  # 7 windows, 8 possible words: sorted
    @example(nx=2, ny=2, m=1, l=1, windows=7, seed=0)  # 8 windows: dense
    def test_equals_the_per_window_loop(self, nx, ny, m, l, windows, seed):
        # Up to twice the code space in windows: both sides of the dense/sorted
        # switch wherever the code space is small.
        n_windows = 1 + windows % (2 * min(nx ** (m + 1) * ny**l, 600))
        start = max(m, l)
        length = start + 1 + n_windows
        rng = np.random.default_rng(seed)
        x, y = iid_symbol_series(rng, length, nx), iid_symbol_series(rng, length, ny)
        xs, ys = x.symbols.tolist(), y.symbols.tolist()
        expected = Counter(
            (xs[t + 1], tuple(xs[t - m + 1 : t + 1]), tuple(ys[t - l + 1 : t + 1]))
            for t in range(start, length - 1)
        )
        assert dict(word_items(count_words(x, y, HistorySpec(m, l)))) == dict(expected)

    def test_mixed_alphabet_sizes(self):
        rng = np.random.default_rng(1)
        x = iid_symbol_series(rng, 5000, 2, label="x")
        y = iid_symbol_series(rng, 5000, 4, label="y")
        words = count_words(x, y, HistorySpec(1, 2))
        assert words.target_alphabet == 2
        assert words.source_alphabet == 4
        assert renyi_transfer_entropy(words, 1.0) <= 0.02
        for (x_next, xw, yw), _ in word_items(words):
            assert 0 <= x_next < 2
            assert all(0 <= s < 2 for s in xw)
            assert all(0 <= s < 4 for s in yw)

    def test_history_lengths_validated(self):
        with pytest.raises(ValidationError):
            HistorySpec(0, 1)
        with pytest.raises(ValidationError):
            HistorySpec(1, -2)

    @pytest.mark.parametrize("m, l, name", [(1.5, 1, "m"), (2.0, 1, "m"), (1, True, "l")])
    def test_history_lengths_must_be_integers(self, m, l, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            HistorySpec(m, l)

    def test_numpy_integer_history_lengths_accepted(self):
        h = HistorySpec(np.int64(2), np.uint8(3))
        assert (h.m, h.l) == (2, 3) and type(h.m) is type(h.l) is int

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
            renyi_transfer_entropy(smoothed, 1.0)
            <= renyi_transfer_entropy(plain, 1.0)
        )

    def test_pseudo_count_rejects_large_word_space(self):
        # alphabet 4 at m = l = 5 has 4^11 = 4,194,304 possible words
        rng = np.random.default_rng(16)
        x = iid_symbol_series(rng, 2006, 4)
        y = iid_symbol_series(rng, 2006, 4)
        with pytest.raises(ValidationError, match="too many"):
            count_words(x, y, HistorySpec(5, 5), pseudo_count=1)
        assert count_words(x, y, HistorySpec(5, 5)).n_windows == 2000

    @pytest.mark.parametrize("pseudo_count", (1.5, 0.5, 1.0, True))
    def test_pseudo_count_must_be_an_integer(self, pseudo_count):
        rng = np.random.default_rng(15)
        x = iid_symbol_series(rng, 40, 2)
        y = iid_symbol_series(rng, 40, 2)
        with pytest.raises(ValidationError, match="^pseudo_count must be an integer"):
            count_words(x, y, HistorySpec(1, 1), pseudo_count=pseudo_count)
        smoothed = count_words(x, y, HistorySpec(1, 1), pseudo_count=np.int64(2))
        assert smoothed.n_windows == 38 + 2 * 8

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

    @pytest.mark.parametrize(
        "field, codes, counts",
        [("codes", [0.9, 3.2], [2.7, 1.5]), ("counts", [0, 3], [2.7, 1.5]),
         ("counts", [0, 3], [2.0, 1.0]), ("counts", [0, 3], [True, True])],
    )
    def test_non_integer_codes_or_counts_rejected(self, field, codes, counts):
        dtype = np.asarray({"codes": codes, "counts": counts}[field]).dtype
        with pytest.raises(ValidationError, match=not_integers(f"word {field}", (2,), dtype)):
            WordDistribution(codes=codes, counts=counts,
                             target_alphabet=2, source_alphabet=2, m=1, l=1)

    @pytest.mark.parametrize("field, value, message", [
        ("m", 0, "^m must be at least 1, got 0$"),
        ("l", -1, "^l must be at least 1, got -1$"),
        ("target_alphabet", 1, "^target_alphabet must be at least 2, got 1$"),
        ("source_alphabet", True, "^source_alphabet must be an integer, got True$"),
        ("source_alphabet", 2.5, "^source_alphabet must be an integer, got 2.5$"),
    ])
    def test_sizes_and_history_lengths_follow_the_integer_rule(self, field, value, message):
        sizes = {"target_alphabet": 2, "source_alphabet": 2, "m": 1, "l": 1, field: value}
        with pytest.raises(ValidationError, match=message):
            WordDistribution(codes=[0], counts=[1], **sizes)

    @pytest.mark.parametrize("field", ["codes", "counts"])
    def test_codes_and_counts_must_be_one_dimensional(self, field):
        table = {"codes": [0, 3], "counts": [2, 1]}
        table[field] = [table[field]]
        with pytest.raises(ValidationError, match=not_integers(f"word {field}", (1, 2), "int64")):
            WordDistribution(**table, target_alphabet=2, source_alphabet=2, m=1, l=1)

    @pytest.mark.parametrize("field, value", [("counts", np.array([1, 1, 1, 1])),
                                              ("counts", [-5, 0, 2, 1]), ("m", 2)])
    def test_fields_cannot_be_reassigned(self, field, value):
        # x' copies y: T_1 = H(X'|XW) - H(X'|XW,YW) = 1 - 0 bits
        words = WordDistribution.from_counts(
            {(0, (0,), (0,)): 3, (1, (0,), (1,)): 3, (0, (1,), (0,)): 2, (1, (1,), (1,)): 2},
            2, 2, 1, 1,
        )
        assert renyi_transfer_entropy(words, 1.0) == 1.0
        with pytest.raises(FrozenInstanceError):
            setattr(words, field, value)
        assert renyi_transfer_entropy(words, 1.0) == 1.0
        assert words.counts.tolist() == [3, 3, 2, 2] and words.n_windows == 10

    def test_from_counts_rejects_a_fractional_count(self):
        with pytest.raises(ValidationError, match=not_integers("word counts", (1,), "float64")):
            WordDistribution.from_counts({(0, (1,), (0,)): 2.7}, 2, 2, 1, 1)

    @pytest.mark.parametrize("sizes, message", [
        ((2.5, 2, 1, 1), "^target_alphabet must be an integer, got 2.5$"),
        ((True, 2, 1, 1), "^target_alphabet must be an integer, got True$"),
        ((2, 1, 1, 1), "^source_alphabet must be at least 2, got 1$"),
        ((2, 2, 1.5, 1), "^m must be an integer, got 1.5$"),
        ((2, 2, 1, 0), "^l must be at least 1, got 0$"),
    ], ids=["fractional-alphabet", "bool-alphabet", "one-symbol-source", "fractional-m", "l-0"])
    def test_from_counts_sizes_follow_the_integer_rule(self, sizes, message):
        with pytest.raises(ValidationError, match=message):
            WordDistribution.from_counts({(0, (0,), (0,)): 1}, *sizes)

    def test_an_oversized_code_space_is_refused_before_it_is_built(self):
        """Every radix is at least 2, so 63 digits pass 2**62 codes whatever the
        alphabets, and m = 10**6 is refused without building a million-digit tuple."""
        assert _radices(2, 2, 60, 1) == (2,) * 62
        for m in (61, 10**6):
            started = time.perf_counter()
            with pytest.raises(ValidationError, match=r"^alphabet\^history too large to encode$"):
                WordDistribution([0], [1], 2, 2, m, 1)
            assert time.perf_counter() - started < 0.1

    def test_numpy_integer_codes_and_counts_accepted(self):
        words = WordDistribution(codes=np.array([0, 3], dtype=np.uint16),
                                 counts=np.array([2, 1], dtype=np.int32),
                                 target_alphabet=2, source_alphabet=2, m=1, l=1)
        assert words.codes.dtype == words.counts.dtype == np.int64
        assert words.counts.tolist() == [2, 1]
        one_word = WordDistribution.from_counts({(0, (1,), (0,)): np.int64(2)}, 2, 2, 1, 1)
        assert one_word.counts.tolist() == [2]

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
        items = dict(word_items(words))
        for (x_next, xw, yw) in items:
            assert 0 <= x_next < nx and len(xw) == m and len(yw) == l
            assert all(0 <= s < nx for s in xw) and all(0 <= s < ny for s in yw)
        rebuilt = WordDistribution.from_counts(items, nx, ny, m, l)
        np.testing.assert_array_equal(rebuilt.codes, words.codes)
        np.testing.assert_array_equal(rebuilt.counts, words.counts)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6), st.integers(2, 4), st.integers(1, 3), st.integers(1, 2),
        st.integers(5, 300), st.integers(0, 2**32 - 1),
    )
    @example(nx=3, ny=2, m=2, l=1, length=30, seed=1)  # 27 (xw, x') keys, 27 windows: dense
    @example(nx=3, ny=2, m=2, l=1, length=29, seed=1)  # 26 windows: the observed keys
    def test_groupings_equal_a_per_word_reference(self, nx, ny, m, l, length, seed):
        # the (xw, yw), (xw, x') and (xw) counts in ascending key order, on both sides
        # of the rule that counts the (xw, x') table densely
        rng = np.random.default_rng(seed)
        x, y = iid_symbol_series(rng, length, nx), iid_symbol_series(rng, length, ny)
        words = count_words(x, y, HistorySpec(m, l))
        pair, target, history = Counter(), Counter(), Counter()
        for (x_next, xw, yw), count in word_items(words):
            pair[xw, yw] += count
            target[xw, x_next] += count
            history[xw] += count
        pair_counts, fx_counts, xh_counts = _groups(words)
        assert pair_counts.tolist() == [pair[key] for key in sorted(pair)]
        assert fx_counts.tolist() == [target[key] for key in sorted(target)]
        assert xh_counts.tolist() == [history[key] for key in sorted(history)]

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(1)
        words = random_word_distribution(rng)
        probs = words.counts / words.n_windows
        assert abs(math.fsum(probs.tolist()) - 1.0) <= 1e-12


class TestShannonTransferEntropy:
    def test_copy_process_exact(self):
        value = renyi_transfer_entropy(copy_process_words(), 1.0)
        assert value == pytest.approx(LOG2_3, abs=1e-12)

    def test_copy_process_reverse_is_zero(self):
        value = renyi_transfer_entropy(copy_process_reverse_words(), 1.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(5)
        x = iid_symbol_series(rng, 100_000, 3)
        y = iid_symbol_series(rng, 100_000, 3)
        value = renyi_transfer_entropy(count_words(x, y, HistorySpec(1, 1)), 1.0)
        assert 0.0 <= value <= 0.01

    def test_non_negative_on_random_words(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            words = random_word_distribution(rng)
            assert renyi_transfer_entropy(words, 1.0) >= -1e-12

    def test_zero_exactly_for_conditionally_independent_joint(self):
        # p(x', xw, yw) = p(x'|xw) p(xw, yw): the source word adds nothing
        conditional = {0: (2, 1), 1: (1, 3)}  # x' weights per x-word
        pair_weight = {(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 4}
        counts = {}
        for (xw, yw), w in pair_weight.items():
            for x_next, c in enumerate(conditional[xw]):
                counts[(x_next, (xw,), (yw,))] = c * w
        words = WordDistribution.from_counts(counts, 2, 2, 1, 1)
        assert renyi_transfer_entropy(words, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_coupled_joint(self):
        words = copy_process_words()
        assert renyi_transfer_entropy(words, 1.0) > 1.0

    def test_copy_process_has_nine_windows(self):
        assert copy_process_words().n_windows == 9


class TestRenyiTransferEntropy:
    @pytest.mark.parametrize("q", (0.5, 0.8, 1.5))
    def test_copy_process_exact_any_order(self, q):
        value = renyi_transfer_entropy(copy_process_words(), q)
        assert value == pytest.approx(LOG2_3, abs=1e-12)

    @pytest.mark.parametrize("q", (0.5, 0.8, 1.0, 1.5, 3.0))
    def test_reverse_direction_zero_any_order(self, q):
        value = renyi_transfer_entropy(copy_process_reverse_words(), q)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_shannon_at_q1(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            words = random_word_distribution(rng)
            shannon = renyi_transfer_entropy(words, 1.0)
            for q in (1, 1.0 - 1e-10, 1.0 + 1e-10):  # inside the Shannon window
                assert renyi_transfer_entropy(words, q) == shannon

    def test_continuity_just_off_q1(self):
        rng = np.random.default_rng(8)
        words = random_word_distribution(rng)
        near = renyi_transfer_entropy(words, 1.0 + 1e-10)
        shannon = renyi_transfer_entropy(words, 1.0)
        assert near == pytest.approx(shannon, abs=1e-6)

    @pytest.mark.parametrize("q", (0.5, 2.0))
    def test_can_be_negative_away_from_q1(self, q):
        rng = np.random.default_rng(9)
        seen_negative = False
        for _ in range(1500):
            words = random_word_distribution(rng, 2, 2, max_count=12)
            if renyi_transfer_entropy(words, q) < -1e-9:
                seen_negative = True
                break
        assert seen_negative

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.8, 1.0, 1.5, 2.5, 5.0))
    def test_escort_ratio_form_agrees(self, q):
        rng = np.random.default_rng(10)
        inputs = []
        for _ in range(40):
            a, b, m, l = (int(v) for v in rng.integers((2, 2, 1, 1), (4, 4, 4, 4)))
            inputs.append(random_word_distribution(rng, a, b, m, l))
        # sparse counted words: many (xw) and (xw, yw) runs, most of a single word
        for _ in range(40):
            a, b, m, l = (int(v) for v in rng.integers((2, 2, 1, 1), (6, 6, 5, 5)))
            length = int(rng.integers(10, 300))
            x, y = iid_symbol_series(rng, length, a), iid_symbol_series(rng, length, b)
            inputs.append(count_words(x, y, HistorySpec(m, l)))
        for words in inputs:
            reference = renyi_transfer_entropy(words, q)
            for dual in (False, True):
                assert renyi_transfer_entropy_escort(words, q, dual) == pytest.approx(
                    reference, abs=1e-12
                )

    @pytest.mark.parametrize(
        "alphabet, m, length", [(3, 1, 500), (3, 2, 500), (3, 3, 500), (5, 4, 20_000)]
    )
    def test_self_transfer_is_exactly_zero(self, alphabet, m, length):
        # equal tables cancel term by term at every order; the last case sums by count class
        x = iid_symbol_series(np.random.default_rng(alphabet * m), length, alphabet)
        words = count_words(x, x, HistorySpec(m, m))
        assert (words.codes.size > _CLASS_MIN_CELLS) == (m == 4)
        for q in (*CLASS_ORDERS, 1.0):
            assert renyi_transfer_entropy(words, q) == 0.0

    def test_shannon_order_matches_a_60_digit_reference(self):
        rng = np.random.default_rng(41)
        seen = set()
        for i in range(60):
            a, b = (int(v) for v in rng.integers(2, 5, 2))
            m, l = (int(v) for v in rng.integers(1, 4, 2))
            if i % 2:
                # random subsets of the words, so some (xw, x') cells are empty
                max_count = int(rng.integers(1, 40))
                words = random_word_distribution(rng, a, b, m, l, max_count=max_count)
            else:
                length = int(rng.choice([300, 3_000, 20_000]))
                x, y = iid_symbol_series(rng, length, a), iid_symbol_series(rng, length, b)
                words = count_words(x, y, HistorySpec(m, l))
            tables = power_tables(words)
            # a dense (xw, x') table with empty cells, which the estimator drops
            n_dense = tables["xw"].size * a
            seen.add(("empty cells", n_dense <= words.n_windows and tables["xw,x'"].size < n_dense))
            seen.add(("by class", tables["words"].size > _CLASS_MIN_CELLS))
            exact = shannon_transfer_entropy_decimal(words)
            assert abs(renyi_transfer_entropy(words, 1.0) - float(exact)) <= 1e-14
        both_sides = {(name, side) for name in ("empty cells", "by class") for side in (False, True)}
        assert seen == both_sides

    def test_extreme_order_rejected(self):
        # every p^q underflows to 0, so the logarithm is undefined
        with pytest.raises(ValidationError, match="q=2000"):
            renyi_transfer_entropy(copy_process_words(), 2000.0)

    def test_order_must_be_positive(self):
        with pytest.raises(ValidationError):
            renyi_transfer_entropy(copy_process_words(), -0.5)

    def test_class_sums_equal_the_per_cell_sums(self):
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(
            alphabet=st.integers(2, 5),
            m=st.integers(1, 4),
            length=st.one_of(st.integers(20, 600), st.integers(2_000, 12_000)),
            seed=st.integers(0, 2**32 - 1),
        )
        @example(alphabet=2, m=1, length=500, seed=0)
        @example(alphabet=4, m=3, length=6_000, seed=1)
        @example(alphabet=5, m=4, length=12_000, seed=2)
        def check(alphabet, m, length, seed):
            rng = np.random.default_rng(seed)
            x, y = (iid_symbol_series(rng, length, alphabet) for _ in range(2))
            words = count_words(x, y, HistorySpec(m, m))
            n = words.n_windows
            for name, counts in power_tables(words).items():
                by_class = counts.size > _CLASS_MIN_CELLS
                seen.add((name, by_class))
                assert counts.dtype == np.int64 and counts.sum() == n and np.all(counts > 0)
                # the class sum gives one piece per set bit of each multiplicity
                n_pieces = class_pieces(counts) if by_class else counts.size
                per_cell = {q: _power_sum(counts / n, q) for q in CLASS_ORDERS}
                per_cell[1.0] = math.fsum(c_log2_c(counts).tolist())
                for q, expected in per_cell.items():
                    pieces = _count_terms(counts, count_term(q, n))
                    assert len(pieces) == n_pieces and math.fsum(pieces) == expected
            for q in (*CLASS_ORDERS, 1.0):
                assert renyi_transfer_entropy(words, q) == per_cell_value(words, q)

        check()
        # Both sides of the gate.
        assert {("words", True), ("xw,yw", True), ("xw,x'", True), ("words", False)} <= seen

    @pytest.mark.parametrize("q", (65.0, 73.0))
    def test_subnormal_class_terms_sum_exactly(self, q):
        # (1 / N)^q is 2^-929 at q = 65 and subnormal at q = 73, while the sum stays positive
        words = sparse_words()
        tables = power_tables(words)
        assert 0.0 < (1 / words.n_windows) ** q < 2.0**-900
        # 2^16 - 1 cells of count 1 and one cell of each count 2..1,200: a multiplicity
        # with 16 set bits, and terms that run from 0.0 through the subnormals
        built = np.concatenate([np.ones(2**16 - 1, dtype=np.int64), np.arange(2, 1201)])
        terms = count_term(q, built.sum())(np.unique(built))
        assert np.any(terms == 0.0) and np.any((terms > 0.0) & (terms < 2.0**-1022))
        for counts in (*tables.values(), built):
            n = counts.sum()
            pieces = _count_terms(counts, count_term(q, n))
            by_class = counts.size > _CLASS_MIN_CELLS
            assert len(pieces) == (class_pieces(counts) if by_class else counts.size)
            assert math.fsum(pieces) == _power_sum(counts / n, q)
        assert tables["words"].size > _CLASS_MIN_CELLS and built.size > _CLASS_MIN_CELLS
        assert math.isfinite(renyi_transfer_entropy(words, q))

    def test_relabelling_symbols_leaves_the_value_unchanged(self):
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(
            nx=st.integers(2, 5),
            ny=st.integers(2, 5),
            m=st.integers(1, 3),
            l=st.integers(1, 3),
            length=st.one_of(st.integers(20, 600), st.integers(2_000, 12_000)),
            seed=st.integers(0, 2**32 - 1),
        )
        # on these four draws, marginals added up in floating point differ in the last bit
        @example(nx=3, ny=3, m=1, l=1, length=400, seed=1)
        @example(nx=5, ny=2, m=3, l=1, length=500, seed=73)
        @example(nx=4, ny=4, m=3, l=3, length=12_000, seed=20)
        @example(nx=5, ny=3, m=3, l=2, length=8_000, seed=10)
        def check(nx, ny, m, l, length, seed):
            rng = np.random.default_rng(seed)
            x, y = iid_symbol_series(rng, length, nx), iid_symbol_series(rng, length, ny)
            relabelled = [
                SymbolSeries(rng.permutation(s.alphabet_size)[s.symbols], s.alphabet_size)
                for s in (x, y)
            ]
            h = HistorySpec(m, l)
            words, moved = count_words(x, y, h), count_words(*relabelled, h)
            seen.add(words.codes.size > _CLASS_MIN_CELLS)
            for q in (0.5, 1.0, 1.5, 2.5):
                assert renyi_transfer_entropy(moved, q) == renyi_transfer_entropy(words, q)

        check()
        assert seen == {False, True}

    def test_sparse_sum_that_underflows_names_the_order(self, tmp_path, capsys):
        with pytest.raises(ValidationError, match="q=2000"):
            renyi_transfer_entropy(sparse_words(), 2000.0)
        rng = np.random.default_rng(13)
        rows = "".join(f"{t},{a},{b}\n" for t, (a, b) in enumerate(rng.integers(0, 4, (3000, 2))))
        path = tmp_path / "sparse.csv"
        path.write_text("t,x,y\n" + rows, encoding="utf-8")
        code = main([
            "te", "--data", str(path), "--timestamp-column", "t", "--source", "y",
            "--target", "x", "--pre-symbolized", "--alphabet", "4", "--m", "4", "--l", "4",
            "--q", "2000", "--surrogates", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "q=2000" in err

    def test_large_alphabet_groups_only_observed_cells(self):
        # 2,998 windows over 5,000 symbols: a dense (xw, x') table would hold
        # about 11 million cells, where about 3,000 are observed
        rng = np.random.default_rng(5)
        x, y = (iid_symbol_series(rng, 3000, 5000) for _ in range(2))
        tracemalloc.start()
        try:
            words = count_words(x, y, HistorySpec(1, 1))
            values = {q: renyi_transfer_entropy(words, q) for q in (0.5, 1.0, 2.0)}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        for q, value in values.items():
            assert value == pytest.approx(renyi_transfer_entropy_escort(words, q), abs=1e-12)


class TestTally:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 1_000), st.booleans(), st.integers(0, 2**32 - 1))
    @example(windows=1, n_possible=1, equal=False, seed=0)  # one window, dense
    @example(windows=1, n_possible=2, equal=False, seed=0)  # one window, sorted
    @example(windows=300, n_possible=300, equal=False, seed=1)  # as many codes as windows
    @example(windows=300, n_possible=301, equal=False, seed=1)  # one code more
    @example(windows=50, n_possible=20, equal=True, seed=2)  # all codes equal, dense
    @example(windows=50, n_possible=900, equal=True, seed=2)  # all codes equal, sorted
    def test_equals_unique_on_both_sides_of_the_dense_rule(self, windows, n_possible, equal,
                                                             seed):
        rng = np.random.default_rng(seed)
        full = (np.full(windows, n_possible - 1) if equal
                else rng.integers(0, n_possible, windows))
        expected = np.unique(full, return_counts=True)
        got = _tally(full.copy(), n_possible)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
