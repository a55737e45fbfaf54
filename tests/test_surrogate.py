"""Surrogate generation and effective transfer entropy."""

import math
import re
import sys
from dataclasses import fields
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renflow.surrogate
import renflow.transfer
from helpers import iid_symbol_series, reference_block_shuffle, reference_effective
from renflow import (
    EffectiveResult,
    HistorySpec,
    SurrogateSpec,
    SymbolSeries,
    ValidationError,
    copy_spec,
    count_words,
    effective_transfer_entropy,
    generate,
    make_surrogate,
)
from renflow.infocore import _CLASS_MIN_CELLS
from renflow.surrogate import effective_transfer_entropies
from renflow.transfer import _groups

H11 = HistorySpec(1, 1)


class TestMakeSurrogate:
    def test_histogram_preserved_exactly(self):
        y = SymbolSeries(np.array([0, 0, 1, 2, 2, 2, 1]), 3, label="y")
        spec = SurrogateSpec(ensemble_size=1, rng_seed=5)
        out = make_surrogate(y, spec, 0)
        np.testing.assert_array_equal(
            np.bincount(out.symbols, minlength=3),
            np.bincount(y.symbols, minlength=3),
        )

    def test_block_permutation_histogram_preserved(self):
        rng = np.random.default_rng(0)
        y = iid_symbol_series(rng, 103, 3, label="y")  # trailing partial block
        spec = SurrogateSpec(block_length=10, rng_seed=1)
        out = make_surrogate(y, spec, 0)
        np.testing.assert_array_equal(
            np.bincount(out.symbols, minlength=3),
            np.bincount(y.symbols, minlength=3),
        )
        assert len(out) == len(y)

    def test_deterministic_per_replica(self):
        rng = np.random.default_rng(1)
        y = iid_symbol_series(rng, 200, 3)
        spec = SurrogateSpec(rng_seed=99)
        first = make_surrogate(y, spec, 3)
        second = make_surrogate(y, spec, 3)
        np.testing.assert_array_equal(first.symbols, second.symbols)

    def test_replicas_differ(self):
        rng = np.random.default_rng(2)
        y = iid_symbol_series(rng, 200, 3)
        spec = SurrogateSpec(rng_seed=99)
        a = make_surrogate(y, spec, 0)
        b = make_surrogate(y, spec, 1)
        assert not np.array_equal(a.symbols, b.symbols)

    def test_length_one_series_is_itself(self):
        y = SymbolSeries(np.array([1]), 2)
        out = make_surrogate(y, SurrogateSpec(rng_seed=0), 0)
        np.testing.assert_array_equal(out.symbols, [1])

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 300), st.integers(0, 2**32 - 1), st.integers(0, 50))
    def test_equals_per_block_reference_loop(self, data, length, seed, replica):
        block = data.draw(st.integers(1, min(7, length - 1)), label="block")
        y = iid_symbol_series(np.random.default_rng(seed), length, 3, label="y")
        spec = SurrogateSpec(rng_seed=seed, block_length=block)
        out = make_surrogate(y, spec, replica)
        np.testing.assert_array_equal(
            out.symbols, reference_block_shuffle(y.symbols, block, seed, replica)
        )
        if block == 1:
            plain = np.random.default_rng([seed, replica]).permutation(y.symbols)
            np.testing.assert_array_equal(out.symbols, plain)
        assert out.label == y.label
        assert (out.alphabet_size, out.block_size) == (y.alphabet_size, y.block_size)

    @pytest.mark.parametrize("block, method", [(1, "permutation"), (2, "block-permutation")])
    def test_method_names_the_block_rule(self, block, method):
        assert SurrogateSpec(block_length=block).method == method

    @pytest.mark.parametrize("block", [50, 51, 1000])
    def test_block_as_long_as_series_rejected(self, block):
        y = SymbolSeries(np.arange(50) % 3, 3, label="y")
        with pytest.raises(ValidationError, match="cannot shuffle series 'y' of length 50"):
            make_surrogate(y, SurrogateSpec(block_length=block), 0)

    def test_negative_ensemble_rejected(self):
        with pytest.raises(ValidationError):
            SurrogateSpec(ensemble_size=-1)

    @pytest.mark.parametrize("field, value", [
        ("rng_seed", 7.9), ("rng_seed", 7.0), ("ensemble_size", 2.0), ("block_length", 2.0),
        ("block_length", "2"), ("ensemble_size", True),
    ])
    def test_non_integer_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            SurrogateSpec(**{field: value})

    def test_numpy_integer_fields_accepted(self):
        spec = SurrogateSpec(np.int64(3), np.uint64(2**64 - 1), np.int32(2))
        assert spec == SurrogateSpec(3, -1, 2)
        assert all(type(v) is int for v in spec.record.values() if not isinstance(v, str))

    @pytest.mark.parametrize("replica, message", [
        (1.5, "^replica_index must be an integer, got 1.5$"),
        (True, "^replica_index must be an integer, got True$"),
        (-1, "^replica_index must be at least 0, got -1$"),
    ])
    def test_replica_index_follows_the_integer_rule(self, replica, message):
        y = SymbolSeries(np.arange(50) % 3, 3, label="y")
        with pytest.raises(ValidationError, match=message):
            make_surrogate(y, SurrogateSpec(), replica)
        spec = SurrogateSpec()
        np.testing.assert_array_equal(make_surrogate(y, spec, np.int64(1)).symbols,
                                      make_surrogate(y, spec, 1).symbols)


    @pytest.mark.parametrize("length, block", [(500, 1), (103, 3), (102, 3)])
    def test_planner_shuffle_equals_make_surrogate(self, length, block):
        # 103 symbols in blocks of 3 end in a partial block of one; 102 in whole blocks
        y = iid_symbol_series(np.random.default_rng(17), length, 4, label="y")
        spec = SurrogateSpec(rng_seed=9, block_length=block)
        for replica in range(4):
            out = renflow.surrogate._shuffled(y, spec, replica)
            assert out.dtype == np.int64 and not np.shares_memory(out, y.symbols)
            np.testing.assert_array_equal(out, make_surrogate(y, spec, replica).symbols)


class TestEffectiveTransferEntropy:
    def test_zero_ensemble_equals_raw(self):
        rng = np.random.default_rng(3)
        x = iid_symbol_series(rng, 5000, 3, label="x")
        y = iid_symbol_series(rng, 5000, 3, label="y")
        result = effective_transfer_entropy(x, y, H11, 1.0, SurrogateSpec(ensemble_size=0))
        assert result.effective == result.raw
        assert result.surrogate_mean == 0.0
        assert result.surrogate_std == 0.0

    def test_independent_series_effective_near_zero(self):
        rng = np.random.default_rng(4)
        x = iid_symbol_series(rng, 100_000, 3, label="x")
        y = iid_symbol_series(rng, 100_000, 3, label="y")
        spec = SurrogateSpec(ensemble_size=20, rng_seed=7)
        result = effective_transfer_entropy(x, y, H11, 1.0, spec)
        assert abs(result.effective) <= 0.01

    def test_copy_process_effective_near_log2_3(self):
        x, y = generate(copy_spec(3), 100_000, seed=11)
        spec = SurrogateSpec(ensemble_size=20, rng_seed=13)
        result = effective_transfer_entropy(x, y, H11, 1.0, spec)
        assert abs(result.effective - math.log2(3)) <= 0.05

    def test_self_source_raw_is_zero_and_correction_small(self):
        # conditioning on the target's own history twice adds nothing, so
        # the raw value vanishes identically and the effective value is
        # just minus the (small) surrogate bias: ERTE tracks RTE closely
        x, _ = generate(copy_spec(3), 10_000, seed=17)
        spec = SurrogateSpec(ensemble_size=20, rng_seed=19)
        result = effective_transfer_entropy(x, x, H11, 0.8, spec)
        assert result.raw == pytest.approx(0.0, abs=1e-12)
        assert abs(result.effective) <= 0.01

    def test_bit_reproducible_under_seed(self):
        rng = np.random.default_rng(5)
        x = iid_symbol_series(rng, 3000, 3, label="x")
        y = iid_symbol_series(rng, 3000, 3, label="y")
        spec = SurrogateSpec(ensemble_size=10, rng_seed=21)
        a = effective_transfer_entropy(x, y, H11, 1.5, spec)
        b = effective_transfer_entropy(x, y, H11, 1.5, spec)
        assert a.raw == b.raw
        assert a.surrogate_mean == b.surrogate_mean
        assert a.surrogate_std == b.surrogate_std
        assert a.effective == b.effective

    def test_effective_identity_holds(self):
        rng = np.random.default_rng(6)
        x = iid_symbol_series(rng, 2000, 2, label="x")
        y = iid_symbol_series(rng, 2000, 2, label="y")
        result = effective_transfer_entropy(x, y, H11, 1.0, SurrogateSpec(ensemble_size=5))
        assert result.effective == result.raw - result.surrogate_mean

    def test_null_calibration_over_trials(self):
        rng = np.random.default_rng(8)
        effectives = []
        for trial in range(12):
            x = iid_symbol_series(rng, 20_000, 3, label="x")
            y = iid_symbol_series(rng, 20_000, 3, label="y")
            spec = SurrogateSpec(ensemble_size=10, rng_seed=trial)
            effectives.append(effective_transfer_entropy(x, y, H11, 1.0, spec).effective)
        assert abs(np.mean(effectives)) <= 0.005


class TestRunPlanner:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(2, 4), min_size=2, max_size=3),
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=2),
        st.lists(st.sampled_from((0.5, 1.0, 1.5, 3.0)), min_size=1, max_size=3),
        st.integers(30, 200), st.integers(0, 4), st.integers(1, 7), st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_replicas_equal_reference_loop(
        self, alphabets, histories, orders, length, ensemble, block, seed, data
    ):
        rng = np.random.default_rng(seed)
        series = [iid_symbol_series(rng, length, n, label=f"S{i}") for i, n in enumerate(alphabets)]
        jobs = [(series[i], series[j], HistorySpec(m, l))
                for i, j in permutations(range(len(series)), 2) for m, l in histories]
        spec = SurrogateSpec(ensemble_size=ensemble, rng_seed=seed, block_length=block)
        results = effective_transfer_entropies(jobs, orders, spec)
        assert len(results) == len(jobs)
        for (x, y, h), row in zip(jobs, results):
            assert len(row) == len(orders)
            for q, result in zip(orders, row):
                raw, *_, windows, replicas = reference_effective(x, y, h, q, spec)
                assert result.raw == raw
                assert result.replicas == replicas
                assert result.n_windows == windows
                assert len(result.replicas) == spec.ensemble_size
        # no dependence on the order or the batching of the jobs
        assert effective_transfer_entropies(jobs[::-1], orders, spec) == results[::-1]
        cut = data.draw(st.integers(0, len(jobs)), label="cut")
        split = (effective_transfer_entropies(jobs[:cut], orders, spec)
                 + effective_transfer_entropies(jobs[cut:], orders, spec))
        assert split == results

    def test_shared_target_parts_equal_reference_loop(self):
        seen = set()

        @settings(max_examples=12, deadline=None)
        @given(
            alphabets=st.lists(st.integers(2, 4), min_size=3, max_size=4),
            history=st.sampled_from(((1, 1), (1, 3), (3, 1), (2, 3), (3, 3))),
            length=st.one_of(st.integers(100, 400), st.integers(3_000, 20_000)),
            ensemble=st.integers(0, 2),
            block=st.integers(1, 3),
            seed=st.integers(0, 2**32 - 1),
        )
        # source alphabets that differ from the target's, with l != m
        @example(alphabets=[2, 4, 3], history=(1, 3), length=300, ensemble=2, block=1, seed=5)
        # alphabet 4 at m = l = 3: word tables on both sides of the class-sum gate
        @example(alphabets=[4, 4, 4, 4], history=(3, 3), length=12_000, ensemble=2, block=1,
                 seed=8)
        def check(alphabets, history, length, ensemble, block, seed):
            rng = np.random.default_rng(seed)
            series = [iid_symbol_series(rng, length, n, label=f"S{i}")
                      for i, n in enumerate(alphabets)]
            h = HistorySpec(*history)
            jobs = [(series[i], series[j], h) for i, j in permutations(range(len(series)), 2)]
            spec = SurrogateSpec(ensemble_size=ensemble, rng_seed=seed, block_length=block)
            orders = (0.5, 1.0, 1.5, 2.5)
            for (x, y, h), row in zip(jobs, effective_transfer_entropies(jobs, orders, spec)):
                for q, result in zip(orders, row):
                    raw, *_, windows, replicas = reference_effective(x, y, h, q, spec)
                    assert (result.raw, result.replicas, result.n_windows) == (
                        raw, replicas, windows)
                words = count_words(x, y, h)
                tables = (words.counts, *_groups(words))
                seen.update(t.size > _CLASS_MIN_CELLS for t in tables)

        check()
        assert seen == {False, True}

    def test_dense_and_per_row_replicas_equal_reference_loop(self, monkeypatch):
        # (layout, possible words, windows) of every word table `transfer` counts for the
        # planner's draws, raw pairs included: a dense row exactly when the possible words
        # are no more than the windows, and the observed words by sort otherwise.  The
        # tally of a target part's own words inside `count_words` is not a draw's table
        seen = []
        for name, path in (("_word_row", "dense"), ("_tally", "sorted")):
            original = getattr(renflow.transfer, name)

            def counted(full, n, original=original, path=path):
                if sys._getframe(1).f_code.co_name != "count_words":
                    seen.append((path, n, full.size))
                return original(full, n)

            monkeypatch.setattr(renflow.transfer, name, counted)

        @settings(max_examples=10, deadline=None)
        @given(
            alphabets=st.lists(st.sampled_from((2, 3, 4, 10, 11)), min_size=2, max_size=3),
            history=st.sampled_from(((1, 1), (1, 2), (2, 2))),
            length=st.one_of(st.integers(40, 400), st.integers(2_000, 5_000)),
            ensemble=st.integers(0, 3),
            block=st.integers(1, 3),
            seed=st.integers(0, 2**32 - 1),
        )
        # alphabet 10 at m = l = 1: 1,000 possible words, as many as the windows, and one more
        @example(alphabets=[10, 10], history=(1, 1), length=1_002, ensemble=2, block=1, seed=1)
        @example(alphabets=[10, 10], history=(1, 1), length=1_001, ensemble=2, block=2, seed=2)
        # alphabet 4 at m = l = 2: 1,024 possible words, dense at 2,997 windows
        @example(alphabets=[4, 4], history=(2, 2), length=3_000, ensemble=2, block=2, seed=3)
        # fewer windows than possible words, raw pairs alone and with replicas
        @example(alphabets=[4, 4], history=(2, 2), length=300, ensemble=0, block=1, seed=4)
        @example(alphabets=[4, 4], history=(2, 2), length=300, ensemble=1, block=1, seed=4)
        @example(alphabets=[10, 10], history=(1, 1), length=300, ensemble=3, block=3, seed=5)
        # targets of different alphabets, one of them with a dense and a sorted source
        @example(alphabets=[2, 10, 11], history=(1, 1), length=1_150, ensemble=2, block=2,
                 seed=6)
        def check(alphabets, history, length, ensemble, block, seed):
            rng = np.random.default_rng(seed)
            series = [iid_symbol_series(rng, length, n, label=f"S{i}")
                      for i, n in enumerate(alphabets)]
            h = HistorySpec(*history)
            jobs = [(series[i], series[j], h) for i, j in permutations(range(len(series)), 2)]
            spec = SurrogateSpec(ensemble_size=ensemble, rng_seed=seed, block_length=block)
            orders = (0.5, 1.0, 2.5)
            counted = len(seen)
            results = effective_transfer_entropies(jobs, orders, spec)
            # one table per job and draw, the raw pair, then each replica, except the raw
            # pair of each target part's first job: that table is the part's own words
            parts = {(i, alphabets[j]) for i, j in permutations(range(len(series)), 2)}
            assert len(seen) - counted == len(jobs) * (ensemble + 1) - len(parts)
            for (x, y, h), row in zip(jobs, results):
                for q, result in zip(orders, row):
                    raw, *_, windows, replicas = reference_effective(x, y, h, q, spec)
                    assert (result.raw, result.replicas, result.n_windows) == (
                        raw, replicas, windows)

        check()
        assert all((path == "dense") == (n <= windows) for path, n, windows in seen)
        assert {("dense", 1000, 1000), ("sorted", 1000, 999), ("dense", 1024, 2997),
                ("sorted", 1024, 297), ("dense", 242, 1148), ("sorted", 1210, 1148)} <= set(seen)

    def test_failing_replica_row_names_its_own_job(self):
        # X copies S1 with a lag of one, and S2 is almost always 0: at q = 450 every raw
        # pair and every replica of S2 keeps a word of p near 1/4, while a shuffled S1
        # spreads the words to p near 1/8, whose p^q all underflow to 0
        rng = np.random.default_rng(21)
        symbols = rng.integers(0, 2, 2_001)
        x = SymbolSeries(symbols[:-1], 2, label="X")
        s1 = SymbolSeries(symbols[1:], 2, label="S1")
        s2 = SymbolSeries((rng.random(2_000) < 0.01).astype(np.int64), 2, label="S2")
        jobs = [(x, s2, H11), (x, s1, H11)]
        assert len(effective_transfer_entropies(jobs, [450.0], SurrogateSpec(0))) == 2
        assert len(effective_transfer_entropies(jobs[:1], [450.0], SurrogateSpec(3))) == 1
        message = "^pair S1->X failed: sum of p\\^q is 0.0 at Renyi order q=450.0"
        with pytest.raises(ValidationError, match=message):
            effective_transfer_entropies(jobs, [450.0], SurrogateSpec(1))

    def test_result_fields_are_raw_replicas_and_windows(self):
        assert [f.name for f in fields(EffectiveResult)] == ["raw", "replicas", "n_windows"]

    def test_replicas_are_stored_as_a_tuple_of_floats(self):
        result = EffectiveResult(0.5, [0.1, np.float64(0.2)], np.int64(10))
        assert result.replicas == (0.1, 0.2)
        assert all(type(v) is float for v in result.replicas)
        assert type(result.n_windows) is int

    @pytest.mark.parametrize("replicas, kind", [
        (10, "int"), (None, "NoneType"), ({0.1: "a", 0.2: "b"}, "dict"), ({0.1, 0.2}, "set"),
        (frozenset({0.1}), "frozenset"), (np.array(0.1), "ndarray"),
        (np.zeros((2, 2)), "ndarray"), (iter([0.1]), "list_iterator"),
    ], ids=["number", "none", "mapping", "set", "frozenset", "0-d-array", "2-d-array",
            "iterator"])
    def test_replicas_with_no_replica_order_are_refused(self, replicas, kind):
        message = f"replicas must be a sequence of real numbers in replica order, got {kind}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            EffectiveResult(0.5, replicas, 10)

    @pytest.mark.parametrize("replicas", [(0.1, 0.2), [0.1, 0.2], np.array([0.1, 0.2])],
                             ids=["tuple", "list", "array"])
    def test_replicas_in_order_are_taken(self, replicas):
        assert EffectiveResult(0.5, replicas, 10).replicas == (0.1, 0.2)

    def test_replicas_given_as_a_string_are_refused(self):
        # a string is iterable, so its characters must not be read as the values
        with pytest.raises(ValidationError, match="^replicas must be a real number, got '1'$"):
            EffectiveResult(0.5, "12", 5)

    def test_empty_order_list_is_refused_before_any_count(self, monkeypatch):
        counted = []
        monkeypatch.setattr(renflow.surrogate, "count_words",
                            lambda *args: counted.append(args) or count_words(*args))
        rng = np.random.default_rng(16)
        x, y = (iid_symbol_series(rng, 60, 2, label=label) for label in "XY")
        with pytest.raises(ValidationError, match="^the list of orders is empty$"):
            effective_transfer_entropies([(x, y, H11)], [], SurrogateSpec(ensemble_size=2))
        assert counted == []

    @pytest.mark.parametrize("windows, message", [
        (2.5, "^n_windows must be an integer, got 2.5$"),
        (0, "^n_windows must be at least 1, got 0$"),
    ])
    def test_window_count_follows_the_integer_rule(self, windows, message):
        with pytest.raises(ValidationError, match=message):
            EffectiveResult(0.5, (0.1, 0.2), windows)

    def test_statistics_derive_from_replicas(self):
        rng = np.random.default_rng(9)
        x = iid_symbol_series(rng, 400, 3, label="x")
        y = iid_symbol_series(rng, 400, 3, label="y")
        result = effective_transfer_entropy(x, y, H11, 1.0, SurrogateSpec(ensemble_size=4))
        values = result.replicas
        mean = math.fsum(values) / 4
        assert result.surrogate_mean == mean
        assert result.surrogate_std == math.sqrt(math.fsum((v - mean) ** 2 for v in values) / 3)
        one = EffectiveResult(result.raw, values[:1], result.n_windows)
        assert (one.surrogate_mean, one.surrogate_std) == (values[0], 0.0)
