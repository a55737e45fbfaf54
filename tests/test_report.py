"""Matrix drivers, sweeps, and emission formats."""

import csv
import io
import json
import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renflow.surrogate
import renflow.transfer
from helpers import (
    iid_symbol_series,
    lag2_xor_exact_te,
    lag2_xor_series,
    lag2_xor_word_distribution,
    noisy_copy_series,
    reference_matrix,
    reference_sweep_rows,
)
from renflow import (
    EffectiveResult,
    FiniteSampleWarning,
    FlowMatrix,
    HistorySpec,
    NetFlowMatrix,
    SurrogateSpec,
    SymbolSeries,
    ValidationError,
    copy_spec,
    effective_transfer_entropy,
    emit,
    generate,
    m_sweep,
    make_surrogate,
    net_flow,
    pairwise_matrix,
    parse_matrix_csv,
    q_sweep,
    render,
    renyi_transfer_entropy,
)
from renflow.report import IntegerTable, check_svg_labels

H11 = HistorySpec(1, 1)
FAST = SurrogateSpec(ensemble_size=5, rng_seed=3)
ORDERS = (0.5, 1.0, 1.5, 3.0)

surrogate_specs = st.builds(
    SurrogateSpec,
    ensemble_size=st.sampled_from((0, 1, 5)),
    rng_seed=st.integers(0, 2**32 - 1),
    block_length=st.integers(1, 7),
)

INT64 = np.iinfo(np.int64)
# CSV text cells: the characters the csv module quotes or doubles, the % a template
# reads, the empty string and non-ASCII
csv_texts = st.text(st.one_of(st.sampled_from(',"%\n\r'), st.characters()), max_size=6)


def count_calls(monkeypatch, name: str, module=renflow.surrogate) -> list:
    """Record the arguments of every call to `<module>.<name>`, by default a name the
    planner calls in `renflow.surrogate`."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def row_tuples(table) -> list[tuple]:
    return [(value, source, target, r.raw, r.surrogate_mean, r.surrogate_std, r.effective,
             r.n_windows) for value, source, target, r in table.rows]


def example_matrix() -> FlowMatrix:
    values = np.array(
        [
            [np.nan, 0.5, 0.1],
            [0.2, np.nan, 0.05],
            [0.15, 0.02, np.nan],
        ]
    )
    return FlowMatrix(labels=("A", "B", "C"), values=values, params={"q": 1.0})


class TestFlowMatrixTypes:
    def test_diagonal_must_be_nan(self):
        values = np.zeros((2, 2))
        with pytest.raises(ValidationError):
            FlowMatrix(labels=("A", "B"), values=values)

    def test_labels_unique(self):
        values = np.full((2, 2), np.nan)
        values[0, 1] = values[1, 0] = 0.1
        with pytest.raises(ValidationError):
            FlowMatrix(labels=("A", "A"), values=values)

    def test_values_must_equal_their_results(self):
        result = EffectiveResult(raw=0.5, replicas=(0.25, 0.0), n_windows=10)
        values = np.array([[np.nan, result.effective], [0.0, np.nan]])
        assert FlowMatrix(labels=("A", "B"), values=values, results={(0, 1): result}).results
        values[0, 1] = np.nextafter(result.effective, 1.0)
        with pytest.raises(ValidationError, match="values differ from their results"):
            FlowMatrix(labels=("A", "B"), values=values, results={(0, 1): result})

    @pytest.mark.parametrize("key", [(-1, 0), (0, 2), (5, 5), (1, 1), "10", (0,), (0, 1, 0),
                                     (True, 0), (1.0, 0), ("0", "1")],
                             ids=repr)
    def test_result_key_must_be_an_off_diagonal_cell(self, key):
        result = EffectiveResult(raw=0.5, replicas=(), n_windows=10)
        values = np.array([[np.nan, 0.5], [0.5, np.nan]])
        message = f"flow matrix result key {key!r} is not an off-diagonal (target, source) cell"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)} of 2 labels$"):
            FlowMatrix(labels=("A", "B"), values=values, results={key: result})

    def test_result_key_may_be_a_numpy_integer_pair(self):
        result = EffectiveResult(raw=0.5, replicas=(), n_windows=10)
        values = np.array([[np.nan, 0.5], [0.5, np.nan]])
        matrix = FlowMatrix(labels=("A", "B"), values=values,
                            results={(np.int64(1), np.int64(0)): result})
        assert matrix.results == {(1, 0): result}

    @pytest.mark.parametrize("value", [0.5, None, (0.5, (), 10)], ids=["float", "none", "tuple"])
    def test_result_must_be_an_effective_result(self, value):
        values = np.array([[np.nan, 0.5], [0.5, np.nan]])
        message = (f"flow matrix result of cell (0, 1) must be an EffectiveResult, "
                   f"got {type(value).__name__}")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FlowMatrix(labels=("A", "B"), values=values, results={(0, 1): value})

    def test_results_and_params_are_read_only(self):
        rng = np.random.default_rng(19)
        x, y = (iid_symbol_series(rng, 300, 3, label=label) for label in "AB")
        matrix = pairwise_matrix([x, y], H11, 1.0, FAST)
        with pytest.raises(TypeError):
            matrix.results[(0, 1)] = matrix.results[(1, 0)]
        assert matrix.values[0, 1] == matrix.results[(0, 1)].effective
        tables = (matrix, net_flow(matrix), q_sweep(x, y, H11, (1.0,), FAST),
                  m_sweep(x, y, (1,), 1.0, FAST, min_windows=0))
        for table in tables:
            with pytest.raises(TypeError):
                table.params["q"] = 0.5
        with pytest.raises(AttributeError):
            matrix.params["alphabet_sizes"].append(4)

    def test_a_caller_dict_is_copied(self):
        params = {"q": 1.0}
        values = np.array([[np.nan, 0.1], [0.2, np.nan]])
        matrix = FlowMatrix(labels=("A", "B"), values=values, params=params)
        params["q"] = 2.0
        assert matrix.params == {"q": 1.0}
        assert json.loads(render(matrix, "json"))["params"] == {"q": 1.0}

    def test_net_flow_antisymmetry_enforced(self):
        bad = np.array([[0.0, 0.3], [0.1, 0.0]])
        with pytest.raises(ValidationError):
            NetFlowMatrix(labels=("A", "B"), values=bad)

    @pytest.mark.parametrize("kind", (FlowMatrix, NetFlowMatrix))
    @pytest.mark.parametrize("labels, spoil, message", [
        (("A", "A"), None, "label 'A' is repeated"),
        (("A",), None, "needs at least two labels, got 1"),
        (("A", 5), None, "label 5 must be a string"),
        (("A", None), None, "label None must be a string"),
        (("A", "B"), np.nan, "off-diagonal entries must be finite"),
        (("A", "B"), np.inf, "off-diagonal entries must be finite"),
        (("A", "B"), "columns", "shape (2, 3) does not match 2 labels"),
        (("A", "B"), "text", "off-diagonal entries must be a non-empty one-dimensional array of "
         "numbers, got shape (2,) of dtype <U32"),
    ], ids=["repeated-label", "one-label", "int-label", "none-label", "nan-cell", "inf-cell",
            "non-square", "text-cell"])
    def test_both_matrix_types_refuse_a_bad_grid(self, kind, labels, spoil, message):
        """Each grid is valid for its type but for the one fault named."""
        n = len(labels) + (spoil == "columns")
        values = np.triu(np.full((n, n), 0.1), 1)
        values -= values.T
        np.fill_diagonal(values, np.nan if kind is FlowMatrix else 0.0)
        if spoil == "columns":
            values = values[:-1]
        elif spoil == "text":
            values = values.tolist()
            values[0][1] = "x"
        elif spoil is not None:
            values[0, 1], values[1, 0] = spoil, -spoil
        with pytest.raises(ValidationError, match=re.escape(message)):
            kind(labels=labels, values=values)


class TestPairwiseMatrix:
    def test_copy_pair_structure(self):
        x, y = generate(copy_spec(3), 30_000, seed=1)
        matrix = pairwise_matrix([x, y], H11, 1.0, FAST)
        i_x, i_y = matrix.labels.index("X"), matrix.labels.index("Y")
        assert matrix.values[i_x, i_y] == pytest.approx(math.log2(3), abs=0.05)
        assert abs(matrix.values[i_y, i_x]) <= 0.01
        assert math.isnan(matrix.values[i_x, i_x])

    def test_independent_triple_near_zero(self):
        rng = np.random.default_rng(2)
        series = [iid_symbol_series(rng, 30_000, 3, label=f"S{i}") for i in range(3)]
        matrix = pairwise_matrix(series, H11, 1.0, FAST)
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.abs(matrix.values[off]) <= 0.01)

    @pytest.mark.parametrize("q", (1.0, 1.5))
    def test_keeps_each_cells_result(self, q):
        rng = np.random.default_rng(18)
        series = [iid_symbol_series(rng, 400, 3, label=f"S{i}") for i in range(3)]
        h = HistorySpec(2, 1)
        matrix = pairwise_matrix(series, h, q, FAST)
        assert sorted(matrix.results) == [(i, j) for i in range(3) for j in range(3) if i != j]
        for (i, j), result in matrix.results.items():
            assert result == effective_transfer_entropy(series[i], series[j], h, q, FAST)

    def test_single_series_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            pairwise_matrix([iid_symbol_series(rng, 100, 2)], H11, 1.0, FAST)

    def test_label_that_is_no_string_rejected_before_any_estimate(self, monkeypatch):
        rng = np.random.default_rng(4)
        monkeypatch.setattr(renflow.report, "effective_transfer_entropies", None)
        with pytest.raises(ValidationError, match="^label must be a string, got 5$"):
            pairwise_matrix([iid_symbol_series(rng, 100, 2, label="A"),
                             SymbolSeries(iid_symbol_series(rng, 100, 2).symbols, 2, label=5)],
                            H11, 1.0, FAST)

    def test_unequal_lengths_rejected(self):
        rng = np.random.default_rng(4)
        series = [
            iid_symbol_series(rng, 100, 2, label="A"),
            iid_symbol_series(rng, 90, 2, label="B"),
        ]
        with pytest.raises(ValidationError):
            pairwise_matrix(series, H11, 1.0, FAST)

    def test_failing_pair_identified(self):
        rng = np.random.default_rng(5)
        series = [
            iid_symbol_series(rng, 4, 2, label="A"),
            iid_symbol_series(rng, 4, 2, label="B"),
        ]
        with pytest.raises(ValidationError, match="pair"):
            pairwise_matrix(series, HistorySpec(3, 3), 1.0, FAST)

    def test_unlabeled_failing_pair_named_as_printed(self):
        rng = np.random.default_rng(5)
        series = [iid_symbol_series(rng, n, 2) for n in (100, 100, 90)]
        with pytest.raises(ValidationError, match=re.escape("pair series2->series0 failed")):
            pairwise_matrix(series, H11, 1.0, FAST)

    def test_length_of_a_pair_after_a_targets_first_is_checked(self):
        # series0's target part is built from its pair with series1; its pair with the
        # shorter series2 is checked before any draw is counted
        rng = np.random.default_rng(5)
        series = [iid_symbol_series(rng, n, 2) for n in (100, 100, 90)]
        message = "pair series2->series0 failed: series lengths differ: 100 vs 90"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            pairwise_matrix(series, H11, 1.0, FAST)

    def test_each_target_part_built_once(self, monkeypatch):
        prefixes, sides = count_calls(monkeypatch, "_target_prefix"), count_calls(
            monkeypatch, "_word_values")
        sources = count_calls(monkeypatch, "_source_codes")
        rng = np.random.default_rng(14)
        series = [iid_symbol_series(rng, 500, 3, label=f"S{i}") for i in range(4)]
        pairwise_matrix(series, H11, 1.5, FAST)
        # N target parts, not N (N - 1) (R + 1); one source coding per source and draw,
        # the raw sources and then each replica, in the source's alphabet and scaled by
        # the target's.  A target part's first job takes draw 0 from the words its part
        # was built from, and S0 is the first source of every other target, so its raw
        # codes are never needed
        assert sorted(x.label for x, _, _ in prefixes) == ["S0", "S1", "S2", "S3"]
        assert [orders for _, orders in sides] == [[1.5]] * 4
        draws = {(s.label, 0): s.symbols for s in series[1:]} | {
            (s.label, r + 1): make_surrogate(s, FAST, r).symbols
            for s in series for r in range(FAST.ensemble_size)}
        assert sorted((*[key for key, d in draws.items() if np.array_equal(d, symbols)], n, h,
                       n_x) for symbols, n, h, n_x in sources) == sorted(
            product(draws, [3], [H11], [3]))

    def test_each_source_shuffled_once_per_replica(self, monkeypatch):
        calls = count_calls(monkeypatch, "_shuffled")
        checked = count_calls(monkeypatch, "make_surrogate")
        rng = np.random.default_rng(14)
        series = [iid_symbol_series(rng, 500, 3, label=f"S{i}") for i in range(4)]
        pairwise_matrix(series, H11, 1.0, FAST)
        assert len(calls) == 4 * FAST.ensemble_size
        shuffled = sorted((y.label, replica) for y, _, replica in calls)
        assert shuffled == sorted(product(("S0", "S1", "S2", "S3"), range(FAST.ensemble_size)))
        # a replica stays an array: no series is built or checked around it
        assert checked == []

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(2, 4), min_size=2, max_size=4), st.integers(1, 3),
        st.integers(1, 3), st.sampled_from(ORDERS), st.integers(30, 300), surrogate_specs,
        st.integers(0, 2**32 - 1),
    )
    def test_equals_reference_loop(self, alphabets, m, l, q, length, spec, seed):
        rng = np.random.default_rng(seed)
        series = [iid_symbol_series(rng, length, n, label=f"S{i}") for i, n in enumerate(alphabets)]
        h = HistorySpec(m, l)
        matrix = pairwise_matrix(series, h, q, spec)
        np.testing.assert_array_equal(matrix.values, reference_matrix(series, h, q, spec))


class TestNetFlow:
    def test_symmetric_matrix_gives_zeros(self):
        values = np.full((2, 2), np.nan)
        values[0, 1] = values[1, 0] = 0.4
        flows = net_flow(FlowMatrix(labels=("A", "B"), values=values))
        np.testing.assert_array_equal(flows.values, 0.0)

    def test_hand_example(self):
        flows = net_flow(example_matrix())
        assert flows.values[0, 1] == pytest.approx(0.3)
        assert flows.values[1, 0] == pytest.approx(-0.3)

    def test_antisymmetry_identity(self):
        rng = np.random.default_rng(6)
        values = rng.random((4, 4))
        np.fill_diagonal(values, np.nan)
        matrix = FlowMatrix(labels=("A", "B", "C", "D"), values=values)
        flows = net_flow(matrix)
        assert np.max(np.abs(flows.values + flows.values.T)) <= 1e-12
        assert np.all(np.diag(flows.values) == 0.0)


class TestQSweep:
    def test_copy_process_constant_raw_across_orders(self):
        x, y = generate(copy_spec(3), 50_000, seed=7)
        table = q_sweep(x, y, H11, (0.5, 1.0, 1.5), FAST)
        forward = [r for _, source, _, r in table.rows if source == "Y"]
        assert len(forward) == 3
        for row in forward:
            assert row.raw == pytest.approx(math.log2(3), abs=0.02)

    def test_q1_row_matches_independent_shannon_run(self):
        from renflow import effective_transfer_entropy

        rng = np.random.default_rng(8)
        x = iid_symbol_series(rng, 20_000, 3, label="X")
        y = iid_symbol_series(rng, 20_000, 3, label="Y")
        table = q_sweep(x, y, H11, (0.5, 1.0), FAST)
        row = next(r for q, source, _, r in table.rows if q == 1.0 and source == "Y")
        again = effective_transfer_entropy(x, y, H11, 1.0, FAST)
        assert row.effective == pytest.approx(again.effective, abs=1e-10)

    def test_unlabeled_pair_rows_name_x_and_y(self):
        rng = np.random.default_rng(16)
        x, y = iid_symbol_series(rng, 200, 2), iid_symbol_series(rng, 200, 2)
        table = q_sweep(x, y, H11, (1.0,), SurrogateSpec(ensemble_size=0))
        assert [row[1:3] for row in table.rows] == [("Y", "X"), ("X", "Y")]

    def test_words_counted_once_for_every_order(self, monkeypatch):
        # count_words builds each target part, and its words are the raw pair's table;
        # every replica counts one dense row of its codes per job, in `transfer`
        parts = count_calls(monkeypatch, "count_words")
        rows = count_calls(monkeypatch, "_word_row", renflow.transfer)
        rng = np.random.default_rng(15)
        x = iid_symbol_series(rng, 500, 3, label="X")
        y = iid_symbol_series(rng, 500, 3, label="Y")
        q_sweep(x, y, H11, ORDERS, FAST)
        assert len(parts) == 2
        assert len(rows) == 2 * FAST.ensemble_size

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 4), st.integers(2, 4), st.integers(1, 3), st.integers(1, 3),
        st.lists(st.sampled_from(ORDERS), min_size=1, max_size=5), st.integers(30, 300),
        surrogate_specs, st.integers(0, 2**32 - 1),
    )
    def test_equals_reference_loop(self, nx, ny, m, l, q_grid, length, spec, seed):
        rng = np.random.default_rng(seed)
        x = iid_symbol_series(rng, length, nx, label="X")
        y = iid_symbol_series(rng, length, ny, label="Y")
        h = HistorySpec(m, l)
        table = q_sweep(x, y, h, q_grid, spec)
        expected = reference_sweep_rows(x, y, [(q, h, q) for q in q_grid], spec)
        assert row_tuples(table) == expected

    def test_independent_pair_near_zero_across_grid(self):
        rng = np.random.default_rng(9)
        x = iid_symbol_series(rng, 30_000, 3, label="X")
        y = iid_symbol_series(rng, 30_000, 3, label="Y")
        table = q_sweep(x, y, H11, (0.5, 1.0, 1.5), SurrogateSpec(ensemble_size=10, rng_seed=1))
        for *_, row in table.rows:
            assert abs(row.effective) <= 0.01


class TestMSweep:
    def test_copy_process_plateau_from_m1(self):
        x, y = generate(copy_spec(3), 30_000, seed=10)
        table = m_sweep(x, y, (1, 2), 1.0, FAST)
        forward = {int(m): r.raw for m, source, _, r in table.rows if source == "Y"}
        assert forward[1] == pytest.approx(math.log2(3), abs=0.05)
        assert forward[2] == pytest.approx(math.log2(3), abs=0.05)

    def test_order_two_chain_rises_then_plateaus(self):
        rng = np.random.default_rng(11)
        x, y = lag2_xor_series(rng, 150_000, flip_probability=0.25)
        table = m_sweep(x, y, (1, 2, 3), 1.5, SurrogateSpec(ensemble_size=5, rng_seed=2))
        forward = {int(m): r.raw for m, source, _, r in table.rows if source == "Y"}
        exact_plateau = lag2_xor_exact_te(1.5, 0.25, m=2)
        assert forward[1] < forward[2]
        assert forward[2] == pytest.approx(exact_plateau, abs=0.02)
        assert abs(forward[2] - forward[3]) <= 0.02

    def test_enumeration_oracle_matches_closed_form(self):
        words = lag2_xor_word_distribution(1, 4)
        for q in (0.5, 0.8, 1.0, 1.5, 3.0):
            assert renyi_transfer_entropy(words, q) == pytest.approx(
                lag2_xor_exact_te(q, 0.25, m=2), abs=1e-12
            )

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 4), st.integers(2, 4), st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.sampled_from(ORDERS), st.integers(30, 300), surrogate_specs, st.integers(0, 2**32 - 1),
    )
    def test_equals_reference_loop(self, nx, ny, m_grid, q, length, spec, seed):
        rng = np.random.default_rng(seed)
        x = iid_symbol_series(rng, length, nx, label="X")
        y = iid_symbol_series(rng, length, ny, label="Y")
        table = m_sweep(x, y, m_grid, q, spec, min_windows=0)
        expected = reference_sweep_rows(x, y, [(m, HistorySpec(m, m), q) for m in m_grid], spec)
        assert row_tuples(table) == expected

    def test_warns_in_finite_sample_regime(self):
        rng = np.random.default_rng(12)
        x = iid_symbol_series(rng, 60, 2, label="X")
        y = iid_symbol_series(rng, 60, 2, label="Y")
        with pytest.warns(FiniteSampleWarning):
            m_sweep(x, y, (4,), 1.0, SurrogateSpec(ensemble_size=0), min_windows=100)

    def test_m_without_windows_rejected(self):
        rng = np.random.default_rng(13)
        x = iid_symbol_series(rng, 6, 2, label="X")
        y = iid_symbol_series(rng, 6, 2, label="Y")
        with pytest.raises(ValidationError):
            m_sweep(x, y, (5,), 1.0, SurrogateSpec(ensemble_size=0))

    @pytest.mark.parametrize("min_windows, message", [
        (-5, "^min_windows must be at least 0, got -5$"),
        (2.5, "^min_windows must be an integer, got 2.5$"),
        (True, "^min_windows must be an integer, got True$"),
    ])
    def test_min_windows_follows_the_integer_rule(self, min_windows, message):
        rng = np.random.default_rng(15)
        x, y = (iid_symbol_series(rng, 60, 2, label=label) for label in "XY")
        with pytest.raises(ValidationError, match=message):
            m_sweep(x, y, (1,), 1.0, SurrogateSpec(ensemble_size=0), min_windows=min_windows)

    @pytest.mark.parametrize("sweep, name", [
        (lambda x, y: q_sweep(x, y, H11, [], FAST), "q"),
        (lambda x, y: m_sweep(x, y, [], 1.0, FAST), "m"),
    ], ids=["q_sweep", "m_sweep"])
    def test_empty_grid_is_refused_before_any_count(self, monkeypatch, sweep, name):
        rng = np.random.default_rng(16)
        x, y = (iid_symbol_series(rng, 60, 2, label=label) for label in "XY")
        counted = count_calls(monkeypatch, "count_words")
        with pytest.raises(ValidationError, match=f"^the {name} grid is empty$"):
            sweep(x, y)
        assert counted == []

    @pytest.mark.parametrize("sweep", [
        lambda x, y: q_sweep(x, y, H11, (1.0,), FAST),
        lambda x, y: m_sweep(x, y, (1,), 1.0, FAST),
    ], ids=["q_sweep", "m_sweep"])
    def test_rows_carry_string_labels_only(self, sweep):
        rng = np.random.default_rng(17)
        x, y = (iid_symbol_series(rng, 300, 2, label=label) for label in "XY")
        with pytest.raises(ValidationError, match="^label must be a string, got 5$"):
            sweep(SymbolSeries(x.symbols, 2, label=5), y)
        rows = sweep(x, SymbolSeries(y.symbols, 2)).rows
        assert [row[1:3] for row in rows] == [("Y", "X"), ("X", "Y")]

    @pytest.mark.parametrize("m_grid", [(1.5, 2.9), (1, 2.0), (True,)])
    def test_fractional_history_length_rejected(self, m_grid):
        rng = np.random.default_rng(14)
        x = iid_symbol_series(rng, 60, 2, label="X")
        y = iid_symbol_series(rng, 60, 2, label="Y")
        with pytest.raises(ValidationError, match="^m must be an integer"):
            m_sweep(x, y, m_grid, 1.0, SurrogateSpec(ensemble_size=0), min_windows=0)


@st.composite
def integer_blocks(draw):
    """A block of an `IntegerTable`: text cells and equal-length int64 columns."""
    n_rows = draw(st.integers(0, 5))
    column = st.lists(st.integers(INT64.min, INT64.max), min_size=n_rows, max_size=n_rows)
    return draw(st.lists(csv_texts, max_size=3)), draw(st.lists(column, min_size=1, max_size=4))


def csv_writer_text(rows) -> str:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


class TestIntegerTable:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(csv_texts, max_size=4), st.lists(integer_blocks(), max_size=3))
    @example(["t", "x", "y"], [([], [[], [], []])])
    @example(["label", "%d", "100%"], [(["a,%s"], [[INT64.min], [INT64.max]]),
                                      (["", '"%%"\r\n'], [[-1, 0, 7]])])
    def test_renders_the_csv_writer_bytes(self, header, blocks):
        table = IntegerTable(header, blocks)
        rows = [header, *([*text, *row] for text, columns in blocks for row in zip(*columns))]
        assert render(table, "csv") == csv_writer_text(rows)

    def test_columns_are_read_only_int64(self):
        table = IntegerTable(("t",), [((), [np.arange(3, dtype=np.int32)])])
        (column,) = table.blocks[0][1]
        assert column.dtype == np.int64 and not column.flags.writeable

    @pytest.mark.parametrize("header, blocks, message", [
        (("t",), [((), [])], "one or more columns of equal length, got lengths \\[\\]"),
        (("t",), [((), [[1, 2], [3]])], "equal length, got lengths \\[2, 1\\]"),
        (("t",), [((), [[1.5]])], "integer table column must be a non-empty"),
        (("t",), [((), [[[1], [2]]])], "integer table column must be a non-empty"),
        (("t",), [((), [[2**63]])], "integer table column must fit in int64"),
        ((1,), [((), [[1]])], "text cell 1 must be a string"),
        (("t",), [((None,), [[1]])], "text cell None must be a string"),
    ], ids=["no-column", "ragged", "float", "two-dimensional", "past-int64", "header-number",
            "text-none"])
    def test_bad_table_is_refused(self, header, blocks, message):
        with pytest.raises(ValidationError, match=message):
            IntegerTable(header, blocks)

    def test_renders_to_csv_only(self):
        with pytest.raises(ValidationError, match="cannot render IntegerTable as 'json'"):
            render(IntegerTable(("t",), [((), [[1]])]), "json")


class TestEmission:
    def test_matrix_csv_shape(self, tmp_path):
        path = emit(example_matrix(), tmp_path / "m.csv", "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "target\\source,A,B,C"
        assert lines[1].startswith("A,,")  # blank diagonal cell

    def test_csv_round_trip_12_digits(self, tmp_path):
        rng = np.random.default_rng(14)
        values = rng.random((3, 3)) * 1.7
        np.fill_diagonal(values, np.nan)
        matrix = FlowMatrix(labels=("A", "B", "C"), values=values)
        path = emit(matrix, tmp_path / "m.csv", "csv")
        again = parse_matrix_csv(path)
        assert again.labels == matrix.labels and again.results == {}
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(again.values[off], matrix.values[off], rtol=1e-11)

    def test_emission_is_byte_stable(self, tmp_path):
        matrix = example_matrix()
        a = emit(matrix, tmp_path / "a.csv", "csv").read_bytes()
        b = emit(matrix, tmp_path / "b.csv", "csv").read_bytes()
        assert a == b

    def test_matrix_json_nan_becomes_null(self, tmp_path):
        path = emit(example_matrix(), tmp_path / "m.json", "json")
        payload = json.loads(path.read_text())
        assert payload["kind"] == "flow_matrix"
        assert payload["values"][0][0] is None
        assert payload["values"][0][1] == 0.5

    def test_svg_heat_map(self, tmp_path):
        text = render(example_matrix(), "svg")
        assert text.startswith("<svg")
        assert "min=" in text and "max=" in text

    def test_svg_escapes_unsafe_labels(self):
        from xml.dom import minidom

        values = np.array([[np.nan, 0.5], [0.2, np.nan]])
        matrix = FlowMatrix(labels=("S&P500", "<DAX>"), values=values)
        document = minidom.parseString(render(matrix, "svg"))
        texts = {t.firstChild.data for t in document.getElementsByTagName("text")}
        assert {"S&P500", "<DAX>"} <= texts

    @pytest.mark.parametrize("label", ["A\x01x", "\x00", "B\x1f", "C\ufffe", "D\uffff"])
    def test_svg_refuses_labels_xml_cannot_carry(self, label):
        values = np.array([[np.nan, 0.5], [0.2, np.nan]])
        matrix = FlowMatrix(labels=("S&P500", label), values=values)
        with pytest.raises(ValidationError, match=re.escape(f"label {label!r} holds a")):
            render(matrix, "svg")

    def test_svg_keeps_tab_and_newlines_in_labels(self):
        from xml.dom import minidom

        values = np.array([[np.nan, 0.5], [0.2, np.nan]])
        matrix = FlowMatrix(labels=("A\tB", "C\u00e9\U0001d400"), values=values)
        document = minidom.parseString(render(matrix, "svg"))
        assert len(document.getElementsByTagName("text")) == 7

    @pytest.mark.parametrize("char, carried", [
        ("\x08", False), ("\t", True), ("\n", True), ("\x0b", False), ("\x0c", False),
        ("\r", True), ("\x0e", False), ("\x1f", False), ("\x20", True), ("\ud7ff", True),
        ("\ud800", False), ("\udfff", False), ("\ue000", True), ("\ufffd", True),
        ("\ufffe", False), ("\U00010000", True), ("\U0010ffff", True),
    ])
    def test_svg_label_rule_at_every_range_boundary(self, char, carried):
        # XML 1.0's Char: tab, LF, CR, U+0020..U+D7FF, U+E000..U+FFFD, U+10000..U+10FFFF
        label = f"A{char}B"
        if carried:
            check_svg_labels([label])
        else:
            with pytest.raises(ValidationError, match=re.escape(f"label {label!r} holds a")):
                check_svg_labels([label])

    def test_csv_round_trip_of_label_with_comma(self, tmp_path):
        values = np.array([[np.nan, 0.5], [0.25, np.nan]])
        matrix = FlowMatrix(labels=("DAX, close", 'S&P "500"'), values=values)
        again = parse_matrix_csv(emit(matrix, tmp_path / "m.csv", "csv"))
        assert again.labels == matrix.labels
        np.testing.assert_array_equal(again.values, matrix.values)

    def test_net_flow_svg_diverging(self):
        flows = net_flow(example_matrix())
        text = render(flows, "svg")
        assert "diverging about 0" in text

    def test_sweep_csv_and_json(self, tmp_path):
        x, y = generate(copy_spec(2), 2_000, seed=15)
        table = q_sweep(x, y, H11, (1.0,), SurrogateSpec(ensemble_size=2, rng_seed=4))
        csv_text = render(table, "csv")
        assert csv_text.splitlines()[0] == (
            "q,source,target,raw,surrogate_mean,surrogate_std,effective,n_windows"
        )
        payload = json.loads(render(table, "json"))
        assert payload["kind"] == "q_sweep"
        assert len(payload["rows"]) == 2

    def test_sweep_svg_rejected(self):
        x, y = generate(copy_spec(2), 2_000, seed=16)
        table = q_sweep(x, y, H11, (1.0,), SurrogateSpec(ensemble_size=0))
        with pytest.raises(ValidationError):
            render(table, "svg")

    def test_directed_fixture_lands_in_target_row_source_column(self):
        rng = np.random.default_rng(17)
        src, tgt = noisy_copy_series(rng, 40_000, 3, fidelity=0.85)
        matrix = pairwise_matrix([src, tgt], H11, 1.0, FAST)
        i_a, i_b = matrix.labels.index("A"), matrix.labels.index("B")
        # information flows A -> B, so the big entry sits at [B][A]
        assert matrix.values[i_b, i_a] > 10 * abs(matrix.values[i_a, i_b])
        csv_text = render(matrix, "csv")
        assert csv_text.splitlines()[0] == "target\\source,A,B"
