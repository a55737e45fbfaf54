"""Synthetic coupled processes and the exact enumeration oracle."""

import json
import math

import numpy as np
import pytest

from helpers import estimate_te, reference_generate
from renflow import (
    ConvergenceError,
    CoupledMarkovSpec,
    ValidationError,
    copy_spec,
    exact_transfer_entropy,
    generate,
    independent_spec,
    noisy_copy_spec,
    stationary_joint,
    synth,
)

Q_GRID = (0.5, 0.8, 1.0, 1.5, 3.0)


def random_spec(rng, n=3) -> CoupledMarkovSpec:
    a = rng.random((n, n)) + 0.1
    a /= a.sum(axis=1, keepdims=True)
    b = rng.random((n, n, n)) + 0.1
    b /= b.sum(axis=2, keepdims=True)
    return CoupledMarkovSpec(n, a, b)


def periodic_spec() -> CoupledMarkovSpec:
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = np.broadcast_to(np.full(3, 1 / 3), (3, 3, 3)).copy()
    return CoupledMarkovSpec(3, a, b)


class TestSpecValidation:
    def test_bad_row_sum_rejected(self):
        a = np.array([[0.5, 0.4], [0.5, 0.5]])
        b = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValidationError):
            CoupledMarkovSpec(2, a, b)

    def test_negative_probability_rejected(self):
        a = np.array([[1.5, -0.5], [0.5, 0.5]])
        b = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValidationError):
            CoupledMarkovSpec(2, a, b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CoupledMarkovSpec(3, np.full((2, 2), 0.5), np.full((3, 3, 3), 1 / 3))

    @pytest.mark.parametrize("make", [
        lambda n: CoupledMarkovSpec(n, np.full((3, 3), 1 / 3), np.full((3, 3, 3), 1 / 3)),
        copy_spec, noisy_copy_spec, independent_spec,
    ], ids=["spec", "copy", "noisy-copy", "independent"])
    @pytest.mark.parametrize("n", [3.0, 3.5, True])
    def test_alphabet_size_follows_the_integer_rule(self, make, n):
        with pytest.raises(ValidationError, match=f"^alphabet_size must be an integer, got {n}$"):
            make(n)
        spec = make(np.int64(3))
        assert spec.alphabet_size == 3 and type(spec.alphabet_size) is int

    @pytest.mark.parametrize("make", [copy_spec, noisy_copy_spec, independent_spec])
    def test_single_symbol_preset_rejected(self, make):
        with pytest.raises(ValidationError, match="at least 2"):
            make(1)

    @pytest.mark.parametrize("make", [copy_spec, noisy_copy_spec, independent_spec])
    def test_oversized_preset_alphabet_rejected(self, make):
        # refused by the n**3 cell count before any array is allocated
        with pytest.raises(ValidationError, match="alphabet 10000000 needs 10000000\\*\\*3 cells"):
            make(10**7)

    def test_oversized_oracle_alphabet_rejected(self):
        # the preset's 65**3 cells pass; the pair chain's 65**4 do not
        spec = independent_spec(65)
        with pytest.raises(ValidationError, match="alphabet 65 needs 65\\*\\*4 cells"):
            stationary_joint(spec)
        with pytest.raises(ValidationError, match="alphabet 65 needs 65\\*\\*4 cells"):
            exact_transfer_entropy(spec, 1.0)

    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        spec = random_spec(rng)
        again = CoupledMarkovSpec.from_json(spec.to_json())
        np.testing.assert_allclose(again.source_transition, spec.source_transition)
        np.testing.assert_allclose(again.target_transition, spec.target_transition)
        assert sorted(json.loads(spec.to_json())) == [
            "alphabet_size", "source_transition", "target_transition"
        ]


class TestGenerate:
    def test_copy_coupling_is_deterministic_shift(self):
        x, y = generate(copy_spec(3), 10, seed=1)
        np.testing.assert_array_equal(x.symbols[1:], y.symbols[:-1])

    def test_seed_reproducibility(self):
        spec = noisy_copy_spec(2, 0.75)
        a = generate(spec, 500, seed=42)
        b = generate(spec, 500, seed=42)
        np.testing.assert_array_equal(a[0].symbols, b[0].symbols)
        np.testing.assert_array_equal(a[1].symbols, b[1].symbols)

    def test_different_seeds_differ(self):
        spec = noisy_copy_spec(2, 0.75)
        a = generate(spec, 500, seed=1)
        b = generate(spec, 500, seed=2)
        assert not np.array_equal(a[1].symbols, b[1].symbols)

    def test_zero_coupling_target_follows_own_chain(self):
        # B independent of the source: the target is a plain Markov chain,
        # so its empirical transition matrix converges to C
        n = 2
        c = np.array([[0.9, 0.1], [0.4, 0.6]])
        b = np.repeat(c[:, None, :], n, axis=1)
        spec = CoupledMarkovSpec(n, np.full((n, n), 0.5), b)
        x, _ = generate(spec, 200_000, seed=3)
        s = x.symbols
        empirical = np.zeros((n, n))
        for i in range(n):
            mask = s[:-1] == i
            empirical[i] = np.bincount(s[1:][mask], minlength=n) / mask.sum()
        np.testing.assert_allclose(empirical, c, atol=0.01)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            generate(copy_spec(2), 1, seed=0)

    @pytest.mark.parametrize("length, seed, message", [
        (1, 0, "^length must be at least 2, got 1$"),
        (50.5, 1, "^length must be an integer, got 50.5$"),
        (50, 7.9, "^seed must be an integer, got 7.9$"),
        (50, True, "^seed must be an integer, got True$"),
    ])
    def test_length_and_seed_follow_the_integer_rule(self, length, seed, message):
        with pytest.raises(ValidationError, match=message):
            generate(copy_spec(2), length, seed)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_the_scanning_draw(self, n):
        # A row with zero-probability cells repeats a cumulative value; each
        # draw must still land on the scan's symbol.  One cell per row stays positive.
        rng = np.random.default_rng(n)
        rows, cols = np.indices((n, n))
        for seed in range(20):
            a, b = rng.random((n, n)), rng.random((n, n, n))
            a[rng.random((n, n)) < 0.3] = 0.0
            b[rng.random((n, n, n)) < 0.3] = 0.0
            a[np.arange(n), rng.integers(0, n, n)] += 0.5
            b[rows, cols, rng.integers(0, n, (n, n))] += 0.5
            spec = CoupledMarkovSpec(n, a / a.sum(axis=1, keepdims=True),
                                     b / b.sum(axis=2, keepdims=True))
            x, y = generate(spec, 2000, seed)
            assert (x.symbols.tolist(), y.symbols.tolist()) == reference_generate(spec, 2000, seed)


class TestStationaryJoint:
    def test_fixed_point_property(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            spec = random_spec(rng)
            pi = stationary_joint(spec)
            n = spec.alphabet_size
            transition = np.einsum(
                "xyu,yv->xyuv", spec.target_transition, spec.source_transition
            ).reshape(n * n, n * n)
            flat = pi.reshape(-1)
            np.testing.assert_allclose(flat @ transition, flat, atol=1e-12)
            assert abs(pi.sum() - 1.0) <= 1e-12

    def test_periodic_chain_has_its_stationary_law(self):
        # source symbols 0 and 1 swap forever and the transient 2 feeds into 1,
        # so the iterates of the chain itself oscillate; the target is uniform
        pi = stationary_joint(periodic_spec())
        expected = np.zeros((3, 3))
        expected[:, :2] = 1 / 6
        np.testing.assert_allclose(pi, expected, rtol=0.0, atol=1e-12)

    def test_chain_that_does_not_settle_raises(self, monkeypatch):
        monkeypatch.setattr(synth, "_POWER_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="within 3 steps"):
            stationary_joint(periodic_spec())

    def test_chain_with_two_closed_classes_refused(self):
        # the source never moves and the target copies it, so the pair states
        # (0, 0) and (1, 1) are both closed and every mixture is stationary
        b = np.zeros((2, 2, 2))
        b[:, 0, 0] = b[:, 1, 1] = 1.0
        with pytest.raises(ValidationError, match="more than one closed class"):
            stationary_joint(CoupledMarkovSpec(2, np.eye(2), b))


class TestExactTransferEntropy:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_copy_process_log2_n(self, q):
        assert exact_transfer_entropy(copy_spec(3), q) == pytest.approx(
            math.log2(3), abs=1e-12
        )

    @pytest.mark.parametrize("q", Q_GRID)
    def test_zero_coupling_is_zero(self, q):
        assert exact_transfer_entropy(independent_spec(3), q) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_binary_three_quarter_coupling(self):
        # X_{t+1} copies Y_t with probability 3/4: the target's next symbol
        # is uniform unconditionally, so TE = 1 - H_b(3/4)
        expected = 1.0 + 0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)
        value = exact_transfer_entropy(noisy_copy_spec(2, 0.75), 1.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.188722, abs=1e-6)

    @pytest.mark.parametrize("q", (0.8, 1.0, 1.5))
    def test_invariant_under_relabeling(self, q):
        rng = np.random.default_rng(5)
        spec = random_spec(rng)
        perm = rng.permutation(spec.alphabet_size)
        a = spec.source_transition[np.ix_(perm, perm)]
        b = spec.target_transition[np.ix_(perm, perm, perm)]
        relabeled = CoupledMarkovSpec(spec.alphabet_size, a, b)
        assert exact_transfer_entropy(relabeled, q) == pytest.approx(
            exact_transfer_entropy(spec, q), abs=1e-12
        )

    def test_estimator_converges_to_exact(self):
        spec = noisy_copy_spec(2, 0.75)
        exact = exact_transfer_entropy(spec, 1.0)
        x, y = generate(spec, 200_000, seed=6)
        estimated = estimate_te(x, y, 1, 1, 1.0)
        assert abs(estimated - exact) <= 0.01

    @pytest.mark.parametrize("q", (0.8, 1.5))
    def test_estimator_converges_to_exact_renyi(self, q):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, n=2)
        exact = exact_transfer_entropy(spec, q)
        x, y = generate(spec, 200_000, seed=8)
        estimated = estimate_te(x, y, 1, 1, q)
        assert abs(estimated - exact) <= 0.01

    def test_estimation_error_shrinks_with_length(self):
        spec = noisy_copy_spec(2, 0.75)
        exact = exact_transfer_entropy(spec, 1.0)
        mean_errors = []
        for length in (2_000, 20_000, 200_000):
            errors = []
            for seed in range(5):
                x, y = generate(spec, length, seed=seed)
                errors.append(abs(estimate_te(x, y, 1, 1, 1.0) - exact))
            mean_errors.append(np.mean(errors))
        assert mean_errors[0] > mean_errors[1] > mean_errors[2]
        assert mean_errors[2] <= 0.01
