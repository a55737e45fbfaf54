"""Entropy algebra: examples, identities, and property tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renflow import (
    DiscreteDistribution,
    JointDistribution,
    ValidationError,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    entropy_gain,
    escort,
    mutual_information,
)

Q_GRID = (0.5, 0.8, 1.0, 1.5, 3.0)


def random_joint(rng, shape):
    probs = rng.random(shape) + 1e-3
    return probs / probs.sum()


# -- distributions strategy: floored so probabilities are never astronomical --

probability_vectors = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=12
).map(lambda vals: np.asarray(vals) / np.sum(vals))


# The top two differ by one ulp once normalized; at q = 2 the escort rounds
# them to one value, so its argmax is index 6 where the input's is 7.
TIED_TOP = [0.015766349156901137, 0.2698697656226005, 0.4269769260866657, 0.1148620243402512,
            0.6368283465761923, 0.386620027187667, 0.7280409986954764, 0.7280409986954766]


class TestValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(np.array([1.2, -0.2]))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(np.array([0.5, 0.4]))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("kind, probs, message", [
        (list, ["a"], "must be a non-empty one-dimensional array of numbers, got shape (1,) of "
         "dtype <U1"),
        (list, [0.5, np.nan, 0.5], "must be finite, got the non-finite value nan at position 1"),
        (list, [], "must be a non-empty one-dimensional array of numbers, got shape (0,) of "
         "dtype float64"),
        (JointDistribution, [[0.5, 0.5], [0.0, np.inf]], "must be finite, got the non-finite "
         "value inf at position 3"),
    ], ids=["strings", "nan", "empty", "joint-inf"])
    def test_entropy_refuses_by_the_series_rule(self, kind, probs, message):
        """A joint is checked as its flattened cells."""
        with pytest.raises(ValidationError) as info:
            entropy(kind(probs), 2)
        assert str(info.value) == f"probability array {message}"

    def test_entropy_takes_a_bare_probability_tensor(self):
        """A nested list is read as a distribution over its flattened cells, as a
        joint of the same cells is."""
        cells = [[0.25, 0.25], [0.125, 0.375]]
        for q in Q_GRID:
            assert entropy(cells, q) == entropy(JointDistribution(cells), q)
        assert entropy([[0.25, 0.25], [0.25, 0.25]], 2) == 2.0

    def test_joint_keeps_its_rank_read_only(self):
        joint = JointDistribution([[0.25, 0.25], [0.5, 0.0]])
        assert joint.probs.shape == (2, 2) and not joint.probs.flags.writeable

    def test_no_silent_renormalization(self):
        # off by 1e-6 must error, not renormalize
        with pytest.raises(ValidationError):
            DiscreteDistribution(np.array([0.5, 0.5 + 1e-6]))

    def test_order_must_be_positive(self):
        with pytest.raises(ValidationError):
            entropy([0.5, 0.5], 0.0)
        with pytest.raises(ValidationError):
            entropy([0.5, 0.5], -1.5)

    def test_joint_needs_two_axes(self):
        with pytest.raises(ValidationError):
            JointDistribution(np.array([0.5, 0.5]))

    def test_marginals_of_higher_rank_joint_are_valid(self):
        rng = np.random.default_rng(23)
        probs = rng.random((2, 3, 4)) + 1e-3
        joint = JointDistribution(probs / probs.sum())
        for axis, size in enumerate(joint.probs.shape):
            marginal = joint.marginal(axis)
            assert marginal.size == size
            assert abs(math.fsum(marginal.probs.tolist()) - 1.0) <= 1e-12


class TestEntropy:
    def test_uniform_four_symbols_q2(self):
        assert entropy([0.25] * 4, 2.0) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_degenerate_distribution(self, q):
        assert entropy([1.0, 0.0, 0.0], q) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_q2(self):
        expected = -math.log2(0.25**2 + 0.75**2)
        assert entropy([0.25, 0.75], 2.0) == pytest.approx(expected, abs=1e-12)
        assert entropy([0.25, 0.75], 2.0) == pytest.approx(0.678072, abs=1e-6)

    def test_two_point_shannon(self):
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert entropy([0.25, 0.75], 1.0) == pytest.approx(expected, abs=1e-12)
        assert entropy([0.25, 0.75], 1.0) == pytest.approx(0.811278, abs=1e-6)

    @given(probability_vectors)
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, probs):
        w = probs.size
        for q in Q_GRID:
            s = entropy(probs, q)
            assert -1e-12 <= s <= math.log2(w) + 1e-12

    @given(probability_vectors)
    @settings(max_examples=80, deadline=None)
    def test_non_increasing_in_q(self, probs):
        values = [entropy(probs, q) for q in Q_GRID]
        for lower, higher in zip(values, values[1:]):
            assert lower >= higher - 1e-12

    @given(probability_vectors)
    @settings(max_examples=80, deadline=None)
    def test_continuity_at_shannon_point(self, probs):
        center = entropy(probs, 1.0)
        assert abs(entropy(probs, 1.0 + 1e-5) - center) <= 1e-4
        assert abs(entropy(probs, 1.0 - 1e-5) - center) <= 1e-4

    def test_order_with_a_subnormal_power_sum_is_named(self):
        # the sum of p^q, 3**(1 - q), is subnormal from q = 646 and reads 1.5e-323 at q = 678
        assert entropy([1 / 3] * 3, 645) == pytest.approx(math.log2(3), rel=0, abs=2.3e-16)
        for q in (646, 678):
            with pytest.raises(ValidationError, match=f"q={q}.0, beyond floating point"):
                entropy([1 / 3] * 3, q)


class TestEscort:
    @pytest.mark.parametrize("q", (0.5, 2.0, 3.0))
    def test_uniform_fixed_point(self, q):
        out = escort([0.2] * 5, q)
        np.testing.assert_allclose(out.probs, 0.2, atol=1e-15)

    def test_identity_at_q1(self):
        dist = [0.1, 0.2, 0.7]
        out = escort(dist, 1.0)
        np.testing.assert_allclose(out.probs, dist, atol=0)

    def test_worked_example_q2(self):
        out = escort([0.5, 0.25, 0.25], 2.0)
        np.testing.assert_allclose(out.probs, [2 / 3, 1 / 6, 1 / 6], atol=1e-15)

    def test_underflowing_order_is_named(self):
        with pytest.raises(ValidationError, match="q=2000"):
            escort([0.5, 0.5], 2000)

    @given(probability_vectors, st.sampled_from((0.5, 0.8, 1.5, 2.0, 3.0)))
    @example(np.asarray(TIED_TOP) / np.sum(TIED_TOP), 2.0)
    @settings(max_examples=80, deadline=None)
    def test_normalized_and_argmax_preserved(self, probs, q):
        out = escort(probs, q)
        assert abs(math.fsum(out.probs.tolist()) - 1.0) <= 1e-12
        if q > 1:
            second, first = np.sort(probs)[-2:]
            if first - second > 1e-12 * first:
                assert int(np.argmax(out.probs)) == int(np.argmax(probs))
            else:
                # p**q / S can round inputs one ulp apart to one value, and
                # argmax then picks the first of them
                assert out.probs[np.argmax(probs)] == out.probs.max()


class TestConditionalEntropy:
    def test_independent_product_equals_marginal_entropy(self):
        joint = np.outer([0.5, 0.5], [0.5, 0.5])
        assert conditional_entropy(joint, 2.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_determined_is_zero(self, q):
        assert conditional_entropy(np.diag([1 / 3] * 3), q) == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_random_joint(self):
        rng = np.random.default_rng(42)
        joint = JointDistribution(random_joint(rng, (3, 3)))
        q = 1.7
        lhs = conditional_entropy(joint, q)
        rhs = entropy(joint, q) - entropy(joint.marginal(1), q)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_chain_rule_sweep(self, q):
        rng = np.random.default_rng(7)
        for _ in range(200):
            shape = tuple(rng.integers(2, 6, size=2))
            joint = JointDistribution(random_joint(rng, shape))
            total = entropy(joint.marginal(1), q) + conditional_entropy(joint, q)
            assert total == pytest.approx(entropy(joint, q), abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_bounds(self, q):
        rng = np.random.default_rng(11)
        for _ in range(50):
            joint = random_joint(rng, (4, 3))
            value = conditional_entropy(joint, q)
            assert -1e-12 <= value <= math.log2(4) + 1e-12


class TestMutualInformation:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_self_information_consistency(self, q):
        joint = np.diag([1 / 3] * 3)
        assert mutual_information(joint, q) == pytest.approx(math.log2(3), abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_independence_gives_zero(self, q):
        joint = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
        assert mutual_information(joint, q) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            joint = random_joint(rng, (4, 4))
            forward = mutual_information(joint, 0.8)
            backward = mutual_information(joint.T, 0.8)
            assert forward == pytest.approx(backward, abs=1e-12)

    def test_shannon_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            joint = random_joint(rng, (3, 4))
            assert mutual_information(joint, 1.0) >= -1e-12


class TestConditionalMutualInformation:
    @pytest.mark.parametrize("q", (0.5, 1.0, 1.5))
    def test_target_independent_of_rest(self, q):
        rng = np.random.default_rng(9)
        px = np.array([0.2, 0.8])
        pyz = random_joint(rng, (3, 2))
        joint = np.einsum("x,yz->xyz", px, pyz)
        assert conditional_mutual_information(joint, q) == pytest.approx(0.0, abs=1e-12)

    def test_constant_condition_reduces_to_mutual_information(self):
        rng = np.random.default_rng(13)
        slice_xy = random_joint(rng, (3, 3))
        joint = slice_xy[:, :, None]
        cmi = conditional_mutual_information(joint, 1.5)
        assert cmi == pytest.approx(mutual_information(slice_xy, 1.5), abs=1e-12)

    def test_shannon_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            joint = random_joint(rng, (2, 2, 2))
            # independent oracle: direct -sum p log p evaluation of
            # H(X|Z) - H(X|Y,Z) from the definition of each term
            p_xz = joint.sum(axis=1)
            p_z = joint.sum(axis=(0, 1))
            h_x_given_z = -sum(
                p_xz[x, z] * math.log2(p_xz[x, z] / p_z[z])
                for x in range(2) for z in range(2) if p_xz[x, z] > 0
            )
            p_yz = joint.sum(axis=0)
            h_x_given_yz = -sum(
                joint[x, y, z] * math.log2(joint[x, y, z] / p_yz[y, z])
                for x in range(2) for y in range(2) for z in range(2)
                if joint[x, y, z] > 0
            )
            expected = h_x_given_z - h_x_given_yz
            assert conditional_mutual_information(joint, 1.0) == pytest.approx(
                expected, abs=1e-12
            )


class TestEntropyGain:
    # the boundary case where a peaked distribution flattens just enough
    # that the Shannon gain vanishes while the q = 1.5 gain is negative
    EPS = 1.0 / (1.0 + math.log2(1.5))
    PRIOR = (1 - EPS, EPS / 3, EPS / 3, EPS / 3)
    POSTERIOR = ((1 - EPS) / 2, (1 - EPS) / 2, EPS / 2, EPS / 2)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_identity_pair_is_zero(self, q):
        dist = [0.4, 0.3, 0.2, 0.1]
        assert entropy_gain(dist, dist, q) == pytest.approx(0.0, abs=1e-15)

    def test_boundary_shannon_gain_vanishes(self):
        assert entropy_gain(self.PRIOR, self.POSTERIOR, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_negative_gain_above_shannon(self):
        gain = entropy_gain(self.PRIOR, self.POSTERIOR, 1.5)
        assert gain < 0.0
        # direct evaluation of both Renyi entropies, frozen
        assert gain == pytest.approx(-0.0036140470157324245, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            entropy_gain([0.5, 0.5], [0.25, 0.25, 0.5], 1.0)
