"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything here is deterministic (fixed seeds) and self-contained; the
expected values come either from closed forms evaluated inline or from
the exact enumeration oracles in `helpers`.
"""

import json
import math
import time

import numpy as np

from helpers import (
    iid_symbol_series,
    lag2_xor_exact_te,
    lag2_xor_series,
    lag2_xor_word_distribution,
    noisy_copy_series,
    random_word_distribution,
)
from renflow import (
    HistorySpec,
    JointDistribution,
    SurrogateSpec,
    WordDistribution,
    conditional_entropy,
    count_words,
    effective_transfer_entropy,
    entropy,
    entropy_gain,
    escort,
    exact_transfer_entropy,
    generate,
    net_flow,
    noisy_copy_spec,
    pairwise_matrix,
    renyi_transfer_entropy,
)
from renflow.cli import main as cli_main

LOG2_3 = math.log2(3)
Q_SET = (0.5, 0.8, 1.0, 1.5, 3.0)


def report(number: int, elapsed: float, budget: float, message: str):
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {budget:.0f}s): {message}")


def test_criterion_1_entropy_algebra_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        shape = tuple(rng.integers(2, 5, size=2))
        probs = rng.random(shape) + 1e-3
        probs /= probs.sum()
        joint = JointDistribution(probs)
        marginal = joint.marginal(1)
        for q in Q_SET:
            residual = entropy(joint, q) - entropy(marginal, q) - conditional_entropy(joint, q)
            assert abs(residual) <= 1e-12
    for _ in range(1000):
        vec = rng.random(int(rng.integers(2, 9))) + 1e-3
        vec /= vec.sum()
        for q in Q_SET:
            total = math.fsum(escort(vec, q).probs.tolist())
            assert abs(total - 1.0) <= 1e-12
        values = [entropy(vec, q) for q in Q_SET]
        for lower, higher in zip(values, values[1:]):
            assert lower >= higher - 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, elapsed, 5, "chain rule, escort normalization, q-monotonicity at 1e-12")


def test_criterion_2_continuity_at_shannon_order():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        words = random_word_distribution(rng)
        shannon = renyi_transfer_entropy(words, 1.0)
        for q in (1.0 + 1e-4, 1.0 - 1e-4):
            delta = abs(renyi_transfer_entropy(words, q) - shannon)
            worst = max(worst, delta)
            assert delta <= 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, elapsed, 5, f"|RTE(1 +/- 1e-4) - STE| worst case {worst:.2e} <= 1e-3")


def test_criterion_3_negative_gain_reproduction():
    started = time.perf_counter()
    eps = 1.0 / (1.0 + math.log2(1.5))
    prior = (1 - eps, eps / 3, eps / 3, eps / 3)
    posterior = ((1 - eps) / 2, (1 - eps) / 2, eps / 2, eps / 2)
    shannon_gain = entropy_gain(prior, posterior, 1.0)
    renyi_gain = entropy_gain(prior, posterior, 1.5)
    assert abs(shannon_gain) <= 1e-12
    assert renyi_gain < 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(3, elapsed, 1, f"Shannon gain {shannon_gain:.1e} = 0, q=1.5 gain {renyi_gain:.2e} < 0")


def test_criterion_4_copy_process_exactness():
    started = time.perf_counter()
    forward = WordDistribution.from_counts(
        {(y, (x,), (y,)): 1 for x in range(3) for y in range(3)}, 3, 3, 1, 1
    )
    reverse = WordDistribution.from_counts(
        {(yn, (y,), (x,)): 1 for yn in range(3) for y in range(3) for x in range(3)},
        3, 3, 1, 1,
    )
    assert abs(renyi_transfer_entropy(forward, 1.0) - LOG2_3) < 1e-12
    for q in (0.5, 0.8, 1.0, 1.5):
        assert abs(renyi_transfer_entropy(forward, q) - LOG2_3) < 1e-12
        assert abs(renyi_transfer_entropy(reverse, q)) < 1e-12
    assert abs(renyi_transfer_entropy(reverse, 1.0)) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(4, elapsed, 1, "analytic copy process: STE = RTE = log2(3), reverse = 0")


def test_criterion_5_oracle_convergence():
    started = time.perf_counter()
    spec = noisy_copy_spec(2, 0.75)
    exact = exact_transfer_entropy(spec, 1.0)
    # hand value: the target's next symbol is uniform unconditionally and
    # Bernoulli(1/4)-corrupted given the source, so TE = 1 - H_b(3/4)
    hand = 1.0 + 0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)
    assert abs(exact - hand) <= 1e-12
    x, y = generate(spec, 10**6, seed=2024)
    estimated = renyi_transfer_entropy(count_words(x, y, HistorySpec(1, 1)), 1.0)
    assert abs(estimated - exact) <= 5e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(5, elapsed, 30, f"estimated {estimated:.6f} vs exact {exact:.6f} within 5e-3")


def test_criterion_6_surrogate_null_calibration():
    started = time.perf_counter()
    effectives = []
    for trial in range(50):
        rng = np.random.default_rng(6000 + trial)
        x = iid_symbol_series(rng, 100_000, 3, label="x")
        y = iid_symbol_series(rng, 100_000, 3, label="y")
        spec = SurrogateSpec(ensemble_size=20, rng_seed=trial)
        result = effective_transfer_entropy(x, y, HistorySpec(1, 1), 1.0, spec)
        effectives.append(result.effective)
    mean = float(np.mean(effectives))
    within = float(np.mean(np.abs(effectives) <= 0.01))
    assert abs(mean) <= 0.005
    assert within >= 0.90
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(6, elapsed, 120, f"null mean {mean:+.2e}, {within:.0%} of pairs within 0.01 bits")


def test_criterion_7_memory_plateau():
    started = time.perf_counter()
    q = 1.5
    flip = 0.25
    # exact order-2 ground truth, confirmed against the enumeration oracle
    oracle_words = lag2_xor_word_distribution(1, 4)
    plateau = lag2_xor_exact_te(q, flip, m=2)
    assert abs(renyi_transfer_entropy(oracle_words, q) - plateau) <= 1e-12

    rng = np.random.default_rng(9000)
    x, y = lag2_xor_series(rng, 50_000, flip)
    results = {}
    for m in (1, 2, 3):
        spec = SurrogateSpec(ensemble_size=20, rng_seed=0)
        results[m] = effective_transfer_entropy(x, y, HistorySpec(m, m), q, spec)
    rte = {m: r.raw for m, r in results.items()}
    assert rte[1] < rte[2]
    # noise band: the full surrogate TE magnitude at the finer partition
    band = results[3].surrogate_mean + 3 * results[3].surrogate_std
    assert abs(rte[2] - rte[3]) <= band
    assert abs(rte[2] - plateau) <= 0.02
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        7, elapsed, 60,
        f"RTE(1,1)={rte[1]:.4f} < RTE(2,2)={rte[2]:.4f}, "
        f"|RTE(2,2)-RTE(3,3)|={abs(rte[2]-rte[3]):.1e} <= band {band:.1e}",
    )


def test_criterion_8_net_flow_orientation_and_antisymmetry():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    source, target = noisy_copy_series(rng, 30_000, 3, fidelity=0.8,
                                       label_source="A", label_target="B")
    independent = iid_symbol_series(rng, 30_000, 3, label="C")
    matrix = pairwise_matrix(
        [source, target, independent],
        HistorySpec(1, 1), 1.0, SurrogateSpec(ensemble_size=20, rng_seed=8),
    )
    i_a = matrix.labels.index("A")
    i_b = matrix.labels.index("B")
    off_diagonal = [
        (i, j) for i in range(3) for j in range(3) if i != j
    ]
    dominant = max(off_diagonal, key=lambda ij: matrix.values[ij])
    assert dominant == (i_b, i_a)  # row = target B, column = source A
    flows = net_flow(matrix)
    assert np.max(np.abs(flows.values + flows.values.T)) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(
        8, elapsed, 30,
        f"dominant entry at [B][A] = {matrix.values[i_b, i_a]:.4f} bits, F + F^T = 0",
    )


def test_criterion_9_matrix_reproducibility(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    n = 4000
    a = np.cumsum(rng.normal(0, 1, size=n)) + 500
    b = np.concatenate(([a[0]], a[:-1] + rng.normal(0, 0.5, size=n - 1)))
    c = np.cumsum(rng.normal(0, 1, size=n)) + 500
    lines = ["timestamp,A,B,C"]
    lines += [f"{t},{a[t]:.8f},{b[t]:.8f},{c[t]:.8f}" for t in range(n)]
    data = tmp_path / "prices.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    outputs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}.csv"
        code = cli_main([
            "matrix", "--data", str(data), "--alphabet", "3", "--bins", "quantile",
            "--q", "1.5", "--surrogates", "10", "--seed", "77",
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        manifest = out.with_suffix(".manifest.json")
        outputs.append((out.read_bytes(), manifest.read_bytes()))
    csv_1, manifest_1 = outputs[0]
    csv_2, manifest_2 = outputs[1]
    assert csv_1 == csv_2
    # manifests name their own output file; everything else is identical
    payload_1 = json.loads(manifest_1)
    payload_2 = json.loads(manifest_2)
    assert payload_1["parameters"].pop("output") == "run1.csv"
    assert payload_2["parameters"].pop("output") == "run2.csv"
    assert payload_1 == payload_2

    json_outs = []
    for run in (1, 2):
        out = tmp_path / f"json{run}.json"
        code = cli_main([
            "matrix", "--data", str(data), "--alphabet", "3", "--bins", "quantile",
            "--q", "1.5", "--surrogates", "10", "--seed", "77",
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        json_outs.append(out.read_bytes())
    assert json_outs[0] == json_outs[1]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(9, elapsed, 60, "two seeded matrix runs emit byte-identical CSV and JSON")
