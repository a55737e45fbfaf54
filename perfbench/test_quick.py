"""Smoke test of the benchmark in quick mode: every workload at reduced size
with every output check, traced and untraced.  No timing is asserted.

    python3 -m pytest -q perfbench/test_quick.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_quick(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    return result


def declared_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_quick_untraced_run_reports_end_to_end_metrics():
    metrics = run_quick("synth_verify", 0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared_units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_run_reports_per_layer_metrics(workload):
    # A traced run also runs untraced iterations, and checks every output.
    metrics = run_quick(workload, 1)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared_units("per_layer")
    assert metrics["transfer.count_words_calls"]["value"] > 0


def test_layer_metrics_derive_self_time_from_spans():
    # cli.main > report.q_sweep > surrogate.effective_transfer_entropy > three children;
    # the count_words span carries 0.5 s of the tracer's own hook time.
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0.5],
        ["report.q_sweep", 1.0, 9.0, 0, 0.5],
        ["surrogate.effective_transfer_entropy", 2.0, 8.0, 1, 0.5],
        ["transfer.count_words", 3.0, 4.5, 2, 0.5],
        ["transfer.renyi_transfer_entropy", 4.5, 5.0, 2, 0.0],
        ["surrogate.make_surrogate", 5.0, 6.0, 2, 0.0],
    ]
    out = layer_metrics({"spans": spans, "counters": {}, "word_fill": 0.0})
    assert out["cli.total_s"] == 9.5 and out["cli.self_s"] == 2.0
    assert out["report.self_s"] == out["report.driver_self_s"] == 2.0
    assert out["surrogate.calls"] == 2 and out["surrogate.total_s"] == 5.5
    assert out["surrogate.self_s"] == 3.0 + 1.0
    assert out["transfer.count_words_s"] == 1.0 and out["transfer.estimate_s"] == 0.5
    assert out["surrogate.replica_share"] == 1.0 / 5.5
