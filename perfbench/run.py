"""Layered renflow benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from anywhere inside a checkout that has `src/renflow`.  The
benchmark writes its generated inputs, the program's outputs and the
trace files under `perfbench/work/`, and nothing outside the checkout.

Load model: one closed-loop client.  Each iteration is one fresh child
interpreter (`child.py`) that imports `renflow.cli` and calls
`renflow.cli.main` for every command of the workload back to back, in
one process with no added threads.  Iterations repeat for `--seconds`
(at least three; two with `--quick`), and every timing is reported as
the median over them with its quartiles and sample count.

Timings are rescaled to a reference processor speed.  On a shared
2-core virtual machine the speed one process gets drifts by up to 30%
within minutes, so raw medians of runs a few minutes apart disagree by
more than most changes to the program would move them.  The parent times
`calibrate`, a fixed piece of work that does not touch `renflow`,
right before and right after each child, and multiplies the child's
timings by CALIBRATION_REF_S over the mean of the two.  A change to
`renflow` does not change the calibration, so rescaled times compare
between commits as raw times would on a quiet machine.  The summary
also prints the raw wall time and the calibration time.

With `--trace 0` the result holds the end-to-end metrics:

    wall_s         first timed command start to last command return, after
                   import, rescaled
    windows_per_s  requested windows / wall_s; requested windows are summed over
                   every estimate the workload asks for (raw and each surrogate
                   replica), L - max(m, l) - 1 each, so they count the user's work
    peak_rss_mb    the child's ru_maxrss
    setup_s        time for a fresh interpreter to import renflow.cli, rescaled,
                   in every iteration child

error_rate (failed over attempted commands) and oracle_err_bits (largest
|raw - exact| over the rows checked against the closed-form oracle) are
printed in the summary; the result line carries them as `attempted`,
`failed` and `correct`.

With `--trace 1` the first half of the time runs untraced iterations
(at least one) and the second half traced ones (at least two), and the
result holds the per-layer metrics of `spans.layer_metrics` (times rescaled like
wall_s) plus `trace.overhead_s`, the traced minus the untraced median
wall time.  Work counts must repeat exactly between traced iterations.

A command fails if it raises, returns non-zero, fails its workload's
output check, or writes bytes that differ from the first iteration of
the same seed (also across runs in one checkout, via work/digests.json).
The last line of standard output is the JSON result.  `--quick` runs a
reduced size that takes seconds; every check still applies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckError, make  # noqa: E402

CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
# Every timing is rescaled to a processor on which calibrate() takes this long.
CALIBRATION_REF_S = 0.1
# Single-threaded numeric libraries: one caller, no added threads.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def unit_of(metric: str) -> str:
    if metric.endswith("mb_per_s"):
        return "MB/s"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("word_fill", "replica_share")):
        return "ratio"
    return "count"


def calibrate() -> float:
    """Seconds for a fixed mix of interpreted loops, float lists, sorting and parsing.

    The mix resembles what the workloads spend their time on.  Timed right
    before and right after each child, it tracks the speed the shared
    processor gives the benchmark at that moment.
    """
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    values = np.random.default_rng(0).random(200_000)
    for _ in range(2):
        math.fsum(values.tolist())
        np.unique((values * 1e6).astype(np.int64), return_counts=True)
    sum(float(str(v)) for v in values[:30_000].tolist())
    return time.perf_counter() - started


def run_child(job: dict, job_path: Path, deadline: float) -> dict | None:
    """Run one child interpreter on `job`, timing `calibrate` before and after.

    None if the child crashed or timed out.
    """
    before = calibrate()
    result = _spawn(job, job_path, deadline)
    if result is not None:
        result["calibration_s"] = (before + calibrate()) / 2
    return result


def _spawn(job: dict, job_path: Path, deadline: float) -> dict | None:
    result_path = Path(job["result"])
    result_path.unlink(missing_ok=True)
    job_path.write_text(json.dumps(job), encoding="utf-8")
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=ROOT, env={**os.environ, **CHILD_ENV},
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for rel in paths:
        h.update((ROOT / rel).read_bytes())
    return h.hexdigest()


class Bench:
    def __init__(self, args):
        self.wl = make(args.workload, WORK, ROOT, args.seed, args.quick)
        self.commands = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests_path = WORK / "digests.json"
        self.reference: list[str] | None = None

    def setup(self):
        if self.wl.dir.exists():
            shutil.rmtree(self.wl.dir)
        self.wl.setup()
        self.commands = self.wl.commands()
        # Same generated inputs and commands must give the same output bytes.
        key = hashlib.sha256(json.dumps([c.argv for c in self.commands]).encode())
        for path in sorted(self.wl.dir.iterdir()):
            key.update(path.read_bytes())
        self.digests_key = f"{self.wl.name}/{key.hexdigest()}"
        stored = json.loads(self.digests_path.read_text()) if self.digests_path.exists() else {}
        self.reference = stored.get(self.digests_key)

    def save_digests(self):
        stored = json.loads(self.digests_path.read_text()) if self.digests_path.exists() else {}
        if self.failed == 0 and self.digests_key not in stored:
            stored[self.digests_key] = self.reference
            self.digests_path.write_text(json.dumps(stored, indent=1, sort_keys=True))

    def job(self, commands, trace_out=None) -> dict:
        return {
            "commands": commands,
            "result": str(self.wl.dir / "result.json"),
            "trace_out": str(trace_out) if trace_out else None,
        }

    def warm_up(self, deadline) -> None:
        """Import once, so that bytecode compilation is not timed."""
        _spawn(self.job([]), self.wl.dir / "job.json", deadline)

    def iteration(self, deadline, trace_out=None) -> dict | None:
        for cmd in self.commands:
            for rel in cmd.outputs:
                (ROOT / rel).unlink(missing_ok=True)
        result = run_child(self.job([c.argv for c in self.commands], trace_out),
                           self.wl.dir / "job.json", deadline)
        outcomes = result["outcomes"] if result else [None] * len(self.commands)
        digests = []
        for i, (cmd, outcome) in enumerate(zip(self.commands, outcomes)):
            self.attempted += 1
            try:
                if outcome is None:
                    raise CheckError("child interpreter failed")
                if outcome["error"] or outcome["rc"] != 0:
                    raise CheckError(f"rc={outcome['rc']} {outcome['error'] or ''}".strip())
                cmd.check()
                digests.append(file_digest(cmd.outputs))
                if self.reference is not None and digests[-1] != self.reference[i]:
                    raise CheckError("output bytes differ from the first run of this seed")
            except Exception as exc:  # any wrong or missing output counts as a failed command
                digests.append(None)
                self.failed += 1
                self.failures.append(f"{cmd.argv[0]}: {type(exc).__name__}: {exc}")
        if self.reference is None and None not in digests:
            self.reference = digests
        return result

    def measure(self, until: float, deadline: float, minimum: int, trace: bool) -> list[dict]:
        results, took = [], []
        while len(results) < minimum or time.perf_counter() + statistics.median(took) < until:
            if time.perf_counter() > deadline:
                break
            trace_out = self.wl.dir / f"trace-{len(results)}.json" if trace else None
            t0 = time.perf_counter()
            result = self.iteration(deadline, trace_out)
            took.append(time.perf_counter() - t0)
            if result is not None:
                if trace:
                    result["trace"] = json.loads(trace_out.read_text(encoding="utf-8"))
                results.append(result)
            elif len(took) >= 2 * minimum:
                break
        return results


def scale(result: dict) -> float:
    """Factor that rescales a child's timings to the reference processor speed."""
    return CALIBRATION_REF_S / result["calibration_s"]


def end_to_end(bench: Bench, runs: list[dict]) -> dict:
    wall = quartiles([r["wall_s"] * scale(r) for r in runs])
    windows = bench.wl.requested_windows
    imports = [r["import_s"] * scale(r) for r in runs]
    return {
        "wall_s": (wall, len(runs), "s"),
        "windows_per_s": ((windows / wall[2], windows / wall[1], windows / wall[0]), len(runs), "1/s"),
        "peak_rss_mb": (quartiles([r["peak_rss_mb"] for r in runs]), len(runs), "MB"),
        "setup_s": (quartiles(imports), len(imports), "s"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    per_run = []
    for r in traced:
        factor = scale(r)
        metrics = layer_metrics(r["trace"])
        for name, value in metrics.items():
            if unit_of(name) == "s":
                metrics[name] = value * factor
            elif unit_of(name).endswith("/s"):
                metrics[name] = value / factor
        per_run.append(metrics)
    problems = []
    out = {}
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if unit_of(name) == "count" and len(set(values)) != 1:
            problems.append(f"{name} differs between traced iterations: {values}")
        out[name] = statistics.median(values)
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] * scale(r) for r in traced)
                               - statistics.median(r["wall_s"] * scale(r) for r in untraced))
    return out, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced input sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "renflow" / "cli.py").is_file():
        print(f"error: no src/renflow/cli.py under {ROOT}; run inside a renflow checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    bench = Bench(args)
    bench.setup()
    bench.warm_up(deadline)

    minimum = 2 if args.quick else 3
    measure_start = time.perf_counter()
    until = measure_start + args.seconds
    if args.trace:
        untraced = bench.measure(measure_start + args.seconds / 2, deadline, 1, trace=False)
        traced = bench.measure(until, deadline, 2, trace=True)
        runs = untraced
    else:
        runs = bench.measure(until, deadline, minimum, trace=False)
    if not runs or (args.trace and not traced):
        print("error: no iteration completed", file=sys.stderr)
        return 1
    bench.save_digests()

    print(f"workload {args.workload}  seed {args.seed}  {'quick' if args.quick else 'full'} size  "
          f"{time.perf_counter() - measure_start:.1f} s measured")
    report = end_to_end(bench, runs)
    for name, ((q1, median, q3), n, unit) in report.items():
        print(f"  {name:<15} {median:12.6g} {unit:<4} q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    raw = quartiles([r["wall_s"] for r in runs])
    calibration = quartiles([r["calibration_s"] for r in runs])
    print(f"  {'raw wall_s':<15} {raw[1]:12.6g} s    q1 {raw[0]:.6g}  q3 {raw[2]:.6g}  (not rescaled)")
    print(f"  {'calibration_s':<15} {calibration[1]:12.6g} s    q1 {calibration[0]:.6g}  "
          f"q3 {calibration[2]:.6g}  (reference {CALIBRATION_REF_S} s)")
    print(f"  {'error_rate':<15} {bench.failed / bench.attempted:12.6g}      "
          f"{bench.failed} of {bench.attempted} commands failed")
    oracle = bench.wl.oracle_err_bits
    print(f"  {'oracle_err_bits':<15} {'n/a' if oracle is None else f'{oracle:12.6g} bits'}")
    for failure in bench.failures[:10]:
        print(f"  FAILED {failure}")

    problems: list[str] = []
    if args.trace:
        layers, problems = per_layer(traced, untraced)
        for name, value in layers.items():
            print(f"  {name:<38} {value:14.6g} {unit_of(name)}")
        for name, recorded in bench.wl.baseline_counts.items():
            verdict = "matches" if layers[name] == recorded else "differs from"
            print(f"  {name} = {layers[name]:g} {verdict} the recorded baseline ({recorded})")
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": q[1], "unit": unit} for name, (q, _, unit) in report.items()}
    for problem in problems:
        print(f"  TRACE {problem}")
    print(json.dumps({
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
