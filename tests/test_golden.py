"""Byte-for-byte regression of seeded CLI outputs against tests/golden/.

The input is a small three-asset random-walk price file, written from a
fixed numpy seed, with a lead-lag chain A -> B -> C.  Each command below
runs on it and its output must equal the stored golden file exactly; a
value that moves by one ulp fails.

Regenerate the golden files (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from renflow.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMON = ["--alphabet", "3", "--bins", "quantile", "--log-returns",
          "--surrogates", "8", "--seed", "11", "--format", "json"]
PAIR = ["--source", "A", "--target", "B"]

COMMANDS = {
    "sweep_q.json": ["sweep-q", *PAIR, "--q-grid", "0.5,1,1.5,3", *COMMON],
    "sweep_m.json": ["sweep-m", *PAIR, "--m-grid", "1,2,3", "--q", "1.5", *COMMON],
    "matrix.json": ["matrix", "--q", "2", *COMMON],
}


def write_prices(path: Path, rows: int = 1500) -> None:
    rng = np.random.default_rng(20120607)
    steps = rng.normal(0.0, 1e-3, size=(rows, 3))
    for k in (1, 2):
        steps[1:, k] += 0.6 * steps[:-1, k - 1]
    prices = 100.0 * np.exp(np.cumsum(steps, axis=0))
    lines = ["timestamp,A,B,C"]
    lines.extend(f"{t},{a:.6f},{b:.6f},{c:.6f}" for t, (a, b, c) in enumerate(prices.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_command(name: str, workdir: Path) -> bytes:
    data = workdir / "prices.csv"
    if not data.exists():
        write_prices(data)
    out = workdir / name
    assert main([*COMMANDS[name], "--data", str(data), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_bytes(name, tmp_path):
    assert run_command(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            (GOLDEN / name).write_bytes(run_command(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
