"""Byte-for-byte regression of seeded CLI outputs against tests/golden/.

The input is a small three-asset random-walk price file, written from a
fixed numpy seed, with a lead-lag chain A -> B -> C.  Each command below
runs on it (or on a synthetic preset, or on the stored matrix for
`netflow`) and its output must equal the stored golden file exactly; a
value that moves by one ulp fails.  The matrix manifest is compared
with its `input.path` line removed, since that names a temporary file.

Regenerate the golden files (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from renflow.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# "@name" stands for the file `name` in the work directory, made on first use.
PRICES = ["--data", "@prices.csv", "--alphabet", "3", "--bins", "quantile", "--log-returns"]
SURROGATES = ["--surrogates", "8", "--seed", "11"]
PAIR = ["--source", "A", "--target", "B"]
PRESET = ["--preset", "noisy-copy", "--preset-alphabet", "3", "--preset-fidelity", "0.8"]

SWEEP_Q = ["sweep-q", *PAIR, "--q-grid", "0.5,1,1.5,3", *PRICES, *SURROGATES]
SWEEP_M = ["sweep-m", *PAIR, "--m-grid", "1,2,3", "--q", "1.5", *PRICES, *SURROGATES]
MATRIX = ["matrix", "--q", "2", *PRICES, *SURROGATES]

COMMANDS = {
    **{f"sweep_q.{fmt}": [*SWEEP_Q, "--format", fmt] for fmt in ("csv", "json")},
    **{f"sweep_m.{fmt}": [*SWEEP_M, "--format", fmt] for fmt in ("csv", "json")},
    **{f"matrix.{fmt}": [*MATRIX, "--format", fmt] for fmt in ("csv", "json", "svg")},
    **{
        f"netflow.{fmt}": ["netflow", "--from-matrix", "@matrix.csv", "--format", fmt]
        for fmt in ("csv", "json", "svg")
    },
    **{
        f"symbolize.{fmt}": ["symbolize", *PRICES, "--block", "4", "--format", fmt]
        for fmt in ("csv", "json")
    },
    "te.json": ["te", *PAIR, "--m", "2", "--q", "1.5", *PRICES, *SURROGATES],
    "oracle.json": ["oracle", *PRESET, "--q", "2"],
    "oracle_shannon.json": ["oracle", *PRESET, "--q", "1"],
    "gen_synth.csv": ["gen-synth", *PRESET, "--length", "200", "--seed", "5"],
}
MANIFEST = "matrix.manifest.json"  # written next to matrix.csv


def write_prices(path: Path, rows: int = 1500) -> None:
    rng = np.random.default_rng(20120607)
    steps = rng.normal(0.0, 1e-3, size=(rows, 3))
    for k in (1, 2):
        steps[1:, k] += 0.6 * steps[:-1, k - 1]
    prices = 100.0 * np.exp(np.cumsum(steps, axis=0))
    lines = ["timestamp,A,B,C"]
    lines.extend(f"{t},{a:.6f},{b:.6f},{c:.6f}" for t, (a, b, c) in enumerate(prices.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def input_file(name: str, workdir: Path) -> str:
    path = workdir / name
    if not path.exists():
        if name == "prices.csv":
            write_prices(path)
        else:
            run_command(name, workdir)
    return str(path)


def command_argv(name: str, workdir: Path) -> list[str]:
    return [input_file(a[1:], workdir) if a.startswith("@") else a for a in COMMANDS[name]]


def run_command(name: str, workdir: Path) -> bytes:
    if name == MANIFEST:
        run_command("matrix.csv", workdir)
        text = (workdir / MANIFEST).read_text(encoding="utf-8")
        path_line = f'    "path": {json.dumps(str(workdir / "prices.csv"))},\n'
        assert path_line in text
        return text.replace(path_line, "").encode("utf-8")
    out = workdir / name
    assert main([*command_argv(name, workdir), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted([*COMMANDS, MANIFEST]))
def test_cli_output_matches_golden_bytes(name, tmp_path):
    assert run_command(name, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["te.json", "oracle.json", "oracle_shannon.json"])
def test_stdout_output_matches_golden_bytes(name, tmp_path, capsys):
    assert main(command_argv(name, tmp_path)) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in sorted([*COMMANDS, MANIFEST]):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(run_command(name, Path(tmp)))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
