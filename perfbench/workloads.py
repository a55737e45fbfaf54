"""The benchmark's workloads: generated inputs, CLI commands and output checks.

Each workload is one closed-loop client that runs a fixed list of
`renflow` commands back to back.  Inputs come only from the workload
seed; the program receives the generated files and nothing else.

    matrix_csv    ingest-heavy: an 8-asset random-walk price CSV with a
                  planted lead-lag chain, then `matrix` and `netflow`.
                  Many short estimates, so per-call overhead and the
                  repeated surrogate shuffles show.
    synth_verify  the synthetic verification flow on a dense code space
                  (every one of the 27 words occurs): `gen-synth`, the
                  exact `oracle` at six orders and a `sweep-q` over them.
                  The q loop counts the same words once per order.
    memory_scan   the same transfer layer used sparse: `sweep-m` up to
                  m = l = 4 on an alphabet-4 series, where most of the
                  4^9 possible words never occur.

A check raises CheckError when an output is wrong.  Workloads with an
oracle record the largest distance from it in `oracle_err_bits`.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("matrix_csv", "synth_verify", "memory_scan")


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Command:
    argv: list[str]
    outputs: tuple[str, ...]
    check: Callable[[], None]


def noisy_copy_te(alphabet: int, fidelity: float, q: float) -> float:
    """Exact order-q transfer entropy Y -> X of the noisy-copy process, in bits.

    The source is i.i.d. uniform and x_{t+1} copies y_t with probability
    `fidelity`, else takes one of the other symbols uniformly.  Then X' is
    independent of X, so S_q(X'|X) = log2 n, and every (x, y) slice of
    p(x'|x, y) is the same row, which gives S_q(X'|X, Y) in closed form.
    This is derived here, independently of `renflow.synth`.
    """
    n, f = alphabet, fidelity
    if abs(q - 1.0) < 1e-9:
        row_entropy = -f * math.log2(f) - (1.0 - f) * math.log2((1.0 - f) / (n - 1))
    else:
        power_sum = f**q + (n - 1) ** (1.0 - q) * (1.0 - f) ** q
        row_entropy = math.log2(power_sum) / (1.0 - q)
    return math.log2(n) - row_entropy


def plugin_te(x: np.ndarray, y: np.ndarray, alphabet: int, m: int, q: float) -> float:
    """Plug-in order-q transfer entropy Y -> X at l = m, in bits, from grouped counts.

    The total count cancels, so with c the counts of (x', xw, yw), d of
    (xw, yw), a of (x', xw) and b of (xw):
        T_q = [log2 sum a^q - log2 sum b^q - log2 sum c^q + log2 sum d^q] / (1 - q)
        T_1 = [sum c log2 c + sum b log2 b - sum d log2 d - sum a log2 a] / N.
    An implementation of the estimator independent of `renflow.transfer`.
    """
    windows = len(x) - m - 1
    xw = sum(x[m - k : m - k + windows] * alphabet**k for k in range(m))
    yw = sum(y[m - k : m - k + windows] * alphabet**k for k in range(m))
    future = x[m + 1 : m + 1 + windows]
    words = alphabet**m
    groups = [
        (future * words + xw) * words + yw,  # c
        xw * words + yw,                      # d
        future * words + xw,                  # a
        xw,                                   # b
    ]
    counts = [np.unique(g, return_counts=True)[1].astype(float) for g in groups]
    if abs(q - 1.0) < 1e-9:
        c, d, a, b = (math.fsum((n * np.log2(n)).tolist()) for n in counts)
        return (c + b - d - a) / windows
    c, d, a, b = (math.log2(math.fsum(np.power(n, q).tolist())) for n in counts)
    return (a - b - c + d) / (1.0 - q)


def noisy_copy_series(alphabet: int, fidelity: float, length: int, seed: int):
    """Sample (x, y) of the noisy-copy process with numpy."""
    rng = np.random.default_rng([seed, alphabet])
    y = rng.integers(0, alphabet, size=length)
    x = np.empty(length, dtype=np.int64)
    x[0] = rng.integers(0, alphabet)
    miss = rng.random(length - 1) >= fidelity
    shift = rng.integers(1, alphabet, size=length - 1)
    x[1:] = np.where(miss, (y[:-1] + shift) % alphabet, y[:-1])
    return x, y


def read_symbols(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of a `t,x,y` symbol CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    return data[:, 1], data[:, 2]


def read_sweep(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Common state: the work directory, the seed and the size."""

    name = ""
    sizes = (0, 0)
    requested_windows = 0
    # Redundant-work counts of the traced run when the benchmark was defined
    # (see baseline.json); they do not depend on the size.
    baseline_counts: dict[str, int] = {}

    def __init__(self, work: Path, root: Path, seed: int, quick: bool):
        self.root = root
        self.dir = work / self.name
        self.seed = seed
        self.quick = quick
        self.size = self.sizes[1] if quick else self.sizes[0]
        self.oracle_err_bits: float | None = None

    def rel(self, name: str) -> str:
        """Path of a work file relative to the checkout, as the CLI is given it."""
        return (self.dir / name).relative_to(self.root).as_posix()

    def setup(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError


class MatrixCsv(Workload):
    name = "matrix_csv"
    assets = 8
    lag = 10
    coefficient = 0.6
    step_sigma = 1e-3
    blank_rate = 1e-3
    block = 10
    surrogates = 20
    baseline_counts = {"surrogate.make_surrogate_redundant": 960, "transfer.count_words_redundant": 0}
    sizes = (75_000, 30_000)  # price rows, full and quick

    def labels(self) -> list[str]:
        return [f"A{k}" for k in range(self.assets)]

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 1])
        steps = rng.normal(0.0, self.step_sigma, size=(self.size, self.assets))
        for k in range(1, self.assets):
            steps[self.lag :, k] += self.coefficient * steps[: -self.lag, k - 1]
        prices = 100.0 * np.exp(np.cumsum(steps, axis=0))
        blank = rng.random((self.size, self.assets)) < self.blank_rate
        stamps = (1_600_000_000 + 60 * np.arange(self.size)).tolist()
        row_format = "%d" + ",%.9f" * self.assets
        lines = [row_format % row for row in zip(stamps, *prices.T.tolist())]
        for i in np.flatnonzero(blank.any(axis=1)).tolist():
            cells = lines[i].split(",")
            for k in np.flatnonzero(blank[i]).tolist():
                cells[k + 1] = ""
            lines[i] = ",".join(cells)
        header = "timestamp," + ",".join(self.labels())
        (self.dir / "prices.csv").write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")

        loaded = {label: self.size - int(blank[:, k].sum()) for k, label in enumerate(self.labels())}
        aligned = self.size - int(blank.any(axis=1).sum())
        self.expected_alignment = {
            "aligned_rows": aligned,
            "loaded_rows": loaded,
            "rows_dropped_by_alignment": {label: n - aligned for label, n in loaded.items()},
        }
        symbols = aligned // self.block - 1  # block means, then log returns
        pairs = self.assets * (self.assets - 1)
        self.requested_windows = pairs * (self.surrogates + 1) * (symbols - 2)

    def commands(self):
        flow, net = self.rel("flow.csv"), self.rel("net.svg")
        matrix = [
            "matrix", "--data", self.rel("prices.csv"), "--block", str(self.block),
            "--bins", "quantile", "--log-returns", "--q", "1.5", "--m", "1", "--l", "1",
            "--surrogates", str(self.surrogates), "--seed", str(self.seed),
            "--out", flow, "--format", "csv",
        ]
        netflow = ["netflow", "--from-matrix", flow, "--out", net, "--format", "svg"]
        manifest = self.rel("flow.manifest.json")
        return [
            Command(matrix, (flow, manifest), self.check_matrix),
            Command(netflow, (net,), self.check_netflow),
        ]

    def _flow(self) -> np.ndarray:
        with open(self.dir / "flow.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0][1:] != self.labels() or [r[0] for r in rows[1:]] != self.labels():
            raise CheckError(f"flow matrix labels are {rows[0]}")
        return np.array([[float(c) if c else math.nan for c in r[1:]] for r in rows[1:]])

    def check_matrix(self):
        flow = self._flow()
        n = self.assets
        if not np.all(np.isnan(np.diag(flow))):
            raise CheckError("flow matrix diagonal is not blank")
        planted = np.zeros((n, n), dtype=bool)
        planted[np.arange(1, n), np.arange(n - 1)] = True  # row = target k, column = source k-1
        unplanted = ~planted & ~np.eye(n, dtype=bool)
        weakest = flow[planted].min()
        strongest_other = np.abs(flow[unplanted]).max()
        if not weakest > 10.0 * strongest_other:
            raise CheckError(
                f"planted entries (min {weakest:.4g}) are not 10x the others (max {strongest_other:.4g})"
            )
        manifest = json.loads((self.dir / "flow.manifest.json").read_text(encoding="utf-8"))
        alignment = manifest["parameters"]["alignment"]
        for key, expected in self.expected_alignment.items():
            if alignment[key] != expected:
                raise CheckError(f"manifest {key} is {alignment[key]}, generator planted {expected}")

    def check_netflow(self):
        text = (self.dir / "net.svg").read_text(encoding="utf-8")
        if not (text.startswith("<svg") and text.endswith("</svg>\n")):
            raise CheckError("netflow output is not a complete SVG document")
        shown = [float(v) for v in re.findall(r'font-size="8">(-?[0-9.]+)</text>', text)]
        n = self.assets
        if len(shown) != n * n:
            raise CheckError(f"netflow SVG shows {len(shown)} cells, expected {n * n}")
        net = np.array(shown).reshape(n, n)
        flow = np.nan_to_num(self._flow())
        if np.abs(net - (flow - flow.T)).max() > 1.5e-3:
            raise CheckError("netflow SVG cells differ from T(j->i) - T(i->j) of the matrix")


def check_plugin(row: dict, target: np.ndarray, source: np.ndarray, alphabet: int,
                 m: int, q: float) -> None:
    """The row's raw value must equal the independent plug-in estimate."""
    expected = plugin_te(target, source, alphabet, m, q)
    if abs(float(row["raw"]) - expected) > 1e-9:
        raise CheckError(
            f"{row['source']}->{row['target']} raw at m={m}, q={q} is {row['raw']}, "
            f"plug-in count gives {expected!r}"
        )


class SynthVerify(Workload):
    name = "synth_verify"
    alphabet = 3
    fidelity = 0.75
    orders = (0.5, 0.8, 1.0, 1.5, 2.0, 3.0)
    surrogates = 20
    baseline_counts = {"surrogate.make_surrogate_redundant": 200, "transfer.count_words_redundant": 210}
    sizes = (50_000, 20_000)  # series length, full and quick

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        windows = self.size - 2
        self.requested_windows = len(self.orders) * 2 * (self.surrogates + 1) * windows

    def _preset(self) -> list[str]:
        return ["--preset", "noisy-copy", "--preset-alphabet", str(self.alphabet),
                "--preset-fidelity", str(self.fidelity)]

    def commands(self):
        synth = self.rel("synth.csv")
        cmds = [Command(
            ["gen-synth", *self._preset(), "--length", str(self.size),
             "--seed", str(self.seed), "--out", synth],
            (synth,), self.check_synth,
        )]
        for i, q in enumerate(self.orders):
            out = self.rel(f"oracle{i}.json")
            cmds.append(Command(
                ["oracle", *self._preset(), "--q", str(q), "--out", out],
                (out,), lambda out=out, q=q: self.check_oracle(out, q),
            ))
        sweep = self.rel("qsweep.csv")
        cmds.append(Command(
            ["sweep-q", "--data", synth, "--timestamp-column", "t", "--source", "y",
             "--target", "x", "--pre-symbolized", "--alphabet", str(self.alphabet),
             "--q-grid", ",".join(str(q) for q in self.orders),
             "--surrogates", str(self.surrogates), "--seed", str(self.seed),
             "--out", sweep, "--format", "csv"],
            (sweep,), self.check_sweep,
        ))
        return cmds

    def check_synth(self):
        with open(self.dir / "synth.csv", encoding="utf-8") as fh:
            header = fh.readline()
        if header != "t,x,y\n":
            raise CheckError(f"gen-synth header is {header!r}")
        self.x, self.y = read_symbols(self.dir / "synth.csv")
        symbols = set(np.unique(self.x)) | set(np.unique(self.y))
        if self.x.size != self.size or symbols != set(range(self.alphabet)):
            raise CheckError(f"gen-synth wrote {self.x.size} rows over symbols {sorted(symbols)}")

    def check_oracle(self, out: str, q: float):
        value = json.loads((self.root / out).read_text(encoding="utf-8"))["transfer_entropy_bits"]
        exact = noisy_copy_te(self.alphabet, self.fidelity, q)
        if abs(value - exact) > 1e-9:
            raise CheckError(f"oracle at q={q} gave {value}, closed form is {exact}")

    def check_sweep(self):
        # The sample's own copy fidelity scatters about the process value, which
        # moves the raw value by about 1.1/sqrt(L) bits (one standard error), the
        # same way at every q.  The surrogate-corrected X->Y null stayed within
        # 15/L bits over ten seeds.
        oracle_tol = 6.0 / math.sqrt(self.size)
        null_tol = 200.0 / self.size
        rows = read_sweep(self.dir / "qsweep.csv")
        if len(rows) != 2 * len(self.orders):
            raise CheckError(f"sweep-q wrote {len(rows)} rows")
        err = 0.0
        for q, source, row in zip(np.repeat(self.orders, 2), ["y", "x"] * len(self.orders), rows):
            if float(row["q"]) != q or row["source"] != source:
                raise CheckError(f"sweep-q row order differs at q={row['q']}")
            if row["source"] == "y":
                check_plugin(row, self.x, self.y, self.alphabet, 1, q)
                delta = abs(float(row["raw"]) - noisy_copy_te(self.alphabet, self.fidelity, q))
                if delta > oracle_tol:
                    raise CheckError(f"Y->X raw at q={q} is {delta:.3g} bits off the oracle")
                err = max(err, delta)
            else:
                check_plugin(row, self.y, self.x, self.alphabet, 1, q)
                if abs(float(row["effective"])) > null_tol:
                    raise CheckError(f"X->Y effective at q={q} is {row['effective']}, expected ~0")
        self.oracle_err_bits = err


class MemoryScan(Workload):
    name = "memory_scan"
    alphabet = 4
    fidelity = 0.6
    histories = (1, 2, 3, 4)
    q = 1.5
    surrogates = 10
    baseline_counts = {"surrogate.make_surrogate_redundant": 60, "transfer.count_words_redundant": 0}
    sizes = (50_000, 20_000)  # series length, full and quick

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.x, self.y = noisy_copy_series(self.alphabet, self.fidelity, self.size, self.seed)
        lines = ["t,x,y"]
        lines.extend(f"{t},{a},{b}" for t, (a, b) in
                     enumerate(zip(self.x.tolist(), self.y.tolist())))
        (self.dir / "series.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.requested_windows = sum(
            2 * (self.surrogates + 1) * (self.size - m - 1) for m in self.histories
        )

    def commands(self):
        sweep = self.rel("msweep.csv")
        argv = [
            "sweep-m", "--data", self.rel("series.csv"), "--timestamp-column", "t",
            "--source", "y", "--target", "x", "--pre-symbolized",
            "--alphabet", str(self.alphabet),
            "--m-grid", ",".join(str(m) for m in self.histories), "--q", str(self.q),
            "--surrogates", str(self.surrogates), "--seed", str(self.seed),
            "--out", sweep, "--format", "csv",
        ]
        return [Command(argv, (sweep,), self.check_sweep)]

    def check_sweep(self):
        # One standard error of the m = 1 raw value is about 1/sqrt(L) bits.
        oracle_tol = 4.5 / math.sqrt(self.size)
        rows = read_sweep(self.dir / "msweep.csv")
        if len(rows) != 2 * len(self.histories):
            raise CheckError(f"sweep-m wrote {len(rows)} rows")
        for m, source, row in zip(np.repeat(self.histories, 2), ["y", "x"] * len(self.histories), rows):
            if int(row["m"]) != m or row["source"] != source:
                raise CheckError(f"sweep-m row order differs at m={row['m']}")
            if int(row["n_windows"]) != self.size - m - 1:
                raise CheckError(f"sweep-m row m={row['m']} has {row['n_windows']} windows")
            if row["source"] == "y":
                check_plugin(row, self.x, self.y, self.alphabet, m, self.q)
            else:
                check_plugin(row, self.y, self.x, self.alphabet, m, self.q)
        err = abs(float(rows[0]["raw"]) - noisy_copy_te(self.alphabet, self.fidelity, self.q))
        if err > oracle_tol:
            raise CheckError(f"m=1 Y->X raw is {err:.3g} bits off the q={self.q} oracle")
        self.oracle_err_bits = err


def make(name: str, work: Path, root: Path, seed: int, quick: bool) -> Workload:
    cls = {"matrix_csv": MatrixCsv, "synth_verify": SynthVerify, "memory_scan": MemoryScan}[name]
    return cls(work, root, seed, quick)
