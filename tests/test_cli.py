"""End-to-end command line coverage."""

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import renflow.surrogate
import renflow.transfer
from renflow import synth
from renflow.cli import build_parser, main


DATA = {
    "--data", "--timestamp-column", "--tz-offset",
    "--alphabet", "--block", "--bins", "--log-returns", "--pre-symbolized",
}
PAIR = ["--source", "A", "--target", "B"]
ENSEMBLE = {"--surrogates", "--surrogate-block", "--seed"}
PROCESS = {"--spec", "--preset", "--preset-alphabet", "--preset-fidelity"}
TABLE, IMAGE = ["csv", "json"], ["csv", "json", "svg"]
MATRIX_HEADER = "target\\source,A,B"
README = Path(__file__).resolve().parents[1] / "README.md"
HALF_TARGET = "[[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]"
HALF_SPEC = '"alphabet_size": 2, "source_transition": [[0.5, 0.5], [0.5, 0.5]]'
SYNTH_DATA = ["--data", "@synth.csv", "--timestamp-column", "t", "--alphabet", "3",
              "--surrogates", "2"]
SYNTH_PAIR = ["--source", "y", "--target", "x", *SYNTH_DATA]
TE_SYNTH = ["te", *SYNTH_PAIR]


def subcommands() -> dict:
    """The parser of each subcommand, by name."""
    (commands,) = [
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return commands


def bounded_options() -> list:
    """(command, option) for every option whose type takes 5 but refuses -1 as a
    usage error, read from the parser itself."""
    found = []
    for command, parser in subcommands().items():
        for action in (a for a in parser._actions if a.type is not None):
            try:
                action.type("5")
            except argparse.ArgumentTypeError:  # not a number option, such as --tz-offset
                continue
            try:
                action.type("-1")
            except argparse.ArgumentTypeError:
                found.append((command, action.option_strings[0]))
    return found


@pytest.fixture
def synth_csv(tmp_path):
    """Symbol CSV from the deterministic copy process."""
    path = tmp_path / "synth.csv"
    code = main([
        "gen-synth", "--preset", "copy", "--length", "8000",
        "--seed", "7", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture
def price_csv(tmp_path):
    """Numeric CSV with three random-walk price columns, B driven by A."""
    rng = np.random.default_rng(21)
    n = 6000
    a = np.cumsum(rng.normal(0, 1.0, size=n)) + 100
    # B tracks A's previous level plus noise: directed A -> B coupling
    b = np.empty(n)
    b[0] = a[0]
    b[1:] = a[:-1] + rng.normal(0, 0.5, size=n - 1)
    c = np.cumsum(rng.normal(0, 1.0, size=n)) + 100
    lines = ["timestamp,A,B,C"]
    lines += [f"{t},{a[t]:.6f},{b[t]:.6f},{c[t]:.6f}" for t in range(n)]
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def comma_label_csv(tmp_path):
    """Random-walk prices under the labels `S&P,500` (quoted) and DAX."""
    rng = np.random.default_rng(8)
    prices = 100 + np.cumsum(rng.normal(0, 1.0, size=(800, 2)), axis=0)
    lines = ['timestamp,"S&P,500",DAX']
    lines += [f"{t},{a:.6f},{b:.6f}" for t, (a, b) in enumerate(prices.tolist())]
    path = tmp_path / "indices.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestGenSynthAndOracle:
    def test_gen_synth_writes_symbol_csv(self, synth_csv):
        lines = synth_csv.read_text().strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 8001

    @pytest.mark.parametrize("alphabet", [2, 5])
    def test_gen_synth_writes_the_csv_writer_bytes(self, tmp_path, alphabet):
        # past the 200-row golden: t runs to five digits
        out = tmp_path / "synth.csv"
        assert main(["gen-synth", "--preset", "noisy-copy", "--preset-alphabet", str(alphabet),
                     "--length", "12345", "--seed", "8", "--out", str(out)]) == 0
        x, y = synth.generate(synth.noisy_copy_spec(alphabet, 0.75), 12345, 8)
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            [("t", "x", "y"), *zip(range(12345), x.symbols.tolist(), y.symbols.tolist())])
        assert out.read_bytes() == expected.getvalue().encode("utf-8")

    def test_oracle_copy_process(self, capsys):
        assert main(["oracle", "--preset", "copy", "--q", "1.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transfer_entropy_bits"] == pytest.approx(math.log2(3), abs=1e-12)

    def test_oracle_from_spec_file(self, tmp_path, capsys):
        from renflow import noisy_copy_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(noisy_copy_spec(2, 0.75).to_json(), encoding="utf-8")
        assert main(["oracle", "--spec", str(spec_path), "--q", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transfer_entropy_bits"] == pytest.approx(0.188722, abs=1e-6)

    @pytest.mark.parametrize("command", [["oracle", "--q", "1.5"],
                                         ["gen-synth", "--length", "300", "--seed", "2"]],
                             ids=["oracle", "gen-synth"])
    def test_spec_file_with_byte_order_mark_reads_as_without(self, tmp_path, command):
        # Windows Notepad and spreadsheet tools save UTF-8 text with a leading mark
        from renflow import noisy_copy_spec

        text = noisy_copy_spec(3, 0.75).to_json()
        outs = []
        for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
            spec_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
            spec_path.write_text(text, encoding=encoding)
            assert main([*command, "--spec", str(spec_path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert (tmp_path / "marked.json").read_bytes().startswith(b"\xef\xbb\xbf")
        assert outs[0] == outs[1]

    def test_oracle_extreme_order_is_reported(self, capsys):
        code = main(["oracle", "--preset", "noisy-copy", "--preset-alphabet", "3",
                     "--q", "2000"])
        assert code == 2
        assert "q=2000" in capsys.readouterr().err

    def test_oracle_order_with_a_subnormal_power_sum_is_reported(self, capsys):
        # the copy table's sum of p^q leaves the normal range at q = 324: 4.4e-323 at q = 339
        assert main(["oracle", "--preset", "copy", "--q", "323"]) == 0
        value = json.loads(capsys.readouterr().out)["transfer_entropy_bits"]
        assert value == pytest.approx(math.log2(3), rel=0, abs=2.3e-16)
        assert main(["oracle", "--preset", "copy", "--q", "339"]) == 2
        assert "at Renyi order q=339.0, beyond floating point" in capsys.readouterr().err

    def test_oracle_requires_spec_or_preset(self, capsys):
        assert main(["oracle", "--q", "1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"alphabet_size": 2}', "'source_transition'"),
        ("alphabet_size: 2", "not JSON"),
        ('{"alphabet_size": ' + "9" * 5000 + "}", "not JSON: Exceeds the limit"),
        ("[1, 2]", "must be a JSON object"),
        ('{"alphabet_size": null, "source_transition": [], "target_transition": []}',
         "alphabet_size must be an integer"),
        ('{"alphabet_size": true, "source_transition": [], "target_transition": []}',
         "alphabet_size must be an integer, got True"),
        ('{"alphabet_size": 2, "source_transition": [["a", "b"], [0.5, 0.5]], '
         '"target_transition": []}', "source_transition must be a non-empty one-dimensional "
         "array of numbers, got shape (4,) of dtype <U32"),
        ('{"alphabet_size": 2, "source_transition": [[null, 1.0], [0.5, 0.5]], '
         f'"target_transition": {HALF_TARGET}}}', "source_transition must be a non-empty "
         "one-dimensional array of numbers, got shape (4,) of dtype object"),
        ('{"alphabet_size": 2, "source_transition": [["0.5", "0.5"], ["0.5", "0.5"]], '
         f'"target_transition": {HALF_TARGET}}}', "source_transition must be a non-empty "
         "one-dimensional array of numbers, got shape (4,) of dtype <U3"),
        ('{"alphabet_size": 2, "source_transition": [[true, false], [false, true]], '
         f'"target_transition": {HALF_TARGET}}}', "source_transition must be a non-empty "
         "one-dimensional array of numbers, got shape (4,) of dtype bool"),
        ('{"alphabet_size": 2, "source_transition": [[0.5, 0.5], [1.0]], '
         f'"target_transition": {HALF_TARGET}}}',
         "source_transition must be a rectangular array, got a ragged nesting of sequences"),
        (f'{{{HALF_SPEC}, "initial_source": [0.5, 0.5]}}', "unknown key 'initial_source'"),
        (f'{{{HALF_SPEC}, "target_transiton": {HALF_TARGET}}}', "unknown key 'target_transiton'"),
        ('{"alphabet_size": 2, "source_transition": [[1.0, 0.0], [0.0, 1.0]], '
         '"target_transition": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]}',
         "more than one closed class"),
    ], ids=["missing-key", "not-json", "huge-integer", "not-an-object", "null-alphabet",
            "bool-alphabet", "non-numeric-cell", "null-cell", "quoted-cells", "bool-cells",
            "ragged-rows", "initial-key", "misspelled-key", "two-laws"])
    def test_malformed_spec_file_is_reported(self, tmp_path, capsys, text, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text, encoding="utf-8")
        assert main(["oracle", "--spec", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_gen_synth_spec_equals_its_preset(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"alphabet_size": 3, "source_transition": [[1 / 3] * 3] * 3,
                        "target_transition": [[[0.75 if u == y else 0.125 for u in range(3)]
                                               for y in range(3)]] * 3}),
            encoding="utf-8",
        )
        outs = [tmp_path / "spec.csv", tmp_path / "preset.csv"]
        for source, out in zip([["--spec", str(spec_path)], ["--preset", "noisy-copy"]], outs):
            assert main(["gen-synth", *source, "--length", "2000", "--seed", "5",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("command, alphabet, message", [
        (["oracle", "--preset", "copy"], "10000000", "alphabet 10000000 needs 10000000**3 cells"),
        (["oracle", "--preset", "independent"], "65", "alphabet 65 needs 65**4 cells"),
        (["gen-synth", "--preset", "noisy-copy", "--length", "10"], "10000000",
         "alphabet 10000000 needs 10000000**3 cells"),
    ], ids=["oracle-preset", "oracle-chain", "gen-synth-preset"])
    def test_oversized_alphabet_is_reported(self, tmp_path, capsys, command, alphabet, message):
        out = tmp_path / "out"
        assert main([*command, "--preset-alphabet", alphabet, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_empty_preset_alphabet_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", "--preset", "independent", "--preset-alphabet", "0",
                  "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --preset-alphabet: value must be at least 2, got 0" in err
        assert not out.exists()

    def test_oracle_on_a_chain_that_does_not_converge_is_reported(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(synth, "_POWER_MAX_ITER", 3)
        spec_path = tmp_path / "periodic.json"
        spec_path.write_text(json.dumps({
            "alphabet_size": 3,
            "source_transition": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "target_transition": [[[1 / 3] * 3] * 3] * 3,
        }), encoding="utf-8")
        assert main(["oracle", "--spec", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "power iteration did not converge" in err


class TestTe:
    def test_copy_process_effective(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "te.json"
        code = main([
            "te", "--data", str(synth_csv), "--timestamp-column", "t",
            "--source", "y", "--target", "x", "--pre-symbolized",
            "--alphabet", "3", "--q", "1", "--surrogates", "5",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["direction"] == "y->x"
        assert payload["effective_bits"] == pytest.approx(math.log2(3), abs=0.05)

    def test_reverse_direction_near_zero(self, synth_csv, capsys):
        code = main([
            "te", "--data", str(synth_csv), "--timestamp-column", "t",
            "--source", "x", "--target", "y", "--pre-symbolized",
            "--alphabet", "3", "--q", "1", "--surrogates", "5", "--seed", "1",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["effective_bits"]) <= 0.01

    def test_extreme_order_is_reported(self, tmp_path, capsys):
        path = tmp_path / "noisy.csv"
        assert main(["gen-synth", "--preset", "noisy-copy", "--preset-alphabet", "3",
                     "--length", "20000", "--seed", "3", "--out", str(path)]) == 0
        code = main([
            "te", "--data", str(path), "--timestamp-column", "t",
            "--source", "y", "--target", "x", "--pre-symbolized",
            "--alphabet", "3", "--q", "300", "--surrogates", "2",
        ])
        assert code == 2
        assert "q=300" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["te", "--source", "", "--target", "Y"], ["matrix"]],
                             ids=["te", "matrix"])
    def test_blank_value_label_is_reported(self, tmp_path, capsys, argv):
        path = tmp_path / "blank.csv"
        rows = "".join(f"{t},{100 + t % 7},{50 - t % 5}\n" for t in range(60))
        path.write_text("timestamp,,Y\n" + rows, encoding="utf-8")
        out = tmp_path / "out.json"
        assert main([*argv, "--data", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: the value column at header position 2 has a blank label\n"
        assert not out.exists()

    def test_missing_file_is_reported(self, capsys, tmp_path):
        code = main([
            "te", "--data", str(tmp_path / "nope.csv"),
            "--source", "a", "--target", "b",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_series_with_no_full_window_is_reported_as_too_short(self, tmp_path, capsys):
        # 40 symbols at m = 40 leave no window; the refusal comes before the code space
        # of 3^42 words, which is also too large to encode
        path = tmp_path / "short.csv"
        rows = "".join(f"{t},{100 + t % 7},{50 - t % 5}\n" for t in range(40))
        path.write_text("timestamp,A,B\n" + rows, encoding="utf-8")
        assert main(["te", *PAIR, "--data", str(path), "--m", "40", "--surrogates", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: pair A->B failed: series of length 40 too short for histories m=40, l=1\n")

    def test_code_space_too_large_is_reported(self, synth_csv, capsys):
        code = main([
            "te", "--data", str(synth_csv), "--timestamp-column", "t",
            "--source", "y", "--target", "x", "--pre-symbolized",
            "--alphabet", "60", "--m", "6", "--l", "6", "--surrogates", "0",
        ])
        assert code == 2
        assert "alphabet^history too large to encode" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["te", "--source", "A", "--target", "A"], "column 'A' is named more than once"),
        (["matrix", "--labels", "A,A,B"], "column 'A' is named more than once"),
        (["te", *PAIR, "--tz-offset", "AA=60"], "no 'AA' value column to offset"),
        (["matrix", "--tz-offset", "A=60", "--tz-offset", "AA=60"], "no 'AA' value column"),
        (["te", "--source", "timestamp", "--target", "A"], "no 'timestamp' value column"),
        (["te", *PAIR, "--tz-offset", "C=60"], "column 'C' has a clock offset but is not read"),
        (["matrix", "--labels", "A,B", "--tz-offset", "C=60"],
         "column 'C' has a clock offset but is not read"),
    ], ids=["te-same-column", "matrix-repeated-label", "te-offset", "matrix-offset",
            "te-timestamp", "te-offset-not-read", "matrix-offset-not-read"])
    def test_column_selection_errors_are_reported(self, price_csv, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--data", str(price_csv), "--surrogates", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_surrogate_block_as_long_as_series_is_reported(self, synth_csv, capsys):
        argv = [str(synth_csv) if a == "@synth.csv" else a for a in TE_SYNTH]
        assert main([*argv, "--surrogate-block", "8000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "surrogate block of 8000 symbols cannot shuffle series 'y' of length 8000" in err

    def test_unwritable_output_is_reported(self, synth_csv, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main([
            "te", "--data", str(synth_csv), "--timestamp-column", "t",
            "--source", "y", "--target", "x", "--pre-symbolized",
            "--alphabet", "3", "--surrogates", "0",
            "--out", str(blocker / "sub" / "out.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSymbolizeCommand:
    def test_json_output(self, price_csv, tmp_path):
        out = tmp_path / "symbols.json"
        code = main([
            "symbolize", "--data", str(price_csv), "--alphabet", "3",
            "--block", "4", "--bins", "quantile",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        labels = [s["label"] for s in payload["series"]]
        assert labels == ["A", "B", "C"]
        for entry in payload["series"]:
            assert entry["alphabet_size"] == 3
            assert len(entry["bin_edges"]) == 2
            assert max(entry["symbols"]) <= 2

    def test_csv_output_long_format(self, price_csv, capsys):
        code = main([
            "symbolize", "--data", str(price_csv), "--labels", "A",
            "--alphabet", "3", "--format", "csv",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "label,position,symbol"
        assert lines[1].startswith("A,0,")

    def test_csv_comma_label_reads_back_as_one_field(self, comma_label_csv, tmp_path):
        out = tmp_path / "symbols.csv"
        assert main(["symbolize", "--data", str(comma_label_csv), "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        assert {len(row) for row in rows} == {3}
        assert {row[0] for row in rows[1:]} == {"S&P,500", "DAX"}

    def test_csv_output_is_the_csv_writer_bytes_of_the_json_symbols(self, tmp_path):
        # labels that the csv module quotes, and % signs that a format template must not read
        data = tmp_path / "percent.csv"
        rng = np.random.default_rng(30)
        lines = ['timestamp,"50%,""A""",B%d%%,%']
        lines += [f"{t},{a:.4f},{b:.4f},{c:.4f}" for t, (a, b, c) in enumerate(rng.random((40, 3)))]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = {fmt: tmp_path / f"symbols.{fmt}" for fmt in ("csv", "json")}
        for fmt, path in out.items():
            assert main(["symbolize", "--data", str(data), "--format", fmt, "--out", str(path)]) == 0
        series = json.loads(out["json"].read_text(encoding="utf-8"))["series"]
        assert [s["label"] for s in series] == ['50%,"A"', "B%d%%", "%"]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            [("label", "position", "symbol"),
             *((s["label"], i, v) for s in series for i, v in enumerate(s["symbols"]))])
        assert out["csv"].read_bytes() == expected.getvalue().encode("utf-8")

    def test_labels_option_selects_quoted_comma_label(self, comma_label_csv, tmp_path):
        out = tmp_path / "symbols.csv"
        code = main([
            "symbolize", "--data", str(comma_label_csv), "--labels", '"S&P,500"',
            "--out", str(out),
        ])
        assert code == 0
        assert {row[0] for row in read_csv_rows(out)[1:]} == {"S&P,500"}

    def test_log_returns_of_a_single_block_are_reported(self, price_csv, capsys):
        code = main(["symbolize", "--data", str(price_csv), "--block", "6000", "--log-returns"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "log returns need at least two samples" in err


class TestMatrixAndNetflow:
    def test_matrix_manifest_and_netflow(self, price_csv, tmp_path):
        out = tmp_path / "flow.csv"
        code = main([
            "matrix", "--data", str(price_csv), "--alphabet", "3",
            "--bins", "quantile", "--q", "1", "--surrogates", "5",
            "--seed", "3", "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "flow.manifest.json").read_text())
        assert manifest["command"] == "matrix"
        assert manifest["parameters"]["labels"] == ["A", "B", "C"]
        assert "sha256" in manifest["input"]
        assert "timings" not in manifest

        from renflow import parse_matrix_csv

        matrix = parse_matrix_csv(out)
        i_a, i_b = matrix.labels.index("A"), matrix.labels.index("B")
        assert matrix.values[i_b, i_a] > matrix.values[i_a, i_b]

        net_out = tmp_path / "net.csv"
        code = main([
            "netflow", "--from-matrix", str(out), "--out", str(net_out),
            "--format", "csv",
        ])
        assert code == 0
        lines = net_out.read_text().strip().splitlines()
        assert lines[0] == "target\\source,A,B,C"

    @pytest.mark.parametrize("labels, expected", [
        ('DAX,"S&P,500"', ["DAX", "S&P,500"]),
        ('"S&P,500",DAX', ["S&P,500", "DAX"]),
    ])
    def test_labels_option_accepts_quoted_comma_label(
        self, comma_label_csv, tmp_path, labels, expected
    ):
        out = tmp_path / "flow.csv"
        code = main([
            "matrix", "--data", str(comma_label_csv), "--labels", labels,
            "--surrogates", "1", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "flow.manifest.json").read_text())
        assert manifest["parameters"]["labels"] == expected
        assert read_csv_rows(out)[0][1:] == expected

    def test_labels_option_plain_list(self, price_csv, tmp_path):
        out = tmp_path / "flow.csv"
        code = main([
            "matrix", "--data", str(price_csv), "--labels", "C,A",
            "--surrogates", "1", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "flow.manifest.json").read_text())
        assert manifest["parameters"]["labels"] == ["C", "A"]

    @pytest.mark.parametrize("lines, message", [
        ([MATRIX_HEADER, "A,,0.1", "B,0.2,", "C,0.3,0.4"], "data row 3 ('C')"),
        ([MATRIX_HEADER, "A,,0.1,0.5", "B,0.2,"], "data row 1 ('A')"),
        ([MATRIX_HEADER, "A,,abc", "B,0.2,"], "data row 1 ('A') holds a cell that is not a number"),
        ([MATRIX_HEADER, "A,,0.1"], "data row 2 ('B') is missing"),
        ([MATRIX_HEADER, "A,", "B,0.2,"], "data row 1 ('A') has 2 cells, not 3"),
        (["target\\source,A,A", "A,,0.1", "A,0.2,"], "flow matrix label 'A' is repeated"),
        ([], "empty matrix file"),
    ], ids=["extra-row", "long-row", "non-numeric-cell", "missing-row", "short-row",
            "repeated-label", "empty-file"])
    def test_netflow_rejects_malformed_matrix(self, tmp_path, capsys, lines, message):
        path = tmp_path / "flow.csv"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        code = main(["netflow", "--from-matrix", str(path), "--out", str(tmp_path / "net.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and message in err

    def test_blank_column_is_reported(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        rows = "".join(f"{t},{100 + t},{50 - t},\n" for t in range(40))
        path.write_text("timestamp,A,B,C\n" + rows, encoding="utf-8")
        out = tmp_path / "flow.csv"
        assert main(["matrix", "--data", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "column 'C' has no parseable rows" in err
        assert not out.exists()

    @pytest.mark.parametrize("header, argv, name, positions", [
        ("timestamp,A,timestamp,B", ["matrix"], "timestamp", (1, 3)),
        ("timestamp,A,timestamp,B", ["symbolize", "--labels", "timestamp,A"], "timestamp", (1, 3)),
        ("timestamp,A,A,B", ["matrix", "--labels", "A,B"], "A", (2, 3)),
    ], ids=["matrix-timestamp", "symbolize-timestamp", "matrix-label"])
    def test_name_at_two_header_positions_is_reported(self, tmp_path, capsys, header, argv,
                                                      name, positions):
        path = tmp_path / "prices.csv"
        rows = "".join(f"{t},{100 + t % 7},{50 - t % 5},{t % 3}\n" for t in range(60))
        path.write_text(f"{header}\n{rows}", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main([*argv, "--data", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: column {name!r} is named more than once, "
                              f"at header positions {positions[0]} and {positions[1]}")
        assert not out.exists()

    def test_matrix_reproducible_bytes(self, price_csv, tmp_path):
        args = [
            "matrix", "--data", str(price_csv), "--alphabet", "3",
            "--q", "0.8", "--surrogates", "3", "--seed", "11",
        ]
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = (tmp_path / "run1.manifest.json").read_text()
        m2 = (tmp_path / "run2.manifest.json").read_text()
        assert json.loads(m1)["parameters"]["output"] != json.loads(m2)["parameters"]["output"]
        p1 = json.loads(m1)["parameters"]; p1.pop("output")
        p2 = json.loads(m2)["parameters"]; p2.pop("output")
        assert p1 == p2

    def test_matrix_svg(self, price_csv, tmp_path):
        out = tmp_path / "flow.svg"
        code = main([
            "matrix", "--data", str(price_csv), "--alphabet", "3",
            "--q", "1", "--surrogates", "2", "--seed", "5",
            "--out", str(out), "--format", "svg",
        ])
        assert code == 0
        assert out.read_text().startswith("<svg")

    @pytest.mark.parametrize("command", ["matrix", "netflow"])
    def test_svg_label_xml_cannot_carry_is_reported(self, tmp_path, capsys, command):
        out = tmp_path / "flow.svg"
        if command == "matrix":
            path = tmp_path / "prices.csv"
            rows = "".join(f"{t},{100 + t % 7},{50 - t % 5}\n" for t in range(60))
            path.write_text("timestamp,A\x01x,B\n" + rows, encoding="utf-8")
            argv = ["matrix", "--data", str(path), "--surrogates", "2"]
        else:
            path = tmp_path / "flow.csv"
            path.write_text("target\\source,A\x01x,B\nA\x01x,,0.1\nB,0.2,\n", encoding="utf-8")
            argv = ["netflow", "--from-matrix", str(path)]
        assert main([*argv, "--out", str(out), "--format", "svg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "label 'A\\x01x' holds a character" in err
        assert not out.exists()

    def test_svg_label_is_checked_before_any_estimate(self, tmp_path, capsys, monkeypatch):
        calls, count_words = [], renflow.surrogate.count_words
        monkeypatch.setattr(renflow.surrogate, "count_words",
                            lambda *a: calls.append(a) or count_words(*a))
        path = tmp_path / "prices.csv"
        rows = "".join(f"{t},{100 + t % 7},{50 - t % 5}\n" for t in range(60))
        path.write_text("timestamp,A\x01x,B\n" + rows, encoding="utf-8")
        out = tmp_path / "flow.svg"
        argv = ["matrix", "--data", str(path), "--out", str(out), "--format", "svg"]
        assert main(argv) == 2
        assert "label 'A\\x01x' holds a character" in capsys.readouterr().err
        assert calls == []

    def test_data_naming_the_manifest_is_refused_before_any_estimate(
        self, price_csv, tmp_path, capsys, monkeypatch
    ):
        calls, count_words = [], renflow.surrogate.count_words
        monkeypatch.setattr(renflow.surrogate, "count_words",
                            lambda *a: calls.append(a) or count_words(*a))
        data = tmp_path / "flow.manifest.json"
        data.write_bytes(price_csv.read_bytes())
        out = tmp_path / "sub" / ".." / "flow.csv"
        (tmp_path / "sub").mkdir()
        assert main(["matrix", "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --data: is the same file as the run manifest")
        assert data.read_bytes() == price_csv.read_bytes()
        assert calls == [] and not (tmp_path / "flow.csv").exists()

    def test_tz_offset_past_int64_is_reported(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("timestamp,A,B\n-9223372036854775800,1.0,2.0\n0,1.5,2.5\n",
                        encoding="utf-8")
        code = main(["te", *PAIR, "--data", str(path), "--surrogates", "0", "--tz-offset", "A=60"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: a timestamp in column 'A' overflows int64")

    def test_matrix_timings_flag_records_stages(self, price_csv, tmp_path):
        out = tmp_path / "flow.csv"
        code = main([
            "matrix", "--data", str(price_csv), "--alphabet", "3",
            "--q", "1", "--surrogates", "2", "--seed", "5",
            "--out", str(out), "--timings",
        ])
        assert code == 0
        timings = json.loads((tmp_path / "flow.manifest.json").read_text())["timings"]
        assert set(timings["stages"]) == {"ingest", "estimate", "render"}
        stages = timings["stages"].values()
        assert all(type(t) is float and 0.0 < t < math.inf for t in stages)
        # the stages run one after another from the command's start to the matrix written
        assert sum(stages) == pytest.approx(timings["total_seconds"], rel=0, abs=1e-9)

    def test_manifest_records_surrogate_block(self, price_csv, tmp_path):
        parameters = []
        for block in ("3", "7"):
            ensemble = ["--data", str(price_csv), "--surrogates", "2", "--surrogate-block", block]
            out = tmp_path / block / "flow.json"
            assert main(["matrix", *ensemble, "--format", "json", "--out", str(out)]) == 0
            manifest = json.loads(out.with_suffix(".manifest.json").read_text())
            parameters.append(manifest["parameters"])
            records = [json.loads(out.read_text())["params"]]
            for command in ("sweep-q", "sweep-m"):
                sweep = tmp_path / block / f"{command}.json"
                assert main([command, *PAIR, *ensemble, "--format", "json",
                             "--out", str(sweep)]) == 0
                records.append(json.loads(sweep.read_text())["params"])
            assert [r["surrogate_block"] for r in records] == [int(block)] * 3
        assert parameters[0] != parameters[1]
        assert [p["surrogate_block"] for p in parameters] == [3, 7]
        assert {p["timestamp_column"] for p in parameters} == {"timestamp"}

    def test_te_records_the_ensemble_as_matrix_and_sweeps_do(self, price_csv, tmp_path):
        ensemble = ["--data", str(price_csv), "--surrogates", "2", "--seed", "-1",
                    "--surrogate-block", "3"]
        out = tmp_path / "te.json"
        assert main(["te", *PAIR, *ensemble, "--out", str(out)]) == 0
        te = json.loads(out.read_text())
        records = []
        for command in ("matrix", "sweep-q", "sweep-m"):
            path = tmp_path / f"{command}.json"
            pair = [] if command == "matrix" else PAIR
            assert main([command, *pair, *ensemble, "--format", "json",
                         "--out", str(path)]) == 0
            records.append(json.loads(path.read_text())["params"])
        keys = ("surrogate_method", "surrogate_ensemble", "surrogate_seed", "surrogate_block")
        assert "seed" not in te
        for record in records:
            assert {k: record[k] for k in keys} == {k: te[k] for k in keys}
        assert te["surrogate_seed"] == 2**64 - 1

    def test_manifest_records_the_seed_the_matrix_used(self, price_csv, tmp_path):
        out = tmp_path / "flow.json"
        assert main(["matrix", "--data", str(price_csv), "--surrogates", "2", "--seed", "-1",
                     "--format", "json", "--out", str(out)]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        matrix = json.loads(out.read_text())
        params = manifest["parameters"]
        assert params["surrogate_seed"] == matrix["params"]["surrogate_seed"] == 2**64 - 1
        assert {k: params[k] for k in matrix["params"]} == matrix["params"]
        assert "seed" not in params and "surrogates" not in params

    def test_manifest_records_alignment_and_offsets(self, price_csv, tmp_path):
        out = tmp_path / "flow.csv"
        code = main([
            "matrix", "--data", str(price_csv), "--alphabet", "3",
            "--q", "1", "--surrogates", "2", "--seed", "5",
            "--tz-offset", "A=60", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "flow.manifest.json").read_text())
        alignment = manifest["parameters"]["alignment"]
        assert alignment["tz_offsets_minutes"] == {"A": 60}
        # shifting A's clock breaks the common grid except where it overlaps
        assert alignment["aligned_rows"] < alignment["loaded_rows"]["A"]
        assert alignment["rows_dropped_by_alignment"]["A"] > 0

    def test_offset_of_a_label_containing_equals(self, price_csv, tmp_path):
        # Reuters FX codes such as EUR= end in "="; the minutes follow the last "="
        fx = tmp_path / "fx.csv"
        fx.write_text(price_csv.read_text(encoding="utf-8").replace(
            "timestamp,A,B,C", "timestamp,EUR=,JPY=,C", 1), encoding="utf-8")
        out = tmp_path / "flow.csv"
        assert main(["matrix", "--data", str(fx), "--labels", "EUR=,JPY=", "--surrogates", "1",
                     "--tz-offset", "EUR==60", "--out", str(out)]) == 0
        alignment = json.loads((tmp_path / "flow.manifest.json").read_text())[
            "parameters"]["alignment"]
        assert alignment["tz_offsets_minutes"] == {"EUR=": 60}
        # 60 minutes move EUR='s one-second stamps by 3,600 rows off JPY='s
        assert alignment["rows_dropped_by_alignment"] == {"EUR=": 3600, "JPY=": 3600}


class TestNumberOptions:
    @pytest.mark.parametrize("argv, message", [
        (["sweep-q", *PAIR, "--q-grid", "1,x"],
         "argument --q-grid: expected comma-separated float values, got '1,x'"),
        (["sweep-m", *PAIR, "--m-grid", "1,x"],
         "argument --m-grid: expected comma-separated int values, got '1,x'"),
        (["te", *PAIR, "--tz-offset", "A=x"],
         "argument --tz-offset: expected LABEL=MINUTES, got 'A=x'"),
        (["te", *PAIR, "--tz-offset", "=60"],
         "argument --tz-offset: expected LABEL=MINUTES, got '=60'"),
        (["te", *PAIR, "--tz-offset", "A="],
         "argument --tz-offset: expected LABEL=MINUTES, got 'A='"),
        (["te", *PAIR, "--tz-offset", "A=1", "--tz-offset", "A=0"],
         "argument --tz-offset: column 'A' is offset more than once"),
        (["symbolize", "--labels", ""], "argument --labels: expected at least one label, got ''"),
        (["te", *PAIR, "--surrogates", "-1"],
         "argument --surrogates: value must be at least 0, got -1"),
        (["te", *PAIR, "--block", "0"], "argument --block: value must be at least 1, got 0"),
        (["te", *PAIR, "--q", "-1"], "argument --q: Renyi order must be a positive real, got -1.0"),
        (["sweep-q", *PAIR, "--q-grid", "1,0"],
         "argument --q-grid: Renyi order must be a positive real, got 0.0"),
        (["sweep-m", *PAIR, "--m-grid", "1,0"],
         "argument --m-grid: value must be at least 1, got 0"),
        (["oracle", "--preset", "noisy-copy", "--preset-fidelity", "0"],
         "argument --preset-fidelity: fidelity must lie in (0, 1], got 0.0"),
    ], ids=["q-grid", "m-grid", "tz-offset", "tz-offset-no-label", "tz-offset-no-minutes",
            "tz-offset-twice", "empty-labels",
            "surrogates-below-0", "block-below-1", "q-negative", "q-grid-entry-0", "m-grid-entry-0",
            "fidelity-0"])
    def test_bad_value_is_a_usage_error(self, price_csv, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--data", str(price_csv), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_only_the_seed_skips_a_library_rule(self):
        """Every other number option parses through the library rule of its field;
        `--preset-fidelity` refuses 5 too, so no bound test finds it."""
        bare = {action.option_strings[0] for sub in subcommands().values()
                for action in sub._actions if action.type in (int, float)}
        assert bare == {"--seed"}
        assert {option for _, option in bounded_options()} == {
            "--alphabet", "--block", "--m", "--l", "--q", "--surrogates", "--surrogate-block",
            "--preset-alphabet", "--length", "--min-windows", "--m-grid", "--q-grid",
        }

    @pytest.mark.parametrize("command, option", bounded_options())
    def test_a_value_below_its_bound_names_the_option(self, capsys, command, option):
        with pytest.raises(SystemExit) as exit_info:
            main([command, option, "-1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert re.search(f"argument {option}: (value must be at least [0-2]|"
                         "Renyi order must be a positive real), got -1", err)


class TestCommandLineSurface:
    @pytest.mark.parametrize("command, options, formats", [
        ("symbolize", DATA | {"--labels", "--out", "--format"}, TABLE),
        ("te", DATA | {"--source", "--target", "--m", "--l", "--q", "--out"} | ENSEMBLE, None),
        ("matrix", DATA | {"--labels", "--m", "--l", "--q", "--out", "--format", "--timings"}
         | ENSEMBLE, IMAGE),
        ("netflow", {"--from-matrix", "--out", "--format"}, IMAGE),
        ("sweep-q", DATA | {"--source", "--target", "--m", "--l", "--q-grid", "--out", "--format"}
         | ENSEMBLE, TABLE),
        ("sweep-m", DATA | {"--source", "--target", "--m-grid", "--q", "--min-windows", "--out",
                            "--format"} | ENSEMBLE, TABLE),
        ("gen-synth", PROCESS | {"--length", "--seed", "--out"}, None),
        ("oracle", PROCESS | {"--q", "--out"}, None),
    ], ids=["symbolize", "te", "matrix", "netflow", "sweep-q", "sweep-m", "gen-synth", "oracle"])
    def test_command_takes_exactly_its_options(self, command, options, formats):
        actions = subcommands()[command]._actions
        assert {s for a in actions for s in a.option_strings} == options | {"-h", "--help"}
        format_choices = [list(a.choices) for a in actions if a.dest == "format"]
        assert format_choices == ([formats] if formats else [])

    @pytest.mark.parametrize("argv, message", [
        (["te", *PAIR, "--format", "csv"], "unrecognized arguments: --format csv"),
        (["symbolize", "--format", "svg"], "argument --format: invalid choice: 'svg'"),
        (["sweep-q", *PAIR, "--format", "svg"], "argument --format: invalid choice: 'svg'"),
        (["sweep-m", *PAIR, "--format", "svg"], "argument --format: invalid choice: 'svg'"),
    ], ids=["te-format", "symbolize-svg", "sweep-q-svg", "sweep-m-svg"])
    def test_unwritable_format_is_a_usage_error(self, price_csv, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--data", str(price_csv), "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        ([*TE_SYNTH, "--pre-symbolized", "--block", "2"],
         "argument --block: has no effect with --pre-symbolized"),
        ([*TE_SYNTH, "--pre-symbolized", "--bins", "quantile"],
         "argument --bins: has no effect with --pre-symbolized"),
        ([*TE_SYNTH, "--pre-symbolized", "--log-returns"],
         "argument --log-returns: has no effect with --pre-symbolized"),
        (["oracle", "--spec", "@spec.json", "--preset", "copy"],
         "argument --preset: not allowed with argument --spec"),
        (["oracle", "--spec", "@spec.json", "--preset-alphabet", "4"],
         "argument --preset-alphabet: has no effect without --preset"),
        (["oracle", "--spec", "@spec.json", "--preset-fidelity", "0.9"],
         "argument --preset-fidelity: has no effect without --preset noisy-copy"),
        (["oracle", "--preset", "copy", "--preset-fidelity", "0.9"],
         "argument --preset-fidelity: has no effect without --preset noisy-copy"),
        (["gen-synth", "--length", "10", "--preset", "independent", "--preset-fidelity", "0.5"],
         "argument --preset-fidelity: has no effect without --preset noisy-copy"),
        ([*TE_SYNTH, "--surrogates", "0", "--surrogate-block", "400"],
         "argument --surrogate-block: has no effect with --surrogates 0"),
        ([*TE_SYNTH, "--surrogates", "0", "--seed", "3"],
         "argument --seed: has no effect with --surrogates 0"),
    ], ids=["block", "bins", "log-returns", "spec-and-preset",
            "spec-alphabet", "spec-fidelity", "copy-fidelity", "independent-fidelity",
            "surrogates-zero", "seed-surrogates-zero"])
    def test_inert_option_is_a_usage_error(self, synth_csv, tmp_path, capsys, argv, message):
        from renflow import noisy_copy_spec

        (tmp_path / "spec.json").write_text(noisy_copy_spec(2, 0.75).to_json(), encoding="utf-8")
        inputs = {"@synth.csv": str(synth_csv), "@spec.json": str(tmp_path / "spec.json")}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([*[inputs.get(a, a) for a in argv], "--out", str(out)])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--surrogate-block", "3"],
        ["--pre-symbolized", "--block", "1", "--bins", "width", "--surrogate-block", "1"],
    ], ids=["block-permutation", "defaults"])
    def test_acting_options_are_accepted(self, synth_csv, capsys, argv):
        argv = [str(synth_csv) if a == "@synth.csv" else a for a in [*TE_SYNTH, *argv]]
        assert main(argv) == 0

    @pytest.mark.parametrize("option, content, message", [
        ("--data", b"timestamp,A,B\n1,1.5,\xe92.5\n", "not UTF-8 text (byte 0xe9)"),
        ("--data", b"timestamp,A,B\n1,1.5," + b"1" * 140_000 + b"\n",
         "field larger than field limit (131072)"),
        ("--data", b"timestamp,A,B\n1,1.5,2.5\n9223372036854775808,1.5,2.5\n",
         "the timestamps of column 'B' must fit in int64, got 9223372036854775808"),
        ("--from-matrix", b"target\\source,A,B\nA,,0.1\nB,\xe9,\n", "not UTF-8 text (byte 0xe9)"),
        ("--from-matrix", b"target\\source,A,B\nA,,0.1\nB," + b"1" * 140_000 + b",\n",
         "field larger than field limit (131072)"),
        ("--spec", b'{"alphabet_size": "\xe9"}', "not UTF-8 text (byte 0xe9)"),
    ], ids=["data-latin1", "data-long-cell", "data-int64-overflow", "matrix-latin1",
            "matrix-long-cell", "spec-latin1"])
    def test_unreadable_file_is_reported(self, tmp_path, capsys, option, content, message):
        path = tmp_path / "input"
        path.write_bytes(content)
        command = {"--data": ["te", *PAIR, "--surrogates", "0"],
                   "--from-matrix": ["netflow", "--out", str(tmp_path / "net.csv")],
                   "--spec": ["oracle"]}[option]
        assert main([*command, option, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{path}: {message}" in err

    @pytest.mark.parametrize("argv, option", [
        (["te", *PAIR], "--data"),
        (["matrix"], "--data"),
        (["netflow"], "--from-matrix"),
        (["gen-synth", "--length", "10"], "--spec"),
    ], ids=["te", "matrix", "netflow", "gen-synth"])
    def test_out_naming_the_input_is_a_usage_error(self, tmp_path, capsys, argv, option):
        content = {
            "--data": "timestamp,A,B\n" + "".join(f"{t},{t % 7},{t % 5}\n" for t in range(40)),
            "--from-matrix": "target\\source,A,B\nA,,0.1\nB,0.2,\n",
            "--spec": f'{{{HALF_SPEC}, "target_transition": {HALF_TARGET}}}',
        }[option]
        (tmp_path / "sub").mkdir()
        path = tmp_path / "input"
        path.write_text(content, encoding="utf-8")
        # another spelling of the same file
        out = tmp_path / "sub" / ".." / "input"
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, option, str(path), "--out", str(out)])
        assert exit_info.value.code == 2
        assert f"argument --out: is the same file as {option}" in capsys.readouterr().err
        assert path.read_text(encoding="utf-8") == content

    def test_readme_examples_parse(self):
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("renflow ")]
        assert len(commands) == 9
        for argv in commands:
            build_parser().parse_args(argv[1:])

    def test_surrogate_method_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*TE_SYNTH, "--surrogate-method", "permutation"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --surrogate-method permutation" in capsys.readouterr().err


# Each command with its order option last, the two spellings of q = 1 it is
# given, and the files it writes.
SHANNON_SPELLINGS = ("1", "1.0000000005")
WINDOW_RUNS = {
    "te": ([*TE_SYNTH, "--q"], SHANNON_SPELLINGS, ["out.json"]),
    "oracle": (["oracle", "--preset", "noisy-copy", "--q"], SHANNON_SPELLINGS, ["out.json"]),
    **{
        f"matrix-{fmt}": (["matrix", *SYNTH_DATA, "--format", fmt, "--q"], SHANNON_SPELLINGS,
                          [f"out.{fmt}", "out.manifest.json"])
        for fmt in ("csv", "json")
    },
    "sweep-m": (["sweep-m", *SYNTH_PAIR, "--m-grid", "1,2", "--format", "json", "--q"],
                SHANNON_SPELLINGS, ["out.json"]),
    "sweep-q": (["sweep-q", *SYNTH_PAIR, "--q-grid"], ("1,1", "1,1.0000000005"), ["out.csv"]),
}


class TestShannonWindow:
    """An order within 1e-9 of 1 is q = 1: evaluated and recorded as 1."""

    @pytest.mark.parametrize("name", WINDOW_RUNS)
    def test_window_order_writes_the_bytes_of_q_1(self, synth_csv, tmp_path, name):
        argv, spellings, outputs = WINDOW_RUNS[name]
        argv = [str(synth_csv) if a == "@synth.csv" else a for a in argv]
        written = []
        for k, q in enumerate(spellings):
            out = tmp_path / str(k) / outputs[0]
            assert main([*argv, q, "--out", str(out)]) == 0
            written.append([(out.parent / file).read_bytes() for file in outputs])
        assert written[1] == written[0]

    def test_sweep_q_evaluates_a_window_order_once(self, synth_csv, tmp_path, monkeypatch):
        # each order once per row of each word table evaluated against a target side
        orders, pair_values = [], renflow.transfer._pair_values
        monkeypatch.setattr(renflow.transfer, "_pair_values",
                            lambda joint, *args: orders.extend(args[-1] * len(joint))
                            or pair_values(joint, *args))
        target_orders, word_values = [], renflow.surrogate._word_values
        monkeypatch.setattr(renflow.surrogate, "_word_values",
                            lambda words, qs: target_orders.extend(qs) or word_values(words, qs))
        argv, _, _ = WINDOW_RUNS["sweep-q"]
        argv = [str(synth_csv) if a == "@synth.csv" else a for a in argv]
        assert main([*argv, "1,1.0000000005,2", "--out", str(tmp_path / "q.csv")]) == 0
        # two directions, each a raw table and two replica tables, and one target part each
        assert sorted(orders) == [1.0] * 6 + [2.0] * 6
        assert sorted(target_orders) == [1.0] * 2 + [2.0] * 2


class TestSweeps:
    def test_sweep_q(self, synth_csv, tmp_path):
        out = tmp_path / "qsweep.csv"
        code = main([
            "sweep-q", "--data", str(synth_csv), "--timestamp-column", "t",
            "--source", "y", "--target", "x", "--pre-symbolized",
            "--alphabet", "3", "--q-grid", "0.5,1,1.5",
            "--surrogates", "3", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2  # header + grid x directions

    def test_sweep_m(self, synth_csv, tmp_path):
        out = tmp_path / "msweep.json"
        code = main([
            "sweep-m", "--data", str(synth_csv), "--timestamp-column", "t",
            "--source", "y", "--target", "x", "--pre-symbolized",
            "--alphabet", "3", "--m-grid", "1,2", "--q", "1.5",
            "--surrogates", "3", "--seed", "2",
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "m_sweep"
        forward = [r for r in payload["rows"] if r["source"] == "y"]
        assert all(abs(r["raw"] - math.log2(3)) < 0.05 for r in forward)

    def test_sweep_q_csv_comma_label_reads_back_as_one_field(self, comma_label_csv, tmp_path):
        out = tmp_path / "qsweep.csv"
        code = main([
            "sweep-q", "--data", str(comma_label_csv), "--source", "S&P,500",
            "--target", "DAX", "--q-grid", "1,2", "--surrogates", "2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert {len(row) for row in rows} == {8}
        assert {(row[1], row[2]) for row in rows[1:]} == {("S&P,500", "DAX"), ("DAX", "S&P,500")}


class TestOneParser:
    """`main` builds the parser on its first call in a process, and no call leaves
    state in it for the next."""

    def test_parser_is_built_on_the_first_call_only(self, capsys, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
        build_parser.cache_clear()
        counts = []
        for _ in range(3):
            assert main(["oracle", "--preset", "copy"]) == 0
            counts.append(len(built))
            built.clear()
        # 8 option groups, the top parser and 8 subcommands, then none
        assert counts == [17, 0, 0]

    def test_import_builds_no_parser(self):
        script = "\n".join([
            "import argparse",
            "built, init = [], argparse.ArgumentParser.__init__",
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *args, **kw: built.append(self) or init(self, *args, **kw)",
            "import renflow.cli",
            "at_import = len(built)",
            "renflow.cli.build_parser()",
            "print(at_import, len(built), renflow.cli.__file__)",
        ])
        src = str(Path(renflow.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["0", "17", renflow.cli.__file__]

    def test_an_offset_does_not_outlive_its_call(self, price_csv, tmp_path):
        out = tmp_path / "flow.csv"
        argv = ["matrix", "--data", str(price_csv), "--surrogates", "1", "--out", str(out)]
        offsets = []
        for extra in (["--tz-offset", "A=60"], []):
            assert main([*argv, *extra]) == 0
            manifest = json.loads(out.with_suffix(".manifest.json").read_text())
            offsets.append(manifest["parameters"]["alignment"]["tz_offsets_minutes"])
        assert offsets == [{"A": 60}, {}]

    def test_failed_calls_leave_the_next_output_unchanged(self, price_csv, tmp_path, capsys):
        out = tmp_path / "symbols.csv"
        good = ["symbolize", "--data", str(price_csv), "--out", str(out)]
        assert main(good) == 0
        first = out.read_bytes()
        out.unlink()
        refused = ["--data", str(price_csv), "--tz-offset", "C=60", "--out", str(tmp_path / "x")]
        # a ValidationError from ingest, after the parse
        assert main(["matrix", "--labels", "A,B", *refused]) == 2
        assert "column 'C' has a clock offset but is not read" in capsys.readouterr().err
        # a usage error after the parse: --surrogate-block has no effect with --surrogates 0
        with pytest.raises(SystemExit) as exit_info:
            main(["te", *PAIR, *refused, "--surrogates", "0", "--surrogate-block", "2"])
        assert exit_info.value.code == 2
        assert "--surrogate-block: has no effect" in capsys.readouterr().err
        assert main(good) == 0
        assert out.read_bytes() == first
