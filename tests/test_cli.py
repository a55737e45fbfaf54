"""End-to-end command line coverage."""

import csv
import json
import math

import numpy as np
import pytest

from renflow.cli import main


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

    def test_oracle_extreme_order_is_reported(self, capsys):
        code = main(["oracle", "--preset", "noisy-copy", "--preset-alphabet", "3",
                     "--q", "2000"])
        assert code == 2
        assert "q=2000" in capsys.readouterr().err

    def test_oracle_requires_spec_or_preset(self, capsys):
        assert main(["oracle", "--q", "1"]) == 2
        assert "error" in capsys.readouterr().err


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

    def test_missing_file_is_reported(self, capsys, tmp_path):
        code = main([
            "te", "--data", str(tmp_path / "nope.csv"),
            "--source", "a", "--target", "b",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

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

    def test_labels_option_selects_quoted_comma_label(self, comma_label_csv, tmp_path):
        out = tmp_path / "symbols.csv"
        code = main([
            "symbolize", "--data", str(comma_label_csv), "--labels", '"S&P,500"',
            "--out", str(out),
        ])
        assert code == 0
        assert {row[0] for row in read_csv_rows(out)[1:]} == {"S&P,500"}


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

    def test_matrix_timings_flag_records_pairs(self, price_csv, tmp_path):
        out = tmp_path / "flow.csv"
        code = main([
            "matrix", "--data", str(price_csv), "--alphabet", "3",
            "--q", "1", "--surrogates", "2", "--seed", "5",
            "--out", str(out), "--timings",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "flow.manifest.json").read_text())
        assert set(manifest["timings"]["pairs"]) == {
            "A->B", "A->C", "B->A", "B->C", "C->A", "C->B",
        }
        assert manifest["timings"]["total_seconds"] > 0

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
