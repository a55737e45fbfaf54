"""CSV loading, clock normalization, and timestamp alignment."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_load_csv
from renflow import (
    MalformedHeaderError,
    NonAscendingTimestampsError,
    RawSeries,
    ValidationError,
    align_many,
    ingest,
    load_csv,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_per_column_omission_of_missing_cells(self, tmp_path):
        path = write(
            tmp_path, "prices.csv",
            "timestamp,DAX,SP500\n"
            "100,13000.5,4100.25\n"
            "200,,4101.0\n"
            "300,13010.0,4099.5\n"
            "400,13020.0\n"
            "\n"
            " , , \n"
            " 500 , 13030.0 ,\t4098.0 \n",
        )
        series = {s.label: s for s in load_csv(path)}
        np.testing.assert_array_equal(series["DAX"].timestamps, [100, 300, 400, 500])
        np.testing.assert_array_equal(series["DAX"].values, [13000.5, 13010.0, 13020.0, 13030.0])
        np.testing.assert_array_equal(series["SP500"].timestamps, [100, 200, 300, 500])
        np.testing.assert_array_equal(series["SP500"].values, [4100.25, 4101.0, 4099.5, 4098.0])

    def test_unparseable_cells_omitted(self, tmp_path):
        path = write(
            tmp_path, "p.csv",
            "timestamp,A\n1,1.0\n2,oops\n3,nan\n4,3.5\n",
        )
        (series,) = load_csv(path)
        np.testing.assert_array_equal(series.timestamps, [1, 4])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with the UTF-8 BOM, U+FEFF
        text = "timestamp,A,B\n1,1.0,2.0\n2,,4.0\n3,5.0,6.0\n"
        plain = write(tmp_path, "plain.csv", text)
        marked = write(tmp_path, "marked.csv", "\ufeff" + text)
        assert marked.read_bytes().startswith(b"\xef\xbb\xbftimestamp,")
        expected = outcome(load_csv, plain)
        assert [label for label, _, _ in expected] == ["A", "B"]
        assert outcome(load_csv, marked) == outcome(reference_load_csv, marked) == expected

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(MalformedHeaderError):
            load_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_missing_timestamp_column_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\n1,2.0\n")
        with pytest.raises(MalformedHeaderError):
            load_csv(path)

    def test_unknown_value_column_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "timestamp,A\n1,2.0\n")
        with pytest.raises(MalformedHeaderError):
            load_csv(path, value_columns=["B"])

    def test_timestamp_column_rejected_as_value_column(self, tmp_path):
        path = write(tmp_path, "p.csv", "t,A\n1,2.0\n2,3.0\n")
        with pytest.raises(MalformedHeaderError, match="no 't' value column in header"):
            load_csv(path, timestamp_column="t", value_columns=["t", "A"])

    @pytest.mark.parametrize("header, columns", [
        ("timestamp,A,B", ["A", "B", "A"]),
        ("timestamp,A,A", None),
    ], ids=["selected-twice", "header-twice"])
    def test_repeated_label_rejected(self, tmp_path, header, columns):
        path = write(tmp_path, "p.csv", f"{header}\n1,2.0,3.0\n2,2.5,3.5\n")
        with pytest.raises(ValidationError, match="column 'A' is named more than once"):
            load_csv(path, value_columns=columns)

    @pytest.mark.parametrize("header, columns, name, first, second", [
        ("timestamp,A,timestamp,B", None, "timestamp", 1, 3),
        ("timestamp,A,timestamp,B", ["A"], "timestamp", 1, 3),
        ("timestamp,A,A,B", ["A", "B"], "A", 2, 3),
        ("B,timestamp,A,B", None, "B", 1, 4),
    ], ids=["timestamp-all", "timestamp-selected", "selected-label", "all-columns"])
    def test_name_at_two_header_positions_rejected(self, tmp_path, header, columns, name, first,
                                                   second):
        path = write(tmp_path, "p.csv", f"{header}\n1,2.0,3.0,4.0\n2,2.5,3.5,4.5\n")
        with pytest.raises(MalformedHeaderError) as info:
            load_csv(path, value_columns=columns)
        message = (f"{path}: column {name!r} is named more than once, "
                   f"at header positions {first} and {second}")
        assert str(info.value) == message

    def test_repeated_name_of_an_unselected_column_allowed(self, tmp_path):
        path = write(tmp_path, "p.csv", "timestamp,A,A,B\n1,2.0,3.0,4.0\n2,2.5,3.5,4.5\n")
        (series,) = load_csv(path, value_columns=["B"])
        assert (series.label, series.values.tolist()) == ("B", [4.0, 4.5])

    @pytest.mark.parametrize("header, columns, position", [
        ("timestamp,,B", None, 2),
        ("A,timestamp, ", ["A", ""], 3),
    ], ids=["all-columns", "selected-whitespace"])
    def test_blank_label_rejected(self, tmp_path, header, columns, position):
        path = write(tmp_path, "p.csv", f"{header}\n1,2.0,3.0\n2,2.5,3.5\n")
        with pytest.raises(MalformedHeaderError) as info:
            load_csv(path, value_columns=columns)
        message = f"{path}: the value column at header position {position} has a blank label"
        assert str(info.value) == message

    def test_blank_label_of_an_unselected_column_allowed(self, tmp_path):
        path = write(tmp_path, "p.csv", "timestamp,,B\n1,2.0,3.0\n2,2.5,3.5\n")
        (series,) = load_csv(path, value_columns=["B"])
        assert (series.label, series.values.tolist()) == ("B", [3.0, 3.5])

    @pytest.mark.parametrize("label", ["AA", "timestamp"])
    def test_offset_for_unknown_column_rejected(self, tmp_path, label):
        path = write(tmp_path, "p.csv", "timestamp,A,B\n1,2.0,3.0\n")
        with pytest.raises(MalformedHeaderError, match=f"no '{label}' value column to offset"):
            load_csv(path, tz_offsets={"A": 60, label: 60})

    @pytest.mark.parametrize("minutes", [1.5, True, "x", np.float64(60.0)])
    def test_offset_follows_the_integer_rule(self, tmp_path, minutes):
        path = write(tmp_path, "p.csv", "timestamp,A,B\n60,2.0,3.0\n120,2.5,3.5\n")
        with pytest.raises(ValidationError) as info:
            load_csv(path, tz_offsets={"A": minutes})
        message = f"{path}: the clock offset of column 'A' must be an integer, got {minutes!r}"
        assert str(info.value) == message

    def test_offset_for_a_column_not_read_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "timestamp,A,B,C\n1,2.0,3.0,4.0\n")
        with pytest.raises(ValidationError) as info:
            load_csv(path, value_columns=["A", "B"], tz_offsets={"C": 60})
        assert str(info.value) == f"{path}: column 'C' has a clock offset but is not read"

    def test_duplicate_timestamps_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "timestamp,A\n1,2.0\n1,3.0\n")
        with pytest.raises(NonAscendingTimestampsError):
            load_csv(path)

    def test_descending_timestamps_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "timestamp,A\n5,2.0\n1,3.0\n")
        with pytest.raises(NonAscendingTimestampsError):
            load_csv(path)

    def test_tz_offset_normalizes_clock(self, tmp_path):
        path = write(tmp_path, "p.csv", "timestamp,CET\n3600,1.0\n7200,2.0\n")
        (series,) = load_csv(path, tz_offsets={"CET": 60})
        np.testing.assert_array_equal(series.timestamps, [0, 3600])

    @pytest.mark.parametrize("stamp, minutes, message", [
        (-9223372036854775800, 60, "overflows int64 after its clock offset of 60 minutes"),
        (9223372036854775800, -60, "overflows int64 after its clock offset of -60 minutes"),
        (0, 2**63, f"clock offset of column 'A', {2**63} minutes, overflows int64 seconds"),
        (0, -(2**63), f"clock offset of column 'A', {-(2**63)} minutes, overflows int64 seconds"),
    ], ids=["below-min", "above-max", "offset-past-max", "offset-past-min"])
    def test_tz_offset_past_int64_rejected(self, tmp_path, stamp, minutes, message):
        path = write(tmp_path, "p.csv", f"timestamp,B,A\n{stamp},1.0,2.0\n{stamp + 1},1.5,2.5\n")
        with pytest.raises(ValidationError) as info:
            load_csv(path, tz_offsets={"A": minutes})
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)
        assert "column 'A'" in str(info.value)

    def test_tz_offset_to_the_int64_limits_kept(self, tmp_path):
        low, high = -(2**63), 2**63 - 1
        path = write(tmp_path, "p.csv", f"timestamp,A,B\n{low + 60},1.0,2.0\n{high - 60},1.5,2.5\n")
        a, b = load_csv(path, tz_offsets={"A": 1, "B": -1})
        assert a.timestamps.tolist() == [low, high - 120]
        assert b.timestamps.tolist() == [low + 120, high]

    def test_load_serialize_load_idempotent(self, tmp_path):
        path = write(
            tmp_path, "p.csv",
            "timestamp,A,B\n10,1.25,7.5\n20,2.5,8.125\n30,3.75,9.0\n",
        )
        first = load_csv(path)
        # re-serialize with full float precision and reload
        lines = ["timestamp," + ",".join(s.label for s in first)]
        for i in range(len(first[0])):
            cells = [str(first[0].timestamps[i])]
            cells += [repr(float(s.values[i])) for s in first]
            lines.append(",".join(cells))
        path2 = write(tmp_path, "p2.csv", "\n".join(lines) + "\n")
        second = load_csv(path2)
        for a, b in zip(first, second):
            assert a.label == b.label
            np.testing.assert_array_equal(a.timestamps, b.timestamps)
            np.testing.assert_array_equal(a.values, b.values)


def outcome(load, path, value_columns=None):
    """Labels and the bytes of every series, or the error's type and message."""
    try:
        series = load(path, value_columns=value_columns)
    except Exception as exc:  # compared between the two loaders, not handled
        return type(exc), str(exc)
    return [(s.label, s.timestamps.tobytes(), s.values.tobytes()) for s in series]


def finite_float_reprs():
    return st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
        ["0.0", "-0.0", "5e-324", "2.2250738585072014e-308", "1e308", "-1.7976931348623157e+308"]
    )


# cells that numpy and `float()` read alike, and what numpy refuses or reads otherwise
READ_ALIKE = [
    "", "nan", "inf", "-Infinity", " 1.5 ", "\t-2\t", "1.5\x0c", "1.5\x0b", "\x85 2.5",
    "2.5\u2028", "\xa01", "+7", "1e3", "5.0", ".5",
]
ODD_CELLS = [
    "oops", "1_000", "2.0#x", '"3.5"', '"4,5"', "\x1c1", "1\x1f", "1\r2", "1.5\x00", "٣",
    "0x10", " ",
]
ODD_ROWS = ["short", "spaces", "odd-stamp"]
STAMP_FORMS = ["{}", " {} ", "+{}", "0{}", "\t{}"]


@st.composite
def csv_files(draw):
    """(text, value columns) of a small price file: rows of increasing integer
    stamps and finite float reprs, cells that numpy reads like `float()`, long
    and blank rows, and LF or CRLF line endings.  Most files add one odd cell
    or one odd kind of row (short, whitespace-only or with a bad stamp)."""
    odd = draw(st.none() | st.sampled_from(ODD_CELLS + ODD_ROWS))
    cells = finite_float_reprs() | st.sampled_from(READ_ALIKE)
    if odd in ODD_CELLS:
        cells |= st.just(odd)
    n_values = draw(st.integers(1, 3))
    labels = [f"V{k}" for k in range(n_values)]
    ts_at = draw(st.integers(0, n_values))
    header = labels[:ts_at] + ["timestamp"] + labels[ts_at:]
    kinds = ["row"] * 6 + ["long", "blank"] + ([odd] if odd in ODD_ROWS else [])
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("blank", "spaces"):
            lines.append("" if kind == "blank" else draw(st.sampled_from([" ", "\t", " \t "])))
            continue
        row = [draw(cells) for _ in labels]
        if kind == "odd-stamp":
            stamp = draw(st.sampled_from(READ_ALIKE + ODD_CELLS + [str(2**63)]))
        else:
            stamp = draw(st.sampled_from(STAMP_FORMS)).format(10 * i)
        row.insert(ts_at, stamp)
        if kind == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row += draw(st.lists(cells, min_size=1, max_size=2))
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    columns = draw(st.none() | st.permutations(labels).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: list(order[:k]))))
    return text, columns


class TestParsePaths:
    """`load_csv` parses with numpy's C reader and falls back to the per-cell
    loop; whichever path runs, the result is the loop's, except that the
    loop's `csv` and int64 overflow failures are ValidationErrors naming the file."""

    @settings(max_examples=150, deadline=None)
    @given(csv_files())
    @example(("timestamp,V0,V1,V2\n10,\"4,5\",1.0,2.0\n", ["V2"]))  # a quote moves V2
    @example(("timestamp,V0\n10,\x1c1\n20,2.0\n", None))  # float() refuses U+001C
    @example(("timestamp,V0,V1\n10,1.0," + "1" * 131073 + "\n", ["V0"]))  # csv's field limit
    @example(("timestamp,V0\n10,1.0\n9223372036854775808,2.0\n", None))  # past int64
    def test_equals_the_per_cell_loop(self, tmp_path_factory, case):
        text, columns = case
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        got, expected = outcome(load_csv, path, columns), outcome(reference_load_csv, path, columns)
        if isinstance(expected, tuple) and expected[0] in (csv.Error, OverflowError):
            assert got[0] is ValidationError and got[1].startswith(f"{path}: ")
        else:
            assert got == expected

    def test_large_timestamps_survive_exactly(self, tmp_path):
        path = write(tmp_path, "p.csv", f"timestamp,A\n{2**53 + 1},1.0\n{2**62},2.0\n")
        (series,) = load_csv(path)
        assert series.timestamps.tolist() == [2**53 + 1, 2**62]

    def test_float_timestamp_drops_its_row(self, tmp_path):
        path = write(tmp_path, "p.csv", "timestamp,A\n1,1.0\n5.0,2.0\n7,3.0\n")
        (series,) = load_csv(path)
        assert series.timestamps.tolist() == [1, 7]
        assert series.values.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_blank_cells_stay_on_the_fast_path(self, tmp_path, monkeypatch, newline):
        def refuse(*args):
            raise AssertionError("the per-cell loop ran")

        monkeypatch.setattr(ingest, "_parse_rows", refuse)
        rows = ["timestamp,A,B,C", "1,1.0,,", "2,,2.0,3.0", "3,,,", "4,4.0,4.5,", "5,5.0,5.5,6.0", ""]
        a, b, c = load_csv(write(tmp_path, "p.csv", newline.join(rows)))
        assert a.timestamps.tolist() == [1, 4, 5] and b.timestamps.tolist() == [2, 4, 5]
        assert c.values.tolist() == [3.0, 6.0]

    @pytest.mark.parametrize("cell", ['"2.0"', "oops"])
    def test_odd_cell_takes_the_per_cell_loop(self, tmp_path, monkeypatch, cell):
        calls, parse_rows = [], ingest._parse_rows

        def counted(*args):
            calls.append(args)
            return parse_rows(*args)

        monkeypatch.setattr(ingest, "_parse_rows", counted)
        path = write(tmp_path, "p.csv", f"timestamp,A\n1,1.0\n2,{cell}\n3,3.0\n")
        (series,) = load_csv(path)
        assert len(calls) == 1
        assert series.timestamps.tolist() == ([1, 2, 3] if cell.startswith('"') else [1, 3])


    @pytest.mark.parametrize("body, value_idx", [
        ("1,1.0,2.0\n2,3.0,4.0\n", [1, 2]),  # no blank cell
        ("1,,2.0\n2,3.0,4.0\n3,5.0,6.0", [1, 2]),  # ",," mid-line
        ("1,1.0,2.0\n2,3.0,", [1, 2]),  # a trailing "," on the last line, no newline
        ("1,,,\n2,3.0,4.0,5.0\n", [1, 2, 3]),  # ",,,"
    ], ids=["no-blank", "mid-line", "trailing", "three-commas"])
    def test_fast_path_equals_the_per_cell_loop(self, body, value_idx):
        table = ingest._parse_table(body, 0, value_idx)
        assert table is not None
        rows = ingest._parse_rows(body, 0, value_idx)
        assert [(s.tolist(), v.tolist()) for s, v in table] == rows


class TestAlign:
    def a(self, ts, vals, label="A"):
        return RawSeries(label=label, timestamps=np.asarray(ts), values=np.asarray(vals, float))

    def test_inner_join(self):
        a, b = align_many([
            self.a([1, 2, 3], [1.0, 2.0, 3.0]), self.a([2, 3, 4], [20.0, 30.0, 40.0], "B")
        ])
        assert len(a) == len(b) == 2
        np.testing.assert_array_equal(a.timestamps, [2, 3])
        np.testing.assert_array_equal(b.timestamps, [2, 3])
        np.testing.assert_array_equal(a.values, [2.0, 3.0])
        np.testing.assert_array_equal(b.values, [20.0, 30.0])

    def test_identical_timestamps_full_length(self):
        a, b = align_many([self.a([1, 2], [1.0, 2.0]), self.a([1, 2], [3.0, 4.0], "B")])
        assert len(a) == len(b) == 2

    def test_disjoint_rejected(self):
        with pytest.raises(ValidationError):
            align_many([self.a([1, 2], [1.0, 2.0]), self.a([3, 4], [3.0, 4.0], "B")])

    def test_symmetric_in_length_and_timestamps(self):
        s1 = self.a([1, 3, 5, 7], [1.0, 3.0, 5.0, 7.0])
        s2 = self.a([3, 4, 5], [30.0, 40.0, 50.0], "B")
        forward = align_many([s1, s2])
        backward = align_many([s2, s1])
        assert len(forward[0]) == len(backward[0])
        np.testing.assert_array_equal(forward[0].timestamps, backward[0].timestamps)

    def test_length_bounded_by_shorter(self):
        s1 = self.a([1, 2, 3, 4, 5], np.arange(5.0))
        s2 = self.a([2, 4], [1.0, 2.0], "B")
        assert all(len(s) <= 2 for s in align_many([s1, s2]))

    def test_align_many_common_subset(self):
        s1 = self.a([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0], "A")
        s2 = self.a([2, 3, 4, 5], [1.0, 2.0, 3.0, 4.0], "B")
        s3 = self.a([0, 2, 4, 6], [1.0, 2.0, 3.0, 4.0], "C")
        out = align_many([s1, s2, s3])
        for s in out:
            np.testing.assert_array_equal(s.timestamps, [2, 4])

    def test_one_series_is_its_own_join(self):
        s = self.a([1, 5, 9], [3.0, -0.0, 2.5])
        (out,) = align_many([s])
        assert out.label == "A"
        np.testing.assert_array_equal(out.timestamps, s.timestamps)
        assert out.values.tobytes() == s.values.tobytes()

    def test_series_invariants(self):
        with pytest.raises(ValidationError):
            RawSeries(label="A", timestamps=np.array([1, 2]), values=np.array([1.0, np.inf]))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sets(st.integers(-5, 40), min_size=1), min_size=1, max_size=5))
    def test_equals_the_join_of_the_stamp_sets(self, stamp_sets):
        stamps = [sorted(stamp_set) for stamp_set in stamp_sets]
        series = [self.a(ts, np.arange(len(ts)) + 100.0 * k, f"S{k}")
                  for k, ts in enumerate(stamps)]
        common = sorted(set.intersection(*stamp_sets))
        if not common:
            with pytest.raises(ValidationError, match="^no timestamp is present in every series$"):
                align_many(series)
            return
        for k, out in enumerate(align_many(series)):
            assert out.label == f"S{k}" and out.timestamps.tolist() == common
            assert out.values.tolist() == [100.0 * k + stamps[k].index(t) for t in common]


class TestRawSeries:
    @pytest.mark.parametrize("timestamps, values, message", [
        (np.arange(12).reshape(3, 4), np.ones((3, 4)), "series 'A' values must be a non-empty "
         "one-dimensional array of numbers, got shape (3, 4) of dtype float64"),
        ([1, 2], [1.0, np.nan], "series 'A' values must be finite, got the non-finite value nan "
         "at position 1"),
        (np.arange(12).reshape(3, 4), np.ones(12), "series 'A' timestamps must be a non-empty "
         "one-dimensional array of int64 integers, got shape (3, 4) of dtype int64"),
        ([1.5, 2.7], [1.0, 2.0], "series 'A' timestamps must be a non-empty one-dimensional "
         "array of int64 integers, got shape (2,) of dtype float64"),
        ([2**63 + 5, 2**63 + 6], [1.0, 2.0], "series 'A' timestamps must fit in int64, "
         f"got {2**63 + 6}"),
        (np.array([2**63 + 5, 2**63 + 6], dtype=np.uint64), [1.0, 2.0], "series 'A' timestamps "
         f"must fit in int64, got {2**63 + 6}"),
        ([1, 2, 3], [1.0, 2.0], "series 'A': 3 timestamps for 2 values"),
    ], ids=["2-D", "nan", "2-D-timestamps", "float-timestamps", "past-int64", "uint64-wraps",
            "lengths-differ"])
    def test_refuses_what_is_not_one_series(self, timestamps, values, message):
        with pytest.raises(ValidationError) as info:
            RawSeries("A", timestamps, values)
        assert str(info.value) == message

    def test_owns_its_arrays(self):
        """Writing to the caller's arrays, or to the array a passed view reads,
        leaves the series as validated, and the caller's arrays stay writable."""
        stamps, base = np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])
        series = RawSeries("A", stamps, base[:])
        stamps[1], base[1] = 5, np.nan
        assert series.timestamps.tolist() == [1, 2, 3]
        assert series.values.tolist() == [1.0, 2.0, 3.0]
        assert stamps.flags.writeable and base[:].flags.writeable
        assert not (series.timestamps.flags.writeable or series.values.flags.writeable)
