"""CSV loading, clock normalization, and timestamp alignment."""

import numpy as np
import pytest

from renflow import (
    MalformedHeaderError,
    NonAscendingTimestampsError,
    RawSeries,
    ValidationError,
    align_many,
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

    def test_series_invariants(self):
        with pytest.raises(ValidationError):
            RawSeries(label="A", timestamps=np.array([1, 2]), values=np.array([1.0, np.inf]))
