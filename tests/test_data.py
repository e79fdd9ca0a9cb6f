"""Dataset container and CSV round-trip tests."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffmix.data import TimeGridDataset
from diffmix.errors import DataError


class TestConstruction:
    def test_groups_by_time(self):
        data = TimeGridDataset.from_pairs([0.0, 0.0, 1.0, 2.0],
                                          [1.0, 2.0, 3.0, 4.0])
        assert data.n_times == 3
        assert data.n_obs == 4
        np.testing.assert_array_equal(data.values[0], [1.0, 2.0])

    def test_flat_order(self):
        data = TimeGridDataset.from_pairs([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        y, idx = data.flat
        np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(idx, [0, 0, 1])

    def test_rejects_unsorted(self):
        with pytest.raises(DataError, match="row 3"):
            TimeGridDataset.from_pairs([0.0, 1.0, 0.5], [1.0, 2.0, 3.0])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TimeGridDataset.from_pairs([], [])

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            TimeGridDataset(times=[0.0], values=(np.array([np.nan]),))
        # each value is finite and so is its square; their sum is not
        with pytest.raises(DataError, match="1.3e\\+154 at time 2"):
            TimeGridDataset(times=[0.0, 2.0],
                            values=(np.array([1e154, -1.2e154]),
                                    np.array([-1.3e154, 1.0])))


class TestCsv:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(-1e9, 1e9),
        st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=4)),
        min_size=1, max_size=8, unique_by=lambda group: group[0]))
    @example([(0.0, [1.5, -2.0]), (1.25, [0.25])])
    def test_round_trip(self, groups):
        # every time and value comes back exactly, grouped as written
        groups = sorted(groups)
        data = TimeGridDataset(times=[t for t, _ in groups],
                               values=tuple(np.array(v) for _, v in groups))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "d.csv")
            data.to_csv(path)
            back = TimeGridDataset.from_csv(path)
        np.testing.assert_array_equal(back.times, data.times)
        assert len(back.values) == len(data.values)
        for a, b in zip(back.values, data.values):
            np.testing.assert_array_equal(a, b)
        assert back.digest() == data.digest()

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="expected columns"):
            TimeGridDataset.from_csv(path)

    def test_bad_row_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,value\n0.0,1.0\nnope,2.0\n")
        with pytest.raises(DataError, match="row 3"):
            TimeGridDataset.from_csv(path)

    def test_unsorted_row_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,value\n1.0,1.0\n0.5,2.0\n")
        with pytest.raises(DataError, match="row"):
            TimeGridDataset.from_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            TimeGridDataset.from_csv(tmp_path / "absent.csv")

    def test_date_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,value\n2020-01-01,1.0\n2020-01-03,2.0\n")
        data = TimeGridDataset.from_csv(path, date_column="date")
        np.testing.assert_allclose(data.times, [0.0, 2.0])
