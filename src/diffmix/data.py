"""Time-stamped observation grids and their CSV representation.

The on-disk format is a UTF-8 CSV with header ``time,value`` and '.' as
the decimal separator; repeated time stamps encode multiple observations
at that time. A date column can be mapped to a day index instead of a
numeric time.
"""

from __future__ import annotations

import csv
import datetime as _dt
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class TimeGridDataset:
    """Observations grouped on a strictly increasing time grid.

    times: (n,) strictly increasing floats, their differences finite.
    values: one nonempty float array per time.
    """

    times: np.ndarray
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = tuple(np.atleast_1d(np.asarray(v, dtype=float))
                       for v in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or len(times) == 0:
            raise DataError("at least one observation time required")
        if len(values) != len(times):
            raise DataError("one value group per time required")
        if np.any(~np.isfinite(times)):
            raise DataError("times must be finite")
        back = np.flatnonzero(times[1:] <= times[:-1])
        if back.size:
            raise DataError("times must be strictly increasing; violation "
                            f"at row {back[0] + 2}")
        with np.errstate(over="ignore"):  # the gaps give c tau
            wide = np.flatnonzero(np.isinf(np.diff(times)))
        if wide.size:
            i = wide[0]
            raise DataError(f"the gap between times {times[i]:g} and "
                            f"{times[i + 1]:g} overflows; rescale the times")
        for i, v in enumerate(values):
            if len(v) == 0:
                raise DataError(f"time {times[i]} has no observations")
            if np.any(~np.isfinite(v)):
                raise DataError(f"non-finite observation at time {times[i]}")
        y, idx = self.flat
        # the atom updates square and sum observations
        with np.errstate(over="ignore"):
            if not np.isfinite(y @ y):
                i = int(np.argmax(np.abs(y)))
                raise DataError(
                    f"the sum of squared observations overflows; largest "
                    f"|value| {abs(y[i]):g} at time {times[idx[i]]:g}; "
                    "rescale the data")

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def n_obs(self) -> int:
        return sum(len(v) for v in self.values)

    @cached_property
    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(y, time_index) arrays over all observations, grid order."""
        y = np.concatenate(self.values)
        idx = np.repeat(np.arange(self.n_times),
                        [len(v) for v in self.values])
        return y, idx

    @cached_property
    def gaps(self) -> np.ndarray:
        """Consecutive time differences, length n - 1."""
        return np.diff(self.times)

    def digest(self) -> str:
        """Stable hash of the times and the grouped values."""
        y, idx = self.flat
        return hashlib.sha256(b"".join(
            a.tobytes() for a in (self.times, idx, y))).hexdigest()

    @classmethod
    def from_pairs(cls, times, values) -> "TimeGridDataset":
        """Build from parallel per-observation arrays, grouping by time.

        times must already be sorted (ties allowed and grouped).
        """
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise DataError("times and values must be parallel 1-D arrays")
        if len(times) == 0:
            raise DataError("empty dataset")
        back = np.flatnonzero(times[1:] < times[:-1])
        if back.size:
            raise DataError(
                f"times must be sorted; violation at row {back[0] + 2}")
        grid, start = np.unique(times, return_index=True)
        bounds = np.append(start, len(times))
        groups = tuple(values[bounds[i]:bounds[i + 1]]
                       for i in range(len(grid)))
        return cls(times=grid, values=groups)

    @classmethod
    def from_csv(cls, path, date_column: str | None = None) -> "TimeGridDataset":
        """Read a ``time,value`` CSV; optionally map a date column to days.

        With date_column set, that column is parsed as ISO dates and
        converted to the day offset from the earliest date.
        """
        time_key = date_column or "time"
        rows: list[tuple[float, float]] = []
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or time_key not in reader.fieldnames \
                        or "value" not in reader.fieldnames:
                    raise DataError(
                        f"{path}: expected columns '{time_key}' and 'value', "
                        f"found {reader.fieldnames}"
                    )
                for lineno, row in enumerate(reader, start=2):
                    raw_t = row[time_key]
                    raw_y = row["value"]
                    try:
                        if date_column is not None:
                            t = float(_dt.date.fromisoformat(raw_t.strip())
                                      .toordinal())
                        else:
                            t = float(raw_t)
                        y = float(raw_y)
                    except (TypeError, ValueError) as exc:
                        raise DataError(
                            f"{path}: cannot parse row {lineno}: "
                            f"time={raw_t!r} value={raw_y!r}"
                        ) from exc
                    rows.append((t, y))
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        if not rows:
            raise DataError(f"{path}: no data rows")
        times = np.array([r[0] for r in rows])
        values = np.array([r[1] for r in rows])
        if date_column is not None:
            times = times - times.min()
        back = np.flatnonzero(times[1:] < times[:-1])
        if back.size:
            raise DataError(f"{path}: times must be sorted; row "
                            f"{back[0] + 3} goes backwards")
        return cls.from_pairs(times, values)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "value"])
            for t, group in zip(self.times, self.values):
                for y in group:
                    writer.writerow([repr(float(t)), repr(float(y))])
