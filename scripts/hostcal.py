"""The runner shared by the scripts/bench_*.py files.

Each script keeps its workload and its measurements; this module gives
them the `--out` / `--repeats` parser (`parser`), the writer that adds
the host record and writes the JSON (`write`), tracemalloc's peak over
one call (`traced_peak`) and the host-speed calibration (`HostClock`).

Puts perfbench/ on the import path and calibrates timings the way
perfbench's SweepClock calibrates sweeps: after each timed call, outside
its timing, the fixed kernel of `perfbench/calibration.py` is sampled,
and each timing is divided by its local slowdown (`local_slowdowns`):
the median kernel time over the CAL_WINDOW samples on either side of it,
over the kernel's time at the reference speed. The shared host switches
speed within minutes, and one slowdown per file follows no switch inside
a run; a slowdown per timing does. Files taken at different speeds
compare through the calibrated values; the raw ones are kept beside
them under "raw".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from calibration import (CAL_BATCH, calibration_sample,  # noqa: E402
                         effective_slowdown, local_slowdowns)


class HostClock:
    """Timings of one script run, each followed by a kernel sample.

    With batch > 1 the sample after a timing is the median of that many
    kernel runs, for timings long enough that one 0.4 ms kernel run
    would be noise beside them.
    """

    def __init__(self, batch: int = 1):
        self.batch = batch
        self.times: list[float] = []
        self.cal: list[float] = []

    def time(self, fn, repeats: int) -> range:
        """Times fn(i) for i = 0..repeats - 1; the indices of the timings."""
        first = len(self.times)
        for i in range(repeats):
            start = time.perf_counter()
            fn(i)
            self.times.append(time.perf_counter() - start)
            self.cal.append(statistics.median(
                calibration_sample() for _ in range(self.batch)))
        return range(first, len(self.times))

    def report(self, result: dict, spans: dict, scale: float = 1.0) -> dict:
        """result with, per key of spans, the mean over its index ranges
        of each range's median calibrated timing times scale; the same
        from the raw timings under "raw"; and the slowdown that scales
        all the timings' sum alike under "host_slowdown"."""
        slowdowns = local_slowdowns(self.cal)

        def value(ranges, calibrated: bool) -> float:
            return scale * statistics.fmean(statistics.median(
                self.times[i] / (slowdowns[i] if calibrated else 1.0)
                for i in span) for span in ranges)

        result.update({key: value(ranges, True)
                       for key, ranges in spans.items()})
        result["raw"] = {key: value(ranges, False)
                         for key, ranges in spans.items()}
        result["host_slowdown"] = effective_slowdown(self.times, slowdowns)
        return result


def parser(doc: str, repeats: int | None = None) -> argparse.ArgumentParser:
    """A script's parser, described by the first line of its doc: --out,
    and --repeats where a default is given."""
    out = argparse.ArgumentParser(description=doc.split("\n")[0])
    if repeats is not None:
        out.add_argument("--repeats", type=int, default=repeats)
    out.add_argument("--out", type=Path)
    return out


def traced_peak(fn) -> int:
    """tracemalloc's peak in bytes over one call of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write(result: dict, out: Path | None) -> None:
    """result with the host record, printed as sorted indented JSON and
    written to out where it is given."""
    result.update({"cpus": os.cpu_count(), "machine": platform.machine(),
                   "python": platform.python_version(),
                   "numpy": np.__version__,
                   "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")})
    text = json.dumps(result, indent=1, sort_keys=True)
    print(text)
    if out is not None:
        out.write_text(text + "\n", encoding="utf-8")
