"""Host-speed calibration of the benchmark's timings.

Pure Python, so that it can time the host before the program and numpy
are imported.
"""

from __future__ import annotations

import statistics
import time

# Host-speed calibration. The shared host switches between speeds within
# seconds: the same Pitman-Yor sweeps (20 times x 50 obs) took 8.3 ms in
# one spell and 11.5 ms in the next. A fixed kernel, timed between the
# operations of a pass (outside their timings), follows those switches.
# A sweep is divided by its local slowdown: the median kernel time over
# the CAL_WINDOW samples on each side of it, over CAL_REF_S, the kernel
# time at the reference speed. Over 100-sweep blocks of one repeated
# sweep this cut the spread of the block medians from 0.056 to 0.02
# (coefficient of variation); one slowdown per pass tracked no switch
# within the pass. Validate checks, which last up to seconds, share one
# slowdown per pass (see harness.validate_pass).
CAL_REF_S = 0.4e-3
CAL_WINDOW = 7
# kernel samples between two validate checks, and on each side of the
# import for the set-up time
CAL_BATCH = 50


def calibration_sample() -> float:
    """Seconds one run of the fixed calibration kernel takes.

    An interpreter loop: under host load it slowed about as much as the
    sweeps did (x1.28 and x1.36 against x1.29 and x1.41 on that chain,
    x1.23 against x1.18 on dense), where special-function array work
    slowed x1.5-1.9 and so over-corrected.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i & 7
    return time.perf_counter() - start


def host_slowdown(samples) -> float:
    """Median kernel time over the reference: > 1 on a slow spell."""
    return statistics.median(samples) / CAL_REF_S


def local_slowdowns(cal) -> list[float]:
    """Slowdown at each operation, from the kernel sample taken after
    each one: the median over the CAL_WINDOW samples on either side."""
    return [host_slowdown(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i in range(len(cal))]


def effective_slowdown(times, slowdowns) -> float:
    """The one slowdown that scales the summed times the same way."""
    return sum(times) / sum(t / s for t, s in zip(times, slowdowns))
