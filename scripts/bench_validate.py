"""Time each check of the full `diffmix validate` battery at seed 0.

Each battery runs in a fresh process, in `run_validation` order on one
generator, as `diffmix validate` does. A check's time is the median over
--repeats batteries of its seconds divided by that battery's host
slowdown; the raw medians are kept under "raw". As in perfbench's
validate pass, kernel batches (`perfbench/calibration.py`) are taken
before the first check and after each, outside the timings, and all the
checks of a battery share the slowdown of all its batches: a check
lasts up to seconds, longer than the samples beside it tell. The
values are digested as the sha256 of their reprs, one per line, so two
trees with the same digest give the battery's values bit for bit.

The exact engine's lineage-count tables are also timed on their own:
`wf._lineage_cumulative`, uncached, at each (a + b, standardised time)
of TABLES, in a fresh process per repeat, alternated like the
batteries. A table's time is the median over the repeats of its median
build, calibrated per build as the other scripts/bench_*.py files
calibrate theirs, in ms under "lineage_tables_ms"; the raw times are
under "raw".

Memory is recorded next to the times: the process's ru_maxrss after
each check (it only grows, so the last is the battery's peak), as the
median over the batteries, and each check's tracemalloc peak above what
was traced when it started, from one more battery per tree in its own
process, traced and untimed, since tracing slows the Euler path's loop
several times over. scipy.stats is imported before the first check, as
in perfbench, so the check that first needs it is not charged for the
import.

    PYTHONPATH=src python3 scripts/bench_validate.py --out BENCH_validate.json

With --baseline SRC, each repeat also runs the battery on the tree whose
src directory is SRC, alternated with this one (baseline first), and the
file gives that tree's numbers under "baseline", named by that tree's
`git describe --always --dirty`, or by SRC where it is not in git:

    python3 scripts/bench_validate.py --baseline ../parent/src \\
        --out BENCH_validate.json

Only `diffmix.validate.FULL_CHECKS` and `wf._lineage_cumulative` are
called, so the same script times any checkout whose src it is pointed
at.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import hostcal
from calibration import CAL_BATCH, calibration_sample, host_slowdown

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 0
# (a + b, standardised time) of the tables timed on their own: the two
# 40-digit tables the battery builds below ts 0.1, the 90-digit one
# move_sticks needs to move the sticks of a DP with theta = 1 (a + b = 2)
# by dt 0.01 at c = 0.5, and one at ts 0.1, a time at which double
# precision still resolves the series: what decimal arithmetic costs there
TABLES = ((5.0, 0.05), (5.0, 0.075), (2.0, 0.01), (5.0, 0.1))
# builds of each table per process; the median drops the first, which
# also pays the import of whatever the engine loads on first use
TABLE_BUILDS = 3


def _rss_mb() -> float:
    """Peak resident set of this process so far, in MB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _battery_setup():
    """The generator at SEED and the checks, with scipy.stats imported."""
    # imported here: the driving process imports no tree's diffmix
    from scipy import stats  # noqa: F401
    from diffmix.validate import FULL_CHECKS

    return np.random.default_rng(SEED), FULL_CHECKS


def _digest(values: list[str]) -> dict:
    return {"n_values": len(values), "values_sha256": hashlib.sha256(
        "\n".join(values).encode()).hexdigest()}


def battery() -> dict:
    """One battery in this process: raw seconds and ru_maxrss per check,
    the battery's peak, the host slowdown and the values' digest."""
    rng, checks = _battery_setup()
    seconds, rss_mb, values = {}, {}, []
    cal = [calibration_sample() for _ in range(CAL_BATCH)]
    for name, fn in checks.items():
        start = time.perf_counter()
        results = fn(rng)
        seconds[name] = time.perf_counter() - start
        rss_mb[name] = _rss_mb()
        cal += [calibration_sample() for _ in range(CAL_BATCH)]
        values.extend(repr(r.value) for r in results)
    return {"seconds": seconds, "rss_mb": rss_mb, "peak_rss_mb": _rss_mb(),
            "host_slowdown": host_slowdown(cal), **_digest(values)}


def traced_battery() -> dict:
    """One untimed battery under tracemalloc: each check's peak above
    what was traced when it started, in MiB, and the values' digest."""
    rng, checks = _battery_setup()
    peaks, values = {}, []
    tracemalloc.start()
    for name, fn in checks.items():
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        results = fn(rng)
        peaks[name] = (tracemalloc.get_traced_memory()[1] - held) / 2 ** 20
        values.extend(repr(r.value) for r in results)
    return {"traced_peak_mib": peaks, **_digest(values)}


def tables() -> dict:
    """Each table of TABLES built TABLE_BUILDS times in this process, in
    ms: the median calibrated build, and the raw one under "raw"."""
    from diffmix import wf

    clock = hostcal.HostClock(batch=CAL_BATCH)
    spans = {f"{theta:g},{ts:g}": [clock.time(
        lambda _, theta=theta, ts=ts: wf._lineage_cumulative.__wrapped__(
            theta, ts), TABLE_BUILDS)] for theta, ts in TABLES}
    return clock.report({}, spans, scale=1e3)


def battery_in(src: Path, kind: str = "timed") -> dict:
    """One battery of kind "timed" or "traced", or the table timings of
    kind "tables", in a fresh process that imports diffmix from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--battery", kind],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def tree_name(src: Path) -> str:
    """git's name for the checkout that holds src, or src itself."""
    try:
        done = subprocess.run(["git", "-C", str(src), "describe", "--always",
                               "--dirty"], capture_output=True, text=True)
    except OSError:
        return str(src)
    return done.stdout.strip() if done.returncode == 0 else str(src)


def summary(runs: list[dict], traced: dict, table_runs: list[dict]) -> dict:
    """Median calibrated and raw seconds and ru_maxrss per check over
    runs, with the traced battery's tracemalloc peaks and the median
    calibrated and raw table times over table_runs."""
    digests = {run["values_sha256"] for run in runs + [traced]}
    if len(digests) != 1:
        raise RuntimeError("one tree's batteries gave different values")
    names = runs[0]["seconds"]

    def per_check(key):
        return {name: statistics.median(run[key][name] for run in runs)
                for name in names}

    def per_table(raw: bool):
        return {key: statistics.median(
            (run["raw"] if raw else run)[key] for run in table_runs)
            for key in table_runs[0]["raw"]}

    return {
        "checks_s": {name: statistics.median(
            run["seconds"][name] / run["host_slowdown"] for run in runs)
            for name in names},
        "raw": {"checks_s": per_check("seconds"),
                "lineage_tables_ms": per_table(raw=True)},
        "lineage_tables_ms": per_table(raw=False),
        "host_slowdown": statistics.median(run["host_slowdown"]
                                           for run in runs),
        "rss_mb_after": per_check("rss_mb"),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "traced_peak_mib": traced["traced_peak_mib"],
        "n_values": runs[0]["n_values"], "values_sha256": digests.pop(),
    }


def main() -> None:
    parser = hostcal.parser(__doc__, repeats=5)
    parser.add_argument("--baseline", type=Path,
                        help="src directory of a tree to alternate with")
    parser.add_argument("--battery", choices=("timed", "traced", "tables"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.battery is not None:
        kinds = {"timed": battery, "traced": traced_battery,
                 "tables": tables}
        print(json.dumps(kinds[args.battery]()))
        return
    trees = {"own": SRC} if args.baseline is None else {
        "base": args.baseline, "own": SRC}
    runs = {tree: {"timed": [], "tables": []} for tree in trees}
    for _ in range(args.repeats):
        for kind in ("timed", "tables"):
            for tree, src in trees.items():
                runs[tree][kind].append(battery_in(src, kind))
    result = summary(runs["own"]["timed"], battery_in(SRC, "traced"),
                     runs["own"]["tables"])
    if args.baseline is not None:
        result["baseline"] = {"name": tree_name(args.baseline), **summary(
            runs["base"]["timed"], battery_in(args.baseline, "traced"),
            runs["base"]["tables"])}
    result.update({"seed": SEED, "repeats": args.repeats})
    hostcal.write(result, args.out)


if __name__ == "__main__":
    main()
