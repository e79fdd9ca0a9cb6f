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

    PYTHONPATH=src python3 scripts/bench_validate.py --out BENCH_validate.json

With --baseline SRC, each repeat also runs the battery on the tree whose
src directory is SRC, alternated with this one (baseline first), and the
file gives that tree's numbers under "baseline", named by that tree's
`git describe --always --dirty`, or by SRC where it is not in git:

    python3 scripts/bench_validate.py --baseline ../parent/src \\
        --out BENCH_validate.json

Only `diffmix.validate.FULL_CHECKS` is called, so the same script times
any checkout whose src it is pointed at.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostcal  # noqa: F401  puts perfbench/ on the import path
from calibration import CAL_BATCH, calibration_sample, host_slowdown

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 0


def battery() -> dict:
    """One battery in this process: raw seconds per check, the host
    slowdown and the values' digest and count."""
    # imported here: the driving process imports no tree's diffmix
    from diffmix.validate import FULL_CHECKS

    rng = np.random.default_rng(SEED)
    seconds, values = {}, []
    cal = [calibration_sample() for _ in range(CAL_BATCH)]
    for name, fn in FULL_CHECKS.items():
        start = time.perf_counter()
        results = fn(rng)
        seconds[name] = time.perf_counter() - start
        cal += [calibration_sample() for _ in range(CAL_BATCH)]
        values.extend(repr(r.value) for r in results)
    return {"seconds": seconds, "host_slowdown": host_slowdown(cal),
            "n_values": len(values), "values_sha256": hashlib.sha256(
                "\n".join(values).encode()).hexdigest()}


def battery_in(src: Path) -> dict:
    """One battery in a fresh process that imports diffmix from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--battery"], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def tree_name(src: Path) -> str:
    """git's name for the checkout that holds src, or src itself."""
    try:
        done = subprocess.run(["git", "-C", str(src), "describe", "--always",
                               "--dirty"], capture_output=True, text=True)
    except OSError:
        return str(src)
    return done.stdout.strip() if done.returncode == 0 else str(src)


def summary(runs: list[dict]) -> dict:
    """Median calibrated and raw seconds per check over runs."""
    digests = {run["values_sha256"] for run in runs}
    if len(digests) != 1:
        raise RuntimeError("one tree's batteries gave different values")
    names = runs[0]["seconds"]
    return {
        "checks_s": {name: statistics.median(
            run["seconds"][name] / run["host_slowdown"] for run in runs)
            for name in names},
        "raw": {"checks_s": {name: statistics.median(
            run["seconds"][name] for run in runs) for name in names}},
        "host_slowdown": statistics.median(run["host_slowdown"]
                                           for run in runs),
        "n_values": runs[0]["n_values"], "values_sha256": digests.pop(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--baseline", type=Path,
                        help="src directory of a tree to alternate with")
    parser.add_argument("--battery", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.battery:
        print(json.dumps(battery()))
        return
    own, base = [], []
    for _ in range(args.repeats):
        if args.baseline is not None:
            base.append(battery_in(args.baseline))
        own.append(battery_in(SRC))
    result = summary(own)
    if base:
        result["baseline"] = {"name": tree_name(args.baseline),
                              **summary(base)}
    result.update({"seed": SEED, "repeats": args.repeats,
                   "cpus": os.cpu_count(), "machine": platform.machine(),
                   "python": platform.python_version(),
                   "numpy": np.__version__,
                   "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")})
    text = json.dumps(result, indent=1, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
