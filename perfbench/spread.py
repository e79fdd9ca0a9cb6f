"""Seed spread and rerun spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads readme,dense --seeds 1-10 \
        --reruns 5 --seconds 20 --out results.json

Runs perfbench/run.py once per (workload, seed) and, for the rerun
spread, --reruns more times at the first seed. For each workload and
metric it reports the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. The seed spread is what a change to the random stream sees; the
rerun spread is timing noise alone. Every raw value is kept in the output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.perf_counter() - start
    return res


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, rel = spread(values)
        out[name] = {"median": med, "spread": rel, "values": values,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--reruns", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seed_runs = []
        for seed in parse_seeds(args.seeds):
            seed_runs.append(run_once(workload, seed, args.seconds))
            print(workload, "seed", seed, "%.1f s" % seed_runs[-1]["elapsed_s"],
                  json.dumps({k: round(v["value"], 4)
                              for k, v in seed_runs[-1]["metrics"].items()}),
                  flush=True)
        entry = {"seeds": parse_seeds(args.seeds),
                 "failed": sum(r["failed"] for r in seed_runs),
                 "run_elapsed_s": [r["elapsed_s"] for r in seed_runs],
                 "seed_spread": summarise(seed_runs)}
        if args.reruns:
            rerun_seed = entry["seeds"][0]
            reruns = [run_once(workload, rerun_seed, args.seconds)
                      for _ in range(args.reruns)]
            entry["rerun_seed"] = rerun_seed
            entry["failed"] += sum(r["failed"] for r in reruns)
            entry["rerun_spread"] = summarise(reruns)
        report["workloads"][workload] = entry
        for name, s in entry["seed_spread"].items():
            rerun = entry.get("rerun_spread", {}).get(name)
            print(f"{workload:10s} {name:12s} median {s['median']:10.4g} "
                  f"seed spread {s['spread']:.3f}"
                  + (f" rerun spread {rerun['spread']:.3f}" if rerun else ""),
                  flush=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
