"""diffmix benchmark: three seeded workloads, one process and one chain at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is readme, dense or validate (see perfbench/README.md), or `all`,
which runs the three in turn, each in a fresh process. The run
prints one line per metric (name, value, unit) and, as its last line, a
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, measured without tracing;
with --trace 1 a separate traced run gives the per-layer ones.

Run from the root of a source checkout: the program is imported from
src/. Without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("readme", "dense", "validate")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 150

# Passes per run at --seconds REFERENCE_SECONDS; other budgets scale the
# count linearly. The count depends on --seconds alone, never on measured
# speed, so two commits run the same work and a faster one ends sooner.
# Per-sweep cost follows the chain state (truncation level, latent index,
# theta), which differs between datasets, so each run takes the mean
# over several. validate repeats identical work: its two passes halve
# the timing noise of its few long checks. On a 2-core box a run takes
# about 35, 25 and 40 s with set-up and output checks, up to a third
# more when the shared host is busy.
REFERENCE_SECONDS = 20.0
PASSES = {"readme": 5, "dense": 5, "validate": 2}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)

CHECK_NAMES = ("series_normalization", "transition_normalization",
               "stationarity", "chapman_kolmogorov", "exact_vs_euler",
               "dp_moments", "acf", "mean_reversion", "deficit",
               "euler_ergodic")

PER_LAYER = (
    ("gibbs.sweep.ms", "ms/sweep"),
    ("gibbs.latents.ms", "ms/sweep"),
    ("gibbs.latents.cells", "count/sweep"),
    ("gibbs.latents.d_max", "count"),
    ("gibbs.latents.d_mean", "count"),
    ("gibbs.latents.padded_points", "count/sweep"),
    ("gibbs.latents.useful_frac", "frac"),
    ("gibbs.latents.ns_per_point", "ns"),
    ("gibbs.slice.ms", "ms/sweep"),
    ("gibbs.slice.m_mean", "count"),
    ("gibbs.slice.grown", "count"),
    ("gibbs.slice.dropped", "count"),
    ("wf.sample_nb.calls", "count"),
    ("wf.sample_nb.ms", "ms"),
    ("wf.sample_nb.distinct_keys", "count"),
    ("gibbs.swaps.ms", "ms/sweep"),
    ("gibbs.swaps.proposals", "count"),
    ("gibbs.swaps.moved", "count"),
    ("gibbs.membership.ms", "ms/sweep"),
    ("gibbs.membership.retries", "count"),
    ("gibbs.atoms.ms", "ms/sweep"),
    ("gibbs.sticks.ms", "ms/sweep"),
    ("gibbs.hyper.ms", "ms/sweep"),
    ("gibbs.hyper.acc_theta", "frac"),
    ("gibbs.hyper.acc_c", "frac"),
    ("gibbs.init.ms", "ms"),
    ("gibbs.snapshot.ms", "ms"),
    ("gibbs.loglik.ms", "ms/sweep"),
    ("gibbs.checkpoint.ms", "ms"),
    ("gibbs.checkpoint.bytes", "bytes"),
    ("gibbs.archive.save_ms", "ms"),
    ("gibbs.archive.load_ms", "ms"),
    ("gibbs.archive.bytes", "bytes"),
    ("estimation.summarize_ms", "ms"),
    ("estimation.export_ms", "ms"),
    ("estimation.ess_ms", "ms"),
    ("estimation.dens_bytes", "bytes"),
    ("data.csv_write_ms", "ms"),
    ("data.csv_read_ms", "ms"),
    *((f"validate.{name}.ms", "ms") for name in CHECK_NAMES),
    ("ess_per_s.theta", "1/s"),
    ("ess_per_s.c", "1/s"),
    ("ess_per_s.loglik", "1/s"),
    ("ess_per_s.meanfn", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.fidelity", "bool"),
    ("trace.remainder_frac", "frac"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="measurement budget; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimal sizes for the harness self-test")
    parser.add_argument("--inject-failure", action="store_true",
                        help="corrupt one output before its check, to show "
                             "that a failed check raises the error rate")
    # one pass in this process, for the parent run
    parser.add_argument("--child", help=argparse.SUPPRESS,
                        choices=("setup", "pass", "reference", "traced"))
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_main(args) -> int:
    """Run one pass and print its result as one JSON line."""
    from calibration import CAL_BATCH, calibration_sample, host_slowdown
    # the slowdown of the import, from kernel samples on both sides of it
    cal = [calibration_sample() for _ in range(CAL_BATCH)]
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import harness
    import_s = time.perf_counter() - start
    cal += [calibration_sample() for _ in range(CAL_BATCH)]
    setup_slowdown = host_slowdown(cal)
    work = Path(args.work)
    if args.child == "setup":
        res = harness.setup_pass(args.workload, args.scale, args.seed,
                                 args.index, work)
    elif args.child == "pass" and args.workload == "validate":
        res = harness.validate_pass(args.scale, args.inject_failure)
    elif args.child == "pass":
        res = harness.chain_pass(args.workload, args.scale, args.seed,
                                 args.index, work, args.inject_failure)
    elif args.child == "reference":
        res = harness.reference_pass(args.workload, args.scale, args.seed,
                                     work)
    else:
        import tracing
        res = tracing.traced_pass(args.workload, args.scale, args.seed, work,
                                  args.inject_failure)
    res["import_s"] = import_s
    res["setup_slowdown"] = setup_slowdown
    res["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(res), flush=True)
    return 0


class Runner:
    """Starts the passes of one run, each in a fresh process, and waits
    for each to end. A pass that crashes counts as one failed operation."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def child(self, mode: str, index: int = 0, inject: bool = False):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--child", mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--index", str(index),
               "--scale", self.args.scale, "--work", str(self.work)]
        if inject:
            cmd.append("--inject-failure")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._lost(f"{mode} pass {index} timed out")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            return self._lost(f"{mode} pass {index} exited "
                              f"{proc.returncode}")
        res = json.loads(lines[-1])
        self.attempted += res.get("attempted", 0)
        self.failed += res.get("failed", 0)
        self.notes += res.get("notes", [])
        return res

    def _lost(self, note: str):
        self.attempted += 1
        self.failed += 1
        self.notes.append(note)
        return None


def p90(values) -> float:
    """90th percentile, linear interpolation (numpy's default)."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def calibrated(p: dict) -> list[float]:
    """A pass's operation times, each over its local host slowdown."""
    return [t / s for t, s in zip(p["ops"], p["op_slowdown"])]


# ---------------------------------------------------------------------------
# end-to-end run (no tracing)
# ---------------------------------------------------------------------------

def run_end_to_end(runner: Runner):
    args = runner.args
    n = 1 if args.scale == "tiny" else max(
        1, round(PASSES[args.workload] * args.seconds / REFERENCE_SECONDS))
    passes = [runner.child("pass", i, args.inject_failure and i == 0)
              for i in range(n)]
    # set-up is sampled at least MIN_SETUP_SAMPLES times per run
    setups = passes + [runner.child("setup", i)
                       for i in range(max(0, MIN_SETUP_SAMPLES - n))]
    done = [p for p in passes if p and p.get("ops")]
    if not done:
        raise RuntimeError("no pass completed: " + "; ".join(runner.notes))
    # Times are at the reference host speed (see calibration.CAL_REF_S).
    # A chain metric is the mean over passes of each pass's value: with the
    # host's speed switches calibrated out, what is left between passes is
    # the dataset, and over 70 readme passes (seeds 1-10) the mean of five
    # spread less from seed to seed than the median did (in resampled sets
    # of ten seeds, the op_ms.p90 spread passed 0.24 in 0.2% of sets
    # against 7%). Set-up keeps the median of its samples: each is one
    # import, and one slow import should not move it.
    setup_samples = [(s["import_s"] + s["prep_s"]) / s["setup_slowdown"]
                     for s in setups if s]
    mean = statistics.fmean
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": mean(p["wall_s"] / p["slowdown"] for p in done),
        "op_ms.p50": 1e3 * mean(statistics.median(calibrated(p))
                                for p in done),
        "op_ms.p90": 1e3 * mean(p90(calibrated(p)) for p in done),
        "peak_rss_mb": mean(p["peak_rss_mb"] for p in done),
    }
    ops = sum(len(p["ops"]) for p in done)
    extras = [("passes", len(passes), "count"), ("ops", ops, "count"),
              ("host_slowdown", mean(p["slowdown"] for p in done), "ratio"),
              ("raw.wall_s", mean(p["wall_s"] for p in done), "s"),
              ("raw.op_ms.p50", 1e3 * mean(statistics.median(p["ops"])
                                           for p in done), "ms"),
              ("raw.op_ms.p90", 1e3 * mean(p90(p["ops"]) for p in done),
               "ms"),
              ("setup.import_s", statistics.median(
                  s["import_s"] for s in setups if s), "s")]
    if args.workload != "validate":
        extras += [("sweep_ms.p50", metrics["op_ms.p50"], "ms"),
                   ("sweep_ms.p90", metrics["op_ms.p90"], "ms"),
                   ("m_mean", mean(p["m_mean"] for p in done), "count"),
                   ("d_max", mean(p["d_max_mean"] for p in done), "count")]
    if args.workload == "readme":
        extras += [("fit_s", mean(p["fit_s"] for p in done), "s"),
                   ("summarize_s", mean(p["summarize_s"] for p in done),
                    "s")]
        extras += [(f"ess_per_s.{key}", mean(
            p["ess"][key] / p["fit_s"] for p in done), "1/s")
            for key in ("theta", "c", "loglik", "meanfn")]
    extras.append(("error_rate", runner.failed / max(1, runner.attempted),
                   "ratio"))
    return metrics, extras


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def run_traced(runner: Runner) -> dict:
    """An untraced reference pass and a traced replay of it, each in its
    own process; the replay must reproduce the reference exactly."""
    args = runner.args
    ref = runner.child("reference")
    traced = runner.child("traced", inject=args.inject_failure)
    if ref is None or traced is None:
        raise RuntimeError("traced run failed: " + "; ".join(runner.notes))
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["wall_s"] / ref["wall_s"]
    if args.workload == "validate":
        same = ref["values"] == traced["values"]
    else:
        same = Path(ref["archive"]).read_bytes() == \
            Path(traced["archive"]).read_bytes()
    layers["trace.fidelity"] = float(same)
    # a replay that drifts from run_chain is one failed operation, so the
    # result line shows that the layer numbers are unavailable
    runner.attempted += 1
    if not same:
        runner.failed += 1
        runner.notes.append("traced replay differs from the untraced run: "
                            "layer numbers unavailable")
    if "ess_per_s" in ref:
        layers["estimation.ess_ms"] = ref["ess_ms"]
        layers.update({f"ess_per_s.{k}": v
                       for k, v in ref["ess_per_s"].items()})
    return layers


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def emit(names_units, values: dict, runner: Runner, extras=()) -> None:
    """Print the metric table and the result line.

    Layers a workload does not run read 0 in its traced run.
    """
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in names_units}
    for name, unit in names_units:
        print(f"{name:34s} {metrics[name]['value']:>16.6g} {unit}")
    for name, value, unit in extras:
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for note in runner.notes:
        print(f"  note: {note}")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}), flush=True)


def run_all(args) -> int:
    """Each workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
        if args.inject_failure:
            cmd.append("--inject-failure")
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not __debug__:
        print("error: run without -O; output checks rely on assert",
              file=sys.stderr)
        return 1
    if not (SRC / "diffmix" / "__init__.py").is_file():
        print(f"error: no diffmix sources at {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    # single-threaded BLAS, set before numpy loads; child processes inherit
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.child:
        return child_main(args)
    if args.workload == "all":
        return run_all(args)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, work)
    try:
        if args.trace:
            emit(PER_LAYER, run_traced(runner), runner)
        else:
            metrics, extras = run_end_to_end(runner)
            emit(END_TO_END, metrics, runner, extras)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
