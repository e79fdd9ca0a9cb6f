"""Workload definitions, timed passes and output checks of the benchmark.

A run of one workload is a number of identical-shape passes. Pass i of a
chain workload draws its own dataset from `simulate_toy` under
SeedSequence([seed, i]) and runs one chain at the fixed chain seed 1 (the
README's `fit --seed 1`); the program sees only the generated data. A
pass of `validate` runs the full battery at the CLI's default seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from calibration import (CAL_BATCH, calibration_sample, effective_slowdown,
                         host_slowdown, local_slowdowns)
from diffmix import cli, gibbs
from diffmix.data import TimeGridDataset
from diffmix.errors import DiffmixError
from diffmix.estimation import (DensitySurface, coverage_report,
                                effective_sample_size)
from diffmix.measure import StickConfig, sticks_to_weights_matrix
from diffmix.mixture import (CenteringMeasure, simulate_toy, toy_density,
                             toy_mean)
from diffmix.validate import FULL_CHECKS

CHAIN_SEED = 1
VALIDATE_SEED = 0
README_GRID = (-4.0, 8.0, 161)
CHECKPOINT_EVERY = 30
# Floors for the readme outputs, from 31 full-size readme passes (seeds
# 1-10, passes 0-2) on the seed code: mean-band coverage of the toy truth
# 0.42-0.73, density-band coverage 0.067-0.116 (the cut-down chain has
# not converged), posterior-mean density mass on the grid 0.955-0.998
# (atoms drawn from the wide centering prior put some mass off the grid).
COVERAGE_FLOOR = {"mean": 0.25, "density": 0.03}
DENSITY_MASS_RANGE = (0.90, 1.005)


@dataclass(frozen=True)
class ChainSpec:
    """Size of one chain pass; the first `warmup` sweeps of each pass are
    left out of the per-sweep percentiles."""

    n_times: int
    per_time: int
    t_max: float
    burn_in: int
    iters: int
    warmup: int


# Spacing 0.02 between times, as in the ROADMAP's dense workload.
DENSE_SPACING = 0.02

SPECS = {
    "full": {
        "readme": ChainSpec(100, 5, 10.0, burn_in=30, iters=90, warmup=0),
        "dense": ChainSpec(20, 2, DENSE_SPACING * 19, burn_in=10, iters=100,
                           warmup=10),
    },
    "tiny": {
        "readme": ChainSpec(12, 3, 2.0, burn_in=5, iters=15, warmup=0),
        "dense": ChainSpec(6, 2, DENSE_SPACING * 5, burn_in=3, iters=10,
                           warmup=3),
    },
}

# Reduced check sizes for the harness self-test only.
TINY_CHECK_SIZES = {
    "stationarity": {"n": 2000},
    "exact_vs_euler": {"n": 500, "step": 1e-3}, "dp_moments": {"reps": 200},
    "acf": {"reps": 200}, "mean_reversion": {"n": 2000},
    "deficit": {"reps": 2000}, "euler_ergodic": {"steps": 20_000},
}


def sampler_config(workload: str, spec: ChainSpec) -> gibbs.SamplerConfig:
    """The chain each workload fits.

    readme matches `diffmix fit --seed 1` with default settings. dense
    fixes theta = 1 and c = theta / 2 (`--fix-theta 1 --fix-c 0.5`): with
    both free, per-sweep cost follows the slowly mixing theta, so the
    chain's path would set it. dense keeps the
    default transition slice rate, so a NumericalError from the slice
    o = exp(-0.5 d) U underflowing (once a latent index d passes about
    1,490; see perfbench/README.md) shows as a failed sweep.
    """
    common = dict(centering=CenteringMeasure(), burn_in=spec.burn_in,
                  iters=spec.iters, thin=1, seed=CHAIN_SEED)
    if workload == "readme":
        return gibbs.SamplerConfig(stick=StickConfig.dp(1.0, c=1.0), **common)
    if workload == "dense":
        return gibbs.SamplerConfig(stick=StickConfig.dp(1.0, c=1.0),
                                   fix_theta=1.0, fix_c=0.5, **common)
    raise ValueError(f"not a chain workload: {workload}")


def make_dataset(spec: ChainSpec, seed: int, index: int) -> TimeGridDataset:
    rng = np.random.default_rng([seed, index])
    return simulate_toy(spec.n_times, spec.per_time, spec.t_max, rng)


class SweepClock:
    """Times each `gibbs_sweep` call that `run_chain` makes.

    After each sweep, outside its timing, it reads the gauges m and max d
    and takes one calibration sample; `overhead_s` is the time all that
    added to the run. The last (state, data, cfg) is kept for the
    invariant check.
    """

    def __init__(self):
        self.times: list[float] = []
        self.m: list[int] = []
        self.d_max: list[int] = []
        self.cal: list[float] = []
        self.overhead_s = 0.0
        self.last = None
        self._original = None

    def __enter__(self):
        self._original = original = gibbs.gibbs_sweep

        def timed(state, data, cfg, rng):
            start = time.perf_counter()
            out = original(state, data, cfg, rng)
            stop = time.perf_counter()
            self.times.append(stop - start)
            self.m.append(state.m)
            self.d_max.append(int(state.trans_d.max(initial=0)))
            self.last = (state, data, cfg)
            self.cal.append(calibration_sample())
            self.overhead_s += time.perf_counter() - stop
            return out

        gibbs.gibbs_sweep = timed
        return self

    def __exit__(self, *exc):
        gibbs.gibbs_sweep = self._original
        return False


@dataclass
class Tally:
    """Operations and output checks attempted and failed in one run."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def counts(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "notes": self.notes}

    def check(self, name: str, fn) -> None:
        """Run one output check; a raised AssertionError is a failure
        (gibbs.check_invariants reports through assert as well)."""
        try:
            fn()
        except AssertionError as exc:
            self.op(False, f"check {name} failed: {exc}")
        else:
            self.op(True)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def require(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_invariants(last, inject: bool) -> None:
    require(last is not None, "no sweep completed")
    state, data, cfg = last
    if inject:
        state.u[0] = 1.0  # a slice variable outside (0, psi(s))
    gibbs.check_invariants(state, data, cfg)


def _same_draws(a: gibbs.PosteriorDraws, b: gibbs.PosteriorDraws) -> bool:
    return (a.config_json == b.config_json
            and a.config_digest == b.config_digest
            and all(np.array_equal(getattr(a, f), getattr(b, f),
                                   equal_nan=True)
                    for f in ("times", "m", "theta", "c", "sticks",
                              "atom_mean", "atom_prec")))


def check_archive_round_trip(path: Path, draws=None) -> None:
    """save -> load keeps every array; saving the loaded draws again
    reproduces the file byte for byte."""
    loaded = gibbs.PosteriorDraws.load(path)
    if draws is not None:
        require(_same_draws(draws, loaded), "loaded archive differs")
    again = path.with_suffix(".again.npz")
    loaded.save(again)
    require(again.read_bytes() == path.read_bytes(), "re-saved bytes differ")
    require(_same_draws(loaded, gibbs.PosteriorDraws.load(again)),
            "re-saved archive reads back differently")


def load_surface(path: Path) -> DensitySurface:
    doc = json.loads(path.read_text(encoding="utf-8"))
    dens = doc["density"]
    mf = doc["mean_functional"]
    arr = np.asarray
    return DensitySurface(
        times=arr(doc["times"]), y_grid=arr(doc["y_grid"]),
        dens_q025=arr(dens["q025"]), dens_q50=arr(dens["q50"]),
        dens_q975=arr(dens["q975"]), dens_mean=arr(dens["mean"]),
        mean_mode=arr(mf["mode"]), mean_mean=arr(mf["mean"]),
        mean_median=arr(mf["median"]), mean_lo=arr(mf["lo"]),
        mean_hi=arr(mf["hi"]))


def check_density_mass(surface: DensitySurface) -> None:
    """Every posterior-mean density row integrates to about 1 on the grid."""
    mass = np.trapezoid(surface.dens_mean, surface.y_grid, axis=1)
    lo, hi = DENSITY_MASS_RANGE
    require(lo <= mass.min() and mass.max() <= hi,
            f"density row mass in [{mass.min():.4g}, {mass.max():.4g}]")


def check_coverage(surface: DensitySurface) -> None:
    rep = coverage_report(surface, toy_mean, toy_density)
    require(rep.mean_coverage >= COVERAGE_FLOOR["mean"],
            f"mean coverage {rep.mean_coverage:.3f}")
    require(rep.density_coverage >= COVERAGE_FLOOR["density"],
            f"density coverage {rep.density_coverage:.3f}")


def check_validate_results(results, inject: bool) -> None:
    """Every check passed, and each pass flag agrees with its numbers."""
    if inject:
        first = results[0]
        bad = first.threshold * 2 + 1 if first.comparison == "<" \
            else first.threshold - abs(first.threshold) - 1
        results = [replace(first, value=bad)] + list(results[1:])
    for res in results:
        holds = res.value < res.threshold if res.comparison == "<" \
            else res.value > res.threshold
        require(res.passed and holds, res.line())


# ---------------------------------------------------------------------------
# mixing diagnostics
# ---------------------------------------------------------------------------

def rank_ess(trace) -> float:
    """ESS of the rank-normalised trace (normal scores of the ranks).

    Single chain, not split; 0 for a constant trace. Uses the
    initial-positive-sequence estimator of diffmix.estimation.
    """
    x = np.asarray(trace, dtype=float)
    if len(x) < 10 or np.ptp(x) == 0:
        return 0.0
    z = ndtri((rankdata(x) - 0.375) / (len(x) + 0.25))
    return effective_sample_size(z)


def mean_functional_draws(draws: gibbs.PosteriorDraws) -> np.ndarray:
    """(draws, times) mean functional, renormalised by the kept mass."""
    out = np.empty((draws.n_draws, len(draws.times)))
    for i in range(draws.n_draws):
        mi = int(draws.m[i])
        v = draws.sticks[i, :mi]
        kept = 1.0 - np.prod(1.0 - v, axis=0)
        out[i] = sticks_to_weights_matrix(v).T @ draws.atom_mean[i, :mi] / kept
    return out


def telemetry_loglik(path: Path, burn_in: int) -> np.ndarray:
    vals = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = dict(kv.split("=", 1) for kv in line.split())
        if int(fields["sweep"]) > burn_in:
            vals.append(float(fields["loglik"]))
    return np.array(vals)


def mixing(draws, loglik: np.ndarray) -> dict:
    """Rank-normalised ESS of theta, c, loglik and the mean functional
    (median over times)."""
    mf = mean_functional_draws(draws)
    return {
        "theta": rank_ess(draws.theta), "c": rank_ess(draws.c),
        "loglik": rank_ess(loglik),
        "meanfn": float(np.median([rank_ess(mf[:, j])
                                   for j in range(mf.shape[1])])),
    }


# ---------------------------------------------------------------------------
# passes: each runs in a fresh process and returns a JSON-ready dict
# ---------------------------------------------------------------------------

def readme_cli_args(csv: Path, out: Path, work: Path, index: int,
                    spec: ChainSpec) -> list[str]:
    return ["fit", str(csv), "--out", str(out),
            "--burn-in", str(spec.burn_in), "--iters", str(spec.iters),
            "--thin", "1", "--seed", str(CHAIN_SEED),
            "--telemetry", str(work / f"telemetry{index}.log"),
            "--checkpoint", str(work / f"checkpoint{index}.npz"),
            "--checkpoint-every", str(CHECKPOINT_EVERY), "--quiet"]


def prepare(workload: str, spec: ChainSpec, seed: int, index: int,
            work: Path):
    """Data generation, CSV round trip and a discarded init_chain."""
    start = time.perf_counter()
    data = make_dataset(spec, seed, index)
    csv = work / f"data{index}.csv"
    data.to_csv(csv)
    data = TimeGridDataset.from_csv(csv)
    cfg = sampler_config(workload, spec)
    gibbs.init_chain(data, cfg, np.random.default_rng(cfg.seed))
    return data, cfg, csv, time.perf_counter() - start


def setup_pass(workload: str, scale: str, seed: int, index: int,
               work: Path) -> dict:
    """Set-up only: what a pass does before its timed work."""
    if workload == "validate":
        return {"prep_s": 0.0}
    *_, prep_s = prepare(workload, SPECS[scale][workload], seed, index, work)
    return {"prep_s": prep_s}


def chain_pass(workload: str, scale: str, seed: int, index: int, work: Path,
               inject: bool) -> dict:
    """One fit of a fresh chain on dataset `index`, then its output checks.

    readme goes through `diffmix fit` and `diffmix summarize` (cli.main);
    the other chain workloads call run_chain. Every sweep is one
    operation; a sweep that raises ends the pass as a failed operation.
    """
    spec = SPECS[scale][workload]
    tally = Tally()
    data, cfg, csv, prep_s = prepare(workload, spec, seed, index, work)
    res = {"prep_s": prep_s, "fit_s": 0.0, "summarize_s": 0.0}
    archive = work / f"draws{index}.npz"
    draws = None
    with SweepClock() as clock:
        start = time.perf_counter()
        if workload == "readme":
            ok = cli.main(readme_cli_args(csv, archive, work, index,
                                          spec)) == 0
            res["fit_s"] = time.perf_counter() - start
            if ok:
                t1 = time.perf_counter()
                ok = cli.main(["summarize", str(archive), "--out-prefix",
                               str(work / f"surface{index}"),
                               "--y-grid=%g:%g:%d" % README_GRID]) == 0
                res["summarize_s"] = time.perf_counter() - t1
        else:
            try:
                draws = gibbs.run_chain(data, cfg)
                ok = True
            except DiffmixError as exc:
                ok = False
                tally.notes.append(f"pass {index}: {exc}")
            res["fit_s"] = time.perf_counter() - start
        res["wall_s"] = time.perf_counter() - start
    res["fit_s"] -= clock.overhead_s
    res["wall_s"] -= clock.overhead_s
    for _ in clock.times:
        tally.op(True)
    if not ok:
        tally.op(False, f"pass {index}: fit or summarize failed after "
                        f"{len(clock.times)} sweeps")
        return {**res, **tally.counts()}
    slow = local_slowdowns(clock.cal)
    res["ops"] = clock.times[spec.warmup:]
    res["op_slowdown"] = slow[spec.warmup:]
    res["slowdown"] = effective_slowdown(clock.times, slow)
    res["m_mean"] = float(np.mean(clock.m))
    res["d_max_mean"] = float(np.mean(clock.d_max))
    tally.check("invariants", lambda: check_invariants(clock.last, inject))
    if draws is not None:
        draws.save(archive)
    tally.check("archive_round_trip",
                lambda: check_archive_round_trip(archive, draws))
    if workload == "readme":
        surface = load_surface(work / f"surface{index}.json")
        tally.check("density_mass", lambda: check_density_mass(surface))
        tally.check("coverage", lambda: check_coverage(surface))
        loglik = telemetry_loglik(work / f"telemetry{index}.log",
                                  spec.burn_in)
        res["ess"] = mixing(gibbs.PosteriorDraws.load(archive), loglik)
    return {**res, **tally.counts()}


def validate_pass(scale: str, inject: bool, tracer=None) -> dict:
    """The full battery in `run_validation` order, one op per check.

    Calibration samples are taken before the first check and after each
    check, outside their timings. All checks share one slowdown, the
    median of all the samples: a check lasts up to seconds, and the
    samples at its two ends told its speed worse than all of them did
    (over five batteries, the coefficient of variation of the p50 check
    time was 0.066 with the shared slowdown, 0.131 with the ends').
    """
    tally = Tally()
    rng = np.random.default_rng(VALIDATE_SEED)
    ops, values = [], []
    cal = [calibration_sample() for _ in range(CAL_BATCH)]
    overhead = 0.0
    first = next(iter(FULL_CHECKS))
    start = time.perf_counter()
    for name, fn in FULL_CHECKS.items():
        kwargs = TINY_CHECK_SIZES.get(name, {}) if scale == "tiny" else {}
        t0 = time.perf_counter()
        if tracer is None:
            results = fn(rng, **kwargs)
        else:
            with tracer.span(f"validate.{name}"):
                results = fn(rng, **kwargs)
        t1 = time.perf_counter()
        ops.append(t1 - t0)
        cal += [calibration_sample() for _ in range(CAL_BATCH)]
        overhead += time.perf_counter() - t1
        values.extend(r.value for r in results)
        tally.check(name, lambda: check_validate_results(
            results, inject and name == first))
    wall = time.perf_counter() - start - overhead
    slow = host_slowdown(cal)
    return {"prep_s": 0.0, "wall_s": wall, "ops": ops,
            "op_slowdown": [slow] * len(ops), "values": values,
            "slowdown": slow, **tally.counts()}


def reference_pass(workload: str, scale: str, seed: int, work: Path) -> dict:
    """Untraced half of a traced run: run_chain (with the side outputs
    `fit` adds on readme) on dataset 0, its archive, and on readme the
    mixing diagnostics per second of fit."""
    if workload == "validate":
        return validate_pass(scale, False)
    spec = SPECS[scale][workload]
    tally = Tally()
    data, cfg, _, _ = prepare(workload, spec, seed, 0, work)
    readme = workload == "readme"
    telemetry = work / "telemetry_plain.log"
    with open(telemetry, "w", encoding="utf-8") as tel, SweepClock() as clock:
        start = time.perf_counter()
        draws = gibbs.run_chain(data, cfg, telemetry=tel if readme else None,
                                **side_outputs(workload, work, "plain"))
        wall = time.perf_counter() - start - clock.overhead_s
    for _ in clock.times:
        tally.op(True)
    archive = work / "draws_plain.npz"
    draws.save(archive)
    tally.check("archive_round_trip",
                lambda: check_archive_round_trip(archive, draws))
    res = {"wall_s": wall, "archive": str(archive)}
    if readme:
        start = time.perf_counter()
        ess = mixing(draws, telemetry_loglik(telemetry, cfg.burn_in))
        res["ess_ms"] = 1e3 * (time.perf_counter() - start)
        res["ess_per_s"] = {k: v / wall for k, v in ess.items()}
    return {**res, **tally.counts()}


def side_outputs(workload: str, work: Path, tag: str) -> dict:
    """Checkpoint arguments of run_chain: readme writes them, as `fit
    --checkpoint-every` does; dense does not."""
    if workload != "readme":
        return {}
    return {"checkpoint_path": work / f"checkpoint_{tag}.npz",
            "checkpoint_every": CHECKPOINT_EVERY}
