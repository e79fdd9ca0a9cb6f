"""Effective samples per second of the README-shaped chain (W1).

W1 is README-shaped data (`simulate_toy`, 100 times x 5 observations,
t_max 10, default_rng(7)) fitted by a Dirichlet-process chain with theta
and c free: 2,000 sweeps, the first 500 burn-in, every later sweep
kept. Per chain seed the file gives:

- wall_s: `run_chain`'s seconds divided by the host slowdown. A
  calibration kernel is timed after every sweep, outside the timings
  (perfbench's `SweepClock`), and each sweep is scaled by the slowdown
  around it; the raw seconds are kept under "raw".
- ess: `estimation.effective_sample_size` of theta, c, the per-sweep
  log-likelihood and the mean functional at time indices 0, 50 and 99
  (meanfn_i0, meanfn_i50, meanfn_i99, each draw's from
  `mixture.renormalised_mixture`; the times are under "mean_times");
  ess_per_s divides each by wall_s.
- coverage and rmse: acceptance criterion 8's measures on this chain,
  the fraction of times whose 95% mean band holds `toy_mean` and the
  RMS error of the posterior median mean.

    PYTHONPATH=src python3 scripts/bench_mixing.py --out BENCH_mixing.json

Only public entry points are called, so the same script measures any
checkout whose src it is pointed at.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import hostcal
from calibration import effective_slowdown, local_slowdowns
from harness import SweepClock, telemetry_loglik
from diffmix.estimation import (coverage_report, effective_sample_size,
                                summarize)
from diffmix.gibbs import SamplerConfig, run_chain
from diffmix.measure import StickConfig
from diffmix.mixture import (CenteringMeasure, renormalised_mixture,
                             simulate_toy, toy_density, toy_mean)

BURN_IN, ITERS = 500, 1_500
MEAN_TIMES = (0, 50, 99)
# criterion 8's grid
GRID = np.linspace(-3.0, 5.5, 101)


def chain(data, seed: int) -> dict:
    """One W1 chain at seed: timings, ESS and criterion 8's measures."""
    cfg = SamplerConfig(stick=StickConfig.dp(1.0, c=1.0),
                        centering=CenteringMeasure(), burn_in=BURN_IN,
                        iters=ITERS, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "telemetry.log")
        with open(path, "w", encoding="utf-8") as telemetry, \
                SweepClock() as clock:
            start = time.perf_counter()
            draws = run_chain(data, cfg, telemetry=telemetry)
            wall = time.perf_counter() - start - clock.overhead_s
        loglik = telemetry_loglik(path, BURN_IN)
    slowdown = effective_slowdown(clock.times, local_slowdowns(clock.cal))
    means = np.array([renormalised_mixture(
        draws.sticks[i, :m], draws.atom_mean[i, :m])[list(MEAN_TIMES)]
        for i, m in enumerate(draws.m.tolist())])
    ess = {"theta": effective_sample_size(draws.theta),
           "c": effective_sample_size(draws.c),
           "loglik": effective_sample_size(loglik),
           **{f"meanfn_i{j}": effective_sample_size(means[:, k])
              for k, j in enumerate(MEAN_TIMES)}}
    surface = summarize(draws, GRID)
    truth = toy_mean(surface.times)
    return {
        "wall_s": wall / slowdown, "host_slowdown": slowdown,
        "ess": ess,
        "ess_per_s": {key: value * slowdown / wall
                      for key, value in ess.items()},
        "raw": {"wall_s": wall,
                "ess_per_s": {key: value / wall
                              for key, value in ess.items()}},
        "coverage": coverage_report(surface, toy_mean,
                                    toy_density).mean_coverage,
        "rmse": float(np.sqrt(np.mean((surface.mean_median - truth) ** 2))),
        "draws": draws.n_draws,
    }


def main() -> None:
    parser = hostcal.parser(__doc__)
    parser.add_argument("--seeds", default="1,2,3,4,5",
                        help="comma-separated chain seeds")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    data = simulate_toy(100, 5, 10.0, np.random.default_rng(7))
    chains = {str(seed): chain(data, seed) for seed in seeds}
    result = {
        "chains": chains,
        "median_ess_per_s": {key: statistics.median(
            c["ess_per_s"][key] for c in chains.values())
            for key in next(iter(chains.values()))["ess_per_s"]},
        "burn_in": BURN_IN, "iters": ITERS, "seeds": seeds,
        "mean_times": [float(data.times[j]) for j in MEAN_TIMES]}
    hostcal.write(result, args.out)


if __name__ == "__main__":
    main()
