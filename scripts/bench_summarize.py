"""Time `summarize` and its three exports at 2,000 draws.

Synthetic draws over 100 times with truncation levels m drawn from
15..29 (default_rng(0)), the shape of a long README-scale fit, reduced
on the README's 161-point grid -4:8. Each time is the median of
--repeats runs; each traced peak is tracemalloc's peak over one more
run of the same call, beyond what the surface or the draws already
hold. Each run's time is divided by the host slowdown around it
(`hostcal`); the raw times are kept under "raw".

    PYTHONPATH=src python3 scripts/bench_summarize.py --out BENCH_summarize.json

Only public entry points are called (`summarize` and
`DensitySurface.export`), so the same script times any checkout whose
src has them.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

import hostcal
from diffmix.estimation import summarize
from diffmix.store import PosteriorDraws

N_DRAWS, N_TIMES, M_RANGE = 2_000, 100, (15, 30)
GRID = np.linspace(-4.0, 8.0, 161)


def synthetic_draws(rng: np.random.Generator) -> PosteriorDraws:
    """NaN-padded draws whose m varies over M_RANGE, sticks in
    (0.05, 0.95), atom means N(2, 2^2) and precisions in (1, 5)."""
    ms = rng.integers(*M_RANGE, N_DRAWS)
    width = M_RANGE[1] - 1
    sticks = np.full((N_DRAWS, width, N_TIMES), np.nan)
    mean = np.full((N_DRAWS, width), np.nan)
    prec = np.full((N_DRAWS, width), np.nan)
    for i, m in enumerate(ms.tolist()):
        sticks[i, :m] = rng.uniform(0.05, 0.95, (m, N_TIMES))
        mean[i, :m] = rng.normal(2.0, 2.0, m)
        prec[i, :m] = rng.uniform(1.0, 5.0, m)
    return PosteriorDraws(times=np.linspace(0.0, 10.0, N_TIMES), m=ms,
                          theta=np.ones(N_DRAWS), c=np.ones(N_DRAWS),
                          sticks=sticks, atom_mean=mean, atom_prec=prec)


def main() -> None:
    args = hostcal.parser(__doc__, repeats=5).parse_args()
    clock = hostcal.HostClock(batch=hostcal.CAL_BATCH)
    draws = synthetic_draws(np.random.default_rng(0))
    surface = summarize(draws, GRID)
    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(Path(tmp, "surface"))
        spans = {
            "summarize_s": clock.time(lambda _: summarize(draws, GRID),
                                      args.repeats),
            "export_s": clock.time(lambda _: surface.export(prefix),
                                   args.repeats),
        }
        result = {
            "summarize_peak_bytes": hostcal.traced_peak(
                lambda: summarize(draws, GRID)),
            "export_peak_bytes": hostcal.traced_peak(
                lambda: surface.export(prefix)),
            "export_bytes": sum(Path(f"{prefix}{end}").stat().st_size for end
                                in (".density.csv", ".mean.csv", ".json")),
        }
    clock.report(result, {key: [span] for key, span in spans.items()})
    result.update({"n_draws": N_DRAWS, "n_times": N_TIMES,
                   "grid_n": len(GRID),
                   "m_range": [M_RANGE[0], M_RANGE[1] - 1],
                   "repeats": args.repeats})
    hostcal.write(result, args.out)


if __name__ == "__main__":
    main()
