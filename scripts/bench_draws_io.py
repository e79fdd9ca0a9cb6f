"""Time the draws archive and a checkpoint at 2,000 draws.

Synthetic draws over 100 times with truncation levels m drawn from
15..29 (default_rng(0)), the shape of a long README-scale fit: the
archive is saved and loaded through PosteriorDraws, the checkpoint
through save_checkpoint and load_checkpoint on a chain state of the
same grid. Each operation's time is the median of --repeats runs, each
run divided by the host slowdown around it (`hostcal`); the raw times
are kept under "raw".

    PYTHONPATH=src python3 scripts/bench_draws_io.py --out BENCH_draws_io.json

Only public store entry points are called, on snapshots whose atoms
are two columns (`atom_mean`, `atom_prec`), so the same script times
any checkout whose src stores that layout.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

import hostcal
from diffmix.data import TimeGridDataset
from diffmix.gibbs import SamplerConfig, init_chain
from diffmix.measure import StickConfig
from diffmix.mixture import CenteringMeasure
from diffmix.store import (PosteriorDraws, load_checkpoint,
                           save_checkpoint)

N_DRAWS, N_TIMES, M_RANGE = 2_000, 100, (15, 30)


def snapshots(rng: np.random.Generator) -> list[dict]:
    """Per-draw snapshot dicts: sticks, atom means and precisions."""
    out = []
    for m in rng.integers(*M_RANGE, N_DRAWS).tolist():
        mean, prec = rng.normal(size=m), rng.uniform(1, 2, m)
        out.append({"sticks": rng.uniform(0.05, 0.95, (m, N_TIMES)),
                    "atom_mean": mean, "atom_prec": prec,
                    "theta": float(rng.uniform(1, 2)),
                    "c": float(rng.uniform(1, 2))})
    return out


def main() -> None:
    args = hostcal.parser(__doc__, repeats=5).parse_args()
    clock = hostcal.HostClock(batch=hostcal.CAL_BATCH)
    rng = np.random.default_rng(0)
    snaps = snapshots(rng)
    times = np.arange(N_TIMES, dtype=float)
    data = TimeGridDataset(times=times, values=tuple(
        np.array([v]) for v in rng.normal(size=N_TIMES)))
    cfg = SamplerConfig(stick=StickConfig.dp(1.0), centering=CenteringMeasure(),
                        burn_in=0, iters=N_DRAWS, seed=1)
    state = init_chain(data, cfg, np.random.default_rng(1))
    state.sweep = N_DRAWS  # a sweep that has collected every draw
    draws = PosteriorDraws.from_snapshots(times, snaps, cfg)
    own = sum(s[name].nbytes for s in snaps
              for name in ("sticks", "atom_mean", "atom_prec"))
    with tempfile.TemporaryDirectory() as tmp:
        archive, checkpoint = Path(tmp, "draws.npz"), Path(tmp, "cp.npz")
        spans = {
            "archive_save_s": clock.time(lambda _: draws.save(archive),
                                         args.repeats),
            "archive_load_s": clock.time(
                lambda _: PosteriorDraws.load(archive), args.repeats),
            "checkpoint_save_s": clock.time(lambda _: save_checkpoint(
                checkpoint, state, np.random.default_rng(2), cfg, snaps),
                args.repeats),
            "checkpoint_load_s": clock.time(lambda _: load_checkpoint(
                checkpoint, cfg, data), args.repeats),
        }
        result = {"archive_bytes": archive.stat().st_size,
                  "checkpoint_bytes": checkpoint.stat().st_size}
    clock.report(result, {key: [span] for key, span in spans.items()})
    result.update({"own_row_bytes": own, "n_draws": N_DRAWS,
                   "n_times": N_TIMES, "m_range": [M_RANGE[0], M_RANGE[1] - 1],
                   "repeats": args.repeats})
    hostcal.write(result, args.out)


if __name__ == "__main__":
    main()
