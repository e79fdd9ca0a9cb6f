"""Time each of the seven Gibbs updates on fixed README-shaped states,
and the growth of the truncation with cold and warm series tables.

The states come from one chain on README-shaped data (`simulate_toy`,
100 times x 5 observations, t_max 10, default_rng(7); Dirichlet process,
theta and c free, chain seed 1), taken after sweeps 30, 60, 90 and 120.
Each update is timed on a fresh copy of each state and generator; a
state's time is the median of --repeats runs and an update's the mean
over the states. Growth draws `count` new components on top of a state
(`gibbs._prior_components`, as `update_slice_and_truncation` does) at
counts 1, 2 and 4: cold at a (theta, c) no call has seen, as after a
theta or c move, warm at the state's own once its tables are built. The
label-swap update of a Pitman-Yor chain (sigma 0.25, the same data) is
timed too: it evaluates the path prior of one stick at a time. So are
the transition-latent update and the whole sweep (`gibbs_sweep`) of a
dense-workload-shaped chain (20 times x 2 observations at spacing 0.02,
default_rng(7); Dirichlet process, theta = 1 and c = 0.5 fixed, chain
seed 1, the same four sweeps), whose latent indices reach several
hundred. Last, growth by one component on
an irregular grid of 500 times (gaps uniform on [0.01, 0.1],
default_rng(3); 499 distinct gaps, each one series table) gives its
median time cold, at a fresh (theta, c) each call, and warm, at the c of
the call before it, and the tracemalloc peak over IRREGULAR_GROWTHS cold
calls: what the series tables hold at once. Each
run's time is divided by the host slowdown around it (`hostcal`) before
the medians are taken; the raw times are kept under "raw".

    PYTHONPATH=src python3 scripts/bench_sweep.py --out BENCH_sweep.json

Only the update functions and `_prior_components` are called, so the
same script times any checkout whose src it is pointed at.
"""

from __future__ import annotations

import copy

import numpy as np

import hostcal
from diffmix import gibbs
from diffmix.data import TimeGridDataset
from diffmix.measure import StickConfig
from diffmix.mixture import CenteringMeasure, simulate_toy

UPDATES = ("slice_and_truncation", "transition_latents", "stick_values",
           "locations", "hyperparams", "membership", "label_swaps")
STATE_SWEEPS = (30, 60, 90, 120)
GROWTH_COUNTS = (1, 2, 4)
DENSE_SPACING = 0.02
IRREGULAR_GROWTHS = 20


def readme_states(stick: StickConfig):
    """(data, cfg, states) of the README-shaped chain under stick."""
    data = simulate_toy(100, 5, 10.0, np.random.default_rng(7))
    cfg = gibbs.SamplerConfig(stick=stick, centering=CenteringMeasure(),
                              burn_in=30, iters=90, seed=1)
    return data, cfg, chain_states(data, cfg)


def dense_states():
    """(data, cfg, states) of the dense-workload-shaped chain."""
    data = simulate_toy(20, 2, DENSE_SPACING * 19, np.random.default_rng(7))
    cfg = gibbs.SamplerConfig(stick=StickConfig.dp(1.0, c=1.0),
                              centering=CenteringMeasure(), fix_theta=1.0,
                              fix_c=0.5, burn_in=30, iters=90, seed=1)
    return data, cfg, chain_states(data, cfg)


def chain_states(data, cfg):
    """Copies of cfg's chain on data after each of STATE_SWEEPS."""
    rng = np.random.default_rng(cfg.seed)
    state = gibbs.init_chain(data, cfg, rng)
    states = []
    for sweep in range(1, STATE_SWEEPS[-1] + 1):
        gibbs.gibbs_sweep(state, data, cfg, rng)
        if sweep in STATE_SWEEPS:
            states.append(copy.deepcopy(state))
    return states


def update_spans(update, data, cfg, states, repeats: int,
                 clock: hostcal.HostClock) -> list[range]:
    """Timings of one update on a copy of each state, one range a state."""
    spans = []
    for index, state in enumerate(states):
        copies = [(copy.deepcopy(state), np.random.default_rng(index))
                  for _ in range(repeats)]
        spans.append(clock.time(
            lambda i: update(copies[i][0], data, cfg, copies[i][1]),
            repeats))
    return spans


def growth_spans(data, cfg, states, count: int, warm: bool, repeats: int,
                 clock: hostcal.HostClock) -> list[range]:
    """Timings of drawing count components, one range a state."""
    spans = []
    for index, state in enumerate(states):
        rng = np.random.default_rng(index)

        def grow(i):
            # a fresh c each call misses every table, as after a move
            c = state.c if warm else state.c * (1.0 + 1e-9 * (i + 1))
            gibbs._prior_components(cfg, state.theta, c, count, state.m,
                                    data.gaps, rng)
        if warm:
            grow(0)
        spans.append(clock.time(grow, repeats))
    return spans


def irregular_growth(cfg, repeats: int, clock: hostcal.HostClock
                     ) -> tuple[range, range, float]:
    """(cold timings, warm timings, traced peak MB) of growth by one
    component on the irregular grid: cold at a fresh (theta, c) each
    call, warm at the c of the call before it."""
    times = np.cumsum(np.random.default_rng(3).uniform(0.01, 0.1, 500))
    data = TimeGridDataset(times=times,
                           values=tuple(np.zeros(1) for _ in times))

    def grow(i, c=None):
        gibbs._prior_components(
            cfg, 1.2, c or 0.8 * (1.0 + 1e-9 * (i + 1)), 1, 20, data.gaps,
            np.random.default_rng(i))

    def grow_all():
        for i in range(IRREGULAR_GROWTHS):
            grow(i)
    peak = hostcal.traced_peak(grow_all)
    cold = clock.time(lambda i: grow(IRREGULAR_GROWTHS + i), repeats)
    grow(0, 0.8)
    warm = clock.time(lambda i: grow(i, 0.8), repeats)
    return cold, warm, peak / 1e6


def main() -> None:
    args = hostcal.parser(__doc__, repeats=21).parse_args()
    clock = hostcal.HostClock()
    data, cfg, states = readme_states(StickConfig.dp(1.0, c=1.0))
    spans = {f"{name}_ms": update_spans(getattr(gibbs, f"update_{name}"),
                                        data, cfg, states, args.repeats,
                                        clock)
             for name in UPDATES}
    for count in GROWTH_COUNTS:
        for kind in ("cold", "warm"):
            spans[f"growth_{kind}_{count}_ms"] = growth_spans(
                data, cfg, states, count, kind == "warm", args.repeats, clock)
    py_data, py_cfg, py_states = readme_states(
        StickConfig.pitman_yor(1.0, 0.25, c=1.0))
    spans["py_label_swaps_ms"] = update_spans(
        gibbs.update_label_swaps, py_data, py_cfg, py_states, args.repeats,
        clock)
    dense_data, dense_cfg, dense = dense_states()
    spans["dense_transition_latents_ms"] = update_spans(
        gibbs.update_transition_latents, dense_data, dense_cfg, dense,
        args.repeats, clock)
    spans["dense_sweep_ms"] = update_spans(
        gibbs.gibbs_sweep, dense_data, dense_cfg, dense, args.repeats, clock)
    cold, warm, peak_mb = irregular_growth(cfg, max(1, args.repeats // 4),
                                           clock)
    spans["irregular_growth_ms"] = [cold]
    spans["irregular_growth_warm_ms"] = [warm]
    result = clock.report({"irregular_growth_peak_mb": peak_mb}, spans,
                          scale=1e3)
    result.update({
        "m": [int(s.m) for s in states],
        "d_max": [int(s.trans_d.max()) for s in states],
        "py_m": [int(s.m) for s in py_states],
        "dense_m": [int(s.m) for s in dense],
        "dense_d_max": [int(s.trans_d.max()) for s in dense],
        "repeats": args.repeats})
    hostcal.write(result, args.out)


if __name__ == "__main__":
    main()
