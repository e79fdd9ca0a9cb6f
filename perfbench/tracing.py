"""Traced replay of `gibbs.run_chain`, with spans around every layer call.

The replay calls the public `gibbs.update_*` functions in the order of
`gibbs_sweep`, plus the snapshot, telemetry and checkpoint steps of
`run_chain`, and records one span per call. Spans stay in memory until
the run ends; a layer's self time is its span's duration minus the time
its child spans cover. Work gauges (truncation level, latent index,
padded support of `_draw_rows`, retries, swap moves, acceptances) are
rebuilt from the chain state around each call, outside the layer spans.

The replay must write a draws archive byte-identical to `run_chain` at
the same seed; the caller compares the two and marks the layer
numbers unavailable when they differ (for example after `gibbs_sweep`
is reordered).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import harness
from diffmix import gibbs, wf
from diffmix.data import TimeGridDataset
from diffmix.estimation import summarize

# (span name, function name in diffmix.gibbs), in gibbs_sweep's order.
UPDATES = (
    ("gibbs.slice", "update_slice_and_truncation"),
    ("gibbs.latents", "update_transition_latents"),
    ("gibbs.sticks", "update_stick_values"),
    ("gibbs.atoms", "update_locations"),
    ("gibbs.hyper", "update_hyperparams"),
    ("gibbs.membership", "update_membership"),
    ("gibbs.swaps", "update_label_swaps"),
)


class Tracer:
    """In-memory span recorder; one tracer per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def totals(self) -> tuple[dict, dict, dict]:
        """(total seconds, self seconds, call count) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict = {}
        self_s: dict = {}
        calls: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1
        return total, self_s, calls


class Gauges:
    """Work counters rebuilt from the chain state around each update."""

    def __init__(self):
        self.sweeps = 0
        self.m_sum = 0
        self.grown = 0
        self.dropped = 0
        self.cells = 0
        self.d_max_sum = 0
        self.d_sum = 0
        self.padded = 0
        self.useful = 0
        self.retries = 0
        self.proposals = 0
        self.moved = 0
        self.prop_theta = 0
        self.acc_theta = 0
        self.prop_c = 0
        self.acc_c = 0
        self.checkpoint_bytes = 0
        self.nb_keys: set = set()

    def latents(self, d_before, state, eta2: float) -> None:
        """Rows x padded support of both `_draw_rows` calls.

        The k draw pads every cell to max(d) + 1 points of {0..d}; the d
        draw pads to max(d_hi) + 1 points, of which {k..d_hi} are in
        support, with d_hi = floor(-log(o) / eta2) from the fresh slices.
        """
        cells = d_before.size
        if cells == 0:
            return
        d_hi = np.floor(-np.log(state.trans_o) / eta2).astype(np.int64)
        self.cells += cells
        self.padded += cells * (int(d_before.max()) + 1) \
            + cells * (int(d_hi.max()) + 1)
        self.useful += int(np.sum(d_before + 1)) \
            + int(np.sum(d_hi - state.trans_k + 1))
        self.d_max_sum += int(state.trans_d.max())
        self.d_sum += int(state.trans_d.sum())

    @staticmethod
    def swap_moves(atoms_before: np.ndarray, atoms_after: np.ndarray) -> int:
        """Accepted adjacent swaps of one left-to-right swap pass.

        Each accepted swap moves a component past one it had not passed
        yet, so the count equals the inversions of the permutation that
        maps old positions to new ones (atoms identify components).
        """
        before = atoms_before[:, 0]
        order = np.argsort(before)
        perm = order[np.searchsorted(before[order], atoms_after[:, 0])]
        return int(np.sum(np.triu(perm[:, None] > perm[None, :], 1)))


# run_chain's telemetry record; the program has no function for it
def telemetry_line(state, loglik: float) -> str:
    return (f"sweep={state.sweep} m={state.m} theta={state.theta:.6g} "
            f"c={state.c:.6g} acc_theta={state.mh.rate_theta():.3f} "
            f"acc_c={state.mh.rate_c():.3f} loglik={loglik:.6g}\n")


@contextmanager
def traced_sample_nb(tracer: Tracer, gauges: Gauges):
    """Wrap `wf.sample_nb` with a span and record its cache keys."""
    original = wf.sample_nb

    def wrapper(t, p, rng, size=None):
        gauges.nb_keys.add((p.a + p.b, p.c * t))
        with tracer.span("wf.sample_nb"):
            return original(t, p, rng, size=size)

    wf.sample_nb = wrapper
    try:
        yield
    finally:
        wf.sample_nb = original


def traced_run_chain(data, cfg, tracer: Tracer, gauges: Gauges, *,
                     telemetry=None, checkpoint_path=None,
                     checkpoint_every: int | None = None):
    """`run_chain` replayed call by call under `tracer`."""
    rng = np.random.default_rng(cfg.seed)
    with traced_sample_nb(tracer, gauges):
        with tracer.span("gibbs.init"):
            state = gibbs.init_chain(data, cfg, rng)
        snapshots: list[dict] = []
        total = cfg.burn_in + cfg.iters
        updates = [(name, getattr(gibbs, fn)) for name, fn in UPDATES
                   if cfg.label_swap_moves or name != "gibbs.swaps"]
        for _ in range(state.sweep, total):
            _traced_sweep(state, data, cfg, rng, tracer, gauges, updates)
            post = state.sweep - cfg.burn_in
            if post > 0 and post % cfg.thin == 0:
                with tracer.span("gibbs.snapshot"):
                    snapshots.append(gibbs._snapshot(state))
            if telemetry is not None:
                with tracer.span("gibbs.loglik"):
                    loglik = gibbs.data_log_likelihood(state, data)
                telemetry.write(telemetry_line(state, loglik))
            if checkpoint_path is not None and checkpoint_every is not None \
                    and state.sweep % checkpoint_every == 0 \
                    and state.sweep < total:
                with tracer.span("gibbs.checkpoint"):
                    gibbs.save_checkpoint(checkpoint_path, state, rng, cfg,
                                          snapshots)
                gauges.checkpoint_bytes += os.path.getsize(checkpoint_path)
        with tracer.span("gibbs.snapshot"):
            draws = gibbs.PosteriorDraws.from_snapshots(data.times,
                                                        snapshots, cfg)
    return draws, state


def _traced_sweep(state, data, cfg, rng, tracer, gauges, updates) -> None:
    mh = state.mh
    hyper_before = (mh.proposals_theta, mh.accepts_theta,
                    mh.proposals_c, mh.accepts_c)
    m_before = state.m
    atoms_before = None
    with tracer.span("gibbs.sweep"):
        for name, fn in updates:
            # only references and small copies inside the sweep span
            if name == "gibbs.latents":
                d_before = state.trans_d
            elif name == "gibbs.membership":
                u_before = state.u.copy()
            elif name == "gibbs.swaps":
                atoms_before = state.atoms.copy()
            with tracer.span(name):
                fn(state, data, cfg, rng)
            if name == "gibbs.slice":
                m_sliced = state.m
        state.sweep += 1
    # Later updates in the sweep only permute latent rows in place and
    # leave u alone, so the state read here still holds what each
    # update produced.
    gauges.sweeps += 1
    gauges.m_sum += m_sliced
    gauges.grown += max(0, m_sliced - m_before)
    gauges.dropped += max(0, m_before - m_sliced)
    gauges.latents(d_before, state, cfg.trans_slice_eta)
    gauges.retries += int(np.sum(state.u != u_before))
    if atoms_before is not None and len(atoms_before) >= 2:
        gauges.proposals += len(atoms_before) - 1
        gauges.moved += Gauges.swap_moves(atoms_before, state.atoms)
    gauges.prop_theta += mh.proposals_theta - hyper_before[0]
    gauges.acc_theta += mh.accepts_theta - hyper_before[1]
    gauges.prop_c += mh.proposals_c - hyper_before[2]
    gauges.acc_c += mh.accepts_c - hyper_before[3]


SWEEP_LAYERS = ("slice", "latents", "sticks", "atoms", "hyper", "membership",
                "swaps")


def layer_metrics(tracer: Tracer, gauges: Gauges) -> dict:
    """Per-layer numbers of one traced chain; times are self times."""
    total, self_s, calls = tracer.totals()
    sweeps = max(1, gauges.sweeps)
    sweep_s = total.get("gibbs.sweep", 0.0)
    out = {f"gibbs.{layer}.ms": 1e3 * self_s.get(f"gibbs.{layer}", 0.0)
           / sweeps for layer in SWEEP_LAYERS}
    out.update({
        "gibbs.sweep.ms": 1e3 * sweep_s / sweeps,
        # sweep time no layer span covers: loop glue and gauge captures
        "trace.remainder_frac":
            self_s.get("gibbs.sweep", 0.0) / sweep_s if sweep_s else 0.0,
        "gibbs.latents.cells": gauges.cells / sweeps,
        "gibbs.latents.d_max": gauges.d_max_sum / sweeps,
        "gibbs.latents.d_mean": gauges.d_sum / max(1, gauges.cells),
        "gibbs.latents.padded_points": gauges.padded / sweeps,
        "gibbs.latents.useful_frac": gauges.useful / max(1, gauges.padded),
        "gibbs.latents.ns_per_point":
            1e9 * self_s.get("gibbs.latents", 0.0) / max(1, gauges.padded),
        "gibbs.slice.m_mean": gauges.m_sum / sweeps,
        "gibbs.slice.grown": gauges.grown,
        "gibbs.slice.dropped": gauges.dropped,
        "wf.sample_nb.calls": calls.get("wf.sample_nb", 0),
        "wf.sample_nb.ms": 1e3 * total.get("wf.sample_nb", 0.0),
        "wf.sample_nb.distinct_keys": len(gauges.nb_keys),
        "gibbs.swaps.proposals": gauges.proposals,
        "gibbs.swaps.moved": gauges.moved,
        "gibbs.membership.retries": gauges.retries,
        "gibbs.hyper.acc_theta": gauges.acc_theta / max(1, gauges.prop_theta),
        "gibbs.hyper.acc_c": gauges.acc_c / max(1, gauges.prop_c),
        "gibbs.init.ms": 1e3 * self_s.get("gibbs.init", 0.0),
        "gibbs.snapshot.ms": 1e3 * total.get("gibbs.snapshot", 0.0),
        "gibbs.loglik.ms": 1e3 * total.get("gibbs.loglik", 0.0) / sweeps,
        "gibbs.checkpoint.ms": 1e3 * total.get("gibbs.checkpoint", 0.0),
        "gibbs.checkpoint.bytes": gauges.checkpoint_bytes,
    })
    return out


def traced_pass(workload: str, scale: str, seed: int, work: Path,
                inject: bool) -> dict:
    """Traced half of a traced run, on the reference pass's inputs."""
    if workload == "validate":
        tracer = Tracer()
        res = harness.validate_pass(scale, inject, tracer)
        _, self_s, _ = tracer.totals()
        res["layers"] = {f"{name}.ms": 1e3 * s for name, s in self_s.items()}
        return res
    spec = harness.SPECS[scale][workload]
    cfg = harness.sampler_config(workload, spec)
    readme = workload == "readme"
    tally = harness.Tally()
    layers: dict = {}

    data = harness.make_dataset(spec, seed, 0)
    csv = work / "data_traced.csv"
    start = time.perf_counter()
    data.to_csv(csv)
    layers["data.csv_write_ms"] = 1e3 * (time.perf_counter() - start)
    start = time.perf_counter()
    data = TimeGridDataset.from_csv(csv)
    layers["data.csv_read_ms"] = 1e3 * (time.perf_counter() - start)

    tracer = Tracer()
    gauges = Gauges()
    with open(work / "telemetry_traced.log", "w", encoding="utf-8") as tel:
        start = time.perf_counter()
        draws, state = traced_run_chain(
            data, cfg, tracer, gauges, telemetry=tel if readme else None,
            **harness.side_outputs(workload, work, "traced"))
        wall = time.perf_counter() - start
    for _ in range(gauges.sweeps):
        tally.op(True)
    tally.check("invariants", lambda: harness.check_invariants(
        (state, data, cfg), inject))
    layers.update(layer_metrics(tracer, gauges))

    archive = work / "draws_traced.npz"
    start = time.perf_counter()
    draws.save(archive)
    layers["gibbs.archive.save_ms"] = 1e3 * (time.perf_counter() - start)
    layers["gibbs.archive.bytes"] = archive.stat().st_size
    start = time.perf_counter()
    loaded = gibbs.PosteriorDraws.load(archive)
    layers["gibbs.archive.load_ms"] = 1e3 * (time.perf_counter() - start)

    if readme:
        grid = np.linspace(*harness.README_GRID)
        start = time.perf_counter()
        surface = summarize(loaded, grid)
        layers["estimation.summarize_ms"] = 1e3 * (time.perf_counter() - start)
        start = time.perf_counter()
        surface.to_density_csv(work / "surface.density.csv")
        surface.to_mean_csv(work / "surface.mean.csv")
        surface.to_json(work / "surface.json")
        layers["estimation.export_ms"] = 1e3 * (time.perf_counter() - start)
        # computed, not measured: the draws x times x grid float64 array
        layers["estimation.dens_bytes"] = \
            loaded.n_draws * len(loaded.times) * len(grid) * 8
        tally.check("density_mass",
                    lambda: harness.check_density_mass(surface))
    return {"wall_s": wall, "archive": str(archive), "layers": layers,
            **tally.counts()}
